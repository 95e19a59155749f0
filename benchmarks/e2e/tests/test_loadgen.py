"""The generators: closed-loop bookkeeping and open-loop timing from
the due time (coordinated omission must show, not hide)."""

import random
import threading
import time

from benchmarks.e2e.loadgen import (
    Step, poisson_schedule, run_closed, run_open,
)


class StubServer:
    """A serial server: one request at a time, each taking
    ``service`` seconds, except the ``stall_at``-th, which stalls."""

    def __init__(self, service=0.0005, stall_at=None, stall=0.05):
        self.lock = threading.Lock()
        self.service, self.stall_at, self.stall = service, stall_at, stall
        self.served = 0

    def handle(self) -> int:
        with self.lock:
            self.served += 1
            time.sleep(self.stall if self.served == self.stall_at
                       else self.service)
        return 1


def test_closed_loop_counts_failures_and_never_retries():
    calls = []

    def good():
        calls.append("good")
        return 1

    def wrong():
        calls.append("wrong")
        return 0

    def broken():
        calls.append("broken")
        raise OSError("connection reset")

    steps = [Step("t.admit", 0, good, is_admit=True),
             Step("t.admit", 1, wrong, is_admit=True),
             Step("t.teardown", 2, broken),
             Step("t.window", 3, lambda: 60, ops=64)]
    spans = []
    phase = run_closed(steps, spans)
    assert calls == ["good", "wrong", "broken"]
    assert (phase.attempted, phase.correct, phase.failed) == (67, 61, 6)
    assert len(phase.admit_latencies) == 2
    assert [span[:2] for span in spans] == [
        ("t.admit", 0), ("t.admit", 1), ("t.teardown", 2),
        ("t.window", 3)]
    assert "connection reset" in phase.errors[0]


def test_open_loop_times_from_the_due_time():
    """A 50 ms stall on request 3 must appear in the latency of the
    requests that were due while the server was stalled."""
    server = StubServer(stall_at=4)
    gap = 0.005
    schedule = [(gap * (i + 1), Step("t.admit", i, server.handle,
                                     is_admit=True))
                for i in range(30)]
    phase = run_open([schedule])
    assert phase.correct == 30
    latencies = phase.admit_latencies
    assert latencies[3] >= 0.05                      # the stalled one
    # Requests 4..8 were due 5..25 ms into the stall: each still owes
    # the rest of it, although its own service took half a millisecond.
    for later in range(4, 9):
        owed = 0.05 - gap * (later - 3)
        assert latencies[later] >= owed * 0.9, (later, latencies[later])
        assert phase.lateness[later] >= owed * 0.9 - 0.001
    # Before the stall, and once the backlog drained, latency is just
    # the service time again.
    assert max(latencies[:3]) < 0.01
    assert max(latencies[-5:]) < 0.01
    assert max(phase.lateness[:3]) < 0.005


def test_closed_loop_hides_the_same_stall():
    """The contrast: a closed loop only ever sees the one slow reply."""
    server = StubServer(stall_at=4)
    steps = [Step("t.admit", i, server.handle, is_admit=True)
             for i in range(30)]
    phase = run_closed(steps)
    slow = [lat for lat in phase.admit_latencies if lat >= 0.02]
    assert len(slow) == 1


def test_open_loop_runs_one_thread_per_schedule_concurrently():
    barrier = threading.Barrier(2, timeout=5.0)

    def meet():
        barrier.wait()          # deadlocks unless both are in flight
        return 1

    schedules = [[(0.01, Step("t.admit", slot, meet, is_admit=True))]
                 for slot in range(2)]
    phase = run_open(schedules)
    assert (phase.attempted, phase.correct) == (2, 2)


def test_poisson_schedule_is_seeded_and_has_the_right_rate():
    first = poisson_schedule(random.Random(7), 150.0, 3000)
    again = poisson_schedule(random.Random(7), 150.0, 3000)
    assert first == again
    assert all(b > a for a, b in zip(first, first[1:]))
    # Exactly the offered load, whatever the seed ...
    assert 0.0 <= first[0] and first[-1] <= 3000 / 150.0
    assert first[-1] > 0.99 * 3000 / 150.0
    # ... and exponential gaps: about 1/e of them exceed the mean.
    gaps = [b - a for a, b in zip(first, first[1:])]
    long = sum(1 for gap in gaps if gap > 1 / 150.0) / len(gaps)
    assert abs(long - 0.368) < 0.03
