"""The one clock and the one retry policy (:mod:`repro.clock`), and the
timing contracts of the loops that run on it.

Every test here runs on a :class:`~repro.clock.FakeClock`: sleeps and
waits move fake time forward at once, so a resend schedule, a redial
window, a restart backoff or a circuit breaker is checked over seconds
of fake time in milliseconds of wall time.  The reference formulas are
the ones each caller wrote out by hand before it shared
:class:`~repro.clock.Backoff`.
"""

from __future__ import annotations

import random
import threading
import time
from types import SimpleNamespace

import pytest

from repro import clock
from repro.clock import Backoff, Deadline, FakeClock
from repro.cluster.procs import ProcessSupervisor, _Child
from repro.cluster.remote import OpClient
from repro.edge import EdgeAgent, protocol
from repro.edge.agent import AgentTimeout
from repro.errors import SignalingError
from repro.service.transport import pipe_pair
from repro.soak.engine import _Driver
from repro.workloads.profiles import flow_type

SPEC = flow_type(0).spec


@pytest.fixture
def fake():
    """A fake clock installed for the test; the wall time the test took
    must stay far below the fake time it covered."""
    began = time.monotonic()
    with clock.use(FakeClock()) as fake:
        fake.start = fake.now()
        yield fake
    assert time.monotonic() - began < 1.0


def elapsed(fake: FakeClock) -> float:
    return fake.now() - fake.start


class TestClock:
    def test_use_swaps_and_restores_the_module_clock(self):
        real = clock.now
        fake = FakeClock()
        with clock.use(fake):
            before = clock.now()
            clock.sleep(3.0)
            assert clock.now() - before == pytest.approx(3.0)
            event = threading.Event()
            assert clock.wait(event, 2.0) is False
            event.set()
            assert clock.wait(event, 2.0) is True  # set: no time passes
            assert clock.now() - before == pytest.approx(5.0)
            assert fake.slept == [3.0, 2.0]
        assert clock.now is real

    def test_other_threads_wait_in_real_time(self, fake):
        """A stray thread's sleep must not move the test's fake time."""
        thread = threading.Thread(target=clock.sleep, args=(0.01,))
        thread.start()
        thread.join()
        assert elapsed(fake) == 0.0
        assert fake.slept == []

    def test_deadline_and_poll(self, fake):
        deadline = Deadline(2.0)
        assert deadline.remaining() == pytest.approx(2.0)
        clock.sleep(2.5)
        assert deadline.expired and deadline.remaining() == 0.0
        calls = []
        assert clock.poll(lambda: calls.append(1), 1.0, 0.25) is None
        assert len(calls) == 5  # at 0, 0.25, 0.5, 0.75, 1.0
        assert clock.poll(lambda: len(calls), 1.0, 0.25) == 5

    def test_backoff_formula(self):
        flat = Backoff(0.05, 0.5)
        assert [flat.delay(n) for n in range(1, 7)] == \
            [0.05, 0.1, 0.2, 0.4, 0.5, 0.5]
        assert flat.delay(3, hint=0.3) == 0.3
        assert flat.delay(3, hint=0.1) == 0.2
        assert flat.delay(10_000) == 0.5  # saturates, no overflow
        rng, ref = random.Random(9), random.Random(9)
        jittered = Backoff(0.01, 0.5, rng)
        for n in range(1, 12):
            base = min(0.5, 0.01 * 2 ** (n - 1))
            assert jittered.delay(n) == base * (0.5 + ref.random() / 2.0)


class TestEdgeAgentSchedule:
    def test_backoff_matches_the_seeded_formula(self):
        agent = EdgeAgent("edge-1", lambda: None, seed=11)
        ref = random.Random(11)
        for attempt, hint in [(1, 0.0), (2, 0.0), (3, 0.3), (4, 0.0),
                              (7, 0.0), (9, 2.0)]:
            base = min(agent.max_backoff,
                       agent.base_backoff * (2 ** (attempt - 1)))
            expected = max(hint, base * (0.5 + ref.random() / 2.0))
            assert agent._backoff(attempt, hint) == expected

    def test_silent_gateway_gets_the_same_key_until_the_budget(self, fake):
        """Against a gateway that welcomes the agent and then never
        answers, every round resends the *same* idempotency key after
        ``attempt_timeout`` of silence plus the seeded backoff, and the
        op raises :class:`AgentTimeout` exactly at its budget."""
        agent_end, gateway_end = pipe_pair()
        gateway_end.send(protocol.make_welcome(
            "gw", lease_duration=30.0, resumed=False))
        agent = EdgeAgent("edge-1", lambda: agent_end, seed=5)
        with pytest.raises(AgentTimeout, match="budget"):
            agent.admit("f1", SPEC, 2.44, "I1", "E1")
        assert elapsed(fake) == pytest.approx(agent.op_budget)

        sent = []
        while True:
            frame = gateway_end.recv(timeout=0)
            if frame is None:
                break
            sent.append(frame)
        assert sent[0]["type"] == "hello"
        admits = sent[1:]
        assert {frame["idem"] for frame in admits} == {"edge-1#1"}

        # The schedule the agent should have followed: each round
        # idles attempt_timeout (or what is left of the budget), then
        # backs off by the seeded jitter, clipped to the budget.
        rng = random.Random(5)
        budget, t, waits = agent.op_budget, 0.0, []
        round_starts = []
        attempt = 0
        while budget - t > 1e-9:
            round_starts.append(t)
            idle = min(budget - t, agent.attempt_timeout)
            attempt += 1
            base = min(agent.max_backoff,
                       agent.base_backoff * 2 ** (attempt - 1))
            pause = min(base * (0.5 + rng.random() / 2.0),
                        budget - t - idle)
            waits += [idle, pause]
            t += idle + pause
        assert len(admits) == len(round_starts) == agent.retries
        assert fake.slept == pytest.approx(waits)
        for frame, start in zip(admits, round_starts):
            assert frame["budget_ms"] == \
                pytest.approx((budget - start) * 1000.0)


class TestOpClientBudget:
    TABLE = {"status": ()}

    def test_dead_peer_redials_on_the_parent_schedule(self, fake):
        def dial():
            raise OSError("connection refused")

        client = OpClient("peer", self.TABLE, dial)
        with pytest.raises(SignalingError, match="redial window"):
            client.status()
        parent, delay = [], 0.05
        while sum(parent) < client.dial_timeout:
            parent.append(delay)
            delay = min(delay * 2, 0.5)
        assert fake.slept == parent
        assert elapsed(fake) == pytest.approx(sum(parent))
        assert elapsed(fake) <= client.dial_timeout + client.attempts * \
            client.timeout

    def test_peer_back_hung_at_the_window_end_costs_the_whole_bound(
            self, fake):
        """The documented worst case is tight: a peer that comes back
        just as the redial window closes, but never answers, fails the
        call at exactly ``dial_timeout + attempts * timeout``."""
        client_end, _peer_end = pipe_pair()
        client = OpClient("peer", self.TABLE, lambda: None)
        client.timeout = 2.0
        client.dial_timeout = 5.25  # a redial boundary: 0.75 + 9 * 0.5

        def dial():
            if elapsed(fake) < client.dial_timeout - 1e-9:
                raise OSError("connection refused")
            return client_end

        client._dial = dial
        with pytest.raises(SignalingError, match="no reply"):
            client.status()
        assert elapsed(fake) == pytest.approx(
            client.dial_timeout + client.attempts * client.timeout)
        assert client.resends == client.attempts - 1


class _Engine:
    paths = [("a", "b")]
    config = SimpleNamespace(op_attempts=3)


def _reply(status: int, retry_after: float = 0.0):
    return SimpleNamespace(status=status, retry_after=retry_after)


class TestSoakCircuitBreaker:
    EVENT = SimpleNamespace(path=0)

    def driver(self):
        return _Driver(0, _Engine(), [])

    def test_retry_waits_follow_the_parent_schedule(self, fake):
        driver = self.driver()
        replies = iter([_reply(502), _reply(429, 0.3), _reply(200)])
        assert driver._drive(None, self.EVENT,
                             lambda: next(replies)).status == 200
        # 502 after attempt 1: backoff 0.05; 429 after attempt 2:
        # max(retry_after, backoff 0.1), capped at 0.5.
        assert fake.slept == [0.05, 0.3]
        driver = self.driver()
        replies = iter([_reply(429, 2.0)] * 3)
        assert driver._drive(None, self.EVENT,
                             lambda: next(replies)) is None
        assert fake.slept[2:] == [0.5, 0.5, 0.5]

    def test_open_circuit_fails_fast_and_probes_once_per_interval(
            self, fake):
        driver = self.driver()
        sends = []

        def down():
            sends.append(clock.now())
            raise OSError("partitioned")

        for _ in range(driver.BREAKER_THRESHOLD):
            assert driver._drive(None, self.EVENT, down) is None
        assert len(sends) == driver.BREAKER_THRESHOLD * 3
        opened = clock.now()

        # Open: no send at all until the probe interval has passed.
        clock.sleep(driver.BREAKER_PROBE_INTERVAL - 0.5)
        assert driver._drive(None, self.EVENT, down) is None
        assert len(sends) == 6
        assert driver.outcomes["breaker_fast_fail"] == 1

        # One probe, which takes 1.5 s to fail.
        clock.sleep(0.5)

        def slow_down():
            sends.append(clock.now())
            clock.sleep(1.5)
            return _reply(504)

        assert driver._drive(None, self.EVENT, slow_down) is None
        assert len(sends) == 7
        assert sends[-1] - opened == pytest.approx(
            driver.BREAKER_PROBE_INTERVAL)
        # The next probe is timed from when that probe *returned*.
        clock.sleep(driver.BREAKER_PROBE_INTERVAL - 0.1)
        assert driver._drive(None, self.EVENT, down) is None
        assert len(sends) == 7
        clock.sleep(0.1)
        healed = []
        reply = driver._drive(
            None, self.EVENT, lambda: healed.append(1) or _reply(200))
        assert reply.status == 200 and healed == [1]
        assert driver._breakers[0][0] == 0
        assert elapsed(fake) >= 5.0

    def test_backpressure_never_opens_the_circuit(self, fake):
        driver = self.driver()
        for _ in range(3 * driver.BREAKER_THRESHOLD):
            assert driver._drive(
                None, self.EVENT, lambda: _reply(429, 0.5)) is None
        assert driver._breakers[0][0] == 0
        assert "breaker_fast_fail" not in driver.outcomes
        assert driver.outcomes["backpressured"] == \
            3 * driver.BREAKER_THRESHOLD * 3
        assert elapsed(fake) >= 5.0


class _DeadProcess:
    def is_alive(self):
        return False


class _UntilClock(FakeClock):
    """Sets the waited-on event (the supervisor's stop) once *done*."""

    def __init__(self, done):
        super().__init__()
        self.done = done

    def wait(self, waitable, timeout):
        if self.done():
            waitable.set()
        return super().wait(waitable, timeout)


class TestSupervisorSchedule:
    def test_restarts_back_off_exponentially_then_fail(self):
        supervisor = ProcessSupervisor(
            max_restarts=4, backoff=0.5, backoff_max=2.0,
            monitor_interval=0.001,
        )
        child = _Child(name="s0", target=None, spec=None,
                       restart_spec=None, process=_DeadProcess())
        supervisor._children["s0"] = child
        spawned = []

        def spawn(target, spec):
            spawned.append(clock.now())
            return _DeadProcess()

        supervisor._spawn = spawn
        began = time.monotonic()
        with clock.use(_UntilClock(lambda: child.failed)) as fake:
            start = fake.now()
            supervisor._monitor_loop()
        assert time.monotonic() - began < 1.0
        assert child.failed and child.restarts == 4
        assert supervisor.counters()["failed"] == ["s0"]
        # Each death is seen one monitor tick after its spawn; the
        # restart waits backoff * 2^n, capped at backoff_max.
        parent = [min(0.5 * 2 ** n, 2.0) for n in range(4)]
        gaps = [b - a for a, b in zip([start - 0.001] + spawned, spawned)]
        assert gaps == pytest.approx(
            [0.001 + delay for delay in parent], abs=0.0015)
        assert spawned[-1] - start >= 5.0
