"""The load generators: one closed loop, one open loop.

Both drive pre-built :class:`Step` s (a callable per request, bodies
and expected answers bound before the clock starts) and never retry:
whatever a step returns short of "all correct" — a transport error, a
5xx, a 429, a timeout, an answer that differs from the oracle's — is
a failed op.

The open loop sends on a schedule regardless of completions, as
independent users do, and times every request **from its due time**:
when the system stalls, the requests queued behind the stall carry
the wait in their latency instead of hiding it (coordinated omission).
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from typing import Callable, List, Optional, Sequence, Tuple

__all__ = ["Step", "Phase", "Span", "run_closed", "run_open",
           "poisson_schedule"]

#: ``(name, op id, start, end)`` on the ``time.perf_counter`` clock.
Span = Tuple[str, int, float, float]


class Step:
    """One request (or one pipelined window) ready to send.

    :param name: span name, e.g. ``"rest.admit"``.
    :param op: op id shared by the steps of one lifecycle/round.
    :param send: performs the request and returns how many of its
        ``ops`` were answered correctly.
    :param ops: protocol operations the step carries (64 for a
        pipelined window, 1 for a single request).
    :param is_admit: its latency is an ``admit_*`` sample.
    """

    __slots__ = ("name", "op", "send", "ops", "is_admit")

    def __init__(self, name: str, op: int, send: Callable[[], int], *,
                 ops: int = 1, is_admit: bool = False) -> None:
        self.name = name
        self.op = op
        self.send = send
        self.ops = ops
        self.is_admit = is_admit


@dataclass
class Phase:
    """What one timed phase observed."""

    wall: float = 0.0
    attempted: int = 0
    correct: int = 0
    admit_latencies: List[float] = field(default_factory=list)
    #: How late each open-loop request left, seconds (closed: empty).
    lateness: List[float] = field(default_factory=list)
    #: First few exception texts, for the failure report.
    errors: List[str] = field(default_factory=list)

    @property
    def failed(self) -> int:
        return self.attempted - self.correct

    def merge(self, other: "Phase") -> None:
        self.attempted += other.attempted
        self.correct += other.correct
        self.admit_latencies.extend(other.admit_latencies)
        self.lateness.extend(other.lateness)
        self.errors.extend(other.errors)


def _send(step: Step, phase: Phase) -> None:
    """Send one step, booking its outcome (never raises)."""
    phase.attempted += step.ops
    try:
        phase.correct += step.send()
    except Exception as exc:  # noqa: BLE001 - any error is a failed op
        if len(phase.errors) < 5:
            phase.errors.append(f"{step.name}#{step.op}: {exc!r}")


def run_closed(steps: Sequence[Step],
               spans: Optional[List[Span]] = None) -> Phase:
    """One caller, next request only after the previous reply."""
    phase = Phase()
    latencies = phase.admit_latencies
    clock = time.perf_counter
    began = clock()
    for step in steps:
        start = clock()
        _send(step, phase)
        end = clock()
        if step.is_admit:
            latencies.append(end - start)
        if spans is not None:
            spans.append((step.name, step.op, start, end))
    phase.wall = clock() - began
    return phase


def poisson_schedule(rng, rate: float, count: int) -> List[float]:
    """*count* due times (seconds from the phase start) of a Poisson
    process of *rate* per second, given that it has *count* arrivals
    in ``count / rate`` seconds: those are *count* independent uniform
    times, sorted.  Every seed then offers exactly the same load over
    exactly the same span (free-running exponential gaps made one
    seed's 2 000 requests 4 % denser than another's)."""
    span = count / rate
    return sorted(rng.uniform(0.0, span) for _ in range(count))


def run_open(schedules: Sequence[Sequence[Tuple[float, Step]]],
             spans: Optional[List[Span]] = None) -> Phase:
    """One thread per schedule, each sending its steps at their due
    times over its own connection.  Latency runs from the due time."""
    phases = [Phase() for _ in schedules]
    thread_spans: List[List[Span]] = [[] for _ in schedules]
    ends = [0.0] * len(schedules)
    barrier = threading.Barrier(len(schedules) + 1)
    origin = [0.0]
    clock = time.perf_counter

    def generator(index: int) -> None:
        phase = phases[index]
        mine = thread_spans[index]
        barrier.wait()
        zero = origin[0]
        for due, step in schedules[index]:
            due += zero
            wait = due - clock()
            if wait > 0:
                time.sleep(wait)
            start = clock()
            _send(step, phase)
            end = clock()
            phase.lateness.append(max(0.0, start - due))
            if step.is_admit:
                phase.admit_latencies.append(end - due)
            if spans is not None:
                mine.append((step.name, step.op, start, end))
        ends[index] = clock()

    threads = [
        threading.Thread(target=generator, args=(index,), daemon=True,
                         name=f"loadgen-{index}")
        for index in range(len(schedules))
    ]
    for thread in threads:
        thread.start()
    origin[0] = clock()
    barrier.wait()
    for thread in threads:
        thread.join()
    total = Phase(wall=max(ends) - origin[0])
    for phase in phases:
        total.merge(phase)
    if spans is not None:
        for mine in thread_spans:
            spans.extend(mine)
    return total
