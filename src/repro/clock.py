"""One clock and one retry policy for every timed loop in the package.

Every sleep, poll, deadline and backoff in the signaling tiers goes
through this module (the constants each caller uses are tabled in
DESIGN.md).  :func:`now`, :func:`sleep` and :func:`wait` are module
attributes that :func:`use` rebinds, so a test runs a resend schedule,
a redial window or a restart backoff on a :class:`FakeClock` without
sleeping.  Call them through the module (``clock.now()``): a name
imported with ``from repro.clock import now`` cannot see the swap.
The real :func:`now` *is* :func:`time.monotonic` — no wrapper call.
"""

from __future__ import annotations

import contextlib
import random
import threading
import time
from dataclasses import dataclass
from typing import Any, Callable, Iterator, Optional, TypeVar

__all__ = ["Backoff", "Deadline", "FakeClock", "now", "poll", "sleep",
           "use", "wait"]

T = TypeVar("T")

now: Callable[[], float] = time.monotonic
sleep: Callable[[float], None] = time.sleep


def wait(waitable: Any, timeout: Optional[float]) -> bool:
    """``waitable.wait(timeout)``: an event (whether it is set) or a
    held condition."""
    return waitable.wait(timeout)


class Deadline:
    """A point *seconds* from now on the current clock."""

    __slots__ = ("at",)

    def __init__(self, seconds: float) -> None:
        self.at = now() + seconds

    def remaining(self) -> float:
        return max(self.at - now(), 0.0)

    @property
    def expired(self) -> bool:
        return now() >= self.at


def poll(ready: Callable[[], T], timeout: float, interval: float) -> T:
    """Call *ready* every *interval* seconds until it returns a true
    value or *timeout* has passed; returns its last value."""
    deadline = Deadline(timeout)
    while True:
        value = ready()
        if value or deadline.expired:
            return value
        sleep(interval)


@dataclass(frozen=True)
class Backoff:
    """Attempt *n* waits ``min(cap, base·2^(n−1))``, scaled by a jitter
    factor in [0.5, 1) when an *rng* is given, and never less than a
    peer's *hint* (a ``retry_after``)."""

    base: float
    cap: float
    rng: Optional[random.Random] = None

    def delay(self, attempt: int, hint: float = 0.0) -> float:
        # A clamped exponent saturates at the cap instead of overflowing.
        delay = min(self.cap, self.base * 2 ** min(attempt - 1, 64))
        if self.rng is not None:
            delay *= 0.5 + self.rng.random() / 2.0
        return max(hint, delay)


class FakeClock:
    """Manual time.  On the thread that installed it, :meth:`sleep`
    and :meth:`wait` return at once and advance :meth:`now` by what they
    would have waited (nothing, for an event already set); other
    threads wait in real time, so a stray daemon thread cannot move a
    test's clock.  It starts at the real clock's reading, so deadlines
    taken before the swap stay meaningful."""

    def __init__(self) -> None:
        self.t = time.monotonic()
        self.owner: Optional[int] = None
        #: Every duration the owner slept or waited, in order.
        self.slept: list = []

    def now(self) -> float:
        return self.t

    def sleep(self, seconds: float) -> None:
        if threading.get_ident() != self.owner:
            time.sleep(seconds)
            return
        self.slept.append(seconds)
        self.t += max(seconds, 0.0)

    def wait(self, waitable: Any, timeout: Optional[float]) -> bool:
        if threading.get_ident() != self.owner:
            return waitable.wait(timeout)
        is_set = getattr(waitable, "is_set", lambda: False)
        if not is_set():
            self.sleep(timeout)
        return is_set()


@contextlib.contextmanager
def use(fake: FakeClock) -> Iterator[FakeClock]:
    """Run the block on *fake*: every :func:`now`, :func:`sleep` and
    :func:`wait` in the package reads it until the block exits."""
    global now, sleep, wait
    saved = now, sleep, wait
    fake.owner = threading.get_ident()
    now, sleep, wait = fake.now, fake.sleep, fake.wait
    try:
        yield fake
    finally:
        now, sleep, wait = saved
