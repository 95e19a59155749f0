"""VT-EDF schedulability ledger (eq. (5)) — evaluated by the broker.

Under the paper's architecture, core routers never run admission
tests; the broker keeps, for every **delay-based** link, a ledger of
the reservations ``(r_j, d_j, L_j)`` traversing it and evaluates the
VT-EDF schedulability condition

``sum_j [r_j (t - d_j) + L_j] 1{t >= d_j} <= C t   for all t >= 0``

The left-hand side is piecewise linear in ``t`` with breakpoints at
the distinct deadlines, so the condition holds everywhere iff it holds
at every breakpoint **and** the aggregate rate does not exceed the
capacity (the slope condition as ``t -> inf``).

The central quantity is the **residual service**

``W(t) = C t - sum_{j: d_j <= t} [r_j (t - d_j) + L_j]``

(called ``S_i^k`` in the paper when evaluated at an existing deadline
``d_i^k``): the service slack available at time-scale ``t``. A new
reservation ``(r, d, L)`` is admissible iff

* ``W(d) >= L``                       (its own deadline), and
* ``W(d^k) >= r (d^k - d) + L``       for every existing ``d^k >= d``,
* ``sum_j r_j + r <= C``              (the slope condition).

The same condition, with per-hop reshaping to the reserved-rate
envelope ``(r_j, L_j)``, is the classical RC-EDF schedulability test,
so the IntServ baseline reuses this ledger.

Incremental engine
------------------

The distinct-deadline aggregates live in a Fenwick (binary indexed)
tree over the sorted *slot* array, so ``add``/``remove``/
``update_rate`` and the ``W(t)`` prefix queries are O(log M) in the
number of distinct deadlines M — instead of the rebuild-the-world
prefix-sum pass a mutation used to trigger.  Two escape hatches keep
the slot array append-only between compactions:

* a new deadline that does not extend the sorted slot array lands in
  a small sorted **overflow** side-table, scanned linearly by queries;
* a bucket whose last reservation leaves becomes a **tombstone**: its
  aggregates are subtracted from the tree but its slot remains, so a
  deadline that churns (teardown then re-admit, the common service
  workload) reuses its slot with two O(log M) point updates.

A **lazy compaction** (O(M), counted in
:attr:`DeadlineLedger.compactions`) re-sorts the slots only when the
overflow or tombstone population outgrows fixed bounds, or after a
fixed budget of point updates (which also re-derives every tree node
from the bucket aggregates, bounding floating-point drift).  Every
mutation that does *not* compact counts in
:attr:`DeadlineLedger.incremental_updates` — each one is a full
prefix rebuild the pre-incremental ledger would have paid.

``admissible()`` and ``is_schedulable()`` are single linear sweeps
over the breakpoints with O(1) work per step (a running-aggregate
fold), instead of one bisect-backed prefix query per breakpoint.
They walk a sorted mirror of the live buckets' aggregates, kept
beside the tree, so a step neither merges slots with the overflow
table nor meets a tombstone; the tree seeds each sweep.

Every mutation also appends a ``(version, deadline, set_change)``
event to a bounded ring buffer.  Path-level caches subscribe via
:meth:`DeadlineLedger.events_since` and fold the deltas into their
merged breakpoint view instead of re-merging every hop (see
:meth:`repro.core.mibs.PathRecord.deadline_breakpoints`); a
subscriber that falls behind the window is told to rebuild.
"""

from __future__ import annotations

import bisect
import math
from collections import deque
from dataclasses import dataclass
from typing import (
    Deque,
    Dict,
    List,
    Optional,
    Tuple,
)

from repro.errors import ConfigurationError, StateError

__all__ = ["DeadlineLedger", "LedgerEntry", "LedgerEvent"]

#: Overflow deadlines tolerated before a compaction re-sorts the slots.
_OVERFLOW_LIMIT = 64
#: Tombstoned slots tolerated (beyond the live count) before compaction.
_TOMBSTONE_LIMIT = 64
#: Point updates between drift-bounding compactions (amortized O(1)).
_COMPACT_PERIOD = 4096
#: Mutation events retained for delta subscribers (ring buffer).
_EVENT_WINDOW = 256


@dataclass(frozen=True)
class LedgerEntry:
    """One reservation known to the ledger."""

    key: str
    rate: float
    deadline: float
    max_packet: float


#: One mutation, as published to delta subscribers:
#: ``(version, deadline, set_change)`` where ``set_change`` is +1 when
#: the mutation created a distinct deadline, -1 when it retired one,
#: and 0 when only the aggregates at an existing deadline moved.  In
#: every case the residual service ``W(t)`` changed for ``t >=
#: deadline`` and is unchanged below it — the fold watermark.
LedgerEvent = Tuple[int, float, int]


class _DeadlineBucket:
    """Aggregate of all reservations sharing one distinct deadline."""

    __slots__ = ("deadline", "sum_rate", "sum_rate_deadline", "sum_packet", "count")

    def __init__(self, deadline: float) -> None:
        self.deadline = deadline
        self.sum_rate = 0.0
        self.sum_rate_deadline = 0.0
        self.sum_packet = 0.0
        self.count = 0

    def add(self, rate: float, max_packet: float) -> None:
        self.sum_rate += rate
        self.sum_rate_deadline += rate * self.deadline
        self.sum_packet += max_packet
        self.count += 1

    def remove(self, rate: float, max_packet: float) -> None:
        self.sum_rate -= rate
        self.sum_rate_deadline -= rate * self.deadline
        self.sum_packet -= max_packet
        self.count -= 1


class DeadlineLedger:
    """Reservation ledger for one delay-based link of capacity ``C``.

    Maintains the distinct-deadline buckets behind a Fenwick tree so
    that mutations and ``W(t)`` queries are amortized ``O(log M)`` and
    admission tests are ``O(M)`` in the number of *distinct* deadlines
    — the complexity the paper claims for the Figure 4 algorithm —
    with no rebuild-the-world pass on the mutation path.

    :param capacity: link capacity ``C`` in bits/s.
    """

    def __init__(self, capacity: float) -> None:
        if capacity <= 0:
            raise ConfigurationError(f"capacity must be positive, got {capacity}")
        self.capacity = float(capacity)
        self._entries: Dict[str, LedgerEntry] = {}
        # Buckets for every slot/overflow deadline, tombstones included.
        self._buckets: Dict[float, _DeadlineBucket] = {}
        # Sorted deadlines with Fenwick positions (may hold tombstones).
        self._slots: List[float] = []
        self._slot_index: Dict[float, int] = {}
        # Sorted deadlines not yet in the tree (scanned by queries).
        self._overflow: List[float] = []
        # Fenwick arrays, 1-indexed (index 0 unused).
        self._bit_rate: List[float] = [0.0]
        self._bit_rd: List[float] = [0.0]
        self._bit_pkt: List[float] = [0.0]
        # The live buckets (count > 0) as sorted ``(deadline, sum_rate,
        # sum_rate_deadline, sum_packet)`` rows: what the linear sweeps
        # walk, free of tombstones and of the slot/overflow split.
        self._live: List[Tuple[float, float, float, float]] = []
        self._total_rate = 0.0
        self._ops_since_compact = 0
        self.version = 0  # bumped on every mutation (path-cache invalidation)
        self._events: Deque[LedgerEvent] = deque(maxlen=_EVENT_WINDOW)
        #: Mutations absorbed as O(log M) point updates — each one a
        #: full prefix rebuild the pre-incremental ledger paid.
        self.incremental_updates = 0
        #: Lazy O(M) index compactions (overflow/tombstone/drift bound).
        self.compactions = 0

    # ------------------------------------------------------------------
    # Fenwick tree primitives
    # ------------------------------------------------------------------

    def _bit_prefix(self, count: int) -> Tuple[float, float, float]:
        """Aggregates over the first *count* slots (tombstones included)."""
        rate = rd = pkt = 0.0
        bit_rate, bit_rd, bit_pkt = self._bit_rate, self._bit_rd, self._bit_pkt
        index = count
        while index > 0:
            rate += bit_rate[index]
            rd += bit_rd[index]
            pkt += bit_pkt[index]
            index -= index & -index
        return rate, rd, pkt

    def _bit_update(self, pos: int, d_rate: float, d_rd: float,
                    d_pkt: float) -> None:
        """Point-update slot *pos* (0-based) by the given deltas."""
        size = len(self._slots)
        bit_rate, bit_rd, bit_pkt = self._bit_rate, self._bit_rd, self._bit_pkt
        index = pos + 1
        while index <= size:
            bit_rate[index] += d_rate
            bit_rd[index] += d_rd
            bit_pkt[index] += d_pkt
            index += index & -index

    def _bit_append_zero(self) -> None:
        """Grow the tree by one (empty) trailing slot in O(log M)."""
        index = len(self._slots)  # new 1-based size
        low = index & -index
        if low == 1:
            self._bit_rate.append(0.0)
            self._bit_rd.append(0.0)
            self._bit_pkt.append(0.0)
            return
        # The new node covers (index-low, index]; its children already
        # hold (index-low, index-1] and the appended value is zero.
        r1, rd1, p1 = self._bit_prefix(index - 1)
        r0, rd0, p0 = self._bit_prefix(index - low)
        self._bit_rate.append(r1 - r0)
        self._bit_rd.append(rd1 - rd0)
        self._bit_pkt.append(p1 - p0)

    # ------------------------------------------------------------------
    # slot/overflow placement and compaction
    # ------------------------------------------------------------------

    def _place_new_deadline(self, deadline: float) -> None:
        """Make room for a first-seen distinct deadline."""
        if not self._slots or deadline > self._slots[-1]:
            self._slot_index[deadline] = len(self._slots)
            self._slots.append(deadline)
            self._bit_append_zero()
        else:
            bisect.insort(self._overflow, deadline)

    def _tombstones(self) -> int:
        return len(self._slots) + len(self._overflow) - len(self._live)

    def _compact(self) -> None:
        """Re-sort live deadlines into fresh slots, rebuild the tree.

        O(M); resets overflow, tombstones and accumulated
        floating-point drift (every tree node is re-derived from the
        bucket aggregates).  Does **not** bump the version: nothing
        observable changed beyond last-ulp regrouping.
        """
        live = sorted(
            d for d, bucket in self._buckets.items() if bucket.count > 0
        )
        self._buckets = {d: self._buckets[d] for d in live}
        self._slots = live
        self._slot_index = {d: i for i, d in enumerate(live)}
        self._overflow = []
        size = len(live)
        bit_rate = [0.0] * (size + 1)
        bit_rd = [0.0] * (size + 1)
        bit_pkt = [0.0] * (size + 1)
        for i, d in enumerate(live):
            bucket = self._buckets[d]
            bit_rate[i + 1] += bucket.sum_rate
            bit_rd[i + 1] += bucket.sum_rate_deadline
            bit_pkt[i + 1] += bucket.sum_packet
        for index in range(1, size + 1):
            parent = index + (index & -index)
            if parent <= size:
                bit_rate[parent] += bit_rate[index]
                bit_rd[parent] += bit_rd[index]
                bit_pkt[parent] += bit_pkt[index]
        self._bit_rate, self._bit_rd, self._bit_pkt = bit_rate, bit_rd, bit_pkt
        self._ops_since_compact = 0
        self.compactions += 1

    def _finish_mutation(self, bucket: _DeadlineBucket, set_change: int) -> None:
        """Mirror *bucket* into the live rows, publish the event."""
        deadline = bucket.deadline
        index = bisect.bisect_left(self._live, (deadline,))
        if set_change < 0:
            del self._live[index]
        else:
            row = (deadline, bucket.sum_rate, bucket.sum_rate_deadline,
                   bucket.sum_packet)
            if set_change > 0:
                self._live.insert(index, row)
            else:
                self._live[index] = row
        self.version += 1
        self._events.append((self.version, deadline, set_change))
        self._ops_since_compact += 1
        if (
            len(self._overflow) > _OVERFLOW_LIMIT
            or self._tombstones() > _TOMBSTONE_LIMIT + len(self._live)
            or self._ops_since_compact >= _COMPACT_PERIOD
        ):
            self._compact()
        else:
            self.incremental_updates += 1

    # ------------------------------------------------------------------
    # mutation
    # ------------------------------------------------------------------

    def add(self, key: str, rate: float, deadline: float, max_packet: float) -> None:
        """Install reservation *key* = ``(rate, deadline, max_packet)``.

        :raises StateError: when *key* is already present.
        """
        if key in self._entries:
            raise StateError(f"reservation {key!r} already in ledger")
        if rate <= 0 or max_packet <= 0 or deadline < 0:
            raise ConfigurationError(
                f"invalid reservation ({rate=}, {deadline=}, {max_packet=})"
            )
        entry = LedgerEntry(key, float(rate), float(deadline), float(max_packet))
        self._entries[key] = entry
        d = entry.deadline
        bucket = self._buckets.get(d)
        if bucket is None:
            bucket = _DeadlineBucket(d)
            self._buckets[d] = bucket
            self._place_new_deadline(d)
        bucket.add(entry.rate, entry.max_packet)
        pos = self._slot_index.get(d)
        if pos is not None:
            self._bit_update(pos, entry.rate, entry.rate * d, entry.max_packet)
        self._total_rate += entry.rate
        # count == 1: new distinct deadline (or revived tombstone)
        self._finish_mutation(bucket, 1 if bucket.count == 1 else 0)

    def remove(self, key: str) -> LedgerEntry:
        """Remove reservation *key*, returning its entry.

        :raises StateError: when *key* is unknown.
        """
        entry = self._entries.pop(key, None)
        if entry is None:
            raise StateError(f"reservation {key!r} not in ledger")
        d = entry.deadline
        bucket = self._buckets[d]
        bucket.remove(entry.rate, entry.max_packet)
        pos = self._slot_index.get(d)
        if pos is not None:
            self._bit_update(pos, -entry.rate, -entry.rate * d,
                             -entry.max_packet)
        self._total_rate -= entry.rate
        # count == 0: tombstone, slot retained for reuse
        self._finish_mutation(bucket, -1 if bucket.count == 0 else 0)
        return entry

    def update_rate(self, key: str, rate: float) -> None:
        """Change the rate of an existing reservation (macroflow resizing).

        Mutates the deadline bucket in place — one O(log M) point
        update and exactly **one** version bump, so every path cache
        over this link folds a single delta instead of a remove/add
        pair.
        """
        entry = self._entries.get(key)
        if entry is None:
            raise StateError(f"reservation {key!r} not in ledger")
        if rate <= 0:
            raise ConfigurationError(f"rate must be positive, got {rate}")
        delta = float(rate) - entry.rate
        d = entry.deadline
        self._entries[key] = LedgerEntry(key, float(rate), d, entry.max_packet)
        bucket = self._buckets[d]
        bucket.sum_rate += delta
        bucket.sum_rate_deadline += delta * d
        pos = self._slot_index.get(d)
        if pos is not None:
            self._bit_update(pos, delta, delta * d, 0.0)
        self._total_rate += delta
        self._finish_mutation(bucket, 0)

    # ------------------------------------------------------------------
    # delta subscription
    # ------------------------------------------------------------------

    def events_since(self, version: int) -> Optional[Tuple[LedgerEvent, ...]]:
        """Mutation events after *version*, oldest first.

        Returns ``()`` when the subscriber is current, or ``None``
        when the ring buffer no longer covers the gap — the
        subscriber must then rebuild from scratch and resubscribe at
        :attr:`version`.
        """
        if version >= self.version:
            return ()
        collected: List[LedgerEvent] = []
        for event in reversed(self._events):
            if event[0] <= version:
                break
            collected.append(event)
        if not collected or collected[-1][0] != version + 1:
            return None  # window evicted the oldest needed event
        collected.reverse()
        return tuple(collected)

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------

    def __contains__(self, key: str) -> bool:
        return key in self._entries

    def __len__(self) -> int:
        return len(self._entries)

    def entry(self, key: str) -> LedgerEntry:
        """Look up a reservation by key."""
        try:
            return self._entries[key]
        except KeyError:
            raise StateError(f"reservation {key!r} not in ledger") from None

    @property
    def total_rate(self) -> float:
        """Aggregate reserved rate ``sum_j r_j``."""
        return self._total_rate

    @property
    def residual_rate(self) -> float:
        """``C - sum_j r_j`` — the slope-condition headroom."""
        return self.capacity - self._total_rate

    @property
    def distinct_deadlines(self) -> Tuple[float, ...]:
        """The sorted distinct (live) deadlines ``d^1 < ... < d^M``."""
        return tuple(row[0] for row in self._live)

    def _aggregates_upto(self, t: float) -> Tuple[float, float, float]:
        """``(sum r_j, sum r_j d_j, sum L_j)`` over flows with ``d_j <= t``."""
        rate, rd, pkt = self._bit_prefix(bisect.bisect_right(self._slots, t))
        if self._overflow:
            buckets = self._buckets
            for d in self._overflow:
                if d > t:
                    break
                bucket = buckets[d]
                rate += bucket.sum_rate
                rd += bucket.sum_rate_deadline
                pkt += bucket.sum_packet
        return rate, rd, pkt

    def _aggregates_below(self, t: float) -> Tuple[float, float, float]:
        """Like :meth:`_aggregates_upto` but over ``d_j < t`` strictly."""
        rate, rd, pkt = self._bit_prefix(bisect.bisect_left(self._slots, t))
        if self._overflow:
            buckets = self._buckets
            for d in self._overflow:
                if d >= t:
                    break
                bucket = buckets[d]
                rate += bucket.sum_rate
                rd += bucket.sum_rate_deadline
                pkt += bucket.sum_packet
        return rate, rd, pkt

    def residual_service(self, t: float) -> float:
        """``W(t) = C t - sum_{d_j <= t} [r_j (t - d_j) + L_j]``.

        The paper's ``S_i^k`` when *t* is an existing deadline.
        """
        if t < 0:
            raise ConfigurationError(f"time-scale must be >= 0, got {t}")
        rate, rate_deadline, packet = self._aggregates_upto(t)
        return self.capacity * t - (rate * t - rate_deadline + packet)

    def demand(self, t: float) -> float:
        """The schedulability left-hand side ``sum [r_j(t-d_j)+L_j] 1{...}``."""
        rate, rate_deadline, packet = self._aggregates_upto(t)
        return rate * t - rate_deadline + packet

    def segment_aggregates(self, t: float) -> Tuple[float, float, float]:
        """Aggregates over ``d_j <= t`` — the linear-segment coefficients.

        Returns ``(R, A, B)`` with ``W(s) = (C - R) s + A - B`` for any
        ``s`` in the open segment above *t* (no breakpoints crossed).
        """
        return self._aggregates_upto(t)

    def deadline_slacks(
        self, from_t: Optional[float] = None
    ) -> List[Tuple[float, float]]:
        """``(d^k, W(d^k))`` for the live deadlines ``d^k >= from_t``.

        One O(log M) prefix query seeds the running aggregates; every
        subsequent breakpoint costs O(1) — the linear-sweep primitive
        behind path-level breakpoint folding.
        """
        start = 0
        rate = rd = pkt = 0.0
        if from_t is not None:
            start = bisect.bisect_left(self._live, (from_t,))
            rate, rd, pkt = self._aggregates_below(from_t)
        capacity = self.capacity
        slacks = []
        for d, sum_rate, sum_rd, sum_pkt in self._live[start:]:
            rate += sum_rate
            rd += sum_rd
            pkt += sum_pkt
            slacks.append((d, capacity * d - (rate * d - rd + pkt)))
        return slacks

    def is_schedulable(self) -> bool:
        """Does the current reservation set satisfy eq. (5)?"""
        if self._total_rate > self.capacity * (1 + 1e-12):
            return False
        return all(
            slack >= -1e-9 for _d, slack in self.deadline_slacks()
        )

    def admissible(self, rate: float, deadline: float, max_packet: float) -> bool:
        """Would adding ``(rate, deadline, max_packet)`` keep eq. (5) true?

        This is the **local** (hop-by-hop) admission test — the broker's
        path-oriented algorithm avoids running it per hop, but it is
        the ground truth the path algorithm is tested against, and the
        IntServ baseline uses it directly.

        One prefix query at ``deadline`` seeds a linear sweep over the
        breakpoints above it: O(log M + K) with O(1) per breakpoint,
        instead of one prefix query per breakpoint.
        """
        slack = 1e-9 * self.capacity
        if self._total_rate + rate > self.capacity + slack:
            return False
        r_sum, rd_sum, p_sum = self._aggregates_upto(deadline)
        capacity = self.capacity
        # Own deadline: W(d) >= L.
        if capacity * deadline - (r_sum * deadline - rd_sum + p_sum) + 1e-9 < max_packet:
            return False
        # Every existing breakpoint above d, via a running-aggregate
        # sweep (a breakpoint equal to d is the own-deadline check).
        # (deadline, inf) sorts after the row at `deadline` itself.
        start = bisect.bisect_left(self._live, (deadline, math.inf))
        for d, sum_rate, sum_rd, sum_pkt in self._live[start:]:
            r_sum += sum_rate
            rd_sum += sum_rd
            p_sum += sum_pkt
            needed = rate * (d - deadline) + max_packet
            if capacity * d - (r_sum * d - rd_sum + p_sum) + 1e-9 < needed:
                return False
        return True
