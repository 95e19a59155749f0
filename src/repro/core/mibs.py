"""The broker's QoS state information bases (Section 2.2).

Three MIBs back the admission-control module:

* :class:`FlowMIB` — per-flow records: traffic profile, service
  profile (end-to-end delay requirement) and the granted reservation
  ``<r, d>``;
* :class:`NodeMIB` — per-link QoS state: capacity, scheduler type
  (rate- or delay-based), error term, propagation delay, current
  reservations — including, for delay-based links, the full
  :class:`~repro.core.schedulability.DeadlineLedger`;
* :class:`PathMIB` — per-path aggregates enabling the *path-oriented*
  admission tests: hop counts ``(h, q)``, ``D_tot``, the minimal
  residual bandwidth ``C_res`` and the merged deadline/residual-service
  breakpoints ``(d^m, S^m)`` of Section 3.2.

Path aggregates are cached and **delta-maintained**: every delay-based
link's ledger publishes per-mutation events (deadline added/removed,
slack changed; see
:meth:`~repro.core.schedulability.DeadlineLedger.events_since`), and a
path folds the deltas into its merged ``(d^m, S^m)`` breakpoint view —
recomputing only the slack suffix above the mutation watermark —
instead of re-merging every hop.  A full rebuild happens only on the
first query or when a subscription gap (the link's bounded event
window was outrun) makes folding unsafe.  Repeated admission tests on
a quiescent path stay O(1)/O(M) exactly as the paper claims, while a
reservation change costs the subscribers O(suffix) instead of
O(Q·M log M).

Locking contract (see :mod:`repro.service` for the concurrent
runtime):

* :class:`FlowMIB`, :class:`NodeMIB` and :class:`PathMIB` registries
  and their lifetime counters are guarded by internal locks, so
  registrations and the ``admitted_total``/``terminated_total``
  counters may be read and written from any thread;
* :class:`LinkQoSState` and :class:`PathRecord` are **not** internally
  locked — reservations on a link (and the version-cached aggregates
  of every path crossing it) must be serialized by the owner.  The
  service layer does this with per-shard locks over a partition of the
  links; single-threaded callers need nothing.
"""

from __future__ import annotations

import bisect
import math
import threading
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.errors import ConfigurationError, StateError, TopologyError
from repro.core.schedulability import DeadlineLedger
from repro.traffic.spec import TSpec
from repro.vtrs.delay_bounds import PathProfile
from repro.vtrs.timestamps import SchedulerKind

__all__ = [
    "LinkQoSState",
    "NodeMIB",
    "FlowRecord",
    "FlowMIB",
    "PathRecord",
    "PathMIB",
]


class LinkQoSState:
    """QoS state of one unidirectional link, as known to the broker.

    :param link_id: ``(src, dst)`` node-name pair.
    :param capacity: link bandwidth ``C`` (bits/s).
    :param kind: rate- or delay-based scheduler.
    :param error_term: the scheduler's ``Psi`` (seconds); defaults to
        ``max_packet / capacity``, the minimum for the core-stateless
        schedulers.
    :param propagation: ``pi`` to the next hop (seconds).
    :param max_packet: the largest packet size permissible on the link
        (bits) — enters both ``Psi`` and the macroflow core bounds.
    """

    def __init__(
        self,
        link_id: Tuple[str, str],
        capacity: float,
        kind: SchedulerKind,
        *,
        error_term: Optional[float] = None,
        propagation: float = 0.0,
        max_packet: float = 0.0,
    ) -> None:
        if capacity <= 0:
            raise ConfigurationError(f"capacity must be positive, got {capacity}")
        if propagation < 0:
            raise ConfigurationError(
                f"propagation must be >= 0, got {propagation}"
            )
        self.link_id = link_id
        self.capacity = float(capacity)
        self.kind = kind
        self.propagation = float(propagation)
        self.max_packet = float(max_packet)
        self.error_term = (
            float(error_term)
            if error_term is not None
            else self.max_packet / self.capacity
        )
        self._rates: Dict[str, float] = {}
        self._reserved = 0.0
        self.ledger: Optional[DeadlineLedger] = (
            DeadlineLedger(capacity) if kind is SchedulerKind.DELAY_BASED else None
        )
        self._version = 0

    # ------------------------------------------------------------------
    # reservations
    # ------------------------------------------------------------------

    @property
    def version(self) -> int:
        """Mutation counter, used by path-level caches."""
        ledger_version = self.ledger.version if self.ledger is not None else 0
        return self._version + ledger_version

    @property
    def reserved_rate(self) -> float:
        """Total reserved bandwidth on this link (bits/s)."""
        return self._reserved

    @property
    def residual_rate(self) -> float:
        """``C_res`` for this link: unreserved bandwidth (bits/s)."""
        return self.capacity - self._reserved

    def reserve(
        self,
        key: str,
        rate: float,
        *,
        deadline: float = 0.0,
        max_packet: float = 0.0,
    ) -> None:
        """Book *rate* b/s for reservation *key*.

        Delay-based links additionally record ``(deadline, max_packet)``
        in the schedulability ledger.
        """
        if key in self._rates:
            raise StateError(f"reservation {key!r} already on link {self.link_id}")
        if rate <= 0:
            raise ConfigurationError(f"rate must be positive, got {rate}")
        if self.ledger is not None:
            self.ledger.add(key, rate, deadline, max_packet or self.max_packet)
        self._rates[key] = rate
        self._reserved += rate
        self._version += 1

    def release(self, key: str) -> float:
        """Release reservation *key*; returns the freed rate."""
        rate = self._rates.pop(key, None)
        if rate is None:
            raise StateError(f"no reservation {key!r} on link {self.link_id}")
        if self.ledger is not None:
            self.ledger.remove(key)
        self._reserved -= rate
        self._version += 1
        return rate

    def adjust_rate(self, key: str, rate: float) -> None:
        """Resize reservation *key* to *rate* (macroflow growth/shrink)."""
        old = self._rates.get(key)
        if old is None:
            raise StateError(f"no reservation {key!r} on link {self.link_id}")
        if rate <= 0:
            raise ConfigurationError(f"rate must be positive, got {rate}")
        if self.ledger is not None:
            self.ledger.update_rate(key, rate)
        self._rates[key] = rate
        self._reserved += rate - old
        self._version += 1

    def rate_of(self, key: str) -> float:
        """Current reserved rate of *key* on this link."""
        try:
            return self._rates[key]
        except KeyError:
            raise StateError(
                f"no reservation {key!r} on link {self.link_id}"
            ) from None

    def holds(self, key: str) -> bool:
        """Is there a reservation for *key* on this link?"""
        return key in self._rates

    def reservation_keys(self) -> Tuple[str, ...]:
        """Keys of every current reservation (flows and 2PC holds)."""
        return tuple(self._rates)

    @property
    def reservation_count(self) -> int:
        """Number of reservations the broker tracks for this link."""
        return len(self._rates)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<LinkQoSState {self.link_id} C={self.capacity:.0f} "
            f"reserved={self._reserved:.0f} kind={self.kind.value}>"
        )


class NodeMIB:
    """The node QoS state information base: every link in the domain.

    Registration is lock-guarded; lookups are lock-free (a link, once
    registered, is never removed or replaced).
    """

    def __init__(self) -> None:
        self._links: Dict[Tuple[str, str], LinkQoSState] = {}
        self._lock = threading.Lock()

    def register_link(self, state: LinkQoSState) -> LinkQoSState:
        """Register a link's QoS state (once per link)."""
        with self._lock:
            if state.link_id in self._links:
                raise StateError(f"link {state.link_id} already registered")
            self._links[state.link_id] = state
        return state

    def link(self, src: str, dst: str) -> LinkQoSState:
        """Look up the state of link ``src -> dst``."""
        try:
            return self._links[(src, dst)]
        except KeyError:
            raise TopologyError(f"unknown link {src}->{dst}") from None

    def __contains__(self, link_id: Tuple[str, str]) -> bool:
        return link_id in self._links

    def __len__(self) -> int:
        return len(self._links)

    def links(self) -> Tuple[LinkQoSState, ...]:
        """All registered link states."""
        return tuple(self._links.values())


@dataclass
class FlowRecord:
    """One admitted flow as recorded in the flow MIB."""

    flow_id: str
    spec: TSpec
    delay_requirement: float
    path_id: str
    rate: float
    delay: float = 0.0
    class_id: str = ""
    admitted_at: float = 0.0


class FlowMIB:
    """The flow information base: all currently admitted flows.

    The registry and the ``admitted_total``/``terminated_total``
    lifetime counters are updated under an internal lock: per-flow and
    class-based admission running on disjoint link shards still share
    this one MIB, so :meth:`add`/:meth:`remove` must be safe from any
    worker thread.  Lookups stay lock-free (dict reads are atomic and
    records are immutable once inserted).
    """

    def __init__(self) -> None:
        self._flows: Dict[str, FlowRecord] = {}
        self._lock = threading.Lock()
        self.admitted_total = 0
        self.terminated_total = 0

    def add(self, record: FlowRecord) -> None:
        """Record an admitted flow."""
        with self._lock:
            if record.flow_id in self._flows:
                raise StateError(f"flow {record.flow_id!r} already recorded")
            self._flows[record.flow_id] = record
            self.admitted_total += 1

    def remove(self, flow_id: str) -> FlowRecord:
        """Remove a terminated flow, returning its record."""
        with self._lock:
            record = self._flows.pop(flow_id, None)
            if record is None:
                raise StateError(f"flow {flow_id!r} not in flow MIB")
            self.terminated_total += 1
        return record

    def get(self, flow_id: str) -> Optional[FlowRecord]:
        """Look up a flow record (None when absent)."""
        return self._flows.get(flow_id)

    def __contains__(self, flow_id: str) -> bool:
        return flow_id in self._flows

    def __len__(self) -> int:
        return len(self._flows)

    def records(self) -> Tuple[FlowRecord, ...]:
        """All active flow records."""
        return tuple(self._flows.values())


class PathRecord:
    """Path-level QoS state: the aggregates behind path-oriented admission.

    :param path_id: stable identifier (e.g. ``"I1->E1"``).
    :param nodes: node names, ingress first.
    :param links: the :class:`LinkQoSState` of every hop, in order.
    """

    def __init__(
        self, path_id: str, nodes: Sequence[str], links: Sequence[LinkQoSState]
    ) -> None:
        if len(nodes) != len(links) + 1:
            raise TopologyError(
                f"path {path_id!r}: {len(nodes)} nodes vs {len(links)} links"
            )
        if not links:
            raise TopologyError(f"path {path_id!r} has no links")
        self.path_id = path_id
        self.nodes = tuple(nodes)
        self.links = tuple(links)
        # Static aggregates: hop kinds, error terms, propagation and
        # permissible packet sizes never change after construction, so
        # the profile is computed once instead of re-scanned per call.
        self._delay_links = tuple(
            link for link in self.links
            if link.kind is SchedulerKind.DELAY_BASED
        )
        self._hops = len(self.links)
        self._rate_based_hops = self._hops - len(self._delay_links)
        self._d_tot = sum(
            link.error_term + link.propagation for link in self.links
        )
        self._max_packet = max(link.max_packet for link in self.links)
        self._profile = PathProfile(
            hops=self._hops,
            rate_based_hops=self._rate_based_hops,
            d_tot=self._d_tot,
            max_packet=self._max_packet,
        )
        prefix = [0]
        for link in self.links[:-1]:
            prefix.append(
                prefix[-1]
                + (1 if link.kind is SchedulerKind.RATE_BASED else 0)
            )
        self._rate_based_prefix = prefix
        self._cres_cache: Optional[Tuple[int, float]] = None
        # Delta-maintained merged breakpoints (Section 3.2): sorted
        # deadlines, aligned min-slacks, per-deadline contributing-link
        # refcounts, and the last folded ledger version per delay hop
        # (None until the first build).
        self._bp_list: List[float] = []
        self._bp_slack: List[float] = []
        self._bp_ref: Dict[float, int] = {}
        self._bp_versions: Optional[List[int]] = None
        self._bp_tuple: Optional[Tuple[Tuple[float, float], ...]] = None
        #: Engine counters (serialized with the path's mutations by the
        #: owner — see the locking contract in the module docstring).
        self.bp_delta_folds = 0
        self.bp_full_rebuilds = 0
        self.bp_cache_hits = 0
        self.scan_tests = 0
        self.scan_intervals = 0
        self.scan_early_breaks = 0
        self.scan_verifications = 0

    # ------------------------------------------------------------------
    # static aggregates
    # ------------------------------------------------------------------

    @property
    def hops(self) -> int:
        """Total number of schedulers ``h``."""
        return self._hops

    @property
    def rate_based_hops(self) -> int:
        """Number of rate-based schedulers ``q``."""
        return self._rate_based_hops

    @property
    def d_tot(self) -> float:
        """``D_tot = sum_i (Psi_i + pi_i)`` along the path."""
        return self._d_tot

    @property
    def max_packet(self) -> float:
        """``L_path`` — the largest permissible packet along the path."""
        return self._max_packet

    def profile(self) -> PathProfile:
        """The :class:`PathProfile` used by the delay-bound formulas.

        Computed once at construction (the inputs are immutable) and
        returned by reference — callers treat it as read-only.
        """
        return self._profile

    def rate_based_prefix(self) -> List[int]:
        """``q_i`` per hop, for edge-conditioner delta computation."""
        return list(self._rate_based_prefix)

    def delay_based_links(self) -> Tuple[LinkQoSState, ...]:
        """The delay-based hops, in path order."""
        return self._delay_links

    # ------------------------------------------------------------------
    # dynamic aggregates (version-cached)
    # ------------------------------------------------------------------

    def _version_sum(self) -> int:
        return sum(link.version for link in self.links)

    def residual_bandwidth(self) -> float:
        """``C_res`` — the minimal residual bandwidth along the path."""
        version = self._version_sum()
        if self._cres_cache is not None and self._cres_cache[0] == version:
            return self._cres_cache[1]
        value = min(link.residual_rate for link in self.links)
        self._cres_cache = (version, value)
        return value

    def deadline_breakpoints(self) -> Tuple[Tuple[float, float], ...]:
        """Merged ``(d^m, S^m)`` pairs over the path's delay-based hops.

        ``S^m`` is the minimum residual service ``W_i(d^m)`` over the
        delay-based schedulers that have a reservation with deadline
        ``d^m`` (the paper's definition in Section 3.2). Sorted by
        deadline.  The tuple is zipped from
        :meth:`deadline_breakpoint_columns` on demand and kept until
        the next mutation.
        """
        deadlines, slacks = self.deadline_breakpoint_columns()
        if self._bp_tuple is None:
            self._bp_tuple = tuple(zip(deadlines, slacks))
        return self._bp_tuple

    def deadline_breakpoint_columns(self) -> Tuple[List[float], List[float]]:
        """The merged breakpoints as aligned ``(d^m list, S^m list)``.

        What the Figure-4 scan reads; the lists are the record's own
        and must not be mutated.

        Delta-maintained: each call folds the ledger events published
        since the last one — refcounting deadline additions/removals
        and recomputing the min-slack only for the suffix at or above
        the lowest mutated deadline (``W`` is unchanged below it) —
        instead of re-merging every hop.  Falls back to a full rebuild
        only on the first call or when a link's bounded event window
        was outrun (subscription gap).
        """
        pending: List[Tuple[int, "DeadlineLedger", Tuple]] = []
        gap = self._bp_versions is None
        if not gap:
            for index, link in enumerate(self._delay_links):
                ledger = link.ledger
                assert ledger is not None
                if ledger.version == self._bp_versions[index]:
                    continue
                events = ledger.events_since(self._bp_versions[index])
                if events is None:
                    gap = True
                    break
                pending.append((index, ledger, events))
        if gap:
            self._bp_rebuild()
        elif pending:
            self._bp_fold(pending)
        else:
            self.bp_cache_hits += 1
        return self._bp_list, self._bp_slack

    def _bp_rebuild(self) -> None:
        """Full re-merge over every delay-based hop (O(Q·M))."""
        refs: Dict[float, int] = {}
        slacks: Dict[float, float] = {}
        versions: List[int] = []
        for link in self._delay_links:
            ledger = link.ledger
            assert ledger is not None
            versions.append(ledger.version)
            for deadline, slack in ledger.deadline_slacks():
                refs[deadline] = refs.get(deadline, 0) + 1
                current = slacks.get(deadline)
                if current is None or slack < current:
                    slacks[deadline] = slack
        self._bp_list = sorted(refs)
        self._bp_slack = [slacks[d] for d in self._bp_list]
        self._bp_ref = refs
        self._bp_versions = versions
        self._bp_tuple = None
        self.bp_full_rebuilds += 1

    def _bp_fold(self, pending) -> None:
        """Fold per-link mutation deltas into the merged view.

        First replays the set changes (deadline refcounts), then
        recomputes the min-slack suffix from the lowest mutated
        deadline upward with one linear sweep per delay hop.
        """
        assert self._bp_versions is not None
        watermark = math.inf
        bp_list, bp_slack, bp_ref = self._bp_list, self._bp_slack, self._bp_ref
        for index, ledger, events in pending:
            self._bp_versions[index] = ledger.version
            for _version, deadline, set_change in events:
                if deadline < watermark:
                    watermark = deadline
                if set_change > 0:
                    count = bp_ref.get(deadline, 0)
                    bp_ref[deadline] = count + 1
                    if count == 0:
                        pos = bisect.bisect_left(bp_list, deadline)
                        bp_list.insert(pos, deadline)
                        bp_slack.insert(pos, 0.0)
                elif set_change < 0:
                    count = bp_ref[deadline] - 1
                    if count == 0:
                        del bp_ref[deadline]
                        pos = bisect.bisect_left(bp_list, deadline)
                        del bp_list[pos]
                        del bp_slack[pos]
                    else:
                        bp_ref[deadline] = count
        # S^m over the suffix: the least slack any hop reports at d^m.
        merged: Dict[float, float] = {}
        for link in self._delay_links:
            for deadline, slack in link.ledger.deadline_slacks(watermark):
                if slack < merged.get(deadline, math.inf):
                    merged[deadline] = slack
        start = bisect.bisect_left(bp_list, watermark)
        bp_slack[start:] = map(merged.__getitem__, bp_list[start:])
        self._bp_tuple = None
        self.bp_delta_folds += 1


class PathMIB:
    """The path QoS state information base.

    Registration is lock-guarded so two workers racing to pin the
    same path both end up holding the single registered record.
    """

    def __init__(self) -> None:
        self._paths: Dict[str, PathRecord] = {}
        self._lock = threading.Lock()

    def register(self, record: PathRecord) -> PathRecord:
        """Register a path (idempotent for identical node sequences)."""
        with self._lock:
            existing = self._paths.get(record.path_id)
            if existing is not None:
                if existing.nodes != record.nodes:
                    raise StateError(
                        f"path id {record.path_id!r} already maps to "
                        f"{existing.nodes}"
                    )
                return existing
            self._paths[record.path_id] = record
        return record

    def get(self, path_id: str) -> PathRecord:
        """Look up a path record."""
        try:
            return self._paths[path_id]
        except KeyError:
            raise StateError(f"unknown path {path_id!r}") from None

    def __contains__(self, path_id: str) -> bool:
        return path_id in self._paths

    def __len__(self) -> int:
        return len(self._paths)

    def records(self) -> Tuple[PathRecord, ...]:
        """All registered paths."""
        return tuple(self._paths.values())
