"""Path-oriented per-flow admission control (Section 3 of the paper).

The broker holds the QoS state of the whole domain, so a flow's
admissibility is decided by examining **the entire path at once**
instead of hop by hop:

* **Rate-based-only paths** (Section 3.1): the end-to-end delay bound
  (eq. (6)) inverts to a closed-form minimal rate

  ``r_min = (T_on P + (h+1) L) / (D_req - D_tot + T_on)``

  and the feasible range is ``[max(rho, r_min), min(P, C_res)]`` —
  an O(1) test against two cached path aggregates.

* **Mixed rate/delay-based paths** (Section 3.2, Figure 4): the
  admissible region of rate-delay pairs ``<r, d>`` is swept along the
  curve ``d = t - Xi / r`` (the end-to-end constraint (9) taken with
  equality), interval by interval over the distinct existing deadlines
  ``d^1 < ... < d^M``. Within the interval ``(d^{m-1}, d^m]`` every
  constraint is linear in ``r``:

  - end-to-end (eq. 7)     → ``Xi/(t - d^{m-1}) < r <= Xi/(t - d^m)``
  - existing deadline d^k ≥ d (eq. 8 with d = t - Xi/r):
      ``r (d^k - t) + Xi + L <= S^k``
      → upper bound when ``d^k >= t``, lower bound when ``d^k < t``
  - the new flow's own deadline (condition (5) at ``t = d``):
      ``W_i(d) >= L`` at every delay-based hop — linear in ``d`` on
      the open segment, hence a lower bound on ``r``
  - traffic & capacity     → ``rho <= r <= min(P, C_res)``

  The minimal feasible rate over all intervals is returned — the
  *minimum-bandwidth* allocation the paper's Theorem 1 characterizes.
  Every candidate is double-checked against the per-link ledgers
  (the hop-by-hop ground truth), so the path-oriented and local tests
  can never silently disagree.

The module performs the paper's two admission phases: the
*admissibility test* (:meth:`PerFlowAdmission.test`) is side-effect
free; *bookkeeping* (:meth:`PerFlowAdmission.admit`) installs the
reservation into the node/flow MIBs.
"""

from __future__ import annotations

import bisect
import enum
import heapq
import itertools
import math
from dataclasses import dataclass, replace
from typing import List, Optional, Sequence, Tuple

from repro.errors import StateError
from repro.core.mibs import FlowMIB, FlowRecord, NodeMIB, PathMIB, PathRecord
from repro.traffic.spec import TSpec
from repro.vtrs.delay_bounds import e2e_delay_bound, min_feasible_rate_rate_based
from repro.vtrs.timestamps import SchedulerKind

__all__ = [
    "RejectionReason",
    "AdmissionRequest",
    "AdmissionDecision",
    "PerFlowAdmission",
]

_EPS = 1e-9


class RejectionReason(enum.Enum):
    """Why a service request was rejected."""

    POLICY = "policy"
    NO_PATH = "no-path"
    DELAY_UNACHIEVABLE = "delay-unachievable"
    INSUFFICIENT_BANDWIDTH = "insufficient-bandwidth"
    UNSCHEDULABLE = "unschedulable"
    DUPLICATE = "duplicate-flow"
    #: The broker service shed the request (full queue / blown
    #: deadline) without evaluating it — the caller may retry, unlike
    #: the capacity-based rejections above.
    TRY_AGAIN = "try-again"


@dataclass(frozen=True)
class AdmissionRequest:
    """A new-flow service request, as delivered to the broker.

    :param flow_id: unique flow identifier.
    :param spec: dual-token-bucket traffic profile.
    :param delay_requirement: end-to-end delay requirement ``D_req``.
    """

    flow_id: str
    spec: TSpec
    delay_requirement: float


@dataclass(frozen=True)
class AdmissionDecision:
    """Outcome of the admissibility test.

    ``rate``/``delay`` are the granted rate-delay parameter pair when
    admitted (``delay`` is 0 on rate-based-only paths).
    """

    admitted: bool
    flow_id: str
    path_id: str = ""
    rate: float = 0.0
    delay: float = 0.0
    reason: Optional[RejectionReason] = None
    detail: str = ""

    def __bool__(self) -> bool:
        return self.admitted


class PerFlowAdmission:
    """Per-flow guaranteed-service admission control (Section 3).

    :param node_mib: the broker's node/link QoS state base.
    :param flow_mib: the broker's flow information base.
    :param path_mib: the broker's path QoS state base.
    """

    def __init__(self, node_mib: NodeMIB, flow_mib: FlowMIB,
                 path_mib: PathMIB) -> None:
        self.node_mib = node_mib
        self.flow_mib = flow_mib
        self.path_mib = path_mib

    # ------------------------------------------------------------------
    # public API
    # ------------------------------------------------------------------

    def test(self, request: AdmissionRequest, path: PathRecord
             ) -> AdmissionDecision:
        """Admissibility-test phase: no state is modified."""
        if request.flow_id in self.flow_mib:
            return AdmissionDecision(
                admitted=False,
                flow_id=request.flow_id,
                path_id=path.path_id,
                reason=RejectionReason.DUPLICATE,
                detail=f"flow {request.flow_id!r} is already admitted",
            )
        if path.rate_based_hops == path.hops:
            return self._test_rate_only(request, path)
        return self._test_mixed(request, path)

    def admit(self, request: AdmissionRequest, path: PathRecord,
              *, now: float = 0.0) -> AdmissionDecision:
        """Admissibility test followed by the bookkeeping phase."""
        decision = self.test(request, path)
        if not decision.admitted:
            return decision
        for link in path.links:
            if link.kind is SchedulerKind.DELAY_BASED:
                link.reserve(
                    request.flow_id,
                    decision.rate,
                    deadline=decision.delay,
                    max_packet=request.spec.max_packet,
                )
            else:
                link.reserve(request.flow_id, decision.rate)
        self.flow_mib.add(
            FlowRecord(
                flow_id=request.flow_id,
                spec=request.spec,
                delay_requirement=request.delay_requirement,
                path_id=path.path_id,
                rate=decision.rate,
                delay=decision.delay,
                admitted_at=now,
            )
        )
        return decision

    def admit_batch(
        self,
        requests: Sequence[AdmissionRequest],
        path: PathRecord,
        *,
        now: float = 0.0,
    ) -> List[AdmissionDecision]:
        """Admit a batch of requests on one path with one hoisted scan.

        Decisions are, by construction, **identical** to calling
        :meth:`admit` once per request in order.  On a rate-based-only
        path the minimal feasible rate ``r_min`` of eq. (6) depends
        only on the *static* path profile, so it is computed once for
        a batch of identical ``(spec, D_req)`` requests and each flow
        then needs only the O(1) feasible-range check plus bookkeeping
        — the amortization the service layer's admission batcher
        relies on.  Heterogeneous batches and batches on mixed
        rate/delay paths (whose Figure-4 scan reads state every
        admission changes) take the per-request sequential loop.
        """
        if not requests:
            return []
        first = requests[0]
        homogeneous = all(
            r.spec == first.spec
            and r.delay_requirement == first.delay_requirement
            for r in requests[1:]
        )
        if not homogeneous or path.rate_based_hops != path.hops:
            return [self.admit(r, path, now=now) for r in requests]
        spec = first.spec
        r_min = min_feasible_rate_rate_based(
            spec, first.delay_requirement, path.profile()
        )
        decisions: List[AdmissionDecision] = []
        for request in requests:
            if request.flow_id in self.flow_mib:
                decisions.append(AdmissionDecision(
                    admitted=False,
                    flow_id=request.flow_id,
                    path_id=path.path_id,
                    reason=RejectionReason.DUPLICATE,
                    detail=f"flow {request.flow_id!r} is already admitted",
                ))
                continue
            if math.isinf(r_min):
                decisions.append(AdmissionDecision(
                    admitted=False,
                    flow_id=request.flow_id,
                    path_id=path.path_id,
                    reason=RejectionReason.DELAY_UNACHIEVABLE,
                    detail="fixed path latency alone exceeds the requirement",
                ))
                continue
            low = max(spec.rho, r_min)
            high = min(spec.peak, path.residual_bandwidth())
            if low > high * (1 + _EPS) + _EPS:
                reason = (
                    RejectionReason.DELAY_UNACHIEVABLE
                    if r_min > spec.peak * (1 + _EPS)
                    else RejectionReason.INSUFFICIENT_BANDWIDTH
                )
                decisions.append(AdmissionDecision(
                    admitted=False,
                    flow_id=request.flow_id,
                    path_id=path.path_id,
                    reason=reason,
                    detail=(
                        f"feasible range empty: need r in "
                        f"[{low:.1f}, {high:.1f}] b/s"
                    ),
                ))
                continue
            decision = AdmissionDecision(
                admitted=True,
                flow_id=request.flow_id,
                path_id=path.path_id,
                rate=min(low, high),
                delay=0.0,
            )
            for link in path.links:
                link.reserve(request.flow_id, decision.rate)
            self.flow_mib.add(
                FlowRecord(
                    flow_id=request.flow_id,
                    spec=request.spec,
                    delay_requirement=request.delay_requirement,
                    path_id=path.path_id,
                    rate=decision.rate,
                    delay=decision.delay,
                    admitted_at=now,
                )
            )
            decisions.append(decision)
        return decisions

    def release(self, flow_id: str) -> FlowRecord:
        """Tear down a flow's reservation along its path."""
        record = self.flow_mib.remove(flow_id)
        path = self.path_mib.get(record.path_id)
        for link in path.links:
            link.release(flow_id)
        return record

    def probe_min_rate_pair(
        self, spec: TSpec, delay_requirement: float, path: PathRecord
    ):
        """Public Figure-4 probe: minimal feasible ``<r, d>`` on *path*.

        Side-effect-free with respect to reservations — only the scan
        counters on *path* advance.  Exists for callers that run the
        mixed-path scan against a *segment* of a longer path (the
        cluster's cross-shard prepare phase hands the scan-owner shard
        a synthetic :class:`PathRecord` over its local links with the
        full path's profile installed): the returned pair is what a
        fused broker would grant, by the rate-cap monotonicity of the
        scan.  Returns ``(rate, delay)`` or a rejecting
        :class:`AdmissionDecision` with a blank flow id.
        """
        return self._find_min_rate_pair(spec, delay_requirement, path)

    # ------------------------------------------------------------------
    # Section 3.1 — rate-based-only path, O(1)
    # ------------------------------------------------------------------

    def _test_rate_only(self, request: AdmissionRequest, path: PathRecord
                        ) -> AdmissionDecision:
        spec = request.spec
        r_min = min_feasible_rate_rate_based(
            spec, request.delay_requirement, path.profile()
        )
        if math.isinf(r_min):
            return AdmissionDecision(
                admitted=False,
                flow_id=request.flow_id,
                path_id=path.path_id,
                reason=RejectionReason.DELAY_UNACHIEVABLE,
                detail="fixed path latency alone exceeds the requirement",
            )
        low = max(spec.rho, r_min)
        high = min(spec.peak, path.residual_bandwidth())
        if low > high * (1 + _EPS) + _EPS:
            reason = (
                RejectionReason.DELAY_UNACHIEVABLE
                if r_min > spec.peak * (1 + _EPS)
                else RejectionReason.INSUFFICIENT_BANDWIDTH
            )
            return AdmissionDecision(
                admitted=False,
                flow_id=request.flow_id,
                path_id=path.path_id,
                reason=reason,
                detail=(
                    f"feasible range empty: need r in "
                    f"[{low:.1f}, {high:.1f}] b/s"
                ),
            )
        return AdmissionDecision(
            admitted=True,
            flow_id=request.flow_id,
            path_id=path.path_id,
            rate=min(low, high),
            delay=0.0,
        )

    # ------------------------------------------------------------------
    # Section 3.2 — mixed rate/delay-based path (Figure 4)
    # ------------------------------------------------------------------

    def _test_mixed(self, request: AdmissionRequest, path: PathRecord
                    ) -> AdmissionDecision:
        spec = request.spec
        result = self._find_min_rate_pair(
            spec, request.delay_requirement, path
        )
        if isinstance(result, AdmissionDecision):
            return replace(result, flow_id=request.flow_id)
        rate, delay = result
        return AdmissionDecision(
            admitted=True,
            flow_id=request.flow_id,
            path_id=path.path_id,
            rate=rate,
            delay=delay,
        )

    def _find_min_rate_pair(
        self, spec: TSpec, delay_requirement: float, path: PathRecord
    ):
        """Figure 4: minimal feasible ``<r, d>`` on a mixed path.

        Returns either the pair or a rejecting
        :class:`AdmissionDecision` with a blank flow id.

        Each deadline interval yields at most one candidate — its
        smallest rate that passes the ground-truth ledger check — and
        the answer is the minimum candidate (``d`` is a function of
        ``r``, so ties name the same pair).  The minimum does not
        depend on the visiting order, so intervals are visited in
        ascending order of an O(1) lower bound on their candidate and
        the walk stops at the first bound that cannot beat the best
        verified candidate: O(M) prelude, then as a rule one
        verification.
        """

        def reject(reason: RejectionReason, detail: str) -> AdmissionDecision:
            return AdmissionDecision(
                admitted=False, flow_id="", path_id=path.path_id,
                reason=reason, detail=detail,
            )

        profile = path.profile()
        delay_hops = profile.delay_based_hops
        t_nu = (delay_requirement - profile.d_tot + spec.t_on) / delay_hops
        xi = (
            spec.t_on * spec.peak
            + (profile.rate_based_hops + 1) * spec.max_packet
        ) / delay_hops
        l_max = spec.max_packet

        if t_nu <= 0:
            return reject(
                RejectionReason.DELAY_UNACHIEVABLE,
                "fixed path latency alone exceeds the requirement",
            )
        rate_cap = min(spec.peak, path.residual_bandwidth())
        if rate_cap < spec.rho * (1 - _EPS):
            return reject(
                RejectionReason.INSUFFICIENT_BANDWIDTH,
                f"residual bandwidth {path.residual_bandwidth():.1f} b/s "
                f"below the sustained rate {spec.rho:.1f} b/s",
            )

        # Merged (d^k, S^k), sorted by deadline, as two aligned lists.
        deadlines, slacks = path.deadline_breakpoint_columns()
        path.scan_tests += 1

        # Split at t_nu: [0, below) has d^k < t_nu, [above, count) has
        # d^k > t_nu, between them d^k == t_nu.  The bisect lands
        # within rounding of the split; the loops settle it on the
        # exact predicates.
        count = len(deadlines)
        below = bisect.bisect_left(deadlines, t_nu - _EPS)
        while below and deadlines[below - 1] - t_nu >= -_EPS:
            below -= 1
        while below < count and deadlines[below] - t_nu < -_EPS:
            below += 1
        above = bisect.bisect_right(deadlines, t_nu + _EPS, below)
        while above > below and deadlines[above - 1] - t_nu > _EPS:
            above -= 1
        while above < count and deadlines[above] - t_nu <= _EPS:
            above += 1

        need = xi + l_max  # service the flow claims by its deadline
        for k in range(below, above):
            if slacks[k] + _EPS < need:
                return reject(
                    RejectionReason.UNSCHEDULABLE,
                    f"residual service at deadline {deadlines[k]:.6f}s "
                    f"cannot absorb the new flow at any rate",
                )
        # Upper bounds contributed by breakpoints beyond t_nu (constant
        # across intervals): r (d^k - t) + Xi + L <= S^k.
        hi_global = min([rate_cap] + [
            (s - xi - l_max) / (d - t_nu)
            for d, s in zip(deadlines[above:], slacks[above:])
        ])
        if hi_global <= 0:
            return reject(
                RejectionReason.UNSCHEDULABLE,
                "a long-deadline reservation leaves no residual service",
            )

        # Interval j lies above boundary d^j (d^0 = 0, d^j =
        # deadlines[j - 1]); breakpoints k >= j below t_nu bind it with
        #   r >= (Xi + L - S^k) / (t - d^k)
        # so its lower bound is a suffix maximum, suffix_lb[j].
        bounds = [
            (need - s) / (t_nu - d)
            for d, s in zip(deadlines[:below], slacks)
        ]
        bounds.reverse()
        suffix_lb = list(itertools.accumulate(bounds, max, initial=0.0))
        suffix_lb.reverse()

        def boundary(j: int) -> float:
            return deadlines[j - 1] if j else 0.0

        def own_floor(j: int) -> float:
            """The rate that puts ``d`` on interval *j*'s lower edge."""
            return xi / (t_nu - boundary(j))

        def floor(j: int) -> float:
            """O(1) lower bound on any rate interval *j* can yield."""
            return max(spec.rho, suffix_lb[j], own_floor(j))

        # suffix_lb never rises with j and own_floor always does, so
        # the floor is V-shaped in j: find the first interval whose own
        # floor is the binding one (the rising arm), then walk outward
        # from there, lower floor first.
        rising, end = 0, below + 1
        while rising < end:
            mid = (rising + end) // 2
            if own_floor(mid) == floor(mid):
                end = mid
            else:
                rising = mid + 1
        ascending = heapq.merge(
            ((floor(j), j) for j in range(rising - 1, -1, -1)),
            ((floor(j), j) for j in range(rising, below + 1)),
        )

        delay_links = path.delay_based_links()
        best: Optional[Tuple[float, float]] = None
        for lo, j in ascending:
            if best is not None and lo >= best[0]:
                # A candidate only replaces `best` when its rate is
                # strictly lower, and every interval not yet visited
                # has a floor at least this high.
                path.scan_early_breaks += 1
                break
            path.scan_intervals += 1
            d_lo = boundary(j)
            if t_nu - d_lo <= _EPS:
                continue
            d_hi = deadlines[j] if j < below else t_nu
            hi = hi_global
            if d_hi < t_nu - _EPS:
                hi = min(hi, xi / (t_nu - d_hi))
            if lo > hi * (1 + _EPS):
                continue
            # Own-deadline constraint W_i(d) >= L at every delay-based
            # hop, linear on the open segment above d_lo.
            lo_own, infeasible = self._own_deadline_bound(
                delay_links, d_lo, t_nu, xi, l_max
            )
            if infeasible:
                continue
            lo = max(lo, lo_own)
            if lo > hi * (1 + _EPS):
                continue
            if best is not None and lo >= best[0]:
                continue
            rate = lo
            delay = max(0.0, t_nu - xi / rate)
            if not self._locally_admissible(path, rate, delay, l_max):
                # Boundary numerics: nudge the candidate marginally up.
                rate = lo * (1 + 1e-12) + 1e-12
                delay = max(0.0, t_nu - xi / rate)
                if rate > hi * (1 + _EPS) or not self._locally_admissible(
                    path, rate, delay, l_max
                ):
                    continue
            if best is None or rate < best[0]:
                best = (rate, delay)

        if best is None:
            return reject(
                RejectionReason.UNSCHEDULABLE,
                "no feasible rate-delay pair on any deadline interval",
            )
        return best

    @staticmethod
    def _own_deadline_bound(
        delay_links, d_lo: float, t_nu: float, xi: float, l_max: float
    ) -> Tuple[float, bool]:
        """Lower bound on ``r`` from ``W_i(d) >= L`` with ``d = t - Xi/r``.

        Returns ``(bound, infeasible)``; *infeasible* means no ``d``
        in this segment can satisfy some hop regardless of ``r``.
        """
        bound = 0.0
        for link in delay_links:
            ledger = link.ledger
            assert ledger is not None
            rate_sum, rate_dl_sum, packet_sum = ledger.segment_aggregates(d_lo)
            slope = ledger.capacity - rate_sum
            intercept = rate_dl_sum - packet_sum
            # W_i(d) = slope * d + intercept >= L
            if slope <= _EPS * ledger.capacity:
                if intercept + _EPS < l_max:
                    return 0.0, True
                continue
            d_min = (l_max - intercept) / slope
            if d_min <= d_lo:
                continue
            if d_min >= t_nu - _EPS:
                return 0.0, True
            bound = max(bound, xi / (t_nu - d_min))
        return bound, False

    @staticmethod
    def _locally_admissible(path: PathRecord, rate: float, delay: float,
                            l_max: float) -> bool:
        """Ground-truth check of the candidate at every delay-based hop."""
        for link in path.delay_based_links():
            path.scan_verifications += 1
            if not link.ledger.admissible(rate, delay, l_max):
                return False
        return True

    # ------------------------------------------------------------------
    # diagnostics
    # ------------------------------------------------------------------

    def granted_delay_bound(self, flow_id: str) -> float:
        """The analytic e2e delay bound of an admitted flow's reservation."""
        record = self.flow_mib.get(flow_id)
        if record is None:
            raise StateError(f"flow {flow_id!r} is not admitted")
        path = self.path_mib.get(record.path_id)
        return e2e_delay_bound(
            record.spec, record.rate, record.delay, path.profile()
        )
