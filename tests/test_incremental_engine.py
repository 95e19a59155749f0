"""Differential tests for the incremental admission engine.

The Fenwick-tree ledger, the delta-folded path breakpoints and the
cached Figure-4 scan are *optimizations*: every decision and every
query they answer must be identical to a naive recompute-from-entries
oracle.  These tests drive both through long random admit / release /
resize churn sequences and compare after **every** operation.

The workloads use dyadic deadlines (multiples of 1/1024) and integer
rates/packet sizes, so every aggregate the two implementations sum is
exact in IEEE-754 double regardless of summation grouping — agreement
is checked with ``==``, not a tolerance.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.admission import (
    AdmissionDecision,
    AdmissionRequest,
    PerFlowAdmission,
    RejectionReason,
)
from repro.core.mibs import FlowMIB, LinkQoSState, NodeMIB, PathMIB, PathRecord
from repro.core.schedulability import DeadlineLedger
from repro.traffic.spec import TSpec
from repro.vtrs.timestamps import SchedulerKind

R, D = SchedulerKind.RATE_BASED, SchedulerKind.DELAY_BASED

CAPACITY = 10_000_000.0


class NaiveLedgerOracle:
    """Recompute-from-entries reference for :class:`DeadlineLedger`.

    Stores the raw ``(rate, deadline, max_packet)`` entries and answers
    every query with a fresh pass over them, using the exact tolerance
    formulas of the incremental ledger.
    """

    def __init__(self, capacity):
        self.capacity = float(capacity)
        self.entries = {}

    # -- mutations ----------------------------------------------------
    def add(self, key, rate, deadline, max_packet):
        self.entries[key] = (float(rate), float(deadline), float(max_packet))

    def remove(self, key):
        del self.entries[key]

    def update_rate(self, key, rate):
        _old, deadline, max_packet = self.entries[key]
        self.entries[key] = (float(rate), deadline, max_packet)

    # -- queries ------------------------------------------------------
    def _aggregates_upto(self, t):
        rate = rd = pkt = 0.0
        for r, d, p in self.entries.values():
            if d <= t:
                rate += r
                rd += r * d
                pkt += p
        return rate, rd, pkt

    @property
    def distinct_deadlines(self):
        return tuple(sorted({d for _r, d, _p in self.entries.values()}))

    def residual_service(self, t):
        rate, rd, pkt = self._aggregates_upto(t)
        return self.capacity * t - (rate * t - rd + pkt)

    def admissible(self, rate, deadline, max_packet):
        slack = 1e-9 * self.capacity
        total = sum(r for r, _d, _p in self.entries.values())
        if total + rate > self.capacity + slack:
            return False
        if self.residual_service(deadline) + 1e-9 < max_packet:
            return False
        for d in self.distinct_deadlines:
            if d <= deadline:
                continue
            needed = rate * (d - deadline) + max_packet
            if self.residual_service(d) + 1e-9 < needed:
                return False
        return True


def dyadic(rng, lo=1, hi=4096):
    """A deadline that is an exact dyadic rational (multiple of 2^-10)."""
    return rng.randint(lo, hi) / 1024.0


def make_op(rng, live, next_id):
    """Pick one churn operation given the currently-live keys."""
    roll = rng.random()
    if live and roll < 0.35:
        return ("remove", rng.choice(sorted(live)))
    if live and roll < 0.50:
        return ("resize", rng.choice(sorted(live)), float(rng.randint(1, 2000)))
    return ("add", f"f{next_id}", float(rng.randint(1, 2000)),
            dyadic(rng), float(rng.choice([512, 1000, 1500])))


def apply_op(op, ledger, oracle, live):
    if op[0] == "add":
        _kind, key, rate, deadline, packet = op
        ledger.add(key, rate, deadline, packet)
        oracle.add(key, rate, deadline, packet)
        live.add(key)
    elif op[0] == "remove":
        ledger.remove(op[1])
        oracle.remove(op[1])
        live.discard(op[1])
    else:
        ledger.update_rate(op[1], op[2])
        oracle.update_rate(op[1], op[2])


def assert_ledger_matches(ledger, oracle, rng):
    assert ledger.distinct_deadlines == oracle.distinct_deadlines
    probes = list(ledger.distinct_deadlines[:4])
    probes.append(dyadic(rng))
    for t in probes:
        assert ledger.residual_service(t) == oracle.residual_service(t)
    cand = (float(rng.randint(1, 2000)), dyadic(rng),
            float(rng.choice([512, 1000, 1500])))
    assert ledger.admissible(*cand) == oracle.admissible(*cand)


class TestLedgerDifferential:
    def test_long_churn_bit_identical(self):
        """>=2000-op random churn: every query agrees exactly."""
        rng = random.Random(0xBB)
        ledger = DeadlineLedger(CAPACITY)
        oracle = NaiveLedgerOracle(CAPACITY)
        live = set()
        for step in range(2000):
            op = make_op(rng, live, step)
            apply_op(op, ledger, oracle, live)
            assert_ledger_matches(ledger, oracle, rng)
        # The churn must actually have exercised the incremental paths.
        assert ledger.incremental_updates > 1000
        assert ledger.distinct_deadlines == oracle.distinct_deadlines

    def test_churn_through_compactions(self):
        """Deadlines drawn from a tiny window force overflow-table and
        tombstone compactions; agreement must survive them."""
        rng = random.Random(7)
        ledger = DeadlineLedger(CAPACITY)
        oracle = NaiveLedgerOracle(CAPACITY)
        live = set()
        for step in range(1500):
            roll = rng.random()
            if live and roll < 0.45:
                key = rng.choice(sorted(live))
                ledger.remove(key)
                oracle.remove(key)
                live.discard(key)
            else:
                key = f"c{step}"
                # Descending deadlines: almost every new distinct
                # deadline is a middle insertion, landing in the
                # overflow side-table until a compaction fires.
                deadline = (8192 - 4 * step - rng.randint(0, 3)) / 1024.0
                rate = float(rng.randint(1, 500))
                ledger.add(key, rate, deadline, 1000.0)
                oracle.add(key, rate, deadline, 1000.0)
                live.add(key)
            assert_ledger_matches(ledger, oracle, rng)
        assert ledger.compactions > 0

    def test_segment_aggregates_match(self):
        rng = random.Random(3)
        ledger = DeadlineLedger(CAPACITY)
        oracle = NaiveLedgerOracle(CAPACITY)
        live = set()
        for step in range(400):
            apply_op(make_op(rng, live, step), ledger, oracle, live)
            t = dyadic(rng)
            assert ledger.segment_aggregates(t) == oracle._aggregates_upto(t)

    @settings(max_examples=60, deadline=None)
    @given(st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=2),   # op selector
            st.integers(min_value=1, max_value=4096),  # dyadic deadline k
            st.integers(min_value=1, max_value=2000),  # rate
            st.integers(min_value=0, max_value=30),    # victim index
        ),
        min_size=1, max_size=120,
    ))
    def test_property_churn(self, ops):
        ledger = DeadlineLedger(CAPACITY)
        oracle = NaiveLedgerOracle(CAPACITY)
        live = []
        for index, (sel, k, rate, victim) in enumerate(ops):
            if sel == 0 or not live:
                key = f"h{index}"
                ledger.add(key, float(rate), k / 1024.0, 1000.0)
                oracle.add(key, float(rate), k / 1024.0, 1000.0)
                live.append(key)
            elif sel == 1:
                key = live.pop(victim % len(live))
                ledger.remove(key)
                oracle.remove(key)
            else:
                key = live[victim % len(live)]
                ledger.update_rate(key, float(rate))
                oracle.update_rate(key, float(rate))
            assert ledger.distinct_deadlines == oracle.distinct_deadlines
            probe = k / 1024.0
            assert (ledger.residual_service(probe)
                    == oracle.residual_service(probe))
            assert (ledger.admissible(float(rate), probe, 1000.0)
                    == oracle.admissible(float(rate), probe, 1000.0))


def naive_breakpoints(links):
    """Merge-every-hop reference for ``PathRecord.deadline_breakpoints``."""
    merged = {}
    for link in links:
        ledger = link.ledger
        for deadline in ledger.distinct_deadlines:
            slack = ledger.residual_service(deadline)
            if deadline not in merged or slack < merged[deadline]:
                merged[deadline] = slack
    return tuple(sorted(merged.items()))


def make_delay_path(path_id="p", hops=3):
    links = [
        LinkQoSState((f"n{i}", f"n{i+1}"), CAPACITY, D, max_packet=12000.0)
        for i in range(hops)
    ]
    return PathRecord(path_id, [f"n{i}" for i in range(hops + 1)], links), links


class TestPathBreakpointsDifferential:
    def test_delta_folds_match_full_merge(self):
        """~1200 mutations over 3 delay hops: the folded view always
        equals the naive re-merge, and folding dominates rebuilds."""
        rng = random.Random(42)
        path, links = make_delay_path()
        live = {}  # key -> link index
        for step in range(1200):
            link_index = rng.randrange(len(links))
            link = links[link_index]
            roll = rng.random()
            mine = sorted(k for k, li in live.items() if li == link_index)
            if mine and roll < 0.4:
                key = rng.choice(mine)
                link.release(key)
                del live[key]
            elif mine and roll < 0.55:
                link.adjust_rate(rng.choice(mine), float(rng.randint(1, 2000)))
            else:
                key = f"b{step}"
                link.reserve(key, float(rng.randint(1, 2000)),
                             deadline=dyadic(rng), max_packet=1000.0)
                live[key] = link_index
            assert path.deadline_breakpoints() == naive_breakpoints(links)
        assert path.bp_delta_folds > 10 * max(1, path.bp_full_rebuilds)

    def test_event_window_gap_forces_rebuild(self):
        """A burst longer than the ledger's event window between reads
        must fall back to a full rebuild — and still be correct."""
        rng = random.Random(9)
        path, links = make_delay_path(hops=2)
        assert path.deadline_breakpoints() == ()  # primes the subscription
        rebuilds_before = path.bp_full_rebuilds
        for step in range(300):  # > _EVENT_WINDOW = 256 on one ledger
            links[0].reserve(f"g{step}", 10.0, deadline=dyadic(rng),
                            max_packet=1000.0)
        assert path.deadline_breakpoints() == naive_breakpoints(links)
        assert path.bp_full_rebuilds == rebuilds_before + 1
        # Small follow-up mutations fold again instead of rebuilding.
        folds_before = path.bp_delta_folds
        links[1].reserve("g-tail", 10.0, deadline=dyadic(rng),
                         max_packet=1000.0)
        assert path.deadline_breakpoints() == naive_breakpoints(links)
        assert path.bp_delta_folds == folds_before + 1

    def test_unchanged_ledgers_hit_cache(self):
        path, links = make_delay_path(hops=2)
        links[0].reserve("x", 100.0, deadline=0.25, max_packet=1000.0)
        first = path.deadline_breakpoints()
        hits = path.bp_cache_hits
        assert path.deadline_breakpoints() is first
        assert path.bp_cache_hits == hits + 1


def build_path_stack(kinds, capacity, paths=1):
    """*paths* link-disjoint chains of the given hop kinds."""
    node_mib, path_mib = NodeMIB(), PathMIB()
    records = []
    for p in range(paths):
        names = [f"p{p}n{i}" for i in range(len(kinds) + 1)]
        links = [
            node_mib.register_link(LinkQoSState(
                (src, dst), capacity, kind, max_packet=12000.0))
            for src, dst, kind in zip(names, names[1:], kinds)
        ]
        records.append(path_mib.register(PathRecord(f"p{p}", names, links)))
    return PerFlowAdmission(node_mib, FlowMIB(), path_mib), records


def build_mixed_stack():
    """A fresh broker stack over one mixed path (2 rate + 2 delay hops)."""
    admission, (path,) = build_path_stack([R, D, D, R], CAPACITY)
    return admission, path, path.links


def request(index, spec, delay_requirement):
    return AdmissionRequest(
        flow_id=f"flow{index}", spec=spec, delay_requirement=delay_requirement
    )


SPEC = TSpec(sigma=100_000.0, rho=200_000.0, peak=1_000_000.0,
             max_packet=12_000.0)


class TestMixedDecisionEquality:
    def test_fresh_path_record_agrees_after_churn(self):
        """After churn, decisions through the delta-maintained record
        equal those through a brand-new record over the same links
        (which can only do a from-scratch merge)."""
        rng = random.Random(5)
        admission, path, links = build_mixed_stack()
        admitted = []
        for index in range(60):
            if admitted and rng.random() < 0.3:
                admission.release(admitted.pop(rng.randrange(len(admitted))))
            d_req = 0.05 + rng.randint(1, 100) / 1024.0
            decision = admission.admit(request(index, SPEC, d_req), path)
            if decision.admitted:
                admitted.append(decision.flow_id)
            fresh = PathRecord("fresh", path.nodes, links)
            baseline = admission._find_min_rate_pair(SPEC, d_req, fresh)
            incremental = admission._find_min_rate_pair(SPEC, d_req, path)
            if isinstance(baseline, tuple):
                assert incremental == baseline
            else:
                assert not isinstance(incremental, tuple)
                assert incremental.reason == baseline.reason
                assert incremental.detail == baseline.detail

    def test_admit_batch_equals_sequential(self):
        """The mixed-path batch fast path must be decision-identical to
        per-request sequential admission on an identical twin stack."""
        batch_adm, batch_path, _ = build_mixed_stack()
        seq_adm, seq_path, _ = build_mixed_stack()
        requests = [request(i, SPEC, 0.2) for i in range(40)]
        batch_decisions = batch_adm.admit_batch(requests, batch_path, now=1.0)
        seq_decisions = [
            seq_adm.admit(r, seq_path, now=1.0) for r in requests
        ]
        assert len(batch_decisions) == len(seq_decisions)
        for got, want in zip(batch_decisions, seq_decisions):
            assert got.admitted == want.admitted
            assert got.rate == want.rate
            assert got.delay == want.delay
            assert got.reason == want.reason
        # The two stacks must end in the same ledger state.
        batch_links = batch_path.delay_based_links()
        seq_links = seq_path.delay_based_links()
        for b_link, s_link in zip(batch_links, seq_links):
            assert (b_link.ledger.distinct_deadlines
                    == s_link.ledger.distinct_deadlines)
            assert b_link.reserved_rate == s_link.reserved_rate

    def test_admit_batch_saturation_equals_sequential(self):
        """Same comparison at a capacity-saturating scale where rejects
        and early scan breaks appear."""
        big = TSpec(sigma=1_000_000.0, rho=900_000.0, peak=2_000_000.0,
                    max_packet=12_000.0)
        batch_adm, batch_path, _ = build_mixed_stack()
        seq_adm, seq_path, _ = build_mixed_stack()
        requests = [request(i, big, 0.3) for i in range(30)]
        batch_decisions = batch_adm.admit_batch(requests, batch_path)
        seq_decisions = [seq_adm.admit(r, seq_path) for r in requests]
        assert any(not d.admitted for d in seq_decisions)  # saturated
        for got, want, asked in zip(batch_decisions, seq_decisions, requests):
            assert got == want  # every field, floats with ==
            assert got.flow_id == asked.flow_id  # rejections included

    def test_early_break_changes_no_decision(self):
        """Counters prove early termination fires while every granted
        pair still matches the fresh-record baseline (full scan)."""
        big = TSpec(sigma=1_000_000.0, rho=900_000.0, peak=2_000_000.0,
                    max_packet=12_000.0)
        admission, path, links = build_mixed_stack()
        for index in range(12):
            fresh = PathRecord("fresh", path.nodes, links)
            baseline = admission._find_min_rate_pair(big, 0.3, fresh)
            decision = admission.test(request(index, big, 0.3), path)
            if isinstance(baseline, tuple):
                assert decision.admitted
                assert (decision.rate, decision.delay) == baseline
                admission.admit(request(index, big, 0.3), path)
            else:
                assert not decision.admitted
                assert decision.reason == baseline.reason
                assert decision.detail == baseline.detail
        # The saturating sequence must have exercised early
        # termination: a verified candidate below the next interval's
        # lower bound ends the walk.
        assert path.scan_early_breaks > 0
        assert path.scan_intervals < path.scan_tests * (
            len(path.deadline_breakpoints()) + 1
        )


# ----------------------------------------------------------------------
# Figure 4 against a frozen reference
# ----------------------------------------------------------------------

_EPS = 1e-9


def reference_own_deadline_bound(delay_links, d_lo, t_nu, xi, l_max):
    """Frozen copy of ``PerFlowAdmission._own_deadline_bound``."""
    bound = 0.0
    for link in delay_links:
        ledger = link.ledger
        rate_sum, rate_dl_sum, packet_sum = ledger.segment_aggregates(d_lo)
        slope = ledger.capacity - rate_sum
        intercept = rate_dl_sum - packet_sum
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


def reference_min_rate_pair(spec, delay_requirement, path, hits):
    """The Figure-4 walk as it stood before intervals were ordered by
    their lower bound, frozen here with every pruning rule taken out:
    all intervals, top down, each evaluated in full with the same
    tolerances and the same boundary nudge, and the lowest verified
    rate wins.  It shares no code with ``_find_min_rate_pair`` — only
    the path's public ``deadline_breakpoints()`` and the ledgers'
    ``segment_aggregates`` / ``admissible``.

    Returns ``(rate, delay)`` or ``(reason, detail)``; *hits* collects
    the names of the rare branches the call went through.
    """
    profile = path.profile()
    delay_hops = profile.delay_based_hops
    t_nu = (delay_requirement - profile.d_tot + spec.t_on) / delay_hops
    xi = (
        spec.t_on * spec.peak
        + (profile.rate_based_hops + 1) * spec.max_packet
    ) / delay_hops
    l_max = spec.max_packet
    if t_nu <= 0:
        return (RejectionReason.DELAY_UNACHIEVABLE,
                "fixed path latency alone exceeds the requirement")
    rate_cap = min(spec.peak, path.residual_bandwidth())
    if rate_cap < spec.rho * (1 - _EPS):
        return (RejectionReason.INSUFFICIENT_BANDWIDTH,
                f"residual bandwidth {path.residual_bandwidth():.1f} b/s "
                f"below the sustained rate {spec.rho:.1f} b/s")
    hi_global = rate_cap
    below, bounds = [], []
    for d_k, s_k in path.deadline_breakpoints():
        gap = d_k - t_nu
        if gap > _EPS:
            hi_global = min(hi_global, (s_k - xi - l_max) / gap)
        elif gap >= -_EPS:
            if s_k + _EPS < xi + l_max:
                hits.add("fatal")
                return (RejectionReason.UNSCHEDULABLE,
                        f"residual service at deadline {d_k:.6f}s cannot "
                        f"absorb the new flow at any rate")
        else:
            below.append((d_k, s_k))
            bounds.append((xi + l_max - s_k) / (t_nu - d_k))
    if hi_global <= 0:
        hits.add("no-residual")
        return (RejectionReason.UNSCHEDULABLE,
                "a long-deadline reservation leaves no residual service")
    suffix_lb = [0.0] * (len(below) + 1)
    for k in range(len(below) - 1, -1, -1):
        suffix_lb[k] = max(suffix_lb[k + 1], bounds[k])
    delay_links = path.delay_based_links()
    boundaries = [0.0] + [d for d, _ in below]

    def admissible(rate, delay):
        return all(link.ledger.admissible(rate, delay, l_max)
                   for link in delay_links)

    best = None
    for m in range(len(boundaries), 0, -1):
        d_lo = boundaries[m - 1]
        d_hi = below[m - 1][0] if m - 1 < len(below) else t_nu
        lo = max(spec.rho, suffix_lb[m - 1])
        if t_nu - d_lo <= _EPS:
            continue
        lo = max(lo, xi / (t_nu - d_lo))
        hi = hi_global
        if d_hi < t_nu - _EPS:
            hi = min(hi, xi / (t_nu - d_hi))
        if lo > hi * (1 + _EPS):
            continue
        lo_own, infeasible = reference_own_deadline_bound(
            delay_links, d_lo, t_nu, xi, l_max)
        if infeasible:
            continue
        if lo_own > lo:
            hits.add("own-deadline-binds")
        lo = max(lo, lo_own)
        if lo > hi * (1 + _EPS):
            continue
        rate = lo
        delay = max(0.0, t_nu - xi / rate)
        if not admissible(rate, delay):
            rate = lo * (1 + 1e-12) + 1e-12
            delay = max(0.0, t_nu - xi / rate)
            if rate > hi * (1 + _EPS) or not admissible(rate, delay):
                continue
            hits.add("nudge")
        if best is None or rate < best[0]:
            best = (rate, delay)
    if best is None:
        hits.add("none-feasible")
        return (RejectionReason.UNSCHEDULABLE,
                "no feasible rate-delay pair on any deadline interval")
    hits.add("granted")
    return best


def assert_scan_matches_reference(admission, spec, delay_requirement, path,
                                  hits):
    """``==`` on the granted floats, and on reason and detail of a
    rejection."""
    want = reference_min_rate_pair(spec, delay_requirement, path, hits)
    got = admission.probe_min_rate_pair(spec, delay_requirement, path)
    if isinstance(got, AdmissionDecision):
        assert not got.admitted and got.flow_id == ""
        got = (got.reason, got.detail)
    assert got == want


#: The flow and delay range of the repo benchmark's ``engine_deep``
#: workload (4 hops, the last 2 delay-based, 45 Mb/s links).
DEEP_SPEC = TSpec(sigma=8000.0, rho=32000.0, peak=64000.0, max_packet=4000.0)
DEEP_KINDS = [R, R, D, D]
DEEP_CAPACITY = 45_000_000.0


def deep_delays(rng, count, offset):
    """An even grid over [0.5, 3.0] in seeded order: one deadline per
    flow on the delay-based hops."""
    grid = [0.5 + 2.5 * (k + offset) / count for k in range(count)]
    rng.shuffle(grid)
    return grid


class TestFigure4AgainstFrozenReference:
    def test_dyadic_churn(self):
        """The churn of ``test_fresh_path_record_agrees_after_churn``,
        judged by the reference instead of by the scan itself."""
        rng = random.Random(5)
        admission, path, _links = build_mixed_stack()
        admitted, hits = [], set()
        for index in range(60):
            if admitted and rng.random() < 0.3:
                admission.release(admitted.pop(rng.randrange(len(admitted))))
            d_req = 0.05 + rng.randint(1, 100) / 1024.0
            assert_scan_matches_reference(admission, SPEC, d_req, path, hits)
            decision = admission.admit(request(index, SPEC, d_req), path)
            if decision.admitted:
                admitted.append(decision.flow_id)
        assert "granted" in hits

    def test_engine_deep_shape(self):
        """700 standing flows over two 4-hop paths (350 deadlines per
        delay-based link), then admit/teardown pairs at fresh
        deadlines — none of the values is dyadic."""
        rng = random.Random(1)
        admission, paths = build_path_stack(
            DEEP_KINDS, DEEP_CAPACITY, paths=2)
        live = []
        for index, d_req in enumerate(deep_delays(rng, 700, 0.25)):
            decision = admission.admit(
                request(index, DEEP_SPEC, d_req), paths[index % 2])
            assert decision.admitted
            live.append(decision.flow_id)
        hits = set()
        for index, d_req in enumerate(deep_delays(rng, 30, 0.75)):
            path = paths[index % 2]
            assert_scan_matches_reference(
                admission, DEEP_SPEC, d_req, path, hits)
            decision = admission.admit(
                request(700 + index, DEEP_SPEC, d_req), path)
            assert decision.admitted
            live.append(decision.flow_id)
            admission.release(live.pop(rng.randrange(len(live))))
        assert hits == {"granted"}

    def test_saturating_sequences_reach_the_rare_branches(self):
        """Random specs on small links until they saturate, a fifth of
        the requests aimed so that ``t_nu`` lands on an existing
        deadline: rejections of every kind, the own-deadline bound
        and the boundary nudge all occur and all agree."""
        hits = set()
        for seed in range(8):
            rng = random.Random(seed)
            capacity = rng.choice([1.5e6, 10e6])
            kinds = rng.choice([[R, D, D, R], [D, D], [R, D], [D, R, D, D]])
            admission, (path,) = build_path_stack(kinds, capacity)
            profile = path.profile()
            live = []
            for index in range(80):
                rho = rng.uniform(5000, capacity / 12)
                spec = TSpec(
                    sigma=rng.uniform(12000, 100000), rho=rho,
                    peak=rho + rng.uniform(1000, capacity / 6),
                    max_packet=rng.choice([4000.0, 12000.0]),
                )
                d_req = rng.uniform(0.05, 3.0)
                roll = rng.random()
                if live and roll < 0.25:
                    admission.release(live.pop(rng.randrange(len(live))))
                if live and roll > 0.8:
                    d_k, _s_k = rng.choice(path.deadline_breakpoints())
                    d_req = (d_k * profile.delay_based_hops
                             + profile.d_tot - spec.t_on)
                    if d_req <= 0:
                        continue
                assert_scan_matches_reference(
                    admission, spec, d_req, path, hits)
                decision = admission.admit(request(index, spec, d_req), path)
                if decision.admitted:
                    live.append(decision.flow_id)
        assert hits >= {"granted", "fatal", "no-residual", "none-feasible",
                        "own-deadline-binds", "nudge"}


class TestScanScaling:
    """Counts, not clocks: the scan's work per admit must not grow
    with the number of deadlines per link."""

    @pytest.mark.parametrize("deadlines", [100, 350, 1000])
    def test_work_per_admit_is_flat_in_m(self, deadlines):
        rng = random.Random(deadlines)
        admission, (path,) = build_path_stack(DEEP_KINDS, DEEP_CAPACITY)
        delay_hops = len(path.delay_based_links())
        live = []
        for index, d_req in enumerate(deep_delays(rng, deadlines, 0.25)):
            assert admission.admit(request(index, DEEP_SPEC, d_req), path)
            live.append(f"flow{index}")
        assert len(path.deadline_breakpoints()) == deadlines
        for index, d_req in enumerate(deep_delays(rng, 40, 0.75)):
            flow = request(deadlines + index, DEEP_SPEC, d_req)
            assert admission.admit(flow, path)
            live.append(flow.flow_id)
            admission.release(live.pop(rng.randrange(len(live))))
        scans = path.scan_tests
        assert scans == deadlines + 40
        assert path.scan_intervals <= 4 * scans
        assert path.scan_verifications <= 2 * delay_hops * scans
        assert path.scan_early_breaks > 0
