"""Per-flow path-oriented admission control (Section 3).

Includes the load-bearing properties of the reproduction:

* admitted reservations always satisfy the end-to-end delay bound and
  every hop's local schedulability condition;
* the Figure 4 algorithm agrees with a brute-force rate sweep — both
  on admissibility and on (near-)minimality of the granted rate;
* released flows leave no state behind.
"""

import math
import random

import pytest

from repro.core.admission import (
    AdmissionRequest,
    PerFlowAdmission,
    RejectionReason,
)
from repro.core.mibs import LinkQoSState, NodeMIB, PathMIB, PathRecord, FlowMIB
from repro.traffic.spec import TSpec
from repro.vtrs.delay_bounds import e2e_delay_bound
from repro.vtrs.timestamps import SchedulerKind
from repro.workloads.profiles import flow_type

R, D = SchedulerKind.RATE_BASED, SchedulerKind.DELAY_BASED


def build_stack(kinds, capacity=1.5e6):
    node_mib = NodeMIB()
    names = [f"N{i}" for i in range(len(kinds) + 1)]
    links = []
    for (src, dst), kind in zip(zip(names, names[1:]), kinds):
        links.append(
            node_mib.register_link(
                LinkQoSState((src, dst), capacity, kind, max_packet=12000)
            )
        )
    path = PathRecord("p", names, links)
    path_mib = PathMIB()
    path_mib.register(path)
    return PerFlowAdmission(node_mib, FlowMIB(), path_mib), path


def brute_force_admissible(spec, delay_req, path, *, grid=4000):
    """Oracle: sweep reserved rates; d = t - Xi/r is optimal for each r.

    Returns the (approximately) minimal feasible rate or None.
    """
    profile = path.profile()
    delay_hops = profile.delay_based_hops
    t_nu = (delay_req - profile.d_tot + spec.t_on) / delay_hops
    xi = (
        spec.t_on * spec.peak
        + (profile.rate_based_hops + 1) * spec.max_packet
    ) / delay_hops
    if t_nu <= 0:
        return None
    cap = min(spec.peak, path.residual_bandwidth())
    if cap < spec.rho:
        return None
    lo = max(spec.rho, xi / t_nu)
    if lo > cap:
        return None
    for step in range(grid + 1):
        rate = lo + (cap - lo) * step / grid
        delay = t_nu - xi / rate
        if delay < 0:
            continue
        if all(
            link.ledger.admissible(rate, delay, spec.max_packet)
            for link in path.delay_based_links()
        ):
            return rate
    return None


class TestRateOnlyAdmission:
    def test_loose_bound_grants_mean_rate(self, rate_only_stack, type0_spec):
        ac, path1, _p2, _mib = rate_only_stack
        decision = ac.admit(
            AdmissionRequest("f", type0_spec, 2.44), path1
        )
        assert decision.admitted
        assert decision.rate == pytest.approx(50000)
        assert decision.delay == 0.0

    def test_tight_bound_grants_higher_rate(self, rate_only_stack, type0_spec):
        ac, path1, _p2, _mib = rate_only_stack
        decision = ac.admit(AdmissionRequest("f", type0_spec, 2.19), path1)
        assert decision.rate == pytest.approx(168000 / 3.11)

    def test_unachievable_delay_rejected(self, rate_only_stack, type0_spec):
        ac, path1, _p2, _mib = rate_only_stack
        decision = ac.test(AdmissionRequest("f", type0_spec, 0.3), path1)
        assert not decision.admitted
        assert decision.reason is RejectionReason.DELAY_UNACHIEVABLE

    def test_bandwidth_exhaustion_rejected(self, rate_only_stack, type0_spec):
        ac, path1, _p2, _mib = rate_only_stack
        for index in range(30):
            assert ac.admit(
                AdmissionRequest(f"f{index}", type0_spec, 2.44), path1
            ).admitted
        decision = ac.test(AdmissionRequest("f30", type0_spec, 2.44), path1)
        assert decision.reason is RejectionReason.INSUFFICIENT_BANDWIDTH

    def test_duplicate_flow_rejected(self, rate_only_stack, type0_spec):
        ac, path1, _p2, _mib = rate_only_stack
        ac.admit(AdmissionRequest("f", type0_spec, 2.44), path1)
        decision = ac.test(AdmissionRequest("f", type0_spec, 2.44), path1)
        assert decision.reason is RejectionReason.DUPLICATE

    def test_test_phase_has_no_side_effects(self, rate_only_stack, type0_spec):
        ac, path1, _p2, node_mib = rate_only_stack
        ac.test(AdmissionRequest("f", type0_spec, 2.44), path1)
        assert node_mib.link("I1", "R2").reserved_rate == 0

    def test_admit_books_every_hop(self, rate_only_stack, type0_spec):
        ac, path1, _p2, _mib = rate_only_stack
        ac.admit(AdmissionRequest("f", type0_spec, 2.44), path1)
        for link in path1.links:
            assert link.rate_of("f") == pytest.approx(50000)

    def test_release_restores_everything(self, rate_only_stack, type0_spec):
        ac, path1, _p2, _mib = rate_only_stack
        ac.admit(AdmissionRequest("f", type0_spec, 2.44), path1)
        ac.release("f")
        for link in path1.links:
            assert not link.holds("f")
        assert path1.residual_bandwidth() == pytest.approx(1.5e6)

    def test_granted_bound_matches_requirement(self, rate_only_stack,
                                               type0_spec):
        ac, path1, _p2, _mib = rate_only_stack
        ac.admit(AdmissionRequest("f", type0_spec, 2.44), path1)
        assert ac.granted_delay_bound("f") <= 2.44 + 1e-9

    def test_shared_link_consumes_both_paths(self, rate_only_stack,
                                             type0_spec):
        """Reservations from path 2 shrink path 1's residual bandwidth
        on the shared R2->R3 link."""
        ac, path1, path2, _mib = rate_only_stack
        ac.admit(AdmissionRequest("f", type0_spec, 2.44), path2)
        assert path1.residual_bandwidth() == pytest.approx(1.45e6)


class TestMixedAdmission:
    def test_first_flow_minimal_rate(self, mixed_stack, type0_spec):
        ac, path1, _p2, _mib = mixed_stack
        decision = ac.admit(AdmissionRequest("f", type0_spec, 2.19), path1)
        assert decision.admitted
        assert decision.rate == pytest.approx(50000)
        assert decision.delay == pytest.approx(0.115)

    def test_e2e_bound_holds_for_every_admission(self, mixed_stack,
                                                 type0_spec):
        ac, path1, _p2, _mib = mixed_stack
        index = 0
        while True:
            decision = ac.admit(
                AdmissionRequest(f"f{index}", type0_spec, 2.19), path1
            )
            if not decision.admitted:
                break
            bound = e2e_delay_bound(
                type0_spec, decision.rate, decision.delay, path1.profile()
            )
            assert bound <= 2.19 + 1e-6
            index += 1
        assert index == 27  # Table 2

    def test_all_hops_stay_schedulable(self, mixed_stack, type0_spec):
        ac, path1, _p2, _mib = mixed_stack
        index = 0
        while ac.admit(
            AdmissionRequest(f"f{index}", type0_spec, 2.19), path1
        ).admitted:
            index += 1
            for link in path1.delay_based_links():
                assert link.ledger.is_schedulable()

    def test_pure_delay_based_path(self, type0_spec):
        ac, path = build_stack([D, D, D])
        decision = ac.admit(AdmissionRequest("f", type0_spec, 2.0), path)
        assert decision.admitted
        assert decision.delay > 0

    def test_unachievable_requirement(self, mixed_stack, type0_spec):
        ac, path1, _p2, _mib = mixed_stack
        decision = ac.test(AdmissionRequest("f", type0_spec, 0.2), path1)
        assert not decision.admitted

    def test_rejection_names_the_flow(self, mixed_stack, type0_spec):
        """A mixed-path rejection carries the request's flow id out of
        ``test()``, ``admit()`` and ``admit_batch()``; only the bare
        probe, which has no request, leaves it blank."""
        ac, path1, _p2, _mib = mixed_stack
        hopeless = AdmissionRequest("x1", type0_spec, 0.0001)
        for decision in (
            ac.test(hopeless, path1),
            ac.admit(hopeless, path1),
            ac.admit_batch([hopeless], path1)[0],
        ):
            assert not decision.admitted
            assert decision.flow_id == "x1"
            assert decision.path_id == path1.path_id
            assert decision.reason is not None
        probe = ac.probe_min_rate_pair(type0_spec, 0.0001, path1)
        assert not probe.admitted and probe.flow_id == ""

    def test_release_on_mixed_path(self, mixed_stack, type0_spec):
        ac, path1, _p2, _mib = mixed_stack
        ac.admit(AdmissionRequest("f", type0_spec, 2.19), path1)
        ac.release("f")
        for link in path1.delay_based_links():
            assert len(link.ledger) == 0

    def test_admitting_more_after_release(self, mixed_stack, type0_spec):
        """Release then re-admit reaches the same count (no leakage)."""
        ac, path1, _p2, _mib = mixed_stack
        admitted = []
        index = 0
        while ac.admit(
            AdmissionRequest(f"f{index}", type0_spec, 2.19), path1
        ).admitted:
            admitted.append(f"f{index}")
            index += 1
        for flow_id in admitted[:10]:
            ac.release(flow_id)
        recovered = 0
        while ac.admit(
            AdmissionRequest(f"g{recovered}", type0_spec, 2.19), path1
        ).admitted:
            recovered += 1
        assert recovered == 10

    def test_heterogeneous_deadlines(self):
        """Flows of all four Table 1 types coexist on a mixed path."""
        ac, path = build_stack([R, D, D])
        admitted = 0
        for index in range(40):
            profile = flow_type(index % 4)
            decision = ac.admit(
                AdmissionRequest(
                    f"f{index}", profile.spec, profile.tight_delay
                ),
                path,
            )
            if decision.admitted:
                admitted += 1
                for link in path.delay_based_links():
                    assert link.ledger.is_schedulable()
        assert admitted >= 20


class TestFigure4AgainstBruteForce:
    """The path-oriented algorithm vs an independent rate sweep."""

    def random_spec(self, rng):
        rho = rng.uniform(5000, 80000)
        return TSpec(
            sigma=rng.uniform(12000, 100000),
            rho=rho,
            peak=rho + rng.uniform(1000, 150000),
            max_packet=12000,
        )

    @pytest.mark.parametrize("seed", range(12))
    def test_agreement_under_random_load(self, seed):
        rng = random.Random(seed)
        kinds = rng.choice([[R, D, D], [D, D], [R, R, D], [R, D, R, D, D]])
        ac, path = build_stack(kinds)
        # Random pre-load.
        for index in range(rng.randint(0, 25)):
            spec = self.random_spec(rng)
            ac.admit(
                AdmissionRequest(
                    f"pre{index}", spec, rng.uniform(0.5, 4.0)
                ),
                path,
            )
        # Probe candidates.
        for probe in range(15):
            spec = self.random_spec(rng)
            delay_req = rng.uniform(0.3, 4.0)
            decision = ac.test(
                AdmissionRequest(f"probe{probe}", spec, delay_req), path
            )
            oracle = brute_force_admissible(spec, delay_req, path)
            if decision.admitted:
                # The granted pair must satisfy the delay bound and the
                # local conditions (the algorithm double-checks, but
                # verify independently).
                bound = e2e_delay_bound(
                    spec, decision.rate, decision.delay, path.profile()
                )
                assert bound <= delay_req + 1e-6
                for link in path.delay_based_links():
                    assert link.ledger.admissible(
                        decision.rate, decision.delay, spec.max_packet
                    )
                # Minimality: the oracle cannot beat us by more than
                # its own grid resolution.
                if oracle is not None:
                    assert decision.rate <= oracle + 1e-6
            else:
                # The oracle must not find a clearly feasible rate.
                if oracle is not None:
                    cap = min(spec.peak, path.residual_bandwidth())
                    assert oracle >= cap - cap * 1e-3
