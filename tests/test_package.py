"""Package-level contracts: exports, version, error hierarchy."""

import pytest

import repro
from repro import errors


class TestExports:
    def test_version(self):
        assert repro.__version__ == "1.0.0"

    def test_all_exports_resolve(self):
        for name in repro.__all__:
            assert hasattr(repro, name), name

    def test_core_exports_resolve(self):
        import repro.core
        for name in repro.core.__all__:
            assert hasattr(repro.core, name), name

    def test_subpackages_importable(self):
        import repro.analysis
        import repro.callsim
        import repro.experiments
        import repro.interdomain
        import repro.intserv
        import repro.netsim
        import repro.traffic
        import repro.vtrs
        import repro.workloads  # noqa: F401

    def test_quickstart_docstring_runs(self):
        """The module docstring's quickstart snippet must stay honest."""
        from repro import BandwidthBroker, TSpec
        from repro.vtrs.timestamps import SchedulerKind

        bb = BandwidthBroker()
        bb.add_link("I1", "R1", 10e6, SchedulerKind.RATE_BASED,
                    max_packet=12000)
        bb.add_link("R1", "E1", 10e6, SchedulerKind.RATE_BASED,
                    max_packet=12000)
        spec = TSpec(sigma=60000, rho=50e3, peak=100e3, max_packet=12000)
        decision = bb.request_service("flow-1", spec, 0.5, "I1", "E1")
        assert decision.admitted


class TestErrorHierarchy:
    @pytest.mark.parametrize("exc", [
        errors.ConfigurationError,
        errors.TopologyError,
        errors.TrafficSpecError,
        errors.SchedulingError,
        errors.SimulationError,
        errors.SignalingError,
        errors.StateError,
    ])
    def test_all_derive_from_repro_error(self, exc):
        assert issubclass(exc, errors.ReproError)

    def test_topology_is_configuration(self):
        assert issubclass(errors.TopologyError, errors.ConfigurationError)

    def test_trafficspec_is_configuration(self):
        assert issubclass(errors.TrafficSpecError,
                          errors.ConfigurationError)

    def test_single_except_catches_everything(self, type0_spec):
        """Library failures are catchable with one except clause."""
        from repro.core.schedulability import DeadlineLedger
        try:
            DeadlineLedger(0)
        except errors.ReproError:
            pass
        else:  # pragma: no cover
            pytest.fail("expected a ReproError")


class TestStressSanity:
    def test_large_domain_large_population(self):
        """A 20-core-node mesh absorbs hundreds of admissions with all
        invariants intact (a scalability smoke test, not a benchmark)."""
        import random

        from repro.core.broker import BandwidthBroker
        from repro.workloads.profiles import flow_type
        from repro.workloads.random_topologies import random_domain

        domain = random_domain(
            42, core_nodes=20, extra_links=25,
            ingresses=4, egresses=4,
            capacity_range=(5e6, 20e6),
        )
        broker = BandwidthBroker()
        for link in domain.node_mib.links():
            broker.add_link(
                link.link_id[0], link.link_id[1], link.capacity,
                link.kind, max_packet=link.max_packet,
            )
        rng = random.Random(42)
        admitted = 0
        for index in range(500):
            profile = flow_type(rng.randrange(4))
            decision = broker.request_service(
                f"f{index}", profile.spec, rng.uniform(0.5, 5.0),
                rng.choice(domain.ingresses), rng.choice(domain.egresses),
            )
            if decision.admitted:
                admitted += 1
            if index % 5 == 4 and admitted:
                # Churn: terminate a random active flow.
                records = broker.flow_mib.records()
                if records:
                    broker.terminate(rng.choice(records).flow_id)
                    admitted -= 1
        assert admitted > 100
        for link in broker.node_mib.links():
            assert link.reserved_rate <= link.capacity * (1 + 1e-9)
            if link.ledger is not None:
                assert link.ledger.is_schedulable()
