"""Shared fixtures: Table 1 specs, Figure 8 domains, admission stacks."""

from __future__ import annotations

import pytest

from repro.core.admission import PerFlowAdmission
from repro.core.aggregate import AggregateAdmission, ContingencyMethod
from repro.intserv.gs import IntServAdmission
from repro.traffic.spec import TSpec
from repro.workloads.profiles import flow_type
from repro.workloads.topologies import SchedulerSetting, fig8_domain

try:
    from hypothesis import settings as hypothesis_settings
except ImportError:
    # CI jobs that run only example-based suites install bare pytest.
    hypothesis_settings = None

if hypothesis_settings is not None:
    # Tier-1 is a gate (``pytest -x``), so it must not depend on which
    # examples a fresh random seed happens to draw or on what an earlier
    # run left in ``.hypothesis/``: examples are derived from each
    # test's source, and nothing is read from or written to the example
    # database.  ``--hypothesis-profile=default`` brings the random
    # search back for a run that is meant to explore.
    hypothesis_settings.register_profile(
        "tier1", derandomize=True, database=None)
    hypothesis_settings.load_profile("tier1")


@pytest.fixture
def type0_spec() -> TSpec:
    """Table 1 type-0 profile: (60000, 50k, 100k, 12000)."""
    return flow_type(0).spec


@pytest.fixture
def type3_spec() -> TSpec:
    """Table 1 type-3 profile: (24000, 20k, 100k, 12000)."""
    return flow_type(3).spec


@pytest.fixture
def small_spec() -> TSpec:
    """A small generic spec for unit tests."""
    return TSpec(sigma=30000, rho=10000, peak=40000, max_packet=8000)


@pytest.fixture(params=[SchedulerSetting.RATE_ONLY, SchedulerSetting.MIXED],
                ids=["rate-only", "mixed"])
def any_setting(request) -> SchedulerSetting:
    """Both Figure 8 scheduler settings."""
    return request.param


@pytest.fixture
def rate_only_stack():
    """(admission, path1, path2, mibs) over the rate-only Figure 8 domain."""
    domain = fig8_domain(SchedulerSetting.RATE_ONLY)
    node_mib, flow_mib, path_mib, path1, path2 = domain.build_mibs()
    ac = PerFlowAdmission(node_mib, flow_mib, path_mib)
    return ac, path1, path2, node_mib


@pytest.fixture
def mixed_stack():
    """(admission, path1, path2, mibs) over the mixed Figure 8 domain."""
    domain = fig8_domain(SchedulerSetting.MIXED)
    node_mib, flow_mib, path_mib, path1, path2 = domain.build_mibs()
    ac = PerFlowAdmission(node_mib, flow_mib, path_mib)
    return ac, path1, path2, node_mib


@pytest.fixture
def intserv_stack():
    """(admission, path1, path2, mibs) for the IntServ baseline (mixed)."""
    domain = fig8_domain(SchedulerSetting.MIXED)
    node_mib, flow_mib, path_mib, path1, path2 = domain.build_mibs()
    ac = IntServAdmission(node_mib, flow_mib, path_mib)
    return ac, path1, path2, node_mib


@pytest.fixture
def aggregate_stack():
    """(aggregate admission, path1, path2, mibs) over the mixed domain."""
    domain = fig8_domain(SchedulerSetting.MIXED)
    node_mib, flow_mib, path_mib, path1, path2 = domain.build_mibs()
    ac = AggregateAdmission(
        node_mib, flow_mib, path_mib, method=ContingencyMethod.BOUNDING
    )
    return ac, path1, path2, node_mib
