"""TSpec: validation, derived quantities, aggregation (Section 4.1)."""

import math
import sys

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import TrafficSpecError
from repro.traffic.spec import ServiceSpec, TSpec, aggregate_tspec


def tspecs(max_rate=1e7):
    """Hypothesis strategy for valid TSpecs."""
    return st.builds(
        lambda l, extra_sigma, rho, extra_peak: TSpec(
            sigma=l + extra_sigma, rho=rho, peak=rho + extra_peak, max_packet=l
        ),
        st.floats(min_value=100, max_value=1e5),       # L
        st.floats(min_value=0, max_value=1e6),          # sigma - L
        st.floats(min_value=1, max_value=max_rate),     # rho
        st.floats(min_value=0, max_value=max_rate),     # P - rho
    )


def _conditioning(pairs):
    """How much the worst ``big - small`` among *pairs* amplifies a
    relative error in its operands: ``max(big) / min(big - small)``
    (1.0 when no pair has a positive difference)."""
    gaps = [big - small for big, small in pairs if big > small]
    if not gaps:
        return 1.0
    return max(big for big, _ in pairs) / min(gaps)


class TestValidation:
    def test_valid_spec(self, type0_spec):
        assert type0_spec.sigma == 60000

    def test_sigma_below_packet_rejected(self):
        with pytest.raises(TrafficSpecError):
            TSpec(sigma=1000, rho=100, peak=200, max_packet=2000)

    def test_peak_below_rho_rejected(self):
        with pytest.raises(TrafficSpecError):
            TSpec(sigma=5000, rho=300, peak=200, max_packet=1000)

    def test_zero_rho_rejected(self):
        with pytest.raises(TrafficSpecError):
            TSpec(sigma=5000, rho=0, peak=200, max_packet=1000)

    def test_zero_packet_rejected(self):
        with pytest.raises(TrafficSpecError):
            TSpec(sigma=5000, rho=100, peak=200, max_packet=0)

    def test_nan_rejected(self):
        with pytest.raises(TrafficSpecError):
            TSpec(sigma=math.nan, rho=100, peak=200, max_packet=100)

    def test_inf_rejected(self):
        with pytest.raises(TrafficSpecError):
            TSpec(sigma=5000, rho=100, peak=math.inf, max_packet=100)

    def test_frozen(self, type0_spec):
        with pytest.raises(AttributeError):
            type0_spec.rho = 1.0

    def test_hashable(self, type0_spec):
        assert hash(type0_spec) == hash(
            TSpec(sigma=60000, rho=50000, peak=100000, max_packet=12000)
        )


class TestTOn:
    def test_type0_value(self, type0_spec):
        # (60000 - 12000) / (100000 - 50000) = 0.96
        assert type0_spec.t_on == pytest.approx(0.96)

    def test_single_packet_bucket_is_zero(self):
        spec = TSpec(sigma=1000, rho=100, peak=500, max_packet=1000)
        assert spec.t_on == 0.0

    def test_cbr_single_packet(self):
        spec = TSpec(sigma=1000, rho=100, peak=100, max_packet=1000)
        assert spec.t_on == 0.0

    def test_cbr_with_burst_is_infinite(self):
        # P == rho but sigma > L: the bucket can stay "on" forever.
        spec = TSpec(sigma=5000, rho=100, peak=100, max_packet=1000)
        assert math.isinf(spec.t_on)


class TestEdgeDelay:
    def test_type0_at_mean_rate(self, type0_spec):
        # 0.96 * (100000-50000)/50000 + 12000/50000 = 0.96 + 0.24 = 1.2
        assert type0_spec.edge_delay(50000) == pytest.approx(1.2)

    def test_at_peak_only_packet_term(self, type0_spec):
        assert type0_spec.edge_delay(100000) == pytest.approx(0.12)

    def test_above_peak_clamps(self, type0_spec):
        assert type0_spec.edge_delay(1e9) == pytest.approx(
            type0_spec.edge_delay(type0_spec.peak)
        )

    def test_zero_rate_rejected(self, type0_spec):
        with pytest.raises(TrafficSpecError):
            type0_spec.edge_delay(0)

    def test_monotone_decreasing_in_rate(self, type0_spec):
        delays = [
            type0_spec.edge_delay(rate)
            for rate in (50000, 60000, 75000, 100000)
        ]
        assert delays == sorted(delays, reverse=True)


class TestMinRateForEdgeDelay:
    def test_inverts_edge_delay(self, type0_spec):
        target = 0.8
        rate = type0_spec.min_rate_for_edge_delay(target)
        assert type0_spec.edge_delay(rate) == pytest.approx(target)

    def test_clamped_to_rho(self, type0_spec):
        # A very loose target still needs at least the sustained rate.
        assert type0_spec.min_rate_for_edge_delay(100.0) == type0_spec.rho

    def test_unachievable_returns_inf(self, type0_spec):
        # Even the peak rate has delay L/P = 0.12.
        assert math.isinf(type0_spec.min_rate_for_edge_delay(0.01))

    def test_nonpositive_target_is_inf(self, type0_spec):
        assert math.isinf(type0_spec.min_rate_for_edge_delay(0.0))
        assert math.isinf(type0_spec.min_rate_for_edge_delay(-1.0))

    @given(tspecs(), st.floats(min_value=0.01, max_value=100.0))
    def test_roundtrip_never_exceeds_target(self, spec, target):
        rate = spec.min_rate_for_edge_delay(target)
        if math.isfinite(rate):
            # The inversion is analytically exact; the achievable float
            # accuracy degrades with the conditioning of the
            # T_on (P - r)/r term (huge T_on with P ~ rho amplifies the
            # cancellation in P - r), so the tolerance scales with it.
            conditioning = 1e-11 * spec.t_on * spec.peak / rate
            assert spec.edge_delay(rate) <= target * (1 + 1e-9) + 1e-9 + conditioning


class TestEnvelope:
    def test_at_zero_is_packet(self, type0_spec):
        assert type0_spec.envelope(0.0) == pytest.approx(12000)

    def test_at_breakpoint_pieces_agree(self, type0_spec):
        t_on = type0_spec.t_on
        assert type0_spec.envelope(t_on) == pytest.approx(
            type0_spec.peak * t_on + type0_spec.max_packet
        )
        assert type0_spec.envelope(t_on) == pytest.approx(
            type0_spec.rho * t_on + type0_spec.sigma
        )

    def test_negative_interval_rejected(self, type0_spec):
        with pytest.raises(TrafficSpecError):
            type0_spec.envelope(-1.0)

    @given(tspecs(), st.floats(min_value=0, max_value=1000))
    def test_envelope_concave_pieces(self, spec, t):
        assert spec.envelope(t) <= spec.peak * t + spec.max_packet + 1e-6
        assert spec.envelope(t) <= spec.rho * t + spec.sigma + 1e-6

    @given(
        tspecs(),
        st.floats(min_value=0, max_value=500),
        st.floats(min_value=0, max_value=500),
    )
    def test_envelope_nondecreasing(self, spec, a, b):
        lo, hi = sorted((a, b))
        assert spec.envelope(lo) <= spec.envelope(hi) + 1e-6


class TestAggregation:
    def test_add_componentwise(self, type0_spec, type3_spec):
        total = type0_spec + type3_spec
        assert total.sigma == type0_spec.sigma + type3_spec.sigma
        assert total.rho == type0_spec.rho + type3_spec.rho
        assert total.peak == type0_spec.peak + type3_spec.peak
        assert total.max_packet == (
            type0_spec.max_packet + type3_spec.max_packet
        )

    def test_sub_inverts_add(self, type0_spec, type3_spec):
        total = type0_spec + type3_spec
        back = total - type3_spec
        assert back == type0_spec

    def test_sub_invalid_raises(self, type0_spec):
        big = type0_spec.scaled(3)
        with pytest.raises(TrafficSpecError):
            _ = type0_spec - big  # would go negative

    def test_scaled_equals_repeated_add(self, type0_spec):
        assert type0_spec.scaled(3) == type0_spec + type0_spec + type0_spec

    def test_scaled_nonpositive_rejected(self, type0_spec):
        with pytest.raises(TrafficSpecError):
            type0_spec.scaled(0)

    def test_aggregate_tspec(self, type0_spec, type3_spec):
        assert aggregate_tspec([type0_spec, type3_spec]) == (
            type0_spec + type3_spec
        )

    def test_aggregate_empty_rejected(self):
        with pytest.raises(TrafficSpecError):
            aggregate_tspec([])

    @given(st.lists(tspecs(), min_size=1, max_size=5))
    def test_aggregate_order_invariant(self, specs):
        forward = aggregate_tspec(specs)
        backward = aggregate_tspec(list(reversed(specs)))
        assert forward.sigma == pytest.approx(backward.sigma)
        assert forward.rho == pytest.approx(backward.rho)

    @given(tspecs(), tspecs())
    def test_aggregate_t_on_between_members(self, a, b):
        """T_on of an aggregate lies within the members' range."""
        total = a + b
        t_ons = sorted([a.t_on, b.t_on])
        # A member with sigma == L *and* P == rho is 0/0: its
        # conventional T_on = 0 bounds nothing, and the aggregate may
        # come out peak-equals-mean (T_on = inf) — not a quotient
        # either, so there is no range to check.
        if all(math.isfinite(t) for t in (*t_ons, total.t_on)):
            # The aggregate's sigma, L, P and rho are rounded sums, so
            # its differences carry an error of a few ulps *of the
            # sums*; relative to (P - rho) or (sigma - L) that error
            # grows without bound as the two come together.  The
            # tolerance therefore scales with the conditioning of the
            # two differences in T_on = (sigma - L) / (P - rho).
            specs = (a, b, total)
            tolerance = 4 * sys.float_info.epsilon * (
                _conditioning([(s.peak, s.rho) for s in specs])
                + _conditioning([(s.sigma, s.max_packet) for s in specs])
            )
            low = t_ons[0] * (1 - tolerance) - 1e-9
            high = t_ons[1] * (1 + tolerance) + 1e-9
            assert low <= total.t_on <= high


class TestServiceSpec:
    def test_valid(self):
        assert ServiceSpec(2.44).delay_requirement == 2.44

    def test_named_class(self):
        assert ServiceSpec(1.0, name="gold").name == "gold"

    def test_nonpositive_rejected(self):
        with pytest.raises(TrafficSpecError):
            ServiceSpec(0.0)

    def test_nan_rejected(self):
        with pytest.raises(TrafficSpecError):
            ServiceSpec(math.nan)
