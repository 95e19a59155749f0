"""The noise gate judges two sets of the same code the same way
whichever of them ran first."""

import pytest

from benchmarks.e2e.noise import gap_between, render

_LOWER = {"name": "admit_p90_ms", "unit": "ms", "better": "lower",
          "bound": 0.25}
_HIGHER = {"name": "goodput_rps", "unit": "1/s", "better": "higher",
           "bound": 0.25}


def test_gap_is_measured_from_the_better_median_in_both_orders():
    assert gap_between(6.0, 9.0, "lower") == pytest.approx(0.5)
    assert gap_between(9.0, 6.0, "lower") == pytest.approx(0.5)
    assert gap_between(600.0, 450.0, "higher") == pytest.approx(0.25)
    assert gap_between(450.0, 600.0, "higher") == pytest.approx(0.25)
    assert gap_between(5.0, 5.0, "lower") == 0.0


def _samples(first, second):
    return {"w": [{"admit_p90_ms": first, "goodput_rps": [500.0] * 3},
                  {"admit_p90_ms": second, "goodput_rps": [500.0] * 3}]}


@pytest.mark.parametrize("slow_set_first", [True, False])
def test_render_fails_a_gap_above_half_the_bound_in_either_order(
        slow_set_first):
    slow, fast = [9.2, 9.2, 9.2], [6.1, 6.1, 6.1]
    sets = (slow, fast) if slow_set_first else (fast, slow)
    text, failed = render(_samples(*sets), [_LOWER, _HIGHER], "test")
    assert failed
    row = next(line for line in text.splitlines()
               if line.startswith("| w | admit_p90_ms"))
    assert "| 50.8 % | FAIL |" in row
    steady = next(line for line in text.splitlines()
                  if line.startswith("| w | goodput_rps"))
    assert "| 0.0 % | ok |" in steady


def test_render_flags_a_wide_spread_on_every_metric_setup_too():
    setup = {"name": "setup_s", "unit": "s", "better": "lower",
             "bound": 0.25}
    values = [1.0, 1.1, 1.2, 1.3, 1.4]      # IQR 0.3 / 1.2 = 25 %
    samples = {"w": [{"setup_s": values}, {"setup_s": values}]}
    text, failed = render(samples, [setup], "test")
    assert not failed
    assert "| 0.0 % | wide |" in text


def test_render_passes_steady_sets():
    near = [5.0, 5.05, 5.1]
    text, failed = render(_samples(near, [5.1, 5.15, 5.2]),
                          [_LOWER, _HIGHER], "test")
    assert not failed
    assert "| FAIL |" not in text and "| wide |" not in text
