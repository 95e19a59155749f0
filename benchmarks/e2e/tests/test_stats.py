"""Nearest-rank percentiles and the driver's quartile spread."""

import pytest

from benchmarks.e2e.stats import iqr_share, percentile


def test_percentile_is_nearest_rank():
    values = [15, 20, 35, 40, 50]
    assert percentile(values, 5) == 15
    assert percentile(values, 30) == 20
    assert percentile(values, 40) == 20
    assert percentile(values, 50) == 35
    assert percentile(values, 100) == 50


def test_percentile_returns_a_sample_and_ignores_order():
    values = [9.0, 1.0, 5.0, 3.0]
    assert percentile(values, 50) == 3.0     # rank ceil(0.5 * 4) = 2
    assert percentile(values, 75) == 5.0
    assert percentile(values, 76) == 9.0
    assert percentile([7.0], 90) == 7.0


def test_p90_leaves_a_tenth_of_the_samples_beyond_it():
    values = list(range(1, 101))
    assert percentile(values, 90) == 90
    assert sum(1 for v in values if v > percentile(values, 90)) == 10


@pytest.mark.parametrize("q", [0, -1, 100.5])
def test_percentile_rejects_bad_q(q):
    with pytest.raises(ValueError):
        percentile([1, 2, 3], q)


def test_percentile_rejects_no_samples():
    with pytest.raises(ValueError):
        percentile([], 50)


def test_iqr_share_matches_statistics_quantiles():
    values = [10.0, 11.0, 12.0, 13.0, 14.0, 15.0, 16.0, 17.0, 18.0, 19.0]
    # statistics.quantiles(n=4): q1 = 11.75, q3 = 17.25, median 14.5
    assert iqr_share(values) == pytest.approx(5.5 / 14.5)
