import statistics

import pytest

from bench_stats import median, quartiles, relative_spread


def test_median_odd_and_even():
    assert median([3.0, 1.0, 2.0]) == 2.0
    assert median([4.0, 1.0, 2.0, 3.0]) == 2.5


def test_median_of_nothing_is_an_error():
    with pytest.raises(ValueError):
        median([])


def test_quartiles_match_statistics_quantiles():
    values = [0.91, 1.07, 0.98, 1.21, 1.02, 0.95, 1.10, 1.00, 0.99, 1.04]
    q1, q2, q3 = quartiles(values)
    assert (q1, q2, q3) == tuple(statistics.quantiles(values, n=4))
    assert q1 < q2 < q3


def test_single_value_is_its_own_quartiles():
    assert quartiles([2.5]) == (2.5, 2.5, 2.5)
    assert relative_spread([2.5]) == 0.0


def test_relative_spread_is_iqr_over_median():
    values = [1.0, 2.0, 3.0, 4.0, 5.0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    assert relative_spread(values) == pytest.approx((q3 - q1) / 3.0)
