import math

import pytest

from stats import nearest_rank, quartile_spread, ranked, tail


def test_failures_rank_after_every_success():
    values = ranked([0.5, 0.001, 9.0, 0.2], [True, False, True, True])
    assert values == [0.2, 0.5, 9.0, math.inf]


def test_median_reads_infinite_once_half_the_ops_fail():
    values = ranked([1.0, 2.0, 3.0, 4.0], [True, True, False, False])
    assert nearest_rank(values, 50.0) == 2.0
    values = ranked([1.0, 2.0, 3.0, 4.0, 5.0], [True, True, False, False, False])
    assert nearest_rank(values, 50.0) == math.inf


def test_turning_a_fast_failure_into_a_slow_success_never_raises_a_percentile():
    before = ranked([0.1, 0.2, 0.001], [True, True, False])
    after = ranked([0.1, 0.2, 5.0], [True, True, True])
    for pct in (34.0, 50.0, 67.0, 100.0):
        assert nearest_rank(after, pct) <= nearest_rank(before, pct)


def test_nearest_rank_picks_a_measured_sample():
    values = [float(i) for i in range(1, 101)]
    assert nearest_rank(values, 50.0) == 50.0
    assert nearest_rank(values, 90.0) == 90.0
    assert nearest_rank(values, 100.0) == 100.0
    with pytest.raises(ValueError):
        nearest_rank(values, 0.0)


@pytest.mark.parametrize("n", [11, 21, 25, 70, 400])
def test_tail_leaves_exactly_ten_samples_beyond(n):
    values = [float(i) for i in range(n)]
    pct, value = tail(values)
    assert sum(v > value for v in values) == 10
    assert nearest_rank(values, pct) == value
    # any higher percentile has fewer than ten samples beyond it
    assert sum(v > nearest_rank(values, min(100.0, pct + 100.0 / n)) for v in values) < 10


def test_tail_rank_and_value():
    values = ranked([float(i) for i in range(70)], [True] * 70)
    assert tail(values) == (100.0 * 60 / 70, 59.0)


def test_tail_lands_on_a_failure_when_ten_ops_fail():
    values = ranked([float(i) for i in range(30)], [True] * 20 + [False] * 10)
    assert tail(values) == (100.0 * 20 / 30, 19.0)
    values = ranked([float(i) for i in range(30)], [True] * 19 + [False] * 11)
    assert tail(values)[1] == math.inf


def test_tail_needs_more_than_ten_samples():
    with pytest.raises(ValueError):
        tail([1.0] * 10)


def test_quartile_spread():
    assert quartile_spread([1.0, 1.0, 1.0, 1.0]) == 0.0
    assert quartile_spread([1.0, 2.0, 3.0, 4.0, 5.0]) == pytest.approx((4.5 - 1.5) / 3.0)
