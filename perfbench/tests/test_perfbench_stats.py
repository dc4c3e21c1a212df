import pytest

from hostspeed import REFERENCE_S, reference_s, scaled
from run import command_medians
from stats import percentile, tail_percentile
from workloads import OpResult


def test_percentile_is_nearest_rank():
    values = list(range(1, 101))  # 1..100
    assert percentile(values, 50) == 50
    assert percentile(values, 90) == 90
    assert percentile(values, 100) == 100
    assert percentile([7.0], 50) == 7.0
    assert percentile([3, 1, 2], 50) == 2  # unsorted input


def test_percentile_rejects_bad_input():
    with pytest.raises(ValueError):
        percentile([], 50)
    with pytest.raises(ValueError):
        percentile([1], 0)


@pytest.mark.parametrize("n, expected", [
    (1000, 99.0),  # 10 samples above rank 990
    (999, 90.0),
    (100, 90.0),   # exactly 10 above rank 90
    (99, 75.0),    # p90 would leave 9
    (20, 50.0),
    (19, None),    # even the median leaves only 9
])
def test_tail_percentile_keeps_ten_samples_beyond(n, expected):
    assert tail_percentile(n) == expected


def test_command_medians_take_each_command_median_across_repeats():
    def batch(walls, bad=False):
        ops = [OpResult(w, w / 2, work) for w, work in zip(walls, (10, 1))]
        for res in ops if bad else []:
            res.problems.append("failed")
        return (False, ops)

    batches = [batch([1.0, 0.2]), batch([3.0, 0.4]), batch([2.0, 0.3]), batch([0.1, 9.0], bad=True)]
    run_s, core_s, work = command_medians(batches)
    # medians 2.0 and 0.3; the failed repeats are left out
    assert run_s == pytest.approx((2.0 + 0.3) / 2)
    assert core_s == pytest.approx(1.0 + 0.15)
    assert work == 11


def test_times_are_scaled_by_the_reference_kernel_around_each_op():
    slow, quick = OpResult(3.0, 2.0, 10, ref_s=2 * REFERENCE_S), OpResult(1.0, 0.5, 10)
    batches = [(False, [slow]), (False, [quick]), (False, [OpResult(1.2, 0.6, 10)])]
    # scaled: 1.5, 1.0 and 1.2 s; the op in a host slowed twofold is no outlier
    run_s, core_s, work = command_medians(batches)
    assert run_s == pytest.approx(1.2)
    assert core_s == pytest.approx(0.6)
    assert work == 10
    run_s, core_s, _ = command_medians(batches, scale=False)
    assert run_s == pytest.approx(1.2)
    assert core_s == pytest.approx(0.6)
    slow.ref_s = 4 * REFERENCE_S  # 0.75 s scaled: now the median changes
    assert command_medians(batches)[0] == pytest.approx(1.0)
    assert command_medians(batches, scale=False)[0] == pytest.approx(1.2)


def test_scaled_reads_times_at_the_reference_speed():
    assert scaled(2.0, REFERENCE_S) == pytest.approx(2.0)
    assert scaled(2.0, 2 * REFERENCE_S) == pytest.approx(1.0)
    assert 0.0 < reference_s() < 1.0
