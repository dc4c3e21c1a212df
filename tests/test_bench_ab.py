import importlib.util
from pathlib import Path

import pytest

_path = Path(__file__).resolve().parent.parent / "tools" / "bench_ab.py"
_spec = importlib.util.spec_from_file_location("bench_ab", _path)
bench_ab = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_ab)

# ten parent runs with quartiles 99.25 and 100.75 (spread 1.5, median 100)
PARENT = [99.0, 101.0, 100.0, 98.0, 102.0, 100.0, 99.0, 101.0, 100.0, 100.0]


@pytest.mark.parametrize("change, higher, claim", [
    ([x + 2.0 for x in PARENT], True, True),  # 10 of 10, median +2 > 1.5
    ([x + 0.5 for x in PARENT], True, False),  # 10 of 10, but +0.5 is inside the spread
    ([x + 2.0 for x in PARENT[:9]] + [90.0], True, True),  # 9 of 10
    ([x + 2.0 for x in PARENT[:8]] + [90.0, 90.0], True, False),  # 8 of 10
    ([x + 2.0 for x in PARENT[:9]] + [PARENT[9]], True, True),  # a tie counts for neither
    ([x + 2.0 for x in PARENT[:8]] + PARENT[8:], True, False),
    ([x - 2.0 for x in PARENT], False, True),  # lower is better
    ([x - 2.0 for x in PARENT], True, False),
])
def test_claim_needs_nine_of_ten_wins_and_a_gain_beyond_the_spread(change, higher, claim):
    verdict = bench_ab.compare(PARENT, change, higher)
    assert verdict["claim"] is claim
    assert verdict["wins"] == sum((y > x) if higher else (y < x) for x, y in zip(PARENT, change))


def test_no_claim_from_fewer_than_ten_pairs():
    assert bench_ab.compare(PARENT[:4], [x + 5.0 for x in PARENT[:4]], True) == {
        "wins": 4, "claim": False, "over_bound": False}


@pytest.mark.parametrize("factor, higher, bound, over", [
    (0.7, True, 0.25, True),  # 30% fewer per second, past a 25% bound
    (0.8, True, 0.25, False),
    (1.15, False, 0.1, True),  # 15% more time, past a 10% bound
    (1.05, False, 0.1, False),
    (0.1, True, None, False),  # no bound declared
])
def test_flags_a_median_worse_than_its_bound(factor, higher, bound, over):
    assert bench_ab.compare(PARENT, [factor * x for x in PARENT], higher, bound)["over_bound"] is over
