"""The rule by which tools/bench_pairs.py lets a change claim a gain."""
import importlib.util
import pathlib

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]
_SPEC = importlib.util.spec_from_file_location(
    "bench_pairs", ROOT / "tools" / "bench_pairs.py")
bench_pairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_pairs)
summarise = bench_pairs.summarise

LOWER = {"name": "job_s", "unit": "s", "better": "lower", "bound": 0.25}
HIGHER = {**LOWER, "name": "fwsegsnr", "better": "higher"}
# Ten parent runs at 1.0 ... 1.9: median 1.45, inclusive Q1-Q3 1.225-1.675,
# so a claimable gain must move the median by more than 0.45. That spread
# is 31% of the median, wider than the 25% bound.
PARENT = [1.0 + i / 10 for i in range(10)]
# Ten parent runs at 1.0 ... 1.09, whose spread is 4% of their median.
NARROW = [1.0 + i / 100 for i in range(10)]


def test_parent_quartiles_are_the_inclusive_ones():
    assert bench_pairs.quartiles(PARENT) == pytest.approx((1.225, 1.675))


@pytest.mark.parametrize("shift, losers, claimable", [
    (-0.5, (), "yes"),      # 10 of 10 wins, gap 0.5 > 0.45
    (-0.5, (9,), "yes"),    # 9 of 10 wins is enough
    (-0.5, (8, 9), "no"),   # 8 of 10 is not
    (-0.4, (), "no"),       # every pair wins, but the gap is inside Q1-Q3
])
def test_gain_needs_nine_tenths_of_the_pairs_and_a_gap_beyond_the_spread(
        shift, losers, claimable):
    change = [p + (0.05 if i in losers else shift)
              for i, p in enumerate(PARENT)]
    line = summarise(LOWER, PARENT, change)
    wins = len(PARENT) - len(losers)
    assert (f"change better in {wins}, worse in {len(losers)} of 10 pairs"
            in line)
    assert line.endswith(f"gain claimable: {claimable}")


def test_ties_count_for_neither_side():
    change = list(PARENT)  # one win and one loss, at the two ends
    change[0] -= 0.5
    change[-1] += 0.5
    line = summarise(LOWER, PARENT, change)
    assert "change better in 1, worse in 1 of 10 pairs" in line
    assert "worse by +0.00%" in line and line.endswith("claimable: no")


def test_better_higher_flips_the_sign():
    higher = [p + 0.5 for p in PARENT]
    lower = [p - 0.5 for p in PARENT]
    assert summarise(HIGHER, PARENT, higher).endswith("claimable: yes")
    assert summarise(LOWER, PARENT, higher).endswith("claimable: no")
    line = summarise(HIGHER, PARENT, lower)
    assert "change better in 0, worse in 10 of 10 pairs" in line
    assert line.endswith("claimable: no")


@pytest.mark.parametrize("metric, factor, verdict", [
    (LOWER, 1.3, "beyond"), (LOWER, 1.2, "unresolved"), (LOWER, 0.5, "within"),
    (HIGHER, 0.7, "beyond"), (HIGHER, 0.8, "unresolved"),
])
def test_verdict_reads_the_median_move_against_the_bound(metric, factor,
                                                         verdict):
    """Worse by the relative median move: 30% against a 25% bound is
    beyond it. 20% is within it, but PARENT's spread is wider than the
    bound, so it is unresolved. A gain in every run is within."""
    line = summarise(metric, PARENT, [p * factor for p in PARENT])
    assert f"({verdict} bound 25%)" in line


@pytest.mark.parametrize("parent, change, verdict", [
    (NARROW, [p * 1.2 for p in NARROW], "within"),   # spread 4% < 25%
    (NARROW, [p * 0.8 for p in NARROW], "within"),
    (PARENT, [p - 0.3 for p in PARENT], "unresolved"),  # median gain only
    # the last change run ties the parent's best run, or beats it
    (PARENT, [p - 1.0 for p in PARENT[:-1]] + [1.0], "unresolved"),
    (PARENT, [p - 1.0 for p in PARENT[:-1]] + [0.99], "within"),
    (PARENT, list(PARENT), "unresolved"),             # no move at all
], ids=["narrow-worse", "narrow-better", "wide-median-gain", "wide-one-tie",
        "wide-every-run-better", "wide-equal"])
def test_a_move_within_a_bound_the_parents_spread_hides_is_unresolved(
        parent, change, verdict):
    """Within the bound, the verdict is unresolved when the parent's
    Q3 - Q1 is wider than the bound times its median, unless every change
    run reads better than every parent run."""
    assert f"({verdict} bound 25%)" in summarise(LOWER, parent, change)


@pytest.mark.parametrize("parent, change", [
    ([], []),
    ([1.0], [1.0]),
    ([1.0, None, 2.0], [1.5, 3.0, None]),
    ([None, None], [1.0, 2.0]),
])
def test_fewer_than_two_complete_pairs_is_reported(parent, change):
    assert summarise(LOWER, parent, change) == (
        "job_s: fewer than 2 complete pairs")


def test_a_pair_with_a_missing_run_is_left_out():
    parent = [*PARENT, None, 5.0]
    change = [*(p - 0.5 for p in PARENT), 0.1, None]
    line = summarise(LOWER, parent, change)
    assert "of 10 pairs" in line and line.endswith("claimable: yes")
