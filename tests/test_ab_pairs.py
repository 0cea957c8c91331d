"""The summary of scripts/ab_pairs.py on fixed numbers (no benchmark runs)."""
import pathlib
import sys

import pytest

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "scripts"))
import ab_pairs  # noqa: E402

PARENT = [0.50, 0.52, 0.51, 0.53, 0.49, 0.50, 0.52, 0.54, 0.51, 0.50]


def test_a_clear_gain_holds_the_claim():
    change = [0.37, 0.36, 0.38, 0.37, 0.36, 0.39, 0.37, 0.36, 0.38, 0.37]
    s = ab_pairs.summarize(PARENT, change, "lower")
    assert (s["wins"], s["ties"], s["pairs"]) == (10, 0, 10)
    assert s["parent"] == pytest.approx((0.5, 0.51, 0.52))
    assert s["change"][1] == pytest.approx(0.37)
    assert s["gap"] == pytest.approx(0.14) and s["parent_iqr"] == pytest.approx(0.02)
    assert s["claim"]


def test_eight_wins_of_ten_do_not_hold_the_claim():
    change = [0.30] * 8 + [0.60, 0.60]
    s = ab_pairs.summarize(PARENT, change, "lower")
    assert s["wins"] == 8 and not s["claim"]


def test_a_gap_inside_the_parents_spread_does_not_hold_the_claim():
    change = [p - 0.01 for p in PARENT]
    s = ab_pairs.summarize(PARENT, change, "lower")
    assert s["wins"] == 10 and s["gap"] < s["parent_iqr"] and not s["claim"]


def test_higher_is_better_and_ties():
    s = ab_pairs.summarize([1.0, 2.0, 3.0, 4.0], [1.0, 2.0, 9.0, 9.0], "higher")
    assert (s["wins"], s["ties"]) == (2, 2)
    assert s["gap"] == pytest.approx(3.0) and s["gap"] > s["parent_iqr"] and not s["claim"]
    line = ab_pairs.format_summary("rules_kept", "count", s)
    assert "change wins 2/4, ties 2" in line and "claim fails" in line


def test_sides_must_pair_up():
    with pytest.raises(ValueError):
        ab_pairs.summarize([1.0], [1.0, 2.0], "lower")
