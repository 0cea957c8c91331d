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


def test_relative_change_of_the_median_and_the_bound():
    s = ab_pairs.summarize(PARENT, [p * 1.3 for p in PARENT], "lower", 0.25)
    assert s["relative"] == pytest.approx(0.3) and s["exceeds_bound"]
    s = ab_pairs.summarize(PARENT, [p * 1.2 for p in PARENT], "lower", 0.25)
    assert s["relative"] == pytest.approx(0.2) and not s["exceeds_bound"]
    line = ab_pairs.format_summary("pass_s", "s", ab_pairs.summarize(PARENT, [p * 0.5 for p in PARENT], "lower", 0.25))
    assert "(-50.0%)" in line and "exceeds bound" not in line
    # higher is better: a fall is what can exceed the bound
    s = ab_pairs.summarize([10.0, 10.0], [8.5, 8.5], "higher", 0.1)
    assert s["relative"] == pytest.approx(-0.15) and s["exceeds_bound"]
    assert "(-15.0%, exceeds bound)" in ab_pairs.format_summary("rules_kept", "count", s)
    assert not ab_pairs.summarize([10.0, 10.0], [13.0, 13.0], "higher", 0.1)["exceeds_bound"]
    assert ab_pairs.relative_change(0.0, 0.0) == 0.0 and ab_pairs.relative_change(0.0, 1.0) == float("inf")


def test_every_workload_given_is_compared(monkeypatch, capsys):
    calls = []

    def fake_run(checkout, workload, seed, seconds):
        calls.append((str(checkout), workload, seed))
        value = {"parent": 1.0, "change": 0.5}[str(checkout)] * (2 if workload == "b" else 1)
        metrics = {m: {"value": value} for m in ("setup_s", "pass_s", "op_geomean_ms", "op_p50_ms",
                                                 "op_p90_ms", "peak_rss_mb")}
        return {"metrics": metrics, "failed": 0, "attempted": 3}

    monkeypatch.setattr(ab_pairs, "run", fake_run)
    argv = ["parent", "change", "--workload", "a", "--workload", "b", "--pairs", "2", "--seconds", "1"]
    assert ab_pairs.main(argv) == 0
    assert calls == [("parent", "a", 1), ("change", "a", 1), ("change", "a", 2), ("parent", "a", 2),
                     ("parent", "b", 1), ("change", "b", 1), ("change", "b", 2), ("parent", "b", 2)]
    out = capsys.readouterr().out
    assert "b pass_s (s): parent 2 [2, 2], change 1 [1, 1] (-50.0%)" in out
    assert "a peak_rss_mb (MB)" in out and "b change: failed 0/6" in out


def test_a_run_without_a_result_fails_the_comparison(monkeypatch):
    monkeypatch.setattr(ab_pairs, "run", lambda *args: None)
    assert ab_pairs.main(["p", "c", "--workload", "a", "--pairs", "1", "--seconds", "1"]) == 1
