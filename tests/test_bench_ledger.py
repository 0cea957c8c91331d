"""Every committed BENCH_*.json agrees with its own pairs: each stored median,
quartile, win count, claim and bound flag is what scripts/ab_pairs.py's
``summarize`` gives on the stored values (no benchmark runs)."""
import json
import pathlib
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "scripts"))
import ab_pairs  # noqa: E402

LEDGER = sorted(ROOT.glob("BENCH_*.json"))
MACHINE = {"nproc", "python", "sympy", "platform"}


def problems(record: dict) -> list[str]:
    """Where a BENCH record misses a field or disagrees with its own pairs."""
    out = []
    for side in ("parent", "change"):
        if set(record[side]) != {"commit", "modified"} or not record[side]["commit"]:
            out.append(f"{side}: needs a commit and a modified flag")
    if set(record["machine"]) != MACHINE:
        out.append(f"machine: fields {sorted(record['machine'])}, not {sorted(MACHINE)}")
    if not record["command"].startswith("python3 scripts/ab_pairs.py "):
        out.append("command: not an ab_pairs.py command")
    pairs = record["pairs"]
    for workload, w in record["workloads"].items():
        if len(w["seeds"]) != pairs:
            out.append(f"{workload}: {len(w['seeds'])} seeds for {pairs} pairs")
        for name, m in w["metrics"].items():
            if not len(m["parent"]) == len(m["change"]) == pairs:
                out.append(f"{workload} {name}: the values do not make {pairs} pairs")
                continue
            # a JSON round trip turns the quartile tuples into lists
            again = json.loads(json.dumps(ab_pairs.summarize(m["parent"], m["change"], m["better"], m["bound"])))
            out += [f"{workload} {name}: stored {key} {m['summary'].get(key)!r}, recomputed {value!r}"
                    for key, value in again.items() if m["summary"].get(key) != value]
    return out


def test_the_ledger_is_not_empty():
    assert LEDGER


@pytest.mark.parametrize("path", LEDGER, ids=lambda p: p.name)
def test_each_summary_is_recomputed_from_its_pairs(path):
    record = json.loads(path.read_text())
    assert problems(record) == []
    # named after the parent commit: the change's own commit does not exist when it is measured
    assert path.name == f"BENCH_{record['parent']['commit'][:7]}.json"


def stored_keys_that_disagree(record: dict) -> list[str]:
    return [p.split(": stored ")[1].split()[0] for p in problems(record)]


@pytest.mark.parametrize("path", LEDGER, ids=lambda p: p.name)
@pytest.mark.parametrize("key, edit", [
    ("change", lambda s: s["change"].__setitem__(1, 0.9 * s["change"][1])),  # the change's median
    ("wins", lambda s: s.__setitem__("wins", s["wins"] - 1)),
    ("exceeds_bound", lambda s: s.__setitem__("exceeds_bound", not s["exceeds_bound"])),
])
def test_a_hand_edited_summary_is_caught(path, key, edit):
    record = json.loads(path.read_text())
    w = next(iter(record["workloads"].values()))
    edit(w["metrics"]["pass_s"]["summary"])
    assert stored_keys_that_disagree(record) == [key]


def test_json_mode_writes_a_record_that_agrees_with_itself(monkeypatch, tmp_path):
    values = {"parent": [1.0, 1.2], "change": [0.5, 0.7]}

    def fake_run(checkout, workload, seed, seconds):
        value = values[str(checkout)][seed - 1]
        metrics = {m: {"value": value} for m in ("setup_s", "pass_s", "op_geomean_ms", "op_p50_ms",
                                                 "op_p90_ms", "peak_rss_mb")}
        return {"metrics": metrics, "failed": 0, "attempted": 3}

    heads = {"parent": "a" * 40, "change": "a" * 40}
    monkeypatch.setattr(ab_pairs, "run", fake_run)
    monkeypatch.setattr(ab_pairs, "git", lambda checkout, *args: heads[str(checkout)] if args[0] == "rev-parse"
                        else " M src/cpsforge/numeric.py" * (str(checkout) == "change"))
    out = tmp_path / "BENCH_aaaaaaa.json"
    argv = ["parent", "change", "--workload", "numeric-checks", "--pairs", "2", "--seconds", "1", "--json", str(out)]
    assert ab_pairs.main(argv) == 0
    record = json.loads(out.read_text())
    assert problems(record) == []
    assert record["parent"] == {"commit": "a" * 40, "modified": False}
    assert record["change"] == {"commit": "a" * 40, "modified": True}
    assert record["command"] == "python3 scripts/ab_pairs.py " + " ".join(argv)
    w = record["workloads"]["numeric-checks"]
    assert w["seeds"] == [1, 2] and (w["parent_failed"], w["change_attempted"]) == (0, 6)
    m = w["metrics"]["pass_s"]
    assert (m["parent"], m["change"], m["bound"]) == ([1.0, 1.2], [0.5, 0.7], 0.25)
    assert m["summary"]["wins"] == 2 and m["summary"]["change"][1] == pytest.approx(0.6)


def test_ledger_tabulates_every_committed_record(capsys):
    # one row per file, workload and metric, built from the files alone
    lines = ab_pairs.ledger(LEDGER)
    assert lines[0].split() == ["workload", "metric", "parent", "median", "change", "wins"]
    rows = [line.split() for line in lines[1:]]
    expected = []
    for path in LEDGER:
        record = json.loads(path.read_text())
        for workload, w in record["workloads"].items():
            for name, m in w["metrics"].items():
                s = m["summary"]
                expected.append([workload, name, record["parent"]["commit"][:7], f"{s['relative']:+.1%}",
                                 f"{s['wins']}/{s['pairs']}"])
    assert sorted(rows) == sorted(expected) and len(rows) == len(expected)
    assert [r[0] for r in rows] == sorted(r[0] for r in rows)  # grouped by workload
    assert ab_pairs.main(["--ledger"]) == 0
    assert capsys.readouterr().out.splitlines() == lines
