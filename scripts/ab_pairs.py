#!/usr/bin/env python3
"""Compare two checkouts on benchmark workloads with alternating pairs of runs.

    python3 scripts/ab_pairs.py PARENT_DIR CHANGE_DIR --workload W [--workload W2 ...]
                                --pairs N --seconds S [--first-seed K] [--json PATH]
    python3 scripts/ab_pairs.py --ledger

For each workload in turn, pair i runs `python3 perfbench/run.py --workload W
--seed K+i --seconds S --trace 0` from the root of each checkout, with the
same seed on both sides.  The parent goes first in even pairs and the change
in odd ones, so a drift of the machine's speed during the comparison falls on
both sides alike.

For every end-to-end metric of BENCHMARK.json (read from this checkout) it
prints each side's median and quartiles, the relative change of the median,
how many pairs the change won and tied, and whether the claim rule holds: the
change wins at least 9 of every 10 pairs, and its median is better than the
parent's by more than the parent's interquartile range.  A metric whose
median is worse than the parent's by more than its `bound` is flagged
`exceeds bound`.  It also prints the failed and attempted operations of each
side.  Exit status 1 when a run gives no result.

With `--json PATH` it also writes the comparison as one JSON object: both
sides' commits, the machine (CPU count, Python, sympy, platform), the
command, and per workload and metric every pair's values with the summary
printed above.  A side's commit is its `git rev-parse HEAD`, with `modified`
true when tracked files differ from it (both null for a checkout without
git, so make the parent's copy with `git clone`).
A change that claims a speed-up commits this file at the repository root as
`BENCH_<short-sha>.json`, named after its parent commit, because the
change's own commit does not exist yet when it is measured;
`tests/test_bench_ledger.py` recomputes every summary from the stored pairs.

`--ledger` runs nothing: it prints every committed `BENCH_*.json` as one
table, a row per workload, metric and file, giving the file's parent commit,
the relative change of the median and how many pairs the change won.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import pathlib
import platform
import shlex
import statistics
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parents[1]


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(lower quartile, median, upper quartile), inclusive method."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def relative_change(parent: float, change: float) -> float:
    """(change - parent) / |parent|; infinite, with the change's sign, when the parent reads 0."""
    if parent:
        return (change - parent) / abs(parent)
    return math.copysign(math.inf, change) if change else 0.0


def summarize(parent: list[float], change: list[float], better: str, bound: float = math.inf) -> dict:
    """The comparison of one metric over pairs (parent[i], change[i]).

    ``better`` is "lower" or "higher".  A pair is a win when the change is
    strictly better, a tie when both read the same.  The claim holds with
    wins >= 0.9 * pairs and a median gap, in the better direction, larger
    than the parent's interquartile range.  ``relative`` is the change of the
    median over the parent's, and the median exceeds ``bound`` when it is
    worse than the parent's by more than that fraction of it."""
    if len(parent) != len(change) or not parent:
        raise ValueError("need the same positive number of runs on both sides")
    sign = 1 if better == "lower" else -1
    wins = sum(sign * (p - c) > 0 for p, c in zip(parent, change))
    ties = sum(p == c for p, c in zip(parent, change))
    pq, cq = quartiles(parent), quartiles(change)
    gap = sign * (pq[1] - cq[1])
    iqr = pq[2] - pq[0]
    relative = relative_change(pq[1], cq[1])
    return {
        "parent": pq, "change": cq, "wins": wins, "ties": ties, "pairs": len(parent),
        "gap": gap, "parent_iqr": iqr, "claim": 10 * wins >= 9 * len(parent) and gap > iqr,
        "relative": relative, "exceeds_bound": sign * relative > bound,
    }


def format_summary(name: str, unit: str, s: dict) -> str:
    def side(q):
        return f"{q[1]:.4g} [{q[0]:.4g}, {q[2]:.4g}]"

    return (f"{name} ({unit}): parent {side(s['parent'])}, change {side(s['change'])} "
            f"({s['relative']:+.1%}{', exceeds bound' if s['exceeds_bound'] else ''}); "
            f"change wins {s['wins']}/{s['pairs']}, ties {s['ties']}; "
            f"gap {s['gap']:.4g} vs parent IQR {s['parent_iqr']:.4g}; "
            f"claim {'holds' if s['claim'] else 'fails'}")


def run(checkout: pathlib.Path, workload: str, seed: int, seconds: int) -> dict | None:
    """The JSON result of one `perfbench/run.py` run, or None without one."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=checkout, stdout=subprocess.PIPE, text=True,
    )
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-1]) if proc.returncode == 0 and lines else None


def compare(args, workload: str, bench: dict) -> dict | None:
    """Run the pairs of one workload and print its summary; returns its record
    for the JSON file, or None when a run gives no result."""
    sides = {"parent": args.parent, "change": args.change}
    results: dict[str, list[dict]] = {"parent": [], "change": []}
    for i in range(args.pairs):
        seed = args.first_seed + i
        for name in (("parent", "change") if i % 2 == 0 else ("change", "parent")):
            res = run(sides[name], workload, seed, args.seconds)
            if res is None:
                print(f"{workload} pair {i + 1}: the {name} run at seed {seed} gave no result", file=sys.stderr)
                return None
            results[name].append(res)
        p, c = (results[k][-1]["metrics"]["pass_s"]["value"] for k in ("parent", "change"))
        print(f"{workload} pair {i + 1} seed {seed}: pass_s parent {p:.4f} s, change {c:.4f} s", flush=True)
    record = {"seeds": [args.first_seed + i for i in range(args.pairs)], "metrics": {}}
    for metric in bench["end_to_end"]:
        values = {k: [r["metrics"][metric["name"]]["value"] for r in rs] for k, rs in results.items()}
        summary = summarize(values["parent"], values["change"], metric["better"], metric["bound"])
        print(f"{workload} {format_summary(metric['name'], metric['unit'], summary)}")
        record["metrics"][metric["name"]] = {**metric, **values, "summary": summary}
    for name, rs in results.items():
        failed, attempted = sum(r["failed"] for r in rs), sum(r["attempted"] for r in rs)
        print(f"{workload} {name}: failed {failed}/{attempted}")
        record[f"{name}_failed"], record[f"{name}_attempted"] = failed, attempted
    return record


def git(checkout: pathlib.Path, *args: str) -> str | None:
    """The output of a git command in checkout, or None when it fails."""
    proc = subprocess.run(["git", "-C", str(checkout), *args], stdout=subprocess.PIPE,
                          stderr=subprocess.DEVNULL, text=True)
    return proc.stdout.strip() if proc.returncode == 0 else None


def side_record(checkout: pathlib.Path) -> dict:
    """A side's HEAD commit and whether its tracked files differ from it;
    both None without git."""
    head = git(checkout, "rev-parse", "HEAD")
    if head is None:
        return {"commit": None, "modified": None}
    return {"commit": head, "modified": bool(git(checkout, "status", "--porcelain", "--untracked-files=no"))}


def ledger(paths: list[pathlib.Path]) -> list[str]:
    """The lines of the ledger table of the given BENCH files, ordered by
    workload, metric (in BENCHMARK.json's order) and file."""
    records = [json.loads(p.read_text()) for p in paths]
    metrics = [m["name"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]]
    rows = [("workload", "metric", "parent", "median change", "wins")]
    for workload in sorted({w for r in records for w in r["workloads"]}):
        for metric in metrics:
            for r in records:
                m = r["workloads"].get(workload, {}).get("metrics", {}).get(metric)
                if m is not None:
                    s = m["summary"]
                    rows.append((workload, metric, r["parent"]["commit"][:7], f"{s['relative']:+.1%}",
                                 f"{s['wins']}/{s['pairs']}"))
    widths = [max(len(row[i]) for row in rows) for i in range(len(rows[0]))]
    return ["  ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip() for row in rows]


def machine() -> dict:
    import sympy

    return {"nproc": os.cpu_count(), "python": platform.python_version(), "sympy": sympy.__version__,
            "platform": platform.platform()}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("parent", type=pathlib.Path, nargs="?")
    ap.add_argument("change", type=pathlib.Path, nargs="?")
    ap.add_argument("--workload", action="append")
    ap.add_argument("--pairs", type=int)
    ap.add_argument("--seconds", type=int)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--json", type=pathlib.Path, help="also write the comparison to this JSON file")
    ap.add_argument("--ledger", action="store_true", help="print the committed BENCH_*.json files as one table")
    argv = sys.argv[1:] if argv is None else argv
    args = ap.parse_args(argv)
    if args.ledger:
        print("\n".join(ledger(sorted(ROOT.glob("BENCH_*.json")))))
        return 0
    if None in (args.change, args.workload, args.pairs, args.seconds):
        ap.error("a comparison needs PARENT_DIR, CHANGE_DIR, --workload, --pairs and --seconds")
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    records = {workload: compare(args, workload, bench) for workload in args.workload}
    if None in records.values():
        return 1
    if args.json is not None:
        out = {
            "parent": side_record(args.parent),
            "change": side_record(args.change),
            "machine": machine(),
            "command": shlex.join(["python3", "scripts/ab_pairs.py", *argv]),
            "pairs": args.pairs, "seconds": args.seconds, "workloads": records,
        }
        args.json.write_text(json.dumps(out, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
