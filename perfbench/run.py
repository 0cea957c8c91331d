"""cpsforge benchmark: one workload, one closed-loop client, metrics as JSON.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  The program is imported from `src/` (there
is nothing to build).  Each run starts the worker (`worker.py`) in fresh
processes with a fixed PYTHONHASHSEED: SETUP_PROBES processes that only set
up, then one that sets up and measures.  The last line of standard output is
one JSON object with `correct`, `attempted`, `failed` and `metrics`; with
`--trace 0` the metrics are the end-to-end metrics of BENCHMARK.json, with
`--trace 1` the per-layer metrics, from a run with spans installed.

Exit status: 0 with a result; 1 without one (set-up failed, the worker
crashed or ran out of time).
"""
import argparse
import json
import math
import os
import pathlib
import statistics
import subprocess
import sys
import time

HERE = pathlib.Path(__file__).resolve().parent
WORKLOADS = ("derive-su2", "derive-corpus", "kernel-bicomplex", "numeric-checks")
SETUP_PROBES = 4  # set-up-only processes; the measuring process gives one more sample
DEADLINE_S = 170.0  # the whole run, every process included
DETAILS = "DETAILS "  # prefix of the line --details adds

sys.path.insert(0, str(HERE))
import spans  # noqa: E402
import worker  # noqa: E402


class WorkerError(RuntimeError):
    pass


def run_worker(args: list[str], deadline: float) -> dict:
    env = dict(os.environ, PYTHONHASHSEED=worker.HASH_SEED)
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise WorkerError("no time left for the worker")
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "worker.py"), *args],
            env=env, stdout=subprocess.PIPE, timeout=timeout, text=True,
        )
    except subprocess.TimeoutExpired:
        raise WorkerError(f"worker ran past {DEADLINE_S:.0f} s") from None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise WorkerError(f"worker exited with status {proc.returncode}")
    return json.loads(lines[-1])


def percentile(values: list[float], p: int) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[p - 1]


def end_to_end(res: dict, setups: list[float]) -> dict:
    per_op = [statistics.median(ts) for ts in res["op_times"].values()]
    return {
        "setup_s": (statistics.median(setups), "s"),
        "pass_s": (statistics.median(res["pass_s"]), "s"),
        "op_geomean_ms": (1e3 * math.exp(statistics.fmean(math.log(t) for t in per_op)), "ms"),
        "op_p50_ms": (1e3 * percentile(per_op, 50), "ms"),
        "op_p90_ms": (1e3 * percentile(per_op, 90), "ms"),
        "peak_rss_mb": (res["peak_rss_mb"], "MB"),
    }


def per_layer(res: dict) -> dict:
    tr = res["trace"]
    out = {}
    for name in spans.SPAN_NAMES:
        out[f"{name}.calls"] = (tr["calls"][name], "count")
        out[f"{name}.self_s"] = (tr["self_s"][name], "s")
    for name in spans.STAGES:
        out[f"{name}.total_s"] = (tr["total_s"][name], "s")
    for name in spans.COUNTERS:
        out[name] = (tr["counters"][name], "count")
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--details", action="store_true",
                    help="print the worker's raw result, with output digests, before the metrics")
    args = ap.parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S
    common = ["--workload", args.workload, "--seed", str(args.seed)]
    try:
        setups = [run_worker(common + ["--seconds", "0", "--setup-only"], deadline)["setup_s"]
                  for _ in range(SETUP_PROBES)]
        extra = ["--details"] if args.details else []
        res = run_worker(common + ["--seconds", str(args.seconds), "--trace", str(args.trace)] + extra,
                         deadline)
    except WorkerError as err:
        print(f"benchmark: {err}", file=sys.stderr)
        return 1
    setups.append(res["setup_s"])
    metrics = per_layer(res) if args.trace else end_to_end(res, setups)
    if args.details:
        print(DETAILS + json.dumps(res, sort_keys=True))
    for err in res["errors"]:
        print(f"FAILED {err}", file=sys.stderr)
    attempted, failed = res["attempted"], res["failed"]
    print(f"{args.workload} seed={args.seed} trace={args.trace}: {len(res['pass_s'])} passes, "
          f"pass_s median {statistics.median(res['pass_s']):.4f} s, "
          f"error_rate {failed}/{attempted} = {failed / attempted:.4g}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
