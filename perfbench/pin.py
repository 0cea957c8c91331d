"""Pin the canonical `derive` report digest of every corpus model.

    PYTHONHASHSEED=0 python3 perfbench/pin.py [--write]

Derives every model in `src/cpsforge/corpus` (with symmetries, as `cpsforge
derive` does), prints the SHA-256 of each canonical JSON report and, with
`--write`, stores them in `perfbench/reference.json` together with their
provenance.  The benchmark compares every derive against these digests, so
rewrite them only when a change of report is intended and named.  Reports
that also exist as goldens under `tests/goldens/` must equal them byte for
byte, or nothing is written.

Certificate fields that are not "0" at pinning time are recorded by name
under `nonzero_certificates`; the benchmark fails a derive on any other
nonzero certificate.
"""
import argparse
import hashlib
import json
import platform
import subprocess
import sys

import worker


def git_commit() -> str:
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=worker.HERE, capture_output=True,
                             text=True, timeout=30, check=True)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip()


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--write", action="store_true")
    args = ap.parse_args()
    if sys.flags.hash_randomization:
        raise SystemExit(f"run with PYTHONHASHSEED={worker.HASH_SEED}")
    worker.import_program()
    import numpy
    import sympy
    from sympy.core.cache import clear_cache

    goldens = worker.HERE.parent / "tests" / "goldens"
    digests, nonzero = {}, {}
    for name in worker.corpus_names():
        clear_cache()
        text = worker.derive(name)
        digests[name] = hashlib.sha256(text.encode()).hexdigest()
        bad = [label for label, value in worker.certificates(json.loads(text)) if value != "0"]
        if bad:
            nonzero[name] = bad
        golden = goldens / f"{name}.json"
        if golden.is_file() and golden.read_text() != text:
            raise SystemExit(f"{name}: report differs from {golden}")
        print(f"{digests[name]}  {name}  {'nonzero: ' + ', '.join(bad) if bad else ''}")
    if args.write:
        ref = {
            "provenance": {
                "commit": git_commit(),
                "command": "PYTHONHASHSEED=0 python3 perfbench/pin.py --write",
                "python": platform.python_version(),
                "sympy": sympy.__version__,
                "numpy": numpy.__version__,
                "derive": "cli.load_model -> report.run_cps(with_symmetries=True) -> report.report_json",
                "goldens_matched": sorted(p.stem for p in goldens.glob("*.json")),
            },
            "reports": digests,
            "nonzero_certificates": nonzero,
        }
        (worker.HERE / "reference.json").write_text(json.dumps(ref, indent=2, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
