#!/usr/bin/env python3
"""Derive every bundled model and print the `cpsforge derive` summary of each.

Exits 1 unless exactly the expected failures fail: lagrange_multiplier_L3
is not decomposable, and every other model derives.
"""
import sys

from cpsforge.cli import corpus_dir, load_model, print_summary
from cpsforge.report import run_cps

EXPECTED_FAILURES = {"lagrange_multiplier_L3"}


def main():
    failed = set()
    for f in sorted(corpus_dir().iterdir()):
        if f.name.endswith(".cps") and print_summary(run_cps(load_model(str(f)))) != 0:
            failed.add(f.name[: -len(".cps")])
    if failed != EXPECTED_FAILURES:
        print(f"failed: {sorted(failed)}, expected: {sorted(EXPECTED_FAILURES)}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
