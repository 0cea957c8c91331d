#!/usr/bin/env python3
"""Derive every bundled model and print the `cpsforge derive` summary of each."""
import sys

from cpsforge.cli import corpus_dir, load_model, print_summary
from cpsforge.report import run_cps


def main():
    failures = 0
    for f in sorted(corpus_dir().iterdir()):
        if f.name.endswith(".cps"):
            failures += print_summary(run_cps(load_model(str(f)))) != 0
    return 1 if failures > 1 else 0  # the L3 variant is expected to fail


if __name__ == "__main__":
    sys.exit(main())
