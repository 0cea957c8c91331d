#!/usr/bin/env python3
"""Regenerate the golden `derive` reports under tests/goldens/.

    PYTHONPATH=src python3 scripts/regen_goldens.py [--write]

Derives every corpus model exactly as
`cpsforge derive MODEL --json --out FILE` does and compares each report with
its golden byte for byte.  One line per model says `same`, `changed` or `new`,
and whether the report's SHA-256 equals the digest pinned in
perfbench/reference.json.  Nothing is written unless --write is given; then
every changed or new golden is overwritten.  Rewrite goldens only for an
intended, named report change.  Exit status 1 means some golden differs and
was not written, or some report's digest differs from its pinned one (the
pins are regenerated by perfbench/pin.py, never here).
"""
import argparse
import contextlib
import hashlib
import io
import json
import pathlib
import sys
import tempfile

from cpsforge.cli import corpus_dir, main as cli_main

ROOT = pathlib.Path(__file__).resolve().parent.parent
GOLDENS = ROOT / "tests" / "goldens"
REFERENCE = ROOT / "perfbench" / "reference.json"


def derive(name: str, workdir: pathlib.Path) -> bytes:
    out = workdir / f"{name}.json"
    with contextlib.redirect_stdout(io.StringIO()):  # the summary derive prints beside --out
        cli_main(["derive", f"{name}.cps", "--json", "--out", str(out)])
    return out.read_bytes()


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--write", action="store_true", help="overwrite changed and new goldens")
    args = ap.parse_args()
    names = sorted(
        f.name[: -len(".cps")] for f in corpus_dir().iterdir() if f.name.endswith(".cps")
    )
    pinned = json.loads(REFERENCE.read_text())["reports"] if REFERENCE.is_file() else {}
    differs = False
    with tempfile.TemporaryDirectory() as tmp:
        for name in names:
            text = derive(name, pathlib.Path(tmp))
            golden = GOLDENS / f"{name}.json"
            old = golden.read_bytes() if golden.is_file() else None
            status = "new" if old is None else ("same" if old == text else "changed")
            digest = hashlib.sha256(text).hexdigest()
            ref = pinned.get(name)
            pin = "no pinned digest" if ref is None else ("digest ok" if ref == digest else "digest differs")
            differs |= pin == "digest differs"
            if status != "same":
                if args.write:
                    golden.write_bytes(text)
                    status += ", written"
                else:
                    differs = True
            print(f"{name:32s} {status:16s} {pin}")
    return 1 if differs else 0


if __name__ == "__main__":
    sys.exit(main())
