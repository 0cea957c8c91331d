#!/usr/bin/env python3
"""Record what the command line prints on a fixed list of commands.

    PYTHONPATH=src python3 scripts/cli_outputs.py OUTDIR

Runs each command in-process through `cpsforge.cli.main` and writes one file
per command to OUTDIR, holding its argv, exit status, stdout and stderr.  The
list: `derive --json` and the `derive` summary of every corpus model, `check
--xi` of every corpus vector, `check --gauge lam` on every model, five `check
--evolutionary` fields, the four numeric checks on every 1+1 model, two
commands that hit the jet cap, four `--evolutionary` lists with an empty
component and an unknown `--xi` in `check` and in `numeric flux`.  A file is
named after its argv, with a counter when two argvs spell the same name.
Run it on two checkouts and compare them with `diff -r` to see every output a
change moves.
"""
import contextlib
import io
import pathlib
import re
import sys

from cpsforge.cli import corpus_dir, load_model, main as cli_main

EVOLUTIONARY = ("u: 1", "u: u_t", "u: u_x", "u: 1/(1+u)")
EMPTY_EVOLUTIONARY = ("", "u: 1,", ",", "u: 1,,v: 2")


def commands() -> list[list[str]]:
    names = sorted(f.name for f in corpus_dir().iterdir() if f.name.endswith(".cps"))
    models = {name: load_model(name) for name in names}
    out = [["derive", name, "--json"] for name in names]
    out += [["derive", name] for name in names]
    out += [["check", name, "--xi", xi] for name in names for xi in sorted(models[name].vectors)]
    out += [["check", name, "--gauge", "lam"] for name in names]
    out += [["check", name, "--evolutionary", w]
            for name in names if "u" in models[name].chart.fields for w in EVOLUTIONARY]
    out.append(["check", "chern_simons_k1.cps", "--evolutionary",
                "A_t: Derivative(lam(t, x, y), t), A_x: Derivative(lam(t, x, y), x)"])
    for name in names:
        if models[name].chart.n == 2:
            out += [["numeric", "fd-check", name], ["numeric", "hamiltonian", name]]
            out += [["numeric", "slice-independence", name, "--mode", m] for m in ("spectral", "fd")]
            out += [["numeric", "flux", name, "--xi", xi] for xi in sorted(models[name].vectors)]
    out.append(["--max-jet-order", "1", "derive", "scalar_robin.cps"])
    out.append(["check", "scalar_robin.cps", "--evolutionary", "u: u_xxxx"])
    out += [["check", "scalar_neumann.cps", f"--evolutionary={w}"] for w in EMPTY_EVOLUTIONARY]
    out.append(["check", "scalar_neumann.cps", "--xi", "nope"])
    out.append(["numeric", "flux", "scalar_periodic.cps", "--xi", "nope"])
    return out


def run(argv: list[str]) -> str:
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        try:
            status = cli_main(argv)
        except SystemExit as exit_:  # argparse errors and one-line refusals
            status = exit_.code if isinstance(exit_.code, int) else 1
            if isinstance(exit_.code, str):
                print(exit_.code, file=sys.stderr)
    return f"argv: {argv}\nstatus: {status}\n--- stdout\n{stdout.getvalue()}--- stderr\n{stderr.getvalue()}"


def main(outdir: str) -> int:
    out = pathlib.Path(outdir)
    out.mkdir(parents=True, exist_ok=True)
    written = set()
    for argv in commands():
        stem = re.sub(r"[^\w.-]+", "_", "_".join(argv)).strip("_-")
        name, n = stem + ".txt", 1
        while name in written:
            n += 1
            name = f"{stem}_{n}.txt"
        written.add(name)
        (out / name).write_text(run(argv))
    return 0


if __name__ == "__main__":
    if len(sys.argv) != 2:
        raise SystemExit(__doc__.splitlines()[2].strip())
    sys.exit(main(sys.argv[1]))
