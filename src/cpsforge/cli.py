"""Command-line interface: derive | check | numeric | corpus-list."""
from __future__ import annotations

import argparse
import csv
import importlib.resources
import pathlib
import sys

from .chart import JetOrderError
from .jetcalc import NonDecomposableError
from .model import ExprParser, ModelError, parse_model, tokenize
from .pipeline import d_symmetry_check
from .relative import rel_lie_ev
from .report import PipelineReport, gauge_parameter_block, report_json, run_cps, symmetry_block


def corpus_dir():
    return importlib.resources.files("cpsforge") / "corpus"


def load_model(path: str, max_jet_order: int | None = None):
    p = pathlib.Path(path)
    if not p.exists():
        candidate = corpus_dir() / path
        if candidate.is_file():
            p = candidate
        else:
            raise SystemExit(f"model file not found: {path}")
    try:
        text = p.read_text()
    except UnicodeDecodeError:
        raise SystemExit(f"model file is not UTF-8 text: {path}") from None
    return parse_model(text, max_jet_order=max_jet_order)


def cmd_derive(args) -> int:
    model = load_model(args.model, args.max_jet_order)
    rep = run_cps(model, with_symmetries=not args.no_symmetries)
    text = report_json(rep)
    if args.out:
        pathlib.Path(args.out).write_text(text)
    if args.json and not args.out:
        sys.stdout.write(text)
        return 0 if rep.error is None else 2
    return print_summary(rep)


def print_summary(rep: PipelineReport) -> int:
    """Print the human-readable summary of a report; returns derive's exit code."""
    print(f"model {rep.model}:")
    if rep.error is not None:
        print(f"  ERROR {rep.error['kind']}: {rep.error['message']}")
        print(f"  offending term: {rep.error['term']}")
        return 2
    for a, e in rep.steps["1"]["E"].items():
        print(f"  E[{a}] = {e}")
    print(f"  Theta = {rep.steps['1']['Theta']}")
    for a, e in rep.steps["2"]["b"].items():
        if e != "0":
            print(f"  b[{a}] = {e}")
    print(f"  theta_bar = {rep.steps['2']['theta_bar']}")
    print(f"  slice form = {rep.steps['4']['slice_form']}")
    for blk in rep.symmetries:
        g = blk.get("gauge", {})
        if "xi_invariant" in blk:
            tail = f"; gauge: {gauge_word(g)}" if g else ""
            print(
                f"  vector {blk['vector']}: xi-invariant: {yes_no(blk['xi_invariant'])}; "
                f"d-symmetry: {yes_no(blk['d_symmetry'])}{tail}"
            )
        elif "not_reduced" in g:
            print(f"  {blk['vector']}: {gauge_word(g)}")
        else:
            print(f"  {blk['vector']}: bulk {g['bulk_residual']}; boundary {g['boundary_residual']}")
    return 0


def yes_no(flag: bool) -> str:
    return "yes" if flag else "no"


def gauge_word(g: dict) -> str:
    """A gauge verdict block in one phrase: yes, no, or not reduced and why."""
    return f"not reduced ({g['not_reduced']})" if "not_reduced" in g else yes_no(g["is_gauge"])


def cmd_check(args) -> int:
    model = load_model(args.model, args.max_jet_order)
    model.decomposition  # a non-decomposable pair exits 2 before any check
    if args.xi is not None:
        if args.xi not in model.vectors:
            raise ModelError(f"unknown vector field {args.xi!r}")
        blk = symmetry_block(model, args.xi, model.vectors[args.xi])
        print(f"xi-invariant: {yes_no(blk['xi_invariant'])}")
        if not blk["xi_invariant"]:
            print(f"  residual bulk = {blk['invariance_residual']['bulk']}")
            print(f"  residual boundary = {blk['invariance_residual']['boundary']}")
        print(f"d-symmetry: {yes_no(blk['d_symmetry'])}")
        if "gauge" in blk:
            print_gauge_verdict(blk["gauge"])
        return 0
    if args.gauge is not None:
        print_gauge_verdict(gauge_parameter_block(model, args.gauge)["gauge"])
        return 0
    verdict = d_symmetry_check(model.lp, rel_lie_ev(parse_evolutionary(model, args.evolutionary), model.lp.rel))
    print(f"d-symmetry: {yes_no(verdict.is_symmetry)}")
    if verdict.note:
        print(f"  note: {verdict.note}")
    return 0


def print_gauge_verdict(g: dict) -> None:
    """Print a gauge verdict block (``report.gauge_dict`` or its not-reduced note)."""
    print(f"gauge direction: {gauge_word(g)}")
    if "not_reduced" in g:
        return
    print(f"  bulk residual = {g['bulk_residual']}")
    print(f"  boundary obstruction = {g['boundary_residual']}")


def parse_evolutionary(model, text: str) -> dict:
    """The components ``a: expr, b: expr, ...`` of ``check --evolutionary``, each
    component read by the model-file expression grammar; an undeclared or
    repeated field, an undeclared name or an empty component raises a
    positioned ModelError, and an empty list a ModelError."""
    if not text.strip():
        raise ModelError("--evolutionary: the component list is empty")
    chart, comps = model.chart, {}
    p = ExprParser(chart, model).start(tokenize(text + ";"))

    def component():
        if p.peek().text in (",", ";"):  # the ";" is the end of the text
            raise ModelError.at("--evolutionary: empty component", p.peek())
        name = p.expect_ident()
        if name.text not in chart.fields or name.text in comps:
            raise ModelError.at(f"--evolutionary: undeclared or repeated field {name.text!r}", name)
        p.expect(":")
        comps[name.text] = p.scalar()

    p.items(component, ";")
    return comps


def _write_csv(path: str | None, header: list[str], rows: list[tuple]):
    rows = [header] + [[f"{x:.12g}" if isinstance(x, float) else x for x in r] for r in rows]
    if not path:
        for r in rows:
            print(",".join(map(str, r)))
        return
    with pathlib.Path(path).open("w", newline="") as fh:
        csv.writer(fh).writerows(rows)


def grid_shape(text: str) -> tuple[int, ...]:
    """The ``--grid NTxNX`` option: two point counts of at least 3."""
    parts = text.lower().split("x")
    if len(parts) != 2 or not all(p.isdecimal() and int(p) >= 3 for p in parts):
        raise argparse.ArgumentTypeError(f"expected NTxNX with two integers >= 3, got {text!r}")
    return tuple(map(int, parts))


def jet_order(text: str) -> int:
    """The ``--max-jet-order`` option: a nonnegative integer."""
    if not text.isdecimal():
        raise argparse.ArgumentTypeError(f"expected a nonnegative integer, got {text!r}")
    return int(text)


def positive_float(text: str) -> float:
    """The ``--eps`` option: a positive finite number."""
    try:
        if 0 < float(text) < float("inf"):
            return float(text)
    except ValueError:
        pass
    raise argparse.ArgumentTypeError(f"expected a positive number, got {text!r}")


def cmd_numeric(args) -> int:
    from . import checks

    model = load_model(args.model, args.max_jet_order)
    if args.subcommand == "fd-check":
        eps = [args.eps] if args.eps else [1e-2, 1e-3, 1e-4]
        res = checks.fd_check(model, args.grid or (129, 129), eps_list=eps)
        rows = [(e, r) for e, r in res.rows]
        _write_csv(args.out, ["eps", "residual"], rows)
        print("slope = n/a" if res.slope is None else f"slope = {res.slope:.3f}")
        if res.ablated_rows:
            worst = max(a / max(b, 1e-300) for (_, a), (_, b) in zip(res.ablated_rows, res.rows))
            print(f"ablation ratio (no boundary term) = {worst:.3g}")
        return 0 if res.slope is None or res.slope >= 1.9 else 1
    if args.subcommand == "slice-independence":
        res = checks.slice_independence(model, args.grid, mode=args.mode)
        rows = [(i, val) for i, val in enumerate(res.values)]
        _write_csv(args.out, ["slice", "pairing"], rows)
        print(f"relative drift = {res.drift:.3g}")
        return 0
    if args.subcommand == "flux":
        if not args.xi:
            raise SystemExit("flux needs --xi")
        res = checks.flux_check(model, args.xi, args.grid or (257, 256))
        rows = [(res.q_values[0], res.q_values[1], res.delta_q, res.rhs, res.mismatch)]
        _write_csv(args.out, ["q1", "q2", "delta_q", "rhs", "mismatch"], rows)
        print(f"delta Q = {res.delta_q:.6g}, rhs = {res.rhs:.6g}, mismatch = {res.mismatch:.3g}")
        return 0
    if args.subcommand == "hamiltonian":
        val, canonical, diff = checks.hamiltonian_comparison(model, args.grid or (129, 256))
        _write_csv(args.out, ["slice_pairing", "canonical_pairing", "difference"],
                   [(val, canonical, diff)])
        print(f"slice pairing = {val:.9g}, canonical = {canonical:.9g}, diff = {diff:.3g}")
        return 0
    raise SystemExit(f"unknown numeric subcommand {args.subcommand!r}")


def cmd_corpus_list(_args) -> int:
    for f in sorted(corpus_dir().iterdir()):
        if f.name.endswith(".cps"):
            first = f.read_text().splitlines()[0].lstrip("# ")
            print(f"{f.name:36s} {first}")
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(prog="cpsforge", description=__doc__)
    ap.add_argument("--max-jet-order", type=jet_order, default=None)
    sub = ap.add_subparsers(dest="command", required=True)

    d = sub.add_parser("derive", help="run the CPS pipeline on a model file")
    d.add_argument("model")
    d.add_argument("--json", action="store_true")
    d.add_argument("--out")
    d.add_argument("--no-symmetries", action="store_true")
    d.set_defaults(fn=cmd_derive)

    c = sub.add_parser("check", help="symmetry / gauge verdicts")
    c.add_argument("model")
    one = c.add_mutually_exclusive_group(required=True)
    one.add_argument("--xi")
    one.add_argument("--gauge")
    one.add_argument("--evolutionary")
    c.set_defaults(fn=cmd_check)

    n = sub.add_parser("numeric", help="numeric cross-checks (CSV output)")
    n.add_argument("subcommand", choices=["fd-check", "slice-independence", "flux", "hamiltonian"])
    n.add_argument("model")
    n.add_argument("--grid", type=grid_shape)
    n.add_argument("--eps", type=positive_float)
    n.add_argument("--xi")
    n.add_argument("--mode", default="spectral", choices=["spectral", "fd"])
    n.add_argument("--out")
    n.set_defaults(fn=cmd_numeric)

    cl = sub.add_parser("corpus-list", help="list bundled model files")
    cl.set_defaults(fn=cmd_corpus_list)

    args = ap.parse_args(argv)
    try:
        return args.fn(args)
    except NonDecomposableError as err:
        print(f"NON_DECOMPOSABLE: {err}", file=sys.stderr)
        if err.term is not None:
            print(f"offending term: {err.term}", file=sys.stderr)
        return 2
    except ModelError as err:
        print(f"model error: {err}", file=sys.stderr)
        return 1
    except JetOrderError as err:
        print(f"jet order cap exceeded: {err}; rerun with a larger --max-jet-order", file=sys.stderr)
        return 1
    except OSError as err:  # a model path that is a directory, an --out that cannot be written
        print(f"file error: {err}", file=sys.stderr)
        return 1
    except MemoryError:
        if args.command != "numeric":
            raise
        grid = "x".join(map(str, args.grid)) if args.grid else "default"
        print(f"out of memory on the {grid} grid; rerun with a smaller --grid", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
