"""CLI surface: derive/check/numeric/corpus-list exit codes and golden reports."""
import hashlib
import importlib.util
import json
import os
import pathlib
import random
import re
import subprocess
import sys
import warnings

import pytest

import cpsforge
from cpsforge.chart import MultiIndex
from cpsforge.cli import corpus_dir, load_model, main, parse_evolutionary
from cpsforge.jetcalc import NonDecomposableError
from cpsforge.model import ModelError, parse_model, tokenize
from cpsforge.pipeline import _decompose_pair
from cpsforge.relative import rel_lie_ev

GOLDEN = pathlib.Path(__file__).parent / "goldens"
CORPUS_MODELS = sorted(f.name[: -len(".cps")] for f in corpus_dir().iterdir() if f.name.endswith(".cps"))


def check_runs():
    """(model, check arguments) for every corpus vector field, and --gauge lam
    for every model with a one-form field.  yang_mills_su2_n3 is left out: its
    symmetry checks take too long for this suite."""
    runs = []
    for name in CORPUS_MODELS:
        if name == "yang_mills_su2_n3":
            continue
        model = load_model(f"{name}.cps")
        args = [("--xi", v) for v in sorted(model.vectors)]
        if any(m.kind == "one_form" for m in model.chart.meta.values()):
            args.append(("--gauge", "lam"))
        runs += [pytest.param(name, a, id=f"{name}{a[0]}={a[1]}") for a in args]
    return runs


def test_corpus_list(capsys):
    assert main(["corpus-list"]) == 0
    out = capsys.readouterr().out
    assert "scalar_robin.cps" in out and "chern_simons_k1.cps" in out


def test_derive_non_decomposable_exit_code(capsys):
    assert main(["derive", "lagrange_multiplier_L3.cps"]) == 2
    out = capsys.readouterr().out
    assert "NON_DECOMPOSABLE" in out


def test_check_xi_verdicts(capsys):
    assert main(["check", "scalar_robin.cps", "--xi", "dt"]) == 0
    out = capsys.readouterr().out
    assert "xi-invariant: yes" in out and "d-symmetry: yes" in out
    assert main(["check", "scalar_robin.cps", "--xi", "tdt"]) == 0
    out = capsys.readouterr().out
    assert "xi-invariant: no" in out


def test_check_xi_gauge_verdict_lines(capsys):
    # --xi prints the gauge verdict of the lift in the --gauge wording
    assert main(["check", "scalar_robin.cps", "--xi", "dt"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[-3:] == [
        "gauge direction: no",
        "  bulk residual = (-u.t2) dx^th{u} + (u.t1) dx^th{u.t1}",
        "  boundary obstruction = 0",
    ]
    assert main(["check", "chern_simons_k1.cps", "--xi", "dt"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[-3:] == [
        "gauge direction: yes", "  bulk residual = 0", "  boundary obstruction = 0"
    ]


def test_check_gauge_boundary_obstruction(capsys):
    assert main(["check", "chern_simons_k1.cps", "--gauge", "lam"]) == 0
    out = capsys.readouterr().out
    assert "gauge direction: no" in out
    assert "boundary obstruction" in out
    assert main(["check", "chern_simons_k1_dirichlet.cps", "--gauge", "lam"]) == 0
    out = capsys.readouterr().out
    assert "gauge direction: yes" in out


@pytest.mark.parametrize("name,args", check_runs())
def test_check_never_raises(capsys, name, args):
    # a verdict (exit 0) or a one-line refusal (exit 1); the non-decomposable
    # pair exits 2 before any check
    rc = main(["check", f"{name}.cps", *args])
    assert rc in ({2} if name == "lagrange_multiplier_L3" else {0, 1})
    assert "Traceback" not in capsys.readouterr().err


INCONSISTENT_GAUGE_MODEL = """\
model one_form_and_inconsistent_scalar {
  chart { coords = t, x; boundary = true; domain = (0, 1), (0, 1); }
  fields { A : one_form; phi : scalar; }
  background { metric = diag(-1, 1); lam : function(t, x); }
  lagrangian { L = (-1/2) * wedge(d(A), hodge(d(A))) + phi * vol(); ell = 0; }
  bc { A = free; phi = free; }
  vectors { dt = (1, 0); }
}
"""


def test_gauge_parameter_with_an_equation_without_jets_is_not_reduced(tmp_path, capsys):
    # E[phi] = 1: the on-shell ideal has an equation without jets, which the
    # lam block reports as not reduced, in the wording of the dt block; the
    # derive summary prints both verdicts
    path = tmp_path / "inconsistent.cps"
    path.write_text(INCONSISTENT_GAUGE_MODEL)
    note = "not reduced (equation without jets: 1)"
    assert main(["check", str(path), "--xi", "dt"]) == 0
    assert capsys.readouterr().out.splitlines()[-1] == f"gauge direction: {note}"
    assert main(["check", str(path), "--gauge", "lam"]) == 0
    assert capsys.readouterr().out.splitlines() == [f"gauge direction: {note}"]
    assert main(["derive", str(path)]) == 0
    assert capsys.readouterr().out.splitlines()[-2:] == [
        f"  vector dt: xi-invariant: yes; d-symmetry: yes; gauge: {note}",
        f"  gauge(lam): {note}",
    ]
    assert main(["derive", str(path), "--json"]) == 0
    blocks = json.loads(capsys.readouterr().out)["symmetries"]
    assert [b["gauge"] for b in blocks] == [{"not_reduced": "equation without jets: 1"}] * 2


def test_check_gauge_refuses_nonabelian_model():
    src = str(pathlib.Path(cpsforge.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-m", "cpsforge.cli", "check", "yang_mills_su2_n2.cps", "--gauge", "lam"],
        env=env, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 1
    assert "Traceback" not in proc.stderr
    assert proc.stderr.strip().splitlines() == [
        "model error: gauge parameter checks need an abelian one-form field"
    ]


def test_check_evolutionary_shift(capsys):
    assert main(["check", "scalar_wave_neumann.cps", "--evolutionary", "u: 1"]) == 0
    out = capsys.readouterr().out
    assert "d-symmetry: yes" in out


def test_check_evolutionary_with_a_non_decomposable_boundary_variation(capsys):
    # the Euler sources of Lie_W L vanish for W = u_x, but its boundary
    # variation is not decomposable: not a d-symmetry
    model = load_model("scalar_neumann.cps")
    with pytest.raises(NonDecomposableError):
        _decompose_pair(model.lp, rel_lie_ev({"u": model.chart.jet("u", MultiIndex.make(1))}, model.lp.rel))
    assert main(["check", "scalar_neumann.cps", "--evolutionary", "u: u_x"]) == 0
    assert capsys.readouterr().out == "d-symmetry: no\n"


def test_check_evolutionary_splits_at_top_level_commas(capsys):
    # the commas inside a component's parentheses do not separate components
    W = "A_t: Derivative(lam(t, x, y), t), A_x: Derivative(lam(t, x, y), x)"
    assert main(["check", "chern_simons_k1.cps", "--evolutionary", W]) == 0
    assert "d-symmetry: no" in capsys.readouterr().out


def test_check_evolutionary_runs_no_python(tmp_path, capsys):
    marker = tmp_path / "marker"
    W = f"u: __import__('pathlib').Path({str(marker)!r}).touch()"
    assert main(["check", "scalar_robin.cps", "--evolutionary", W]) == 1
    assert capsys.readouterr().err == "model error: unexpected character '_' (line 1, col 4)\n"
    assert not marker.exists()


def test_check_evolutionary_refuses_unknown_names(capsys):
    assert main(["check", "scalar_wave_neumann.cps", "--evolutionary", "u: uu"]) == 1
    assert capsys.readouterr().err == "model error: unknown symbol 'uu' (line 1, col 4)\n"


@pytest.mark.parametrize("text,message", [
    ("", "the component list is empty"),
    ("u: 1,", "empty component (line 1, col 6)"),
    (",", "empty component (line 1, col 1)"),
    ("u: 1,,v: 2", "empty component (line 1, col 6)"),
])
def test_check_evolutionary_refuses_empty_components(capsys, text, message):
    # the parser's end-of-text ";" is not named: the user never typed it
    assert main(["check", "scalar_neumann.cps", f"--evolutionary={text}"]) == 1
    assert capsys.readouterr().err == f"model error: --evolutionary: {message}\n"


@pytest.mark.parametrize("component", ["u: Derivative(u, t)", "u: Derivative(lam(t, x, y), u)"])
def test_evolutionary_derivative_is_of_a_field_free_scalar_in_coordinates(component):
    text = (corpus_dir() / "chern_simons_k1.cps").read_text()
    old = "fields { A : one_form; }"
    assert text.count(old) == 1
    model = parse_model(text.replace(old, "fields { A : one_form; u : scalar; }"))
    with pytest.raises(ModelError, match=r"^Derivative\(\) takes .* \(line 1, col 4\)$"):
        parse_evolutionary(model, component)


def test_max_jet_order_flag(tmp_path):
    rc = main(["--max-jet-order", "6", "derive", "scalar_dirichlet.cps", "--json",
               "--out", str(tmp_path / "r.json"), "--no-symmetries"])
    assert rc == 0


def test_jet_cap_overflow_is_one_line(tmp_path, capsys):
    text = (corpus_dir() / "scalar_periodic.cps").read_text()
    old = "L = (1/2) * wedge(d(u), hodge(d(u)));"
    assert text.count(old) == 1
    path = tmp_path / "higher_order.cps"
    path.write_text(text.replace(old, "L = (u_t**2 - u_xx**2)/2 * vol();"))
    assert main(["derive", str(path)]) == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "Traceback" not in err
    assert "max jet order 4" in err and "--max-jet-order" in err
    assert main(["--max-jet-order", "6", "derive", str(path)]) == 0


def test_numeric_fd_check_writes_csv(tmp_path, capsys):
    out = tmp_path / "fd.csv"
    rc = main([
        "numeric", "fd-check", "scalar_neumann.cps", "--grid", "65x65", "--out", str(out)
    ])
    assert rc == 0
    rows = out.read_text().strip().splitlines()
    assert rows[0] == "eps,residual"
    assert len(rows) == 4
    msg = capsys.readouterr().out
    assert "slope" in msg


def test_fd_check_slope_only_when_defined(capsys):
    # one eps, or a residual that is exactly zero at every eps, has no slope
    for argv in (["scalar_neumann.cps", "--grid", "17x17", "--eps", "1e-3"],
                 ["no_equation_L2.cps", "--grid", "17x17"]):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["numeric", "fd-check", *argv]) == 0
        assert "slope = n/a" in capsys.readouterr().out


def test_fd_check_exact_variation_is_rounding(capsys):
    # quadratic actions: the central difference is exact, so the residual is
    # rounding at every eps and has no slope; the Neumann residual is O(eps^2).
    # The su(2) action is quadratic on the test state too: every component
    # takes the same values there, so its structure-constant terms vanish.
    for name in ("scalar_periodic", "scalar_wave_neumann", "yang_mills_abelian_n2", "yang_mills_su2_n2"):
        assert main(["numeric", "fd-check", f"{name}.cps"]) == 0
        assert capsys.readouterr().out.splitlines()[-1] == "slope = n/a"
    assert main(["numeric", "fd-check", "scalar_neumann.cps"]) == 0
    assert capsys.readouterr().out.splitlines()[-1] == "slope = 2.000"


def test_fd_check_on_every_1p1_corpus_model(capsys):
    # a pass (exit 0) on every 1+1 model but three refusals: the unbound V(u)
    # of scalar_dirichlet and scalar_robin, and the non-decomposable boundary
    # variation of lagrange_multiplier_L3
    refusals = {"scalar_dirichlet": 1, "scalar_robin": 1, "lagrange_multiplier_L3": 2}
    got, want = {}, {}
    for name in CORPUS_MODELS:
        if load_model(f"{name}.cps").chart.n == 2:
            got[name], want[name] = main(["numeric", "fd-check", f"{name}.cps"]), refusals.get(name, 0)
            capsys.readouterr()
    assert got == want


@pytest.mark.parametrize("name,field,slope", [
    ("scalar_neumann", "u", "slope = 2.006"), ("yang_mills_abelian_n2", "A", "slope = n/a"),
])
def test_fd_check_varies_a_dirichlet_field_admissibly(tmp_path, capsys, name, field, slope):
    # Dirichlet data leave no face term of the field in the sources, so its
    # test variation vanishes on the lateral faces; one that does not leaves
    # the face term of the action unpaired, a residual that is the same at every eps
    text = (corpus_dir() / f"{name}.cps").read_text()
    old = f"bc {{ {field} = free; }}"
    assert text.count(old) == 1
    path = tmp_path / "dirichlet.cps"
    path.write_text(text.replace(old, f"bc {{ {field} = dirichlet; }}"))
    assert main(["numeric", "fd-check", str(path)]) == 0
    assert capsys.readouterr().out.splitlines()[-1] == slope


def test_fd_check_refuses_a_residual_that_is_not_finite(tmp_path, capsys):
    # sqrt(u) is nan where the test state is negative, and no slope rule holds for nan
    text = (corpus_dir() / "scalar_neumann.cps").read_text()
    old = "(1/4) * u**4 * vol();"
    assert text.count(old) == 1
    path = tmp_path / "sqrt.cps"
    path.write_text(text.replace(old, "(1/4) * u**4 * vol() + (1/4) * u**(1/2) * vol();"))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(["numeric", "fd-check", str(path), "--grid", "17x17"]) == 1
    assert capsys.readouterr().err == (
        "model error: fd-check: the action or a variation residual is not finite on the test state\n"
    )
    assert not [w for w in caught if w.category is RuntimeWarning]


@pytest.mark.parametrize("name", ["scalar_neumann", "scalar_robin_const"])
def test_fd_slice_independence_default_grid_meets_cfl(capsys, name):
    # without --grid the time points follow the domain so that dt <= dx ...
    assert main(["numeric", "slice-independence", f"{name}.cps", "--mode", "fd"]) == 0
    assert capsys.readouterr().out.splitlines()[-1].startswith("relative drift = 0.0")
    # ... and an explicit --grid is used as given
    assert main(["numeric", "slice-independence", f"{name}.cps", "--mode", "fd", "--grid", "129x256"]) == 1
    assert "CFL violation" in capsys.readouterr().err


@pytest.mark.parametrize("old,new", [("boundary = false;", "boundary = true;"), ("periodic = x;", "")])
def test_numeric_refuses_boundary_periodic_mismatch(tmp_path, capsys, old, new):
    text = (corpus_dir() / "scalar_periodic.cps").read_text()
    assert text.count(old) == 1
    path = tmp_path / "mismatch.cps"
    path.write_text(text.replace(old, new))
    for sub, *opts in (["fd-check"], ["hamiltonian"], ["slice-independence"], ["flux", "--xi", "dt"]):
        assert main(["numeric", sub, str(path), "--grid", "17x32", *opts]) == 1
        assert capsys.readouterr().err == (
            "model error: numeric checks need periodic = x exactly when boundary = false\n"
        )


def test_numeric_never_raises(capsys):
    # every numeric subcommand on every 1+1 corpus model ends in a result or
    # a one-line refusal: no traceback, no numpy warning.  lagrange_multiplier_L3's
    # fd-check is left out: it exits 2 with derive's NON_DECOMPOSABLE diagnostic.
    failures = []
    for name in CORPUS_MODELS:
        model = load_model(f"{name}.cps")
        if model.chart.n != 2:
            continue
        runs = [["fd-check", "--grid", "17x17"], ["hamiltonian", "--grid", "17x32"]]
        runs += [["slice-independence", "--grid", "17x32", "--mode", m] for m in ("spectral", "fd")]
        runs += [["flux", "--grid", "17x32", "--xi", xi] for xi in model.vectors]
        for sub, *opts in runs:
            if name == "lagrange_multiplier_L3" and sub == "fd-check":
                continue
            argv = ["numeric", sub, f"{name}.cps", *opts]
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                try:
                    rc = main(argv)
                except Exception as exc:  # the failure this test exists to catch
                    rc = f"{type(exc).__name__}: {exc}"
            err = capsys.readouterr().err
            numpy_warnings = [str(w.message) for w in caught if w.category is RuntimeWarning]
            if rc not in (0, 1) or err.count("\n") > 1 or numpy_warnings:
                failures.append((" ".join(argv), rc, err, numpy_warnings))
    assert not failures


def test_numeric_refuses_unbound_constant(tmp_path, capsys):
    # scalar_robin with a polynomial potential: only the constant f is unbound
    text = (corpus_dir() / "scalar_robin.cps").read_text()
    for old, new in (("    V : function(u);\n", ""), ("V(u) * vol()", "(1/4) * u**4 * vol()")):
        assert text.count(old) == 1
        text = text.replace(old, new)
    path = tmp_path / "robin_f.cps"
    path.write_text(text)
    assert main(["numeric", "fd-check", str(path), "--grid", "17x17"]) == 1
    assert capsys.readouterr().err == "model error: no numeric binding for symbol f\n"


def test_hamiltonian_pairs_with_the_model_momentum(tmp_path, capsys):
    # the canonical pairing uses p = -dL/du_t: zero for L = 0, twice u_t for
    # the doubled Lagrangian; a momentum that is not c*u_t is refused
    assert main(["numeric", "hamiltonian", "no_equation_L2.cps"]) == 0
    assert capsys.readouterr().out.splitlines()[-1] == "slice pairing = 0, canonical = 0, diff = 0"
    text = (corpus_dir() / "scalar_periodic.cps").read_text()
    old = "L = (1/2) * wedge(d(u), hodge(d(u)));"
    assert text.count(old) == 1
    doubled, quartic = tmp_path / "doubled.cps", tmp_path / "quartic.cps"
    doubled.write_text(text.replace(old, "L = wedge(d(u), hodge(d(u)));"))
    quartic.write_text(text.replace(old, "L = (1/2) * wedge(d(u), hodge(d(u))) + u_t**4 * vol();"))
    assert main(["numeric", "hamiltonian", str(doubled), "--out", str(tmp_path / "h.csv")]) == 0
    capsys.readouterr()
    (val, canonical, diff), = [map(float, r.split(",")) for r in (tmp_path / "h.csv").read_text().split()[1:]]
    assert abs(val) > 12 and diff < 1e-6
    assert main(["numeric", "hamiltonian", str(quartic)]) == 1
    assert capsys.readouterr().err == (
        "model error: hamiltonian needs a momentum c*u_t with a number c, not p = -4*u__t**3 + u__t\n"
    )


REFUSED_ARGS = [
    ["numeric", "fd-check", "scalar_neumann.cps", "--grid", "12x"],
    ["numeric", "fd-check", "scalar_neumann.cps", "--grid", "9x9x9"],
    ["numeric", "fd-check", "scalar_neumann.cps", "--eps", "abc"],
    ["numeric", "flux", "scalar_robin.cps", "--xi", "nope"],
    ["numeric", "slice-independence", "chern_simons_k1.cps"],
    ["numeric", "slice-independence", "lagrange_multiplier_L2.cps"],
    ["numeric", "hamiltonian", "yang_mills_abelian_n2.cps"],
    ["check", "scalar_robin.cps", "--evolutionary", "foo:1"],
    ["check", "scalar_robin.cps", "--evolutionary", "u:("],
    ["check", "scalar_robin.cps", "--evolutionary", "u: 1, u: u_t"],
]


@pytest.mark.parametrize("argv", REFUSED_ARGS, ids=" ".join)
def test_bad_arguments_are_refused_without_traceback(capsys, argv):
    # argparse rejects a malformed option with exit 2; the rest are one-line
    # refusals with exit 1
    try:
        rc = main(argv)
    except SystemExit as err:
        rc = err.code
    assert rc in (1, 2)
    err = capsys.readouterr().err
    assert "Traceback" not in err
    if rc == 1:
        assert err.count("\n") == 1


@pytest.mark.parametrize("argv", [
    ["check", "scalar_neumann.cps", "--xi", "nope"],
    ["numeric", "flux", "scalar_periodic.cps", "--xi", "nope"],
], ids=" ".join)
def test_unknown_vector_is_the_same_model_error(capsys, argv):
    assert main(argv) == 1
    assert capsys.readouterr().err == "model error: unknown vector field 'nope'\n"


def test_numeric_grid_out_of_memory_is_one_line(capsys, monkeypatch):
    # the mesh is made to fail: a grid large enough to fail for real allocates
    # gigabytes of coordinates before numpy refuses it
    from cpsforge.numeric import Grid

    def out_of_memory(self):
        raise MemoryError

    monkeypatch.setattr(Grid, "mesh", out_of_memory)
    assert main(["numeric", "fd-check", "scalar_neumann.cps", "--grid", "17x17"]) == 1
    assert capsys.readouterr().err == "out of memory on the 17x17 grid; rerun with a smaller --grid\n"
    assert main(["numeric", "hamiltonian", "scalar_neumann.cps"]) == 1
    assert capsys.readouterr().err == "out of memory on the default grid; rerun with a smaller --grid\n"


@pytest.mark.parametrize("argv", [
    ["check", "scalar_neumann.cps", "--xi", "dt", "--gauge", "lam"],
    ["check", "scalar_neumann.cps", "--gauge", "lam", "--evolutionary", "u: 1"],
    ["check", "scalar_neumann.cps"],
], ids=" ".join)
def test_check_takes_exactly_one_of_xi_gauge_evolutionary(capsys, argv):
    with pytest.raises(SystemExit) as err:
        main(argv)
    assert err.value.code == 2
    assert "--xi" in capsys.readouterr().err


def _file_error_argv(case: str, tmp_path) -> list[str]:
    missing = tmp_path / "no_such_dir"
    if case == "derive --out":
        return ["derive", "scalar_neumann.cps", "--out", str(missing / "x.json")]
    if case == "fd-check --out":
        return ["numeric", "fd-check", "scalar_neumann.cps", "--grid", "17x17", "--out", str(missing / "x.csv")]
    if case == "directory model":
        return ["derive", str(tmp_path)]
    model = tmp_path / "latin1.cps"
    model.write_bytes((corpus_dir() / "scalar_neumann.cps").read_bytes() + "# \xe9\n".encode("latin-1"))
    return ["derive", str(model)]


@pytest.mark.parametrize("case", ["derive --out", "fd-check --out", "directory model", "not UTF-8"])
def test_file_errors_are_one_line_refusals(capsys, tmp_path, case):
    try:
        rc = main(_file_error_argv(case, tmp_path))
    except SystemExit as exit_:  # a one-line refusal raised with its message
        rc = 1 if isinstance(exit_.code, str) else exit_.code
        print(exit_.code, file=sys.stderr)
    assert rc == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "Traceback" not in err, err


def test_every_corpus_model_derives(tmp_path):
    from cpsforge.cli import corpus_dir

    for f in sorted(corpus_dir().iterdir()):
        if not f.name.endswith(".cps"):
            continue
        rc = main(["derive", str(f), "--json", "--out", str(tmp_path / (f.name + ".json")),
                   "--no-symmetries"])
        expect = 2 if "L3" in f.name else 0
        assert rc == expect, f.name


@pytest.mark.parametrize("name", CORPUS_MODELS)
def test_derive_matches_golden(tmp_path, name):
    # regenerate with scripts/regen_goldens.py, only for an intended report change
    out = tmp_path / "rep.json"
    rc = main(["derive", f"{name}.cps", "--json", "--out", str(out)])
    assert rc == (2 if name == "lagrange_multiplier_L3" else 0)
    assert out.read_bytes() == (GOLDEN / f"{name}.json").read_bytes()


def test_golden_solutions_are_the_printed_sources():
    # step 3 lists the nonzero sources of steps 1 and 2, printed the same way
    for name in CORPUS_MODELS:
        steps = json.loads((GOLDEN / f"{name}.json").read_text())["steps"]
        if "3" not in steps:
            continue  # lagrange_multiplier_L3 stops at its NON_DECOMPOSABLE error
        for sol, step, sources in (("Sol", "1", "E"), ("Sol_boundary", "2", "b")):
            printed = steps[step][sources]
            assert steps["3"][sol] == {a: e for a, e in printed.items() if e != "0"}, (name, sol)


@pytest.mark.parametrize("name", ["chern_simons_k1", "yang_mills_abelian_n3", "yang_mills_su2_n2"])
@pytest.mark.parametrize("hash_seed", ["1", "2"])
def test_derive_independent_of_hash_seed(tmp_path, name, hash_seed):
    out = tmp_path / "rep.json"
    src = str(pathlib.Path(cpsforge.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONHASHSEED=hash_seed,
               PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-m", "cpsforge.cli", "derive", f"{name}.cps", "--json", "--out", str(out)],
        env=env, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    assert out.read_bytes() == (GOLDEN / f"{name}.json").read_bytes()


ROBIN_MUTATIONS = {
    "bc_without_kind": ("bc { u = robin; }", "bc { u; }", 18),
    "metric_without_value": ("metric = diag(-1, 1);", "metric;", 10),
    "non_numeric_value": ("    f;", "    f = abc;", 11),
    "domain_arity": ("domain = (0, 1), (0, 1);", "domain = (0, 1);", 6),
    "boundary_without_value": ("boundary = true;", "boundary = ;", 5),
    "value_is_code": ("    f;", "    f = print(1234567);", 11),
    "misspelled_block": ("vectors {", "vectros {", 19),
    "repeated_block": ("bc { u = robin; }", "bc { u = robin; }\n  bc { u = free; }", 19),
    "operator_at_end": ("V(u) * vol();", "V(u) * vol() + ;", 15),
    "degenerate_metric": ("metric = diag(-1, 1);", "metric = diag(0, 1);", 10),
    "reversed_domain": ("domain = (0, 1), (0, 1);", "domain = (1, 0), (0, 1);", 6),
    "empty_domain": ("domain = (0, 1), (0, 1);", "domain = (0, 1), (1, 1);", 6),
}


# mutants that parsed and then ended derive in a traceback
DERIVE_CRASHES = {
    # (-1/0) became zoo, and integrate_by_parts raised on a nan residual
    "division_by_zero": ("chern_simons_k1_dirichlet", "L = (-1/2) *", "L = (-1/0) *", 11),
    "zero_to_a_negative_power": (
        "chern_simons_k1_dirichlet", "L = (-1/2) *", "L = (-1) * 0 ** (-1) *", 11
    ),
    # forms._check_xi raised "jet-dependent vector fields are not supported"
    "vector_depends_on_field": ("scalar_neumann", "dt = (1, 0);", "dt = (u, 0);", 15),
    # the tangency check skipped charts without a boundary, and rel_lie raised
    # NonTangentError when it restricted the vector to x = 0
    "periodic_vector_not_tangent": ("scalar_periodic", "dt = (1, 0);", "dt = (1, 1);", 15),
}


@pytest.mark.parametrize("mutation", sorted(ROBIN_MUTATIONS))
def test_malformed_model_is_positioned_model_error(tmp_path, capsys, mutation):
    # each mutation used to escape the parser as a raw exception, to parse
    # (a misspelled or repeated block, the domain, which then failed inside the
    # numeric grid, a zero metric entry, which hodge divided by, and an empty
    # or reversed domain interval, which gave a negative grid spacing), to run
    # model text as Python (a value), or to be placed at line 0 (an
    # expression cut short)
    assert_positioned_refusal(tmp_path, capsys, "scalar_robin", *ROBIN_MUTATIONS[mutation])


@pytest.mark.parametrize("mutation", sorted(DERIVE_CRASHES))
def test_derive_crash_is_positioned_model_error(tmp_path, capsys, mutation):
    assert_positioned_refusal(tmp_path, capsys, *DERIVE_CRASHES[mutation])


def assert_positioned_refusal(tmp_path, capsys, model, old, new, line):
    text = (corpus_dir() / f"{model}.cps").read_text()
    assert text.count(old) == 1
    path = tmp_path / "mutant.cps"
    path.write_text(text.replace(old, new))
    with pytest.raises(ModelError) as err:
        parse_model(path.read_text())
    assert err.value.line == line and err.value.col is not None
    assert main(["derive", str(path), "--no-symmetries"]) == 1
    captured = capsys.readouterr()
    assert "model error" in captured.err and "Traceback" not in captured.err
    assert "1234567" not in captured.out


def derive_mutants(seed=0, count=6000):
    """The distinct mutants that parse among ``count`` seeded ones of the corpus
    models other than su2: one token deleted, duplicated or swapped."""
    rng = random.Random(seed)
    tokens = {
        name: [t.text for t in tokenize((corpus_dir() / f"{name}.cps").read_text())[:-1]]
        for name in CORPUS_MODELS if not name.startswith("yang_mills_su2")
    }
    seen = {" ".join(toks) for toks in tokens.values()}
    names = sorted(tokens)
    out = []
    for _ in range(count):
        toks = list(tokens[rng.choice(names)])
        i = rng.randrange(len(toks))
        op = rng.choice(("delete", "duplicate", "swap"))
        if op == "delete":
            del toks[i]
        elif op == "duplicate":
            toks.insert(i, toks[i])
        else:
            j = rng.randrange(len(toks))
            toks[i], toks[j] = toks[j], toks[i]
        text = " ".join(toks)
        if text in seen:
            continue
        seen.add(text)
        try:
            parse_model(text)
        except ModelError:
            continue
        out.append(text)
    return out


def test_parsing_mutants_derive_without_traceback(tmp_path, capsys):
    mutants = derive_mutants()
    assert len(mutants) > 50
    path = tmp_path / "mutant.cps"
    for text in mutants:
        path.write_text(text)
        assert main(["derive", str(path), "--json"]) in (0, 1, 2), text
    assert "Traceback" not in capsys.readouterr().err


def test_derive_with_background_function_on_the_boundary(tmp_path, capsys):
    # rho(t, x) restricts to rho(t, 0) on the lateral boundary, which the
    # gauge(lam) block's corner ideal reduces with
    text = (corpus_dir() / "yang_mills_abelian_n2.cps").read_text()
    for old, new in (
        ("metric = diag(-1, 1);", "metric = diag(-1, 1); rho : function(t, x); lam : function(t, x);"),
        ("hodge(d(A)));", "hodge(d(A))) + rho(t, x)*A_t**2*vol();"),
    ):
        assert text.count(old) == 1
        text = text.replace(old, new)
    path = tmp_path / "rho.cps"
    path.write_text(text)
    assert main(["derive", str(path)]) == 0
    out = capsys.readouterr().out
    assert "gauge(lam): bulk (-2*lam(t, x)*rho(t, x)) dx^th{A_t}; boundary (lam(t, 0))" in out


def test_max_jet_order_zero_is_a_cap(capsys):
    # 0 caps the jets at u itself; it does not fall back to the default cap 4
    assert main(["--max-jet-order", "0", "derive", "scalar_neumann.cps"]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("jet order cap exceeded: ") and "max jet order 0" in captured.err
    assert "model scalar_neumann" not in captured.out


@pytest.mark.parametrize("argv, jet", [
    (["check", "scalar_robin.cps", "--evolutionary", "u: u_xxxx"], "u_txxxx"),
    (["--max-jet-order", "1", "derive", "scalar_robin.cps"], "u_xx"),
])
def test_jet_beyond_the_cap_is_spelled_as_in_model_files(capsys, argv, jet):
    assert main(argv) == 1
    cap = 1 if "--max-jet-order" in argv else 4
    assert capsys.readouterr().err == (
        f"jet order cap exceeded: jet {jet} exceeds max jet order {cap}; rerun with a larger --max-jet-order\n"
    )


@pytest.mark.parametrize("value", ["-1", "x", "1.5", ""])
def test_max_jet_order_refuses_anything_but_a_nonnegative_integer(capsys, value):
    with pytest.raises(SystemExit) as exc:
        main(["--max-jet-order", value, "derive", "scalar_neumann.cps"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "expected a nonnegative integer" in err and "Traceback" not in err


def chern_simons_with_constants(tmp_path) -> str:
    text = (corpus_dir() / "chern_simons_k1.cps").read_text()
    old = "background { lam : function(t, x, y); }"
    assert text.count(old) == 1
    path = tmp_path / "cs.cps"
    path.write_text(text.replace(old, "background { lam : function(t, x, y); k; rho = 2; }"))
    return str(path)


def test_check_xi_cancels_quotient_coefficients(tmp_path, capsys):
    # dt = 1/(1+t) puts the residuals on sympy expressions whose terms cancel
    # only as quotients; Chern-Simons is invariant under every tangent field
    text = (corpus_dir() / "chern_simons_k1.cps").read_text()
    old = "dt = (1, 0, 0);"
    assert text.count(old) == 1
    path = tmp_path / "cs.cps"
    path.write_text(text.replace(old, "dt = (1/(1+t), 0, 0);"))
    assert main(["check", str(path), "--xi", "dt"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[:2] == ["xi-invariant: yes", "d-symmetry: yes"]


@pytest.mark.parametrize("name", ["x y", "2lam", "t", "A_t", "A", "k", "rho"])
def test_check_gauge_refuses_a_name_that_is_taken_or_malformed(tmp_path, capsys, name):
    # not an identifier, a coordinate, a field component, a one-form, or a
    # background that is not a formal function
    assert main(["check", chern_simons_with_constants(tmp_path), "--gauge", name]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"model error: gauge parameter {name!r} ") and err.count("\n") == 1


@pytest.mark.parametrize("name", ["lam", "mu"])
def test_check_gauge_accepts_a_function_background_or_a_new_name(tmp_path, capsys, name):
    assert main(["check", chern_simons_with_constants(tmp_path), "--gauge", name]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "gauge direction: no"
    assert lines[2] == f"  boundary obstruction = ({name}(t, x, 0)) dx^th{{A_x}}"


def load_script(name: str):
    """The module of scripts/NAME.py."""
    path = pathlib.Path(__file__).resolve().parents[1] / "scripts" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(name, path)
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    return script


def test_recorded_cli_traffic_never_raises(capsys):
    # every command that scripts/cli_outputs.py records ends in an exit status
    script = load_script("cli_outputs")
    for argv in script.commands():
        out = script.run(argv)  # an exception other than SystemExit escapes
        assert re.search(r"^status: -?\d+$", out, re.M), (argv, out)
    capsys.readouterr()


def test_run_corpus_names_its_expected_failure(monkeypatch, capsys):
    script = load_script("run_corpus")
    assert script.main() == 0
    monkeypatch.setattr(script, "load_model", lambda path: pathlib.Path(path).stem)
    monkeypatch.setattr(script, "run_cps", lambda name: name)
    for failing, rc in (({"lagrange_multiplier_L3"}, 0), (set(), 1),
                        ({"scalar_robin"}, 1), ({"lagrange_multiplier_L3", "scalar_robin"}, 1)):
        monkeypatch.setattr(script, "print_summary", lambda name: 2 if name in failing else 0)
        assert script.main() == rc, failing
    capsys.readouterr()


def test_regen_goldens_fails_on_a_digest_that_differs(monkeypatch, tmp_path, capsys):
    script = load_script("regen_goldens")
    monkeypatch.setattr(script, "derive", lambda name, workdir: (GOLDEN / f"{name}.json").read_bytes())
    monkeypatch.setattr(sys, "argv", ["regen_goldens.py"])
    digests = {n: hashlib.sha256((GOLDEN / f"{n}.json").read_bytes()).hexdigest() for n in CORPUS_MODELS}
    reference = tmp_path / "reference.json"
    monkeypatch.setattr(script, "REFERENCE", reference)
    for pins, rc in ((digests, 0), ({**digests, "scalar_robin": "0" * 64}, 1)):
        reference.write_text(json.dumps({"reports": pins}))
        assert script.main() == rc
        out = capsys.readouterr().out
        assert out.count("same") == len(CORPUS_MODELS) and ("digest differs" in out) == bool(rc)
