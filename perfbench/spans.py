"""Span recorder for the benchmark's per-layer metrics.

Spans are recorded from outside the program: `install` replaces each named
function of `cpsforge` with a timing wrapper, at every place the function is
bound.  The modules import each other with `from .x import y`, so a wrapper
set only on the defining module would miss calls such as `report.decompose`
or `pipeline.wedge`; `install` therefore rebinds every module-level name in
every loaded `cpsforge` module that refers to the original object, and sets
methods on their class.

Per span name the recorder keeps the number of calls, the self time (the
span's duration minus the part of it that child spans cover) and the total
time (outermost activations only, so recursion is not counted twice).
Counters are attached at the same boundaries by small hook functions.
"""
from __future__ import annotations

import importlib
import sys
import time

import sympy as sp


class Tracer:
    """In-memory span and counter store; one per benchmark process."""

    def __init__(self):
        self.stats: dict[str, list] = {}  # name -> [calls, self_s, total_s]
        self.counters: dict[str, int] = {}
        self._stack: list[float] = []  # child time accumulated per open span
        self._depth: dict[str, int] = {}

    def take(self) -> tuple[dict[str, list], dict[str, int]]:
        """Return the figures recorded since the last call and start afresh."""
        stats, counters = self.stats, self.counters
        self.stats = {name: [0, 0.0, 0.0] for name in stats}
        self.counters = {name: 0 for name in counters}
        return stats, counters

    def count(self, name: str, n: int) -> None:
        self.counters[name] = self.counters.get(name, 0) + n

    def wrap(self, name: str, fn, hook=None):
        self.stats.setdefault(name, [0, 0.0, 0.0])
        stack, depth = self._stack, self._depth
        clock = time.perf_counter

        def traced(*args, **kwargs):
            stack.append(0.0)
            depth[name] = depth.get(name, 0) + 1
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                children = stack.pop()
                depth[name] -= 1
                st = self.stats[name]
                st[0] += 1
                st[1] += dt - children
                if not depth[name]:
                    st[2] += dt
                if stack:
                    stack[-1] += dt
            if hook is not None:
                hook(self, args, out)
            return out

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        traced.__doc__ = getattr(fn, "__doc__", None)
        return traced


# -- counters ---------------------------------------------------------------------------


def _n_terms(e) -> int:
    return len(sp.Add.make_args(e)) if e != 0 else 0


def _count_total_derivative(tr: Tracer, args, out) -> None:
    tr.count("chart.Chart.total_derivative.out_monomials", _n_terms(out))


def _count_form_terms(tr: Tracer, args, out) -> None:
    form = args[0]
    tr.count("forms.Form.__init__.terms_out", sum(_n_terms(c) for c in form.terms.values()))


def _count_row(tr: Tracer, args, out) -> None:
    # a row with an empty source is discarded before it is tried against the residual
    if out[0]:
        tr.count("pipeline.absorption.rows_tried", 1)


COUNTERS = (
    "chart.Chart.total_derivative.out_monomials",
    "forms.Form.__init__.terms_out",
    "pipeline.OnShellIdeal.generators",
    "pipeline.OnShellIdeal.rules_kept",
    "pipeline.OnShellIdeal.rules_skipped",
    "pipeline.absorption.rows_tried",
)

# (module, attribute path) of every timed span, with its counter hook
SPANS = (
    ("model", "parse_model", None),
    ("report", "run_cps", None),
    ("report", "report_json", None),
    ("pipeline", "decompose", None),
    ("pipeline", "presymplectic_current", None),
    ("pipeline", "slice_presymplectic", None),
    ("pipeline", "xi_invariance_residual", None),
    ("pipeline", "d_symmetry_check", None),
    ("pipeline", "noether_current_xi", None),
    ("pipeline", "gauge_residual", None),
    ("pipeline", "slice_ideal", None),
    ("pipeline", "_corner_ideal", None),
    ("pipeline", "_linearized_row", _count_row),
    ("pipeline", "OnShellIdeal.reduce_expr", None),
    ("jetcalc", "euler_operator", None),
    ("jetcalc", "integrate_by_parts", None),
    ("jetcalc", "_sweep", None),
    ("jetcalc", "boundary_euler_operator", None),
    ("chart", "Chart.total_derivative", _count_total_derivative),
    ("chart", "Chart.restrict_expr", None),
    ("chart", "translate_expr", None),
    ("forms", "Form.__init__", _count_form_terms),
    ("forms", "wedge", None),
    ("forms", "d_h", None),
    ("forms", "dd", None),
    ("forms", "iota_ev", None),
    ("forms", "lie_ev", None),
    ("forms", "restrict", None),
    ("relative", "rel_d", None),
    ("relative", "rel_lie", None),
    ("relative", "rel_wedge", None),
    ("checks", "fd_check", None),
    ("checks", "slice_independence", None),
    ("checks", "flux_check", None),
    ("checks", "hamiltonian_comparison", None),
    ("numeric", "fd_variation_residual", None),
    ("numeric", "contract_two_vertical", None),
    ("numeric", "wave_solver", None),
    ("numeric", "eval_bulk_expr", None),
)

# spans that are stages of the derivation; they also report total_s
STAGES = (
    "model.parse_model",
    "report.run_cps",
    "report.report_json",
    "pipeline.decompose",
    "pipeline.presymplectic_current",
    "pipeline.slice_presymplectic",
    "pipeline.xi_invariance_residual",
    "pipeline.d_symmetry_check",
    "pipeline.noether_current_xi",
    "pipeline.gauge_residual",
    "pipeline.slice_ideal",
    "pipeline._corner_ideal",
    "checks.fd_check",
    "checks.slice_independence",
    "checks.flux_check",
    "checks.hamiltonian_comparison",
)

SPAN_NAMES = tuple(f"{mod}.{path}" for mod, path, _ in SPANS)


def cpsforge_modules() -> list:
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "cpsforge" or name.startswith("cpsforge."))]


def _rebind(original, replacement) -> int:
    """Point every module-level name bound to `original` at `replacement`."""
    n = 0
    for mod in cpsforge_modules():
        for attr, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, attr, replacement)
                n += 1
    return n


def install(tracer: Tracer) -> dict[str, object]:
    """Wrap every span in SPANS; returns span name -> original object.

    Raises if a name cannot be found, so a renamed function fails loudly
    instead of silently dropping out of the trace.
    """
    importlib.import_module("cpsforge.cli")
    importlib.import_module("cpsforge.checks")
    originals: dict[str, object] = {}
    for mod_name, path, hook in SPANS:
        name = f"{mod_name}.{path}"
        mod = importlib.import_module(f"cpsforge.{mod_name}")
        owner_path, _, attr = path.rpartition(".")
        if owner_path:
            owner = getattr(mod, owner_path)
            original = owner.__dict__[attr]
            setattr(owner, attr, tracer.wrap(name, original, hook))
        else:
            original = getattr(mod, attr)
            if _rebind(original, tracer.wrap(name, original, hook)) == 0:
                raise LookupError(f"{name} is bound nowhere")
        originals[name] = original
    # construction of an on-shell ideal carries counters but no span of its own:
    # its time belongs to the stage that builds the ideal
    ideal_cls = importlib.import_module("cpsforge.pipeline").OnShellIdeal
    init = ideal_cls.__init__

    def counted_init(self, chart, equations, *args, **kwargs):
        init(self, chart, equations, *args, **kwargs)
        tracer.count("pipeline.OnShellIdeal.generators", len(equations))
        tracer.count("pipeline.OnShellIdeal.rules_kept", len(self.rules))
        tracer.count("pipeline.OnShellIdeal.rules_skipped", len(self.skipped))

    ideal_cls.__init__ = counted_init
    for name in COUNTERS:
        tracer.counters.setdefault(name, 0)
    return originals


def stale_bindings(originals: dict[str, object]) -> list[str]:
    """Names in loaded cpsforge modules that still point at an unwrapped original."""
    ids = {id(o): name for name, o in originals.items()}
    out = []
    for mod in cpsforge_modules():
        for attr, value in vars(mod).items():
            if id(value) in ids:
                out.append(f"{mod.__name__}.{attr} ({ids[id(value)]})")
    return out
