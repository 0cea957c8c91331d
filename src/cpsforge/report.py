"""Structured pipeline reports and canonical JSON serialization."""
from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any

import sympy as sp

from .chart import diff_function_atom, one_form_families
from .forms import Form
from .jetcalc import NonDecomposableError, source_coefficients
from .model import Model, ModelError
from .pipeline import (
    GaugeResidual,
    d_symmetry_check,
    decompose,  # noqa: F401 -- perfbench/selftest.py checks its span wrapper here
    gauge_residual,
    lift_vector_field,
    noether_current_xi,
    xi_invariance_residual,
)
from .relative import rel_iota, rel_lie_ev


@dataclass
class PipelineReport:
    model: str
    steps: dict[str, Any] = field(default_factory=dict)
    symmetries: list[dict] = field(default_factory=list)
    caveats: list[str] = field(default_factory=list)
    error: dict[str, Any] | None = None

    def to_dict(self) -> dict:
        out = {
            "model": self.model,
            "steps": self.steps,
            "symmetries": self.symmetries,
            "caveats": self.caveats,
        }
        if self.error is not None:
            out["error"] = self.error
        return out


def source_dict(src: Form) -> dict[str, str]:
    """The printed coefficient of each field of the source form src, by name."""
    out, ring = {}, src.ring
    for a, e in sorted(source_coefficients(src).items()):
        if ring.is_zero(e) and src.chart.labels[a][1:] != (0, 0):
            continue  # silent zero entries of restriction families
        out[a] = ring.sstr(e)
    return out


def run_cps(model: Model, with_symmetries: bool = True) -> PipelineReport:
    """CPS algorithm steps 0-5 on a parsed model.

    A non-decomposable boundary variation is reported (with the offending
    term) rather than raised; the caller decides the exit status.
    """
    rep = PipelineReport(model=model.name)
    lp = model.lp
    rep.steps["0"] = {
        "L": str(lp.rel.bulk),
        "ell": str(lp.rel.boundary),
        "bc": dict(sorted(lp.bc.items())),
    }
    try:
        v = model.decomposition
    except NonDecomposableError as err:
        rep.error = {
            "kind": "NON_DECOMPOSABLE",
            "message": str(err),
            "term": str(err.term) if err.term is not None else "",
        }
        return rep
    residual, (E, b) = v.residual(), v.sources
    rep.steps["1"] = {
        "E": source_dict(E),
        "Theta": str(v.potential.bulk),
        "residual": str(residual.bulk),
        "theta_noncanonical": v.noncanonical_theta,
    }
    rep.steps["2"] = {
        "b": source_dict(b),
        "theta_bar": str(v.potential.boundary),
        "residual": str(residual.boundary),
    }
    rep.steps["3"] = {  # the nonzero sources, as steps 1 and 2 printed them
        "Sol": {a: e for a, e in rep.steps["1"]["E"].items() if e != "0"},
        "Sol_boundary": {a: e for a, e in rep.steps["2"]["b"].items() if e != "0"},
        "declared_constraints": [sp.sstr(sp.sympify(c)) for c in model.constraints],
    }
    omega, omega_bar = v.omega
    om_slice, om_corner = v.slice_forms
    rep.steps["4"] = {
        "Omega": str(omega),
        "omega_bar": str(omega_bar),
        "slice_form": str(om_slice),
        "corner_form": str(om_corner),
    }
    if with_symmetries:
        for vname, xi in sorted(model.vectors.items()):
            rep.symmetries.append(symmetry_block(model, vname, xi))
        if model.backgrounds.get("lam") == "function":
            try:
                rep.symmetries.append(gauge_parameter_block(model, "lam"))
            except ModelError:
                pass  # no abelian one-form field to gauge
    rep.caveats.append(
        "xi-charges are reported for this Lagrangian-pair representative; equivalent "
        "representatives shift them by the boundary-variation lemma"
    )
    rep.caveats.append(
        "converse statements (symmetry verdicts implying invariant representatives) "
        "are not decided; the engine reports the constructive direction only"
    )
    return rep


def symmetry_block(model: Model, vname: str, xi) -> dict:
    """Steps 5-6 for one vector field: invariance, d-symmetry, Noether current
    and, for a d-symmetry, the gauge verdict of its lift."""
    lp, v = model.lp, model.decomposition
    W = lift_vector_field(model.chart, xi)
    A, S = rel_lie_ev(W, lp.rel), rel_iota(xi, lp.rel)
    res = xi_invariance_residual(lp, xi, A)
    verdict = d_symmetry_check(lp, A, potential=S if res.is_zero() else None)
    noether = noether_current_xi(v, S, W, res)
    block = {
        "vector": vname,
        "xi_invariant": res.is_zero(),
        "invariance_residual": {"bulk": str(res.bulk), "boundary": str(res.boundary)},
        "d_symmetry": verdict.is_symmetry,
        "S": str(verdict.potential.bulk) if verdict.potential is not None else None,
        "s_bar": str(verdict.potential.boundary) if verdict.potential is not None else None,
        "noether": {
            "J": str(noether.current.bulk),
            "j_bar": str(noether.current.boundary),
            "identity_residual_bulk": str(noether.identity_residual.bulk),
            "identity_residual_boundary": str(noether.identity_residual.boundary),
            "slice_current": str(noether.slice_current),
            "corner_current": str(noether.corner_current),
        },
        "note": verdict.note,
    }
    if verdict.is_symmetry:
        block["gauge"] = gauge_verdict(v, W, xi=xi)
    return block


def gauge_direction(model: Model, name: str) -> dict[str, sp.Expr]:
    """The gauge-parameter direction W^{A_mu} = d_mu name(x) of the abelian
    one-form fields.  ``name`` is an identifier that names no coordinate,
    field, field component or background other than a formal function;
    another name, or a model without abelian one-form fields, raises
    ModelError."""
    chart = model.chart
    families = one_form_families(chart.meta).values()
    if not families or any(m.lie_index for m in chart.meta.values()):
        raise ModelError("gauge parameter checks need an abelian one-form field")
    taken = {*chart.coord_names, *chart.fields, *(m.base for m in chart.meta.values())}
    if not name.isidentifier() or name in taken | {b for b, k in model.backgrounds.items() if k != "function"}:
        raise ModelError(f"gauge parameter {name!r} must be a new identifier or a function background")
    lam = sp.Function(name)(*chart.xs)
    return {a: diff_function_atom(lam, chart.xs[axis]) for family in families for axis, a in family.items()}


def gauge_parameter_block(model: Model, name: str) -> dict:
    """The gauge verdict of the direction ``gauge_direction(model, name)``."""
    g = gauge_verdict(model.decomposition, gauge_direction(model, name))
    return {"vector": f"gauge({name})", "kind": "gauge_parameter", "gauge": g}


def gauge_verdict(v, W, xi=None) -> dict:
    """``gauge_dict`` of ``gauge_residual(v, W, xi)``, or a not-reduced note
    when the on-shell reduction cannot be carried out (an equation without
    jets, no fixpoint, an unsupported expression)."""
    try:
        return gauge_dict(gauge_residual(v, W, xi))
    except (ValueError, ArithmeticError, NotImplementedError) as err:
        return {"not_reduced": str(err)}


def gauge_dict(g: GaugeResidual) -> dict:
    return {
        "bulk_residual": str(g.bulk),
        "boundary_residual": str(g.boundary),
        "is_gauge": g.is_gauge(),
    }


# -- canonical JSON ----------------------------------------------------------------------


def _canonical(obj):
    if isinstance(obj, float):
        return float(f"{obj:.12g}")
    if isinstance(obj, dict):
        return {str(k): _canonical(v) for k, v in sorted(obj.items(), key=lambda kv: str(kv[0]))}
    if isinstance(obj, (list, tuple)):
        return [_canonical(x) for x in obj]
    return obj


def report_json(rep: PipelineReport) -> str:
    """Canonical JSON: sorted keys, 12-significant-digit floats."""
    return json.dumps(_canonical(rep.to_dict()), sort_keys=True, indent=2) + "\n"
