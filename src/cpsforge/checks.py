"""Model-aware numeric cross-checks: FD variation, slice drift, flux, Hamiltonian."""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import sympy as sp
from sympy.core.cache import cacheit

from .chart import MultiIndex
from .jetcalc import source_coefficients
from .model import Model, ModelError
from .numeric import (
    FaceBinding,
    FieldState,
    Grid,
    _compiled,
    action_value,
    boundary_density,
    contract_two_vertical,
    eval_bulk_expr,
    fd_variation_residual,
    source_pairing,
    wave_solver,
)
from .pipeline import (
    decompose,  # noqa: F401 -- perfbench/selftest.py checks its span wrapper here
    lift_vector_field,
    noether_current_xi,
    xi_invariance_residual,
)
from .relative import rel_iota, rel_lie_ev


def make_grid(model: Model, shape) -> Grid:
    if model.chart.n != 2:
        raise ModelError(f"numeric checks need a 1+1-dimensional model, not n = {model.chart.n}")
    coords = model.chart.coord_names
    if (coords[-1] in model.periodic) == model.lp.has_boundary:
        raise ModelError(f"numeric checks need periodic = {coords[-1]} exactly when boundary = false")
    periodic = tuple(c in model.periodic for c in coords)
    return Grid.make(model.chart, model.domain, tuple(shape), periodic, model.bindings)


def _require_scalar_u(model: Model, check: str) -> None:
    """Refuse a model whose fields are not the one scalar ``u`` that the
    analytic states and the wave solver assume."""
    if model.chart.fields != ("u",):
        raise ModelError(f"{check} needs a model with the one scalar field u")


class AnalyticState(FieldState):
    """Field state with exact symbolic jets (spectral-exact evaluation)."""

    def __init__(self, grid: Grid, exprs: dict[str, sp.Expr]):
        self.exprs = {a: sp.sympify(e) for a, e in exprs.items()}
        values = {a: eval_bulk_expr(grid.chart, e, grid, None) for a, e in self.exprs.items()}
        super().__init__(grid, values)

    def _derive(self, field: str, mi: MultiIndex) -> np.ndarray:
        e = _jet_expr(self.exprs[field], tuple(self.grid.chart.xs[ax] for ax in mi))
        return eval_bulk_expr(self.grid.chart, e, self.grid, self)


@cacheit
def _jet_expr(expr: sp.Expr, xs: tuple) -> sp.Expr:
    """expr differentiated along the coordinates xs in turn; each step is
    memoised in sympy's cache, so the states of one session share it."""
    return sp.diff(_jet_expr(expr, xs[:-1]), xs[-1]) if xs else expr


def bump_array(t: np.ndarray, lo: float, hi: float) -> np.ndarray:
    s = (t - lo) * (hi - t)
    out = np.zeros_like(t)
    mask = s > 0
    out[mask] = np.exp(-1.0 / s[mask])
    m = out.max()
    return out / m if m > 0 else out


@dataclass
class FdCheckResult:
    rows: list[tuple[float, float]]  # (eps, residual)
    slope: float | None  # None for one eps, a zero end-point residual, or rounding alone
    ablated_rows: list[tuple[float, float]]


def fd_check(model: Model, shape=(129, 129), eps_list=(1e-2, 1e-3, 1e-4)) -> FdCheckResult:
    """Central-difference action variation against the symbolic sources; for a
    model with a boundary Lagrangian the ablated rows leave out its sources.
    An action or residual that is not finite on the test state is refused."""
    grid = make_grid(model, shape)
    v = model.decomposition
    chart, (L, ell) = model.chart, model.lp.rel
    E_coeffs = {a: sp.expand(e) for a, e in v.equations().items()}
    b = v.sources.boundary
    b_dens = {a: boundary_density(b.chart, b.ring.expr(e)) for a, e in source_coefficients(b).items()}
    tt, xx = grid.mesh()
    state = FieldState(grid, {a: np.sin(2 * tt + 1) * np.cos(3 * xx) for a in chart.fields})
    vpert = {a: bump_array(tt, 0.15, 0.85) * (1 + 0.3 * np.cos(2 * xx)) for a in chart.fields}
    for a in model.lp.dirichlet_fields():  # an admissible variation vanishes on the lateral faces
        vpert[a] = vpert[a] * bump_array(xx, *grid.extents[1])

    kinds = [b_dens, {}] if model.lp.has_boundary and not ell.is_zero() else [b_dens]
    with np.errstate(all="ignore"):  # a value that is not finite is refused below
        # the action first, so that a model it cannot evaluate is refused naming L
        action = action_value(L, ell, grid, state)
        # the source pairings do not depend on eps, and one central difference serves both row kinds
        pairings = [source_pairing(E_coeffs, b_densities, ell.chart, grid, state, vpert) for b_densities in kinds]
        residuals = [(eps, fd_variation_residual(L, ell, pairings, grid, state, vpert, eps)) for eps in eps_list]
    rows = [(eps, r[0]) for eps, r in residuals]
    ablated = [(eps, r[1]) for eps, r in residuals if len(r) > 1]
    if not np.all(np.isfinite([action] + [r for _, r in rows + ablated])):
        raise ModelError("fd-check: the action or a variation residual is not finite on the test state")
    # Each action sum of the central difference rounds to a few eps_mach |S|,
    # so it is known to about eps_mach |S| / eps.  At 129x129 the corpus models
    # with a quadratic action (an exact difference) leave at most 0.4 of that,
    # and the O(eps^2) truncation of scalar_neumann and scalar_robin_const stays
    # above 160 of it down to eps = 1e-4; a multiple of 8 is 20 from both.
    rounding = 8 * np.finfo(float).eps * abs(action)
    slope = None
    if len(rows) > 1 and rows[0][1] > 0 and rows[-1][1] > 0 and any(r > rounding / e for e, r in rows):
        slope = float((np.log10(rows[0][1]) - np.log10(rows[-1][1])) / (
            np.log10(eps_list[-1]) - np.log10(eps_list[0])
        ) * -1.0)
    return FdCheckResult(rows, slope, ablated)


def standing_wave_state(model: Model, grid: Grid) -> AnalyticState:
    t, x = model.chart.xs
    return AnalyticState(grid, {"u": sp.cos(t) * sp.sin(x)})


def spectral_tangents(model: Model, grid: Grid) -> tuple[AnalyticState, AnalyticState]:
    # a conjugate left-mover pair (nonzero symplectic product) plus spectators
    t, x = model.chart.xs
    d1 = AnalyticState(grid, {"u": sp.cos(x - t) + sp.Rational(1, 2) * sp.sin(2 * (x + t))})
    d2 = AnalyticState(grid, {"u": sp.sin(x - t) - sp.cos(3 * (x + t))})
    return d1, d2


def solve_model(model: Model, grid: Grid, initial, velocity) -> FieldState:
    """Leapfrog solve of a scalar model; the potential derivative is read off
    the symbolic Euler source, and the Robin coefficient c off the boundary
    source b[u] = u.n1 - c*u."""
    v = model.decomposition
    chart, bchart = model.chart, model.pair.bchart
    values = {sp.Symbol(k): val for k, val in model.bindings.items()}
    utt = chart.jet("u", MultiIndex.make(0, 0))
    uxx = chart.jet("u", MultiIndex.make(1, 1))
    u = chart.jet("u", MultiIndex())
    vp_expr = sp.expand(v.equations()["u"] - utt + uxx).subs(values)
    if vp_expr.free_symbols - {u} or vp_expr.atoms(sp.Derivative, sp.core.function.AppliedUndef):
        raise ModelError(f"the wave solver needs E[u] = u_tt - u_xx + V'(u), not V' = {vp_expr}")
    vp = _compiled((u,), vp_expr) if vp_expr != 0 else None
    bc, c = "periodic", 0.0
    if model.lp.has_boundary and model.lp.bc.get("u") == "dirichlet":
        bc = "dirichlet"
    elif model.lp.has_boundary:
        # the density of b[u] on the oriented boundary volume is c*u - u.n1
        ub, un = bchart.jet("u", MultiIndex()), bchart.jet("u.n1", MultiIndex())
        b = v.sources.boundary
        b_u = boundary_density(bchart, b.ring.expr(source_coefficients(b)["u"]))
        c = sp.expand((b_u.subs(values) + un) / ub)
        if not c.is_number:
            raise ModelError(f"the wave solver needs b[u] = u.n1 - c*u with a numeric c, not c = {c}")
        bc = "robin" if c else "neumann"
    arr = wave_solver(
        grid, initial, velocity, bc=bc, robin_f=float(c),
        potential_derivative=(lambda w: vp(w) + 0 * w) if vp else None,
    )
    return FieldState(grid, {"u": arr})


@dataclass
class SliceDriftResult:
    values: list[float]
    drift: float


def slice_independence(model: Model, shape=None, mode="spectral") -> SliceDriftResult:
    """Presymplectic pairing on five Cauchy slices; returns values and max drift.

    The default shape is 129x256 points; in fd mode it takes as many more time
    points as the wave solver's CFL condition dt <= dx needs on the domain.
    """
    grid = make_grid(model, shape or (129, 256))
    if shape is None and mode == "fd":
        (t0, t1), dx = model.domain[0], grid.spacing(1)
        grid = make_grid(model, (max(129, math.ceil((t1 - t0) / dx) + 1), 256))
    _require_scalar_u(model, "slice-independence")
    v = model.decomposition
    om_slice, om_corner = v.slice_forms
    if not om_corner.is_zero():
        raise ModelError("corner contributions to the slice pairing are not evaluated")
    if mode == "spectral":
        d1, d2 = spectral_tangents(model, grid)
        base = standing_wave_state(model, grid)
    else:
        nt, nx = grid.shape
        x = grid.axis_points(1)
        base = solve_model(model, grid, np.cos(x), np.zeros_like(x))
        # conjugate standing-wave pairs (shared modes, quater-period phase shift)
        d1 = solve_model(model, grid, np.cos(2 * x) + 0.3 * np.cos(x), np.zeros_like(x))
        d2 = solve_model(model, grid, np.zeros_like(x), 2 * np.cos(2 * x) - np.cos(x))
    nt = grid.shape[0]
    idxs = np.linspace(nt // 8, nt - 1 - nt // 8, 5).astype(int)
    vals = [contract_two_vertical(om_slice, grid, base, int(i), d1, d2) for i in idxs]
    drift = max(abs(x - vals[0]) for x in vals)
    scale = max(1.0, max(abs(x) for x in vals))
    return SliceDriftResult(vals, drift / scale)


def hamiltonian_comparison(model: Model, shape=(129, 256)) -> tuple[float, float, float]:
    """Step-6 check: slice pairing vs the canonical pairing with the model's
    momentum p = -dL/du_t, which must be c*u_t for a number c once the
    model's constants are bound."""
    grid = make_grid(model, shape)
    _require_scalar_u(model, "hamiltonian")
    ut = model.chart.jet("u", MultiIndex.make(0))
    p = -sp.diff(model.lp.rel.bulk.top_coefficient(), ut).subs({sp.Symbol(k): x for k, x in model.bindings.items()})
    c = sp.expand(p / ut)
    if not c.is_number:
        raise ModelError(f"hamiltonian needs a momentum c*u_t with a number c, not p = {p}")
    v = model.decomposition
    om_slice, _ = v.slice_forms
    d1, d2 = spectral_tangents(model, grid)
    base = standing_wave_state(model, grid)
    k = grid.shape[0] // 2
    val = contract_two_vertical(om_slice, grid, base, k, d1, d2)
    # canonical pairing on the same slice
    sb = FaceBinding(v.schart, k, outward=False)
    f1, p1 = sb.jet(d1, "u", MultiIndex()), sb.jet(d1, "u.t1", MultiIndex())
    f2, p2 = sb.jet(d2, "u", MultiIndex()), sb.jet(d2, "u.t1", MultiIndex())
    canonical = float(c) * sb.integral(sp.Integer(1), grid, base, factor=f1 * p2 - f2 * p1) if c else 0.0
    return val, canonical, abs(val - canonical)


@dataclass
class FluxResult:
    q_values: list[float]
    delta_q: float
    rhs: float
    mismatch: float


def flux_check(model: Model, xi_name: str, shape=(257, 256), state: FieldState | None = None) -> FluxResult:
    """Charge difference between two slices against the background-variation term."""
    grid = make_grid(model, shape)
    if xi_name not in model.vectors:
        raise ModelError(f"unknown vector field {xi_name!r}")
    if state is None:
        _require_scalar_u(model, "flux")
        state = standing_wave_state(model, grid)
    xi = model.vectors[xi_name]
    W = lift_vector_field(model.chart, xi)
    tilde = xi_invariance_residual(model.lp, xi, rel_lie_ev(W, model.lp.rel))
    data = noether_current_xi(model.decomposition, rel_iota(xi, model.lp.rel), W, tilde)
    if not data.corner_current.is_zero():
        raise ModelError("corner charge contributions are not evaluated numerically")
    nt = grid.shape[0]
    i1, i2 = nt // 8, nt - 1 - nt // 8
    # the charges: vol_gamma-positive integrals of the slice current on two Cauchy slices
    q = data.slice_current.top_coefficient()
    qs = [FaceBinding(data.slice_current.chart, i, outward=False).integral(q, grid, state) for i in (i1, i2)]
    delta_q = qs[1] - qs[0]
    # right-hand side: the background-variation term integrated over the slab
    rhs = 0.0
    if not tilde.bulk.is_zero():
        vals = eval_bulk_expr(model.chart, tilde.bulk.top_coefficient(), grid, state)
        rhs = float(np.sum(grid.weights(span=(i1, i2)) * vals))
    if not tilde.boundary.is_zero() and model.lp.has_boundary:
        raise ModelError("lateral flux contributions require boundary terms")
    return FluxResult(qs, delta_q, rhs, abs(delta_q - rhs))
