"""Discretized cross-validation of the symbolic outputs.

Grids are uniform boxes (n = 1 or 2).  Numeric jets are repeated applications
of one summation-by-parts first-derivative operator per axis (central interior,
one-sided edges, trapezoid norm), so discrete summation by parts is exact and
the finite-difference action-variation residual is purely O(eps^2).  Boundary
face integrals carry the section-2.6 orientations: the lateral volume is
outward-oriented (density integrals are plain positive quadrature of the
outward-normal binding), and raw chart-form face integrals carry the
outward-first sign (-1)^axis per max-side face.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Mapping

import numpy as np
import sympy as sp
from sympy.core.cache import cacheit

from .chart import Chart, MultiIndex
from .forms import Form, boundary_volume, d_h, top_word
from .model import ModelError


# -- grid ------------------------------------------------------------------------------


@dataclass
class Grid:
    """Uniform tensor grid over the chart's coordinate box."""

    chart: Chart
    extents: tuple[tuple[float, float], ...]
    shape: tuple[int, ...]
    periodic: tuple[bool, ...]

    def __post_init__(self):
        if self.chart.n != len(self.extents) or self.chart.n != len(self.shape):
            raise ValueError("grid shape/extents do not match the chart dimension")
        if self.chart.n not in (1, 2):
            raise ValueError("numeric grids support n in {1, 2}")

    @staticmethod
    def make(chart: Chart, extents, shape, periodic=None) -> "Grid":
        periodic = tuple(periodic) if periodic is not None else (False,) * chart.n
        extents = tuple(tuple(map(float, e)) for e in extents)
        return Grid(chart, extents, tuple(shape), periodic)

    @property
    def lateral_sides(self) -> tuple[int, ...]:
        """The min (-1) and max (+1) faces of the last axis; none if it is periodic."""
        return () if self.periodic[-1] else (-1, +1)

    def axis_points(self, k: int) -> np.ndarray:
        a, b = self.extents[k]
        m = self.shape[k]
        if self.periodic[k]:
            return a + (b - a) * np.arange(m) / m
        return np.linspace(a, b, m)

    def spacing(self, k: int) -> float:
        a, b = self.extents[k]
        m = self.shape[k]
        return (b - a) / m if self.periodic[k] else (b - a) / (m - 1)

    def mesh(self) -> list[np.ndarray]:
        pts = [self.axis_points(k) for k in range(self.chart.n)]
        return list(np.meshgrid(*pts, indexing="ij"))

    def weights(self, axes=None, span: tuple[int, int] | None = None) -> np.ndarray:
        """Trapezoid weights on the given axes (default: all), as an outer
        product in axis order; no axes give ones((1,)).  Each axis has weight
        h per point, halved at its two ends unless it is periodic.  With
        ``span = (i, j)`` the first axis is integrated over points i..j only."""
        out = None
        for k in range(self.chart.n) if axes is None else axes:
            h = self.spacing(k)
            lo, hi, ends = 0, self.shape[k] - 1, not self.periodic[k]
            if span is not None and out is None:
                (lo, hi), ends = span, True
            w = np.zeros(self.shape[k])
            w[lo:hi + 1] = h
            if ends:
                w[lo] = w[hi] = h / 2
            out = w if out is None else np.multiply.outer(out, w)
        return np.ones((1,)) if out is None else out

    def diff(self, arr: np.ndarray, axis: int) -> np.ndarray:
        """SBP first derivative along an axis (periodic: central everywhere)."""
        h = self.spacing(axis)
        if self.periodic[axis]:
            return (np.roll(arr, -1, axis=axis) - np.roll(arr, 1, axis=axis)) / (2 * h)
        out = np.empty_like(arr, dtype=float)

        def at(i):
            return tuple(i if k == axis else slice(None) for k in range(arr.ndim))

        out[at(slice(1, -1))] = (arr[at(slice(2, None))] - arr[at(slice(0, -2))]) / (2 * h)
        out[at(0)] = (arr[at(1)] - arr[at(0)]) / h
        out[at(-1)] = (arr[at(-1)] - arr[at(-2)]) / h
        return out


class FieldState:
    """Per-field arrays on a grid, with cached SBP jet arrays."""

    def __init__(self, grid: Grid, values: Mapping[str, np.ndarray]):
        self.grid = grid
        self.values = {a: np.asarray(v, dtype=float) for a, v in values.items()}
        for a, v in self.values.items():
            if v.shape != grid.shape:
                raise ValueError(f"field {a!r} has shape {v.shape}, grid is {grid.shape}")
        self._jets: dict[tuple[str, tuple], np.ndarray] = {}

    def jet(self, field: str, mi: MultiIndex) -> np.ndarray:
        key = (field, mi.entries)
        got = self._jets.get(key)
        if got is None:
            got = self.values[field] if mi.order == 0 else self._derive(field, mi)
            self._jets[key] = got
        return got

    def _derive(self, field: str, mi: MultiIndex) -> np.ndarray:
        """A jet of positive order: the SBP derivative of the jet one order lower."""
        prev = self.jet(field, MultiIndex(mi.entries[:-1]))
        return self.grid.diff(prev, mi.entries[-1])


# -- expression evaluation ---------------------------------------------------------------


@cacheit
def _compiled(args: tuple, expr: sp.Expr) -> Callable:
    """The numpy function of expr over args, compiled once per (args, expr).

    The memo lives in sympy's cache, so ``clear_cache()`` empties it.
    """
    return sp.lambdify(args, expr, modules="numpy")


def _evaluate(expr: sp.Expr, shape: tuple[int, ...], value_of, bindings) -> np.ndarray:
    """Evaluate expr over its free symbols and broadcast it to shape.

    ``value_of(sym)`` gives the array of a jet or coordinate symbol, or None;
    other symbols take their value from ``bindings``.
    """
    expr = sp.sympify(expr)
    if expr.atoms(sp.Derivative) or expr.atoms(sp.core.function.AppliedUndef):
        raise ModelError(f"expression contains unbound formal functions: {expr}")
    args, vals = [], []
    for sym in sorted(expr.free_symbols, key=lambda s: s.name):
        val = value_of(sym)
        if val is None:
            if not bindings or sym.name not in bindings:
                raise ModelError(f"no numeric binding for symbol {sym}")
            val = bindings[sym.name]
        args.append(sym)
        vals.append(val)
    if not args:
        return float(expr) * np.ones(shape)
    return np.broadcast_to(_compiled(tuple(args), expr)(*vals), shape).astype(float)


def eval_bulk_expr(
    chart: Chart,
    expr: sp.Expr,
    grid: Grid,
    state: FieldState,
    bindings: Mapping[str, float] | None = None,
):
    """Evaluate a jet expression to an array on the grid."""
    mesh = grid.mesh()

    def value_of(sym):
        key = chart.jet_key(sym)
        if key is not None:
            return state.jet(*key)
        return mesh[chart.xs.index(sym)] if sym in chart.xs else None

    return _evaluate(expr, grid.shape, value_of, bindings)


def face_index(side: int) -> int:
    """Grid index of the max (+1) or min (-1) face along an axis."""
    return -1 if side > 0 else 0


class FaceBinding:
    """Bind expressions of the restricted chart sub to the grid hyperplane with
    the given index along ``sub.axis`` (a lateral face, or a Cauchy slice
    {t = t_index}) and integrate them there.

    Transversal-derivative families bind to outward normal derivatives when
    ``outward=True`` (model-derived densities on a face) and to raw +axis
    derivatives otherwise (chart pullbacks, used by the relative Stokes oracle,
    and slices).
    """

    def __init__(self, sub: Chart, index: int, outward: bool = True):
        self.chart, self.bchart, self.axis = sub.parent, sub, sub.axis
        self.index = index
        self.outward = outward
        self.tangential = [i for i in range(self.chart.n) if i != self.axis]

    def restrict_array(self, arr: np.ndarray) -> np.ndarray:
        return arr[tuple(self.index if k == self.axis else slice(None) for k in range(arr.ndim))]

    def jet(self, state: FieldState, label: str, mi: MultiIndex) -> np.ndarray:
        """The restricted jet label_mi on the hyperplane: the bulk jet of the
        label's base field with its transversal order along the axis; an odd
        order flips sign on a min face under the outward binding."""
        base, n_ord, t_ord = self.bchart.labels[label]
        k = n_ord + t_ord
        bulk_mi = MultiIndex(tuple(self.tangential[i] for i in mi.entries) + (self.axis,) * k)
        arr = self.restrict_array(state.jet(base, bulk_mi))
        return -arr if self.outward and self.index == 0 and k % 2 else arr

    def eval(self, expr: sp.Expr, grid: Grid, state: FieldState, bindings=None) -> np.ndarray:
        mesh = grid.mesh()

        def value_of(sym):
            key = self.bchart.jet_key(sym)
            if key is not None:
                return self.jet(state, *key)
            if sym in self.bchart.xs:
                return self.restrict_array(mesh[self.tangential[self.bchart.xs.index(sym)]])
            if sym == self.chart.xs[self.axis]:
                return self.restrict_array(mesh[self.axis])
            return None

        shape = tuple(grid.shape[i] for i in self.tangential) or (1,)
        return _evaluate(expr, shape, value_of, bindings)

    def integral(self, expr: sp.Expr, grid: Grid, state: FieldState, bindings=None, factor=None) -> float:
        """Trapezoid integral of expr (times a hyperplane array factor) over the hyperplane."""
        wv = grid.weights(self.tangential) * self.eval(expr, grid, state, bindings)
        return float(np.sum(wv if factor is None else wv * factor))


def bulk_integral(form: Form, grid: Grid, state: FieldState, bindings=None) -> float:
    coeff = form.top_coefficient()
    vals = eval_bulk_expr(form.chart, coeff, grid, state, bindings)
    return float(np.sum(grid.weights() * vals))


def lateral_faces(grid: Grid, bchart: Chart, outward: bool) -> list[tuple[int, FaceBinding]]:
    """(side, binding) of each lateral face {x^(n-1) = min or max} of the grid."""
    return [(side, FaceBinding(bchart, face_index(side), outward)) for side in grid.lateral_sides]


def boundary_density(form: Form) -> sp.Expr:
    """Coefficient of a boundary form relative to the oriented boundary volume."""
    if form.is_zero():
        return sp.Integer(0)
    base = boundary_volume(form.chart).top_coefficient()
    return sp.expand(form.top_coefficient() / base)


def raw_face_integral(form: Form, grid: Grid, state: FieldState, bindings=None) -> float:
    """Oriented integral of a raw lateral-chart form over both lateral faces.

    Uses the raw +axis jet binding and the outward-first orientation sign
    (-1)^axis on the max face (opposite on the min face); this is the Stokes
    -compatible face integral for chart pullbacks.
    """
    if form.is_zero():
        return 0.0
    coeff = form.top_coefficient()
    o_max = (-1) ** (grid.chart.n - 1)
    total = 0.0
    for side, fb in lateral_faces(grid, form.chart, outward=False):
        o = o_max if side > 0 else -o_max
        total += o * fb.integral(coeff, grid, state, bindings)
    return total


def relative_integral(p, grid: Grid, fields, bindings=None) -> float:
    """Relative integral: bulk quadrature minus oriented boundary-face quadrature."""
    state = fields if isinstance(fields, FieldState) else FieldState(grid, fields)
    total = bulk_integral(p.bulk, grid, state, bindings)
    total -= raw_face_integral(p.boundary, grid, state, bindings)
    return total


def flux_through_boundary(form: Form, grid: Grid, state: FieldState, bindings=None) -> float:
    """Oriented boundary flux of a bulk (n-1, 0) form, evaluated face-natively.

    For each face {x^k = const} only word components without dx^k survive; the
    outward-first orientation contributes side * (-1)^k per face.  This is the
    Stokes-faithful flux (no canonical-chart round trip).
    """
    chart = form.chart
    total = 0.0
    for axis in range(chart.n):
        if grid.periodic[axis]:
            continue
        for side in (-1, +1):
            fb = FaceBinding(chart.restricted(axis), face_index(side))
            w = grid.weights(fb.tangential)
            orient = side * (-1) ** axis
            for word, coeff in form.terms.items():
                if any(f[0] == "v" for f in word):
                    raise ValueError("flux expects a horizontal form")
                if any(f[1] == axis for f in word):
                    continue
                vals = fb.restrict_array(eval_bulk_expr(chart, form.ring.expr(coeff), grid, state, bindings))
                total += orient * float(np.sum(w * vals))
    return total


def relative_stokes_residual(Y: Form, z: Form, grid: Grid, state: FieldState, bindings=None) -> float:
    """|integral over (M, dM) of rel_d(Y, z)|, with the bulk flux of Y evaluated
    face-natively and the boundary z integrated over the lateral faces (z is
    expected to vanish near the corners; v1 treats boundary faces separately)."""
    total = bulk_integral(d_h(Y), grid, state, bindings)
    total -= flux_through_boundary(Y, grid, state, bindings)
    if not z.is_zero():
        total += raw_face_integral(d_h(z), grid, state, bindings)
    return abs(total)


# -- action and variation ------------------------------------------------------------


def action_value(L: Form, ell: Form | None, grid: Grid, state: FieldState, bindings=None) -> float:
    """Relative action: bulk Lagrangian quadrature minus the lateral boundary term.

    ell is read as density * oriented boundary volume on each face, with the
    outward normal-derivative binding; its integral is the sum of plain
    positive-quadrature face integrals of the density.
    """
    total = bulk_integral(L, grid, state, bindings)
    if ell is not None and not ell.is_zero():
        density = boundary_density(ell)
        total -= sum(fb.integral(density, grid, state, bindings)
                     for _, fb in lateral_faces(grid, ell.chart, outward=True))
    return total


def source_pairing(
    E_coeffs: Mapping[str, sp.Expr],
    b_densities: Mapping[str, sp.Expr],
    grid: Grid,
    state: FieldState,
    perturbations: Mapping[str, np.ndarray],
    bchart: Chart | None = None,
    bindings=None,
) -> float:
    """<E, v> over the bulk minus <b, v> over the lateral faces."""
    total = 0.0
    w = grid.weights()
    for a, v in perturbations.items():
        e = E_coeffs.get(a, sp.Integer(0))
        if e != 0:
            total += float(np.sum(w * eval_bulk_expr(grid.chart, e, grid, state, bindings) * v))
    if bchart is not None:
        faces = lateral_faces(grid, bchart, outward=True)
        for a, v in perturbations.items():
            dens = b_densities.get(a, sp.Integer(0))
            if dens == 0:
                continue
            for _, fb in faces:
                total -= fb.integral(dens, grid, state, bindings, factor=fb.restrict_array(v))
    return total


def fd_variation_residual(
    L: Form,
    ell: Form | None,
    E_coeffs: Mapping[str, sp.Expr],
    b_densities: Mapping[str, sp.Expr],
    grid: Grid,
    state: FieldState,
    perturbations: Mapping[str, np.ndarray],
    eps: float,
    bchart: Chart | None = None,
    bindings=None,
) -> float:
    """|central FD of the action - source pairing| for one epsilon."""

    def shifted(sgn: float) -> FieldState:
        vals = dict(state.values)
        for a, v in perturbations.items():
            vals[a] = vals[a] + sgn * eps * v
        return FieldState(grid, vals)

    sp_ = action_value(L, ell, grid, shifted(+1), bindings)
    sm_ = action_value(L, ell, grid, shifted(-1), bindings)
    fd = (sp_ - sm_) / (2 * eps)
    pair = source_pairing(E_coeffs, b_densities, grid, state, perturbations, bchart, bindings)
    return abs(fd - pair)


# -- slices ---------------------------------------------------------------------------


def slice_integral_density(form: Form, grid: Grid, state: FieldState, t_index: int, bindings=None) -> float:
    """Integral over a Cauchy slice of a slice-chart top form (vol_gamma-positive)."""
    if form.is_zero():
        return 0.0
    sb = FaceBinding(form.chart, t_index, outward=False)
    return sb.integral(form.top_coefficient(), grid, state, bindings)


def contract_two_vertical(
    form: Form, grid: Grid, state: FieldState, t_index: int, tangent1: FieldState, tangent2: FieldState, bindings=None
) -> float:
    """Evaluate a slice (n-1,2) form on two field-space tangents and integrate.

    Each term c * w ^ th{a_J} ^ th{b_K} contributes
    c * (D_J t1^a D_K t2^b - D_J t2^a D_K t1^b) integrated over the slice.
    """
    sb = FaceBinding(form.chart, t_index, outward=False)
    total = 0.0
    word_x = top_word(form.chart.n)
    for word, coeff in form.terms.items():
        vfacs = [f for f in word if f[0] == "v"]
        xfacs = tuple(f for f in word if f[0] == "x")
        if len(vfacs) != 2 or xfacs != word_x:
            raise ValueError("expected a top-slice form with two contact factors")
        (_, a, ja), (_, b, jb) = vfacs
        ja, jb = MultiIndex(ja), MultiIndex(jb)
        pair = (sb.jet(tangent1, a, ja) * sb.jet(tangent2, b, jb)
                - sb.jet(tangent2, a, ja) * sb.jet(tangent1, b, jb))
        total += sb.integral(form.ring.expr(coeff), grid, state, bindings, factor=pair)
    return total


# -- wave solver ------------------------------------------------------------------------


def wave_solver(
    grid: Grid,
    initial: np.ndarray,
    initial_velocity: np.ndarray,
    bc: str = "neumann",
    robin_f: float = 0.0,
    potential_derivative: Callable[[np.ndarray], np.ndarray] | None = None,
) -> np.ndarray:
    """Leapfrog integration of u_tt = u_xx - V'(u) on the grid's (t, x) box.

    bc: 'dirichlet' | 'neumann' | 'robin' | 'periodic' lateral stencils
    (Robin: outward derivative equals robin_f * u).  Raises on CFL violation.
    """
    nt, nx = grid.shape
    dt, dx = grid.spacing(0), grid.spacing(1)
    if dt > dx:
        raise ModelError(f"CFL violation: dt={dt} > dx={dx}; use more time points")
    vp = potential_derivative or (lambda u: 0.0 * u)
    u = np.zeros(grid.shape)
    u[0] = initial

    def laplacian(row: np.ndarray) -> np.ndarray:
        lap = np.empty_like(row)
        lap[1:-1] = (row[2:] - 2 * row[1:-1] + row[:-2]) / dx**2
        if bc == "periodic":
            lap[0] = (row[1] - 2 * row[0] + row[-1]) / dx**2
            lap[-1] = (row[0] - 2 * row[-1] + row[-2]) / dx**2
        elif bc == "dirichlet":
            lap[0] = lap[-1] = 0.0
        elif bc == "neumann":
            lap[0] = 2 * (row[1] - row[0]) / dx**2
            lap[-1] = 2 * (row[-2] - row[-1]) / dx**2
        elif bc == "robin":
            ghost_l = row[1] + 2 * dx * robin_f * row[0]
            ghost_r = row[-2] + 2 * dx * robin_f * row[-1]
            lap[0] = (row[1] - 2 * row[0] + ghost_l) / dx**2
            lap[-1] = (ghost_r - 2 * row[-1] + row[-2]) / dx**2
        else:
            raise ValueError(f"unknown boundary condition {bc!r}")
        return lap

    acc0 = laplacian(u[0]) - vp(u[0])
    u[1] = u[0] + dt * initial_velocity + dt**2 / 2 * acc0
    if bc == "dirichlet":
        u[1, 0] = u[1, -1] = 0.0
    for k in range(1, nt - 1):
        acc = laplacian(u[k]) - vp(u[k])
        u[k + 1] = 2 * u[k] - u[k - 1] + dt**2 * acc
        if bc == "dirichlet":
            u[k + 1, 0] = u[k + 1, -1] = 0.0
    return u
