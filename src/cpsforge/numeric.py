"""Discretized cross-validation of the symbolic outputs.

Grids are uniform boxes (n = 1 or 2).  Numeric jets are repeated applications
of one summation-by-parts first-derivative operator per axis (central interior,
one-sided edges, trapezoid norm), so discrete summation by parts is exact and
the finite-difference action-variation residual is purely O(eps^2).  A grid
carries the model's constant values, so every evaluation binds them.

One orientation rule, ``faces``, covers every boundary integral (section 2.6):
the min (side -1) and max (side +1) faces {x^axis = const} of a restricted
chart's axis, none when that axis is periodic, each with a sign.  Densities on
the outward-oriented lateral volume bind outward-normal jets and take sign +1
(plain positive quadrature); raw chart forms bind raw +axis jets and take the
outward-first sign side * (-1)^axis.

Symbolic preparation is done once, numpy work on every call.  Memoised in
sympy's cache, so ``clear_cache()`` empties them: the compiled numpy function
of each (arguments, expression), the formal-function scan and sorted argument
symbols of each evaluated expression (its refusals still run on every call),
and the density of each boundary top coefficient.  A grid builds its
coordinate mesh once, as read-only arrays.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Mapping, Sequence

import numpy as np
import sympy as sp
from sympy.core.cache import cacheit
from sympy.core.function import AppliedUndef

from .chart import Chart, MultiIndex
from .forms import Form, boundary_volume, d_h, restrict, top_word
from .model import ModelError


# -- grid ------------------------------------------------------------------------------


@dataclass
class Grid:
    """Uniform tensor grid over the chart's coordinate box."""

    chart: Chart
    extents: tuple[tuple[float, float], ...]
    shape: tuple[int, ...]
    periodic: tuple[bool, ...]
    bindings: Mapping[str, float]  # values of the model's background constants

    def __post_init__(self):
        if self.chart.n != len(self.extents) or self.chart.n != len(self.shape):
            raise ValueError("grid shape/extents do not match the chart dimension")
        if self.chart.n not in (1, 2):
            raise ValueError("numeric grids support n in {1, 2}")

    @staticmethod
    def make(chart: Chart, extents, shape, periodic=None, bindings=None) -> "Grid":
        periodic = tuple(periodic) if periodic is not None else (False,) * chart.n
        extents = tuple(tuple(map(float, e)) for e in extents)
        return Grid(chart, extents, tuple(shape), periodic, dict(bindings or {}))

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

    def mesh(self) -> tuple[np.ndarray, ...]:
        """The coordinate arrays in "ij" indexing, built once per grid; they are
        read-only because every evaluation on the grid shares them."""
        return self._mesh

    @cached_property
    def _mesh(self) -> tuple[np.ndarray, ...]:
        arrays = np.meshgrid(*[self.axis_points(k) for k in range(self.chart.n)], indexing="ij")
        for arr in arrays:
            arr.flags.writeable = False
        return tuple(arrays)

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

    The memo lives in sympy's cache, so ``clear_cache()`` empties it.  No
    docstring is rendered: printing expr into it was half of a cold compile.
    """
    return sp.lambdify(args, expr, modules="numpy", docstring_limit=0)


@cacheit
def _signature(expr: sp.Expr) -> tuple[bool, tuple]:
    """(whether expr holds a formal function, its free symbols sorted by name),
    found once per expression; the memo lives in sympy's cache."""
    formal = bool(expr.atoms(sp.Derivative, AppliedUndef))
    return formal, tuple(sorted(expr.free_symbols, key=lambda s: s.name))


def _evaluate(expr: sp.Expr, grid: Grid, shape: tuple[int, ...], value_of) -> np.ndarray:
    """Evaluate expr over its free symbols and broadcast it to shape.

    ``value_of(sym)`` gives the array of a jet or coordinate symbol, or None;
    other symbols take their value from ``grid.bindings``.
    """
    expr = sp.sympify(expr)
    formal, args = _signature(expr)
    if formal:
        raise ModelError(f"expression contains unbound formal functions: {expr}")
    vals = []
    for sym in args:
        val = value_of(sym)
        if val is None:
            if sym.name not in grid.bindings:
                raise ModelError(f"no numeric binding for symbol {sym}")
            val = grid.bindings[sym.name]
        vals.append(val)
    if not args:
        return float(expr) * np.ones(shape)
    return np.broadcast_to(_compiled(args, expr)(*vals), shape).astype(float)


def eval_bulk_expr(chart: Chart, expr: sp.Expr, grid: Grid, state: FieldState):
    """Evaluate a jet expression to an array on the grid."""
    mesh = grid.mesh()

    def value_of(sym):
        key = chart.jet_key(sym)
        if key is not None:
            return state.jet(*key)
        return mesh[chart.xs.index(sym)] if sym in chart.xs else None

    return _evaluate(expr, grid, grid.shape, value_of)


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

    def flips(self, label: str) -> bool:
        """Whether the outward binding flips the sign of label on a min face,
        where the outward normal is -axis: for an odd transversal order of the
        label, counting one more for the axis component of a one-form."""
        base, n_ord, t_ord = self.bchart.labels[label]
        k = n_ord + t_ord + (self.chart.meta[base].axis == self.axis)
        return self.outward and self.index == 0 and k % 2 == 1

    def jet(self, state: FieldState, label: str, mi: MultiIndex) -> np.ndarray:
        """The restricted jet label_mi on the hyperplane: the bulk jet of the
        label's base field with its transversal order along the axis, with the
        sign of ``flips``."""
        base, n_ord, t_ord = self.bchart.labels[label]
        bulk_mi = MultiIndex(tuple(self.tangential[i] for i in mi.entries) + (self.axis,) * (n_ord + t_ord))
        arr = self.restrict_array(state.jet(base, bulk_mi))
        return -arr if self.flips(label) else arr

    def eval(self, expr: sp.Expr, grid: Grid, state: FieldState) -> np.ndarray:
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
        return _evaluate(expr, grid, shape, value_of)

    def integral(self, expr: sp.Expr, grid: Grid, state: FieldState, factor=None) -> float:
        """Trapezoid integral of expr (times a hyperplane array factor) over the hyperplane."""
        wv = grid.weights(self.tangential) * self.eval(expr, grid, state)
        return float(np.sum(wv if factor is None else wv * factor))


def bulk_integral(form: Form, grid: Grid, state: FieldState) -> float:
    coeff = form.top_coefficient()
    vals = eval_bulk_expr(form.chart, coeff, grid, state)
    return float(np.sum(grid.weights() * vals))


def faces(grid: Grid, sub: Chart, outward: bool) -> list[tuple[int, FaceBinding]]:
    """(sign, binding) of the min and max faces of the grid along ``sub.axis``,
    for the restricted chart sub; none when that axis is periodic.  The sign is
    +1 for outward densities and side * (-1)^axis for raw chart forms."""
    if grid.periodic[sub.axis]:
        return []
    return [(1 if outward else side * (-1) ** sub.axis, FaceBinding(sub, index, outward))
            for side, index in ((-1, 0), (+1, -1))]


@cacheit
def boundary_density(bchart: Chart, coeff: sp.Expr) -> sp.Expr:
    """The top coefficient coeff of the boundary chart relative to the
    oriented boundary volume; memoised per (bchart, coeff) in sympy's cache."""
    if coeff == 0:
        return sp.Integer(0)
    return sp.expand(coeff / boundary_volume(bchart).top_coefficient())


def raw_face_integral(form: Form, grid: Grid, state: FieldState) -> float:
    """Oriented integral of a raw restricted-chart top form over the min and max
    faces of its axis: the raw +axis jet binding and the sign side * (-1)^axis,
    the Stokes-compatible face integral of chart pullbacks."""
    if form.is_zero():
        return 0.0
    coeff = form.top_coefficient()
    return sum(sign * fb.integral(coeff, grid, state) for sign, fb in faces(grid, form.chart, outward=False))


def relative_integral(p, grid: Grid, fields) -> float:
    """Relative integral: bulk quadrature minus oriented boundary-face quadrature."""
    state = fields if isinstance(fields, FieldState) else FieldState(grid, fields)
    total = bulk_integral(p.bulk, grid, state)
    total -= raw_face_integral(p.boundary, grid, state)
    return total


def flux_through_boundary(form: Form, grid: Grid, state: FieldState) -> float:
    """Oriented boundary flux of a horizontal bulk (n-1, 0) form: the raw face
    integral of its pullback to each box face {x^k = const}."""
    chart = form.chart
    return sum(raw_face_integral(restrict(form, chart.restricted(axis)), grid, state) for axis in range(chart.n))


def relative_stokes_residual(Y: Form, z: Form, grid: Grid, state: FieldState) -> float:
    """|integral over (M, dM) of rel_d(Y, z)|, with the bulk flux of Y evaluated
    face-natively and the boundary z integrated over the lateral faces (z is
    expected to vanish near the corners; v1 treats boundary faces separately)."""
    total = bulk_integral(d_h(Y), grid, state)
    total -= flux_through_boundary(Y, grid, state)
    if not z.is_zero():
        total += raw_face_integral(d_h(z), grid, state)
    return abs(total)


# -- action and variation ------------------------------------------------------------


def action_value(L: Form, ell: Form, grid: Grid, state: FieldState) -> float:
    """Relative action: bulk Lagrangian quadrature minus the lateral boundary term.

    ell is read as density * oriented boundary volume on each face, with the
    outward normal-derivative binding; its integral is the sum of plain
    positive-quadrature face integrals of the density.
    """
    total = bulk_integral(L, grid, state)
    if not ell.is_zero():
        density = boundary_density(ell.chart, ell.top_coefficient())
        total -= sum(sign * fb.integral(density, grid, state) for sign, fb in faces(grid, ell.chart, outward=True))
    return total


def source_pairing(
    E_coeffs: Mapping[str, sp.Expr],
    b_densities: Mapping[str, sp.Expr],
    bchart: Chart,
    grid: Grid,
    state: FieldState,
    perturbations: Mapping[str, np.ndarray],
) -> float:
    """<E, v> over the bulk minus <b, v> over the faces of the boundary chart."""
    total = 0.0
    w = grid.weights()
    for a, v in perturbations.items():
        e = E_coeffs.get(a, sp.Integer(0))
        if e != 0:
            total += float(np.sum(w * eval_bulk_expr(grid.chart, e, grid, state) * v))
    bfaces = faces(grid, bchart, outward=True)
    for a, v in perturbations.items():
        dens = b_densities.get(a, sp.Integer(0))
        if dens == 0:
            continue
        for sign, fb in bfaces:
            flip = -1 if fb.flips(a) else 1  # the variation of a binds like a
            total -= flip * sign * fb.integral(dens, grid, state, factor=fb.restrict_array(v))
    return total


def fd_variation_residual(
    L: Form,
    ell: Form,
    pairings: Sequence[float],
    grid: Grid,
    state: FieldState,
    perturbations: Mapping[str, np.ndarray],
    eps: float,
) -> list[float]:
    """|central FD of the action - pairing| for one epsilon and each pairing,
    a ``source_pairing`` of the perturbations, which does not depend on eps;
    the action is evaluated twice however many pairings are given."""

    def shifted(sgn: float) -> FieldState:
        vals = dict(state.values)
        for a, v in perturbations.items():
            vals[a] = vals[a] + sgn * eps * v
        return FieldState(grid, vals)

    sp_ = action_value(L, ell, grid, shifted(+1))
    sm_ = action_value(L, ell, grid, shifted(-1))
    fd = (sp_ - sm_) / (2 * eps)
    return [abs(fd - pairing) for pairing in pairings]


# -- slices ---------------------------------------------------------------------------


def contract_two_vertical(
    form: Form, grid: Grid, state: FieldState, t_index: int, tangent1: FieldState, tangent2: FieldState
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
        total += sb.integral(form.ring.expr(coeff), grid, state, factor=pair)
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
