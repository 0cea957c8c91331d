"""Covariant-phase-space pipeline on top of the form calculus.

Given a Lagrangian pair (bulk top form, lateral-boundary form) this module
derives the variational decomposition (sources and symplectic potentials on
both strata, with zero-residual certificates), the presymplectic currents and
their Cauchy-slice restriction, lifts of space-time vector fields, invariance
residuals, Noether currents/charges, variational-symmetry verdicts, and gauge
diagnostics modulo the on-shell ideal.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Mapping

import sympy as sp

from .chart import Chart, MultiIndex, translated_field
from .forms import Form, d_h, dd, iota_ev, iota_x, lie_ev, restrict, top_word, wedge
from .jetcalc import (
    EvolutionaryField,
    NonDecomposableError,
    SourceForm,
    _sweep,
    boundary_euler_operator,
    euler_operator,
    integrate_by_parts,
    kill_dirichlet,
)
from .jetpoly import choose_ring
from .relative import BoundaryPair, RelForm, rel_lie, rel_lie_ev


@dataclass(frozen=True)
class FieldMeta:
    """Tensor character of a declared field component."""

    kind: str  # "scalar" | "one_form"
    base: str = ""
    axis: int = -1  # component slot for one-form fields
    lie_index: int = 0


@dataclass
class LagrangianPair:
    """Bulk Lagrangian, lateral boundary Lagrangian, boundary-condition tags."""

    pair: BoundaryPair
    L: Form
    ell: Form
    bc: dict[str, str] = field(default_factory=dict)
    has_boundary: bool = True

    def __post_init__(self):
        if self.L.chart is not self.pair.chart:
            raise ValueError("bulk Lagrangian lives on the wrong chart")
        if self.ell.chart is not self.pair.bchart:
            raise ValueError("boundary Lagrangian lives on the wrong chart")
        for a, kind in self.bc.items():
            if kind not in ("free", "dirichlet", "robin"):
                raise ValueError(f"unknown boundary condition {kind!r} for field {a!r}")

    def dirichlet_fields(self) -> set[str]:
        return {a for a, k in self.bc.items() if k == "dirichlet"}


@dataclass
class VariationDecomposition:
    """Sources and symplectic potentials of a Lagrangian pair, with residuals.

    The CPS objects derived from it alone (Omega, the slice forms, the slice
    and corner ideals and their coefficient ring) are built on first use and
    shared by every consumer."""

    lp: LagrangianPair
    E: SourceForm
    theta: Form
    b: SourceForm
    theta_bar: Form
    noncanonical_theta: bool = False

    @property
    def chart(self) -> Chart:
        return self.lp.pair.chart

    @property
    def bchart(self) -> Chart:
        return self.lp.pair.bchart

    def bulk_residual(self) -> Form:
        return dd(self.lp.L) - self.E.paired_with_contacts() - d_h(self.theta)

    def boundary_residual(self) -> Form:
        dirich = self.lp.dirichlet_fields()
        lhs = kill_dirichlet(dd(self.lp.ell) - self.lp.pair.pullback(self.theta), dirich)
        return lhs - self.b.paired_with_contacts() + d_h(self.theta_bar)

    def equations(self) -> dict[str, sp.Expr]:
        return self.E.equations()

    def boundary_equations(self) -> dict[str, sp.Expr]:
        return self.b.equations()

    @cached_property
    def omega(self) -> tuple[Form, Form]:
        return presymplectic_current(self)

    @cached_property
    def slice_forms(self) -> tuple[Form, Form]:
        return slice_presymplectic(self)

    @cached_property
    def slice_ctx(self) -> "SliceContext":
        return SliceContext(self.chart)

    @cached_property
    def bslice_ctx(self) -> "SliceContext":
        return SliceContext(self.bchart)

    @cached_property
    def ring(self):
        """The on-shell ideals' coefficient ring: the chart's JetRing when it
        represents every bulk and boundary equation, EXPR otherwise."""
        eqs = [*self.equations().values(), *self.boundary_equations().values()]
        return choose_ring(self.chart.ring, eqs)[0]

    @cached_property
    def slice_ideal(self) -> "OnShellIdeal":
        return slice_ideal(self.chart, self.slice_ctx, list(self.equations().values()), self.ring)

    @cached_property
    def corner_ideal(self) -> "OnShellIdeal":
        return _corner_ideal(self.lp, self, self.slice_ctx, self.slice_ideal)


def _decompose_pair(
    lp: LagrangianPair, L: Form, ell: Form
) -> tuple[SourceForm, Form, SourceForm, Form]:
    """CPS steps 1-2 for the pair (L, ell) under lp's boundary data: the
    relative decomposition dd(L, ell) = (E, b) + d_rel(Theta, theta_bar).
    Without a boundary, b and theta_bar are zero."""
    E, theta = integrate_by_parts(L)
    bchart = lp.pair.bchart
    if not lp.has_boundary:
        b = SourceForm(bchart, {a: Form.zero(bchart, bchart.n, 0) for a in bchart.fields})
        return E, theta, b, Form.zero(bchart, bchart.n - 1, 1)
    b, theta_bar = boundary_euler_operator(
        ell, lp.pair.pullback(theta), dirichlet=lp.dirichlet_fields()
    )
    return E, theta, b, theta_bar


def decompose(lp: LagrangianPair) -> VariationDecomposition:
    """CPS steps 1-2: bulk and boundary variational decompositions, each
    certified by a zero residual where it is computed."""
    return VariationDecomposition(
        lp, *_decompose_pair(lp, lp.L, lp.ell), noncanonical_theta=lp.L.jet_order() > 2
    )


def presymplectic_current(v: VariationDecomposition) -> tuple[Form, Form]:
    """Symplectic currents: the field-space differential of the potentials."""
    return dd(v.theta), dd(v.theta_bar)


class SliceContext:
    """Cauchy-slice restriction {x^0 = const}; the slice value stays symbolic."""

    def __init__(self, chart: Chart):
        self.chart = chart
        self.schart = chart.restricted(0, tag="t")

    def pull(self, f: Form) -> Form:
        return restrict(f, 0, self.schart, value=None)

    @cached_property
    def cchart(self) -> Chart:
        return self.schart.restricted(self.schart.n - 1, tag="n")

    def corner_pull(self, f: Form) -> Form:
        return restrict(f, self.schart.n - 1, self.cchart, value=sp.Integer(0))


def slice_presymplectic(v: VariationDecomposition) -> tuple[Form, Form]:
    """The slice integrand of the presymplectic form: dd of the pulled potentials."""
    ctx = v.slice_ctx
    omega_slice = dd(ctx.pull(v.theta))
    if v.theta_bar.is_zero():
        omega_corner = Form.zero(ctx.cchart)
    else:
        omega_corner = dd(v.bslice_ctx.pull(v.theta_bar))
    return omega_slice, omega_corner


# -- lifting space-time vector fields --------------------------------------------------


def one_form_families(meta: Mapping[str, FieldMeta]) -> dict[tuple[str, int], dict[int, str]]:
    """The component fields of each one-form, {(base, lie_index): {axis: field}},
    in declaration order."""
    families: dict[tuple[str, int], dict[int, str]] = {}
    for a, m in meta.items():
        if m.kind == "one_form":
            families.setdefault((m.base, m.lie_index), {})[m.axis] = a
    return families


def lift_vector_field(
    chart: Chart, meta: Mapping[str, FieldMeta], xi
) -> EvolutionaryField:
    """Canonical field-space lift: the Lie derivative of each field along xi.

    Scalars: W^a = xi^m u^a_m; one-form components pick up the coefficient
    gradient: W^{A_mu} = xi^m A_{mu,m} + A_m d_mu xi^m.
    """
    comps = [sp.sympify(c) for c in xi]
    if len(comps) != chart.n:
        raise ValueError("component count mismatch")
    W: dict[str, sp.Expr] = {}
    families = one_form_families(meta)
    for a in chart.fields:
        m = meta.get(a, FieldMeta("scalar"))
        if m.kind not in ("scalar", "one_form"):
            raise ValueError(f"unsupported tensor kind {m.kind!r} (rank > 1 not supported)")
        expr = sp.Integer(0)
        for i in range(chart.n):
            expr += comps[i] * chart.jet(a, MultiIndex.make(i))
        if m.kind == "one_form":
            family = families[(m.base, m.lie_index)]
            for nu in range(chart.n):
                expr += chart.jet(family[nu], MultiIndex()) * sp.diff(comps[nu], chart.xs[m.axis])
        W[a] = expr
    return EvolutionaryField(chart, W)


def xi_invariance_residual(lp: LagrangianPair, xi, W: EvolutionaryField) -> RelForm:
    """Background-variation operator applied to the pair, with W the lift of
    xi: zero iff xi-invariant."""
    rel = RelForm(lp.pair, lp.L, lp.ell)
    return rel_lie(xi, rel) - rel_lie_ev(W.components, rel)


# -- d-symmetries ----------------------------------------------------------------------


@dataclass
class SymmetryVerdict:
    is_symmetry: bool
    S: Form | None
    s_bar: Form | None
    obstruction_bulk: SourceForm | None = None
    obstruction_boundary: Form | None = None
    note: str = ""


def d_symmetry_check(
    lp: LagrangianPair,
    W: EvolutionaryField,
    xi=None,
    invariance: RelForm | None = None,
) -> SymmetryVerdict:
    """Decide whether W generates a variational symmetry of the pair.

    Accepts W iff the Lie derivative of the pair has identically vanishing
    bulk and boundary sources (exactness decided constructively on the chart;
    without a boundary the bulk sources decide alone).
    The potential (S, s_bar) is produced in closed form on the two routes the
    engine supports: xi-lifts of invariant pairs (W the lift of xi, and
    ``invariance`` its ``xi_invariance_residual``), and identically vanishing
    Lie derivatives; otherwise the verdict carries a not-constructed note.
    """
    pair = lp.pair
    A = lie_ev(W.components, lp.L)
    a_bar = lie_ev(pair.restrict_ev(W.components), lp.ell)
    E_A = euler_operator(A) if not A.is_zero() else None
    bulk_exact = A.is_zero() or E_A.is_zero()
    obstruction_boundary = None
    boundary_exact = True
    if bulk_exact:
        try:
            bA = _decompose_pair(lp, A, a_bar)[2]
            boundary_exact = bA.is_zero()
            if not boundary_exact:
                obstruction_boundary = bA.paired_with_contacts()
        except NonDecomposableError as err:
            boundary_exact = False
            obstruction_boundary = err.term
    is_symmetry = bulk_exact and boundary_exact
    if not is_symmetry:
        return SymmetryVerdict(
            False, None, None, obstruction_bulk=E_A, obstruction_boundary=obstruction_boundary
        )
    # construct the potential where a closed form is available
    if xi is not None and invariance is not None and invariance.is_zero():
        xibar = pair.restrict_vector(xi)
        return SymmetryVerdict(
            True, iota_x(xi, lp.L), -iota_x(xibar, lp.ell), note="potential = iota_xi(L, ell)"
        )
    if A.is_zero() and a_bar.is_zero():
        return SymmetryVerdict(
            True,
            Form.zero(pair.chart, pair.chart.n - 1, 0),
            Form.zero(pair.bchart, pair.bchart.n - 1, 0),
            note="Lie derivative vanishes identically",
        )
    return SymmetryVerdict(
        True,
        None,
        None,
        note="exact by the source test; potential not constructed (general homotopy out of scope)",
    )


# -- Noether currents -------------------------------------------------------------------


@dataclass
class NoetherData:
    """xi-current pair, its slice and corner restrictions, and the flux-identity
    certificate."""

    J: Form
    j_bar: Form
    identity_residual_bulk: Form
    identity_residual_boundary: Form
    slice_current: Form
    corner_current: Form

    def identity_holds(self) -> bool:
        return self.identity_residual_bulk.is_zero() and self.identity_residual_boundary.is_zero()


def noether_current_xi(
    lp: LagrangianPair,
    v: VariationDecomposition,
    xi,
    W: EvolutionaryField,
    invariance: RelForm,
) -> NoetherData:
    """xi-current (J, j_bar) = iota_xi (L, ell) - iota_W (Theta, theta_bar),
    with W the lift of xi and ``invariance`` its ``xi_invariance_residual``.

    Certifies the flux identity
        rel_d (J, j_bar) = (L_xi - Lie_W)(L, ell) + (E_a W^a, b_a W^a)
    exactly; on xi-invariant pairs the first term vanishes and the current is
    conserved on shell.
    """
    pair = lp.pair
    chart, bchart = pair.chart, pair.bchart
    Wb = pair.restrict_ev(W.components)
    xibar = pair.restrict_vector(xi)
    J = iota_x(xi, lp.L) - iota_ev(W.components, v.theta)
    j_bar = -iota_x(xibar, lp.ell) - iota_ev(Wb, v.theta_bar)
    bulk_source = Form.zero(chart, chart.n, 0)
    for a in chart.fields:
        bulk_source = bulk_source + v.E.components[a] * W.components[a]
    bnd_source = Form.zero(bchart, bchart.n, 0)
    for a, f in v.b.components.items():
        if not f.is_zero():
            bnd_source = bnd_source + f * Wb.get(a, sp.Integer(0))
    res_bulk = d_h(J) - invariance.bulk - bulk_source
    res_bnd = pair.pullback(J) - d_h(j_bar) - invariance.boundary - bnd_source
    slice_current = v.slice_ctx.pull(J)
    corner_current = v.bslice_ctx.pull(j_bar) if bchart.n > 1 else j_bar
    return NoetherData(J, j_bar, res_bulk, res_bnd, slice_current, corner_current)


# -- on-shell ideal ----------------------------------------------------------------------


class OnShellIdeal:
    """Rewriting modulo the equations of motion and their total derivatives.

    Each generator is solved for its leading jet when that jet occurs linearly
    with a jet-free coefficient; a generator that is not solvable this way is
    kept in ``skipped`` and takes no part in the reduction, which it weakens
    but never makes unsound.  Reduction substitutes leading jets (and their
    prolongations) to a fixpoint under the chart's jet cap.

    The equations are polynomials of ``ring`` (see ``jetpoly``).  A rule's
    right-hand side becomes a sympy expression the first time ``_match``
    returns it.
    """

    def __init__(self, chart: Chart, equations: list, ring):
        self.chart = chart
        self.ring = ring
        self.generators = list(equations)
        self.rules: list[tuple[str, MultiIndex, object]] = []
        self.skipped: list = []
        self._rhs: dict[int, sp.Expr] = {}
        for eq in self.generators:
            if ring.is_zero(eq):
                continue
            jets = ring.jets(chart, eq)
            if not jets:
                raise ValueError(f"equation without jets: {ring.expr(eq)}")
            sym, a, mi = max(
                jets, key=lambda t: (t[2].order, t[2].count(0), t[2].entries, t[1])
            )
            c = ring.diff(eq, sym)
            if ring.jets(chart, c):
                self.skipped.append(eq)
                continue
            self.rules.append((a, mi, ring.solve(eq, sym, c)))

    def rhs(self, k: int) -> sp.Expr:
        """Right-hand side of rule k as a sympy expression, converted once."""
        got = self._rhs.get(k)
        if got is None:
            got = self._rhs[k] = self.ring.expr(self.rules[k][2])
        return got

    def _match(self, a: str, mi: MultiIndex):
        for k, (ra, rmi, _) in enumerate(self.rules):
            if ra != a:
                continue
            rem = list(mi.entries)
            ok = True
            for e in rmi.entries:
                if e in rem:
                    rem.remove(e)
                else:
                    ok = False
                    break
            if ok:
                return MultiIndex(tuple(rem)), self.rhs(k)
        return None

    def reduce_expr(self, e: sp.Expr) -> sp.Expr:
        e = sp.expand(e)
        for _ in range(64):
            repl = {}
            for sym, a, mi in self.chart.jets_in(e):
                m = self._match(a, mi)
                if m is not None:
                    K, rhs = m
                    repl[sym] = self.chart.total_derivative_multi(K, rhs)
            if not repl:
                return e
            e = sp.expand(e.xreplace(repl))
        raise ArithmeticError("on-shell reduction did not reach a fixpoint")


def prolonged_restricted_generators(
    chart: Chart, sub: Chart, axis: int, equations: list, ring, value=None
) -> list:
    """Restrict each generator and its axis-prolongations (up to the jet cap)
    to a hypersurface chart; this is how "all differential consequences" of an
    equation survive the loss of the transversal direction.  The equations
    are polynomials of ``ring``, and so are the generators returned."""
    gens: list = []
    for eq in equations:
        if ring.is_zero(eq):
            continue
        order = max((mi.order for _, _, mi in ring.jets(chart, eq)), default=0)
        bumped = eq
        for k in range(chart.max_jet_order - order + 1):
            gens.append(ring.restrict(chart, sub, axis, bumped, value=value))
            if k < chart.max_jet_order - order:
                bumped = ring.total_derivative(chart, axis, bumped)
    return gens


def slice_ideal(chart: Chart, ctx: SliceContext, equations: list[sp.Expr], ring) -> OnShellIdeal:
    """The on-shell ideal relabeled to a Cauchy slice, including the time
    prolongations of every generator up to the jet cap, over ``ring``."""
    eqs = [ring.poly(e) for e in equations]
    gens = prolonged_restricted_generators(chart, ctx.schart, 0, eqs, ring)
    return OnShellIdeal(ctx.schart, gens, ring)


# -- gauge diagnostics --------------------------------------------------------------------


@dataclass
class GaugeResidual:
    bulk: Form
    boundary: Form

    def is_gauge(self) -> bool:
        return self.bulk.is_zero() and self.boundary.is_zero()


def _linearized_row(schart: Chart, c: sp.Expr, gen, ring):
    """Sweep c * dd(gen) ^ vol on the slice chart: returns (sources, kappa).

    These are the on-shell-trivial source rows (terms proportional to the
    linearized equations, integrated by parts) against which a gauge residual
    is reduced; kappa is the boundary term the integration by parts sheds.
    ``gen`` is a polynomial of ``ring``, the slice chart's ring or EXPR.
    """
    vol_word = top_word(schart.n)
    row = Form(schart, schart.n, 1, [
        (vol_word + (("v", b, mi.entries),), ring.diff(gen, sym)) for sym, b, mi in ring.jets(schart, gen)
    ]) * c
    if row.is_zero():
        return {}, Form.zero(schart, schart.n - 1, 1)
    return _sweep(row)


def _monomials(src: Mapping[str, sp.Expr]) -> int:
    """Term count of reduced (expanded, nonzero) source coefficients."""
    return sum(len(sp.Add.make_args(e)) for e in src.values())


def gauge_multiplier_candidates(
    lp: LagrangianPair, ctx: SliceContext, W: EvolutionaryField, xi, meta
) -> list[sp.Expr]:
    """Multipliers for the absorbable rows of a gauge check.

    Lifted vector fields contribute the contractions xi^mu A_mu per one-form
    base (the multiplier of the linearized-equation term their current sheds);
    gauge parameters contribute their function symbols.
    """
    chart = lp.pair.chart
    cands: list[sp.Expr] = []
    if xi is not None and meta is not None:
        comps = [sp.sympify(cc) for cc in xi]
        for family in one_form_families(meta).values():
            e = sp.Integer(0)
            for axis, a in family.items():
                e += comps[axis] * chart.jet(a, MultiIndex())
            cands.append(chart.restrict_expr(e, ctx.schart, 0, value=None))
    funcs = set()
    for e in W.components.values():
        funcs |= sp.sympify(e).atoms(sp.core.function.AppliedUndef)
    cands.extend(sorted(funcs, key=str))
    return [c for c in cands if c != 0]


def gauge_residual(
    lp: LagrangianPair,
    v: VariationDecomposition,
    W: EvolutionaryField,
    xi=None,
    meta: Mapping[str, FieldMeta] | None = None,
) -> GaugeResidual:
    """Contract the symplectic current with W, pull to a Cauchy slice, and
    reduce modulo the on-shell ideal.

    The bulk reduction first rewrites coefficients modulo the slice ideal and
    then absorbs source rows proportional to linearized equations (multipliers
    from the structure of W: field contractions for lifts, gauge functions for
    parameter directions), shedding their integration-by-parts boundary terms
    into the corner piece.  The corner piece keeps its contact factors and only
    reduces coefficients modulo the boundary/corner equations, so a surviving
    boundary obstruction is reported verbatim; Dirichlet fields drop their
    corner variations.  Zero in both slots means W is a degenerate direction.
    """
    chart = lp.pair.chart
    ctx, ideal = v.slice_ctx, v.slice_ideal
    omega, omega_bar = v.omega
    expr = ctx.schart.ring.expr
    src, kappa = _sweep(ctx.pull(iota_ev(W.components, omega)))
    src = {a: ideal.reduce_expr(expr(c)) for a, c in src.items()}
    src = {a: c for a, c in src.items() if c != 0}
    # absorb rows proportional to linearized equations of motion.  The sweep
    # and the reduction are linear and src is reduced, so each row is swept
    # and reduced once, the row of -c is the negated row of c, and a trial is
    # a sum of expanded expressions, which sympy keeps expanded.
    ring = ideal.ring
    base_gens = [
        ring.restrict(chart, ctx.schart, 0, p)
        for p in map(ring.poly, v.equations().values()) if not ring.is_zero(p)
    ]
    cands = gauge_multiplier_candidates(lp, ctx, W, xi, meta)
    rows: dict[tuple[int, int], tuple] = {}
    size = _monomials(src)
    improved = True
    while improved and src:
        improved = False
        for ci, c in enumerate(cands):
            for gi, gen in enumerate(base_gens):
                if (ci, gi) not in rows:
                    row_src, row_kappa = _linearized_row(ctx.schart, c, gen, ring)
                    row_src = {a: ideal.reduce_expr(expr(e)) for a, e in row_src.items()}
                    rows[ci, gi] = row_src, row_kappa
                row_src, row_kappa = rows[ci, gi]
                if not row_src:
                    continue
                for sign in (1, -1):
                    trial = dict(src)
                    for a, e in row_src.items():
                        old = trial.get(a, sp.Integer(0))
                        trial[a] = old - e if sign > 0 else old + e
                    trial = {a: e for a, e in trial.items() if e != 0}
                    trial_size = _monomials(trial)
                    if trial_size < size:
                        src, size = trial, trial_size
                        kappa = kappa - row_kappa if sign > 0 else kappa + row_kappa
                        improved = True
    bulk_res = Form.zero(ctx.schart, ctx.schart.n, 1)
    for a, coeff in sorted(src.items()):
        bulk_res = bulk_res + wedge(Form.top(ctx.schart, coeff), Form.contact(ctx.schart, a))
    # corner piece: the swept-off exact parts restricted to the slice corner,
    # minus the boundary symplectic current contraction
    corner = ctx.corner_pull(kappa)
    if not v.theta_bar.is_zero():
        bslice = v.bslice_ctx
        Gb = iota_ev(lp.pair.restrict_ev(W.components), omega_bar)
        corner = corner - translate_form(bslice.pull(Gb), bslice.schart, ctx.cchart)
    corner = kill_dirichlet(corner, lp.dirichlet_fields())
    if not corner.is_zero() and lp.has_boundary:
        corner = corner.map_coeffs(v.corner_ideal.reduce_expr)
    return GaugeResidual(bulk_res, corner)


def translate_form(f: Form, src: Chart, dst: Chart) -> Form:
    """Relabel a form between corner charts reached by restriction in either order."""
    terms = [
        (tuple(fac if fac[0] == "x" else ("v", translated_field(fac[1], src, dst), fac[2]) for fac in word),
         f.ring.translate(src, dst, coeff))
        for word, coeff in f.terms.items()
    ]
    return Form(dst, *f._tag, terms)


def _corner_ideal(
    lp: LagrangianPair, v: VariationDecomposition, ctx: SliceContext, sideal: OnShellIdeal
) -> OnShellIdeal:
    """On-shell ideal on the slice corner, over the slice ideal's ring: the
    slice ideal's generators (bulk equations restricted to the slice with their
    time prolongations) restricted again with their normal prolongations, plus
    the boundary equations restricted to the corner, all relabeled to the
    canonical corner chart."""
    ring = sideal.ring
    gens = prolonged_restricted_generators(
        ctx.schart, ctx.cchart, ctx.schart.n - 1, sideal.generators, ring, value=sp.Integer(0)
    )
    bpolys = [ring.poly(e) for e in v.boundary_equations().values()]
    bschart = v.bslice_ctx.schart
    bgens = prolonged_restricted_generators(lp.pair.bchart, bschart, 0, bpolys, ring)
    gens += [ring.translate(bschart, ctx.cchart, g) for g in bgens]
    return OnShellIdeal(ctx.cchart, [g for g in gens if not ring.is_zero(g)], ring)
