"""Covariant-phase-space pipeline on top of the form calculus.

Given a Lagrangian pair (bulk top form, lateral-boundary form) this module
derives the variational decomposition (sources and symplectic potentials on
both strata, with zero-residual certificates), the presymplectic currents and
their Cauchy-slice restriction, lifts of space-time vector fields, invariance
residuals, Noether currents/charges, variational-symmetry verdicts, and gauge
diagnostics modulo the on-shell ideal.  Each bulk/boundary pair is one
``RelForm``: (L, ell), the sources (E, b) as (n,1) source forms,
(Theta, theta_bar), (S, s_bar), (J, j_bar) and the Noether identity's
certificate.
"""
from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from typing import Mapping

import sympy as sp

from .chart import Chart, MultiIndex, one_form_families, translated_field
from .forms import Form, dd, restrict, top_word, wedge
from .jetcalc import (
    NonDecomposableError,
    _sweep,
    boundary_euler_operator,
    euler_operator,
    integrate_by_parts,
    kill_dirichlet,
    source_coefficients,
)
from .jetpoly import EXPR, JetRing, built, choose_ring, leading_jet, prolonged_restricted_generators
from .relative import BoundaryPair, RelForm, rel_d, rel_dd, rel_iota_ev, rel_lie


@dataclass
class LagrangianPair:
    """The pair (bulk Lagrangian L, lateral boundary Lagrangian ell) as one
    relative form, and the boundary-condition tags."""

    rel: RelForm
    bc: dict[str, str] = field(default_factory=dict)
    has_boundary: bool = True

    def __post_init__(self):
        for a, kind in self.bc.items():
            if kind not in ("free", "dirichlet", "robin"):
                raise ValueError(f"unknown boundary condition {kind!r} for field {a!r}")

    @property
    def pair(self) -> BoundaryPair:
        return self.rel.pair

    def dirichlet_fields(self) -> set[str]:
        return {a for a, k in self.bc.items() if k == "dirichlet"}

    def impose_boundary_data(self, p: RelForm) -> RelForm:
        """p with the Dirichlet fields killed on its boundary slot, which is zero without a boundary."""
        boundary = p.boundary if self.has_boundary else Form.zero(self.pair.bchart)
        return RelForm(self.pair, p.bulk, kill_dirichlet(boundary, self.dirichlet_fields()))


@dataclass
class VariationDecomposition:
    """Sources and symplectic potentials of a Lagrangian pair, with residuals.

    The CPS objects derived from it alone (Omega, the slice forms, the slice
    and corner ideals and their coefficient ring) are built on first use and
    shared by every consumer.  The Cauchy slice {x^0 = const}
    of the bulk (``schart``) and of the boundary (``bschart``), and the slice
    corner (``cchart``), are the charts' cached restrictions."""

    lp: LagrangianPair
    sources: RelForm  # (E, b), each sum_a E_a vol ^ th{a}
    potential: RelForm  # (Theta, theta_bar)
    noncanonical_theta: bool = False

    @property
    def chart(self) -> Chart:
        return self.lp.pair.chart

    @property
    def bchart(self) -> Chart:
        return self.lp.pair.bchart

    @property
    def schart(self) -> Chart:
        return self.chart.restricted(0, tag="t")

    @property
    def bschart(self) -> Chart:
        return self.bchart.restricted(0, tag="t")

    @property
    def cchart(self) -> Chart:
        return self.schart.restricted(self.schart.n - 1, tag="n")

    def residual(self) -> RelForm:
        """The steps 1-2 certificate dd(L, ell) - (E, b) - rel_d(Theta, theta_bar), boundary data imposed."""
        return self.lp.impose_boundary_data(rel_dd(self.lp.rel) - self.sources - rel_d(self.potential))

    def equations(self) -> dict[str, sp.Expr]:
        E = self.sources.bulk
        return {a: E.ring.expr(e) for a, e in source_coefficients(E).items()}

    @cached_property
    def omega(self) -> RelForm:
        return presymplectic_current(self)

    @cached_property
    def slice_forms(self) -> tuple[Form, Form]:
        return slice_presymplectic(self)

    @cached_property
    def ring(self):
        """The on-shell ideals' coefficient ring: the chart's JetRing when it
        represents every bulk and boundary equation, EXPR otherwise."""
        return EXPR if any(f.ring is EXPR for f in self.sources) else self.chart.ring

    @cached_property
    def slice_ideal(self) -> "OnShellIdeal":
        return slice_ideal(self.schart, _source_polys(self.ring, self.sources.bulk), self.ring)

    @cached_property
    def corner_ideal(self) -> "OnShellIdeal":
        return _corner_ideal(self, self.slice_ideal)


def _decompose_pair(lp: LagrangianPair, p: RelForm) -> tuple[RelForm, RelForm]:
    """CPS steps 1-2 for the pair p = (L, ell) under lp's boundary data: the
    relative decomposition dd(L, ell) = (E, b) + d_rel(Theta, theta_bar),
    returned as the pairs (sources, potential).  Without a boundary, b and
    theta_bar are zero."""
    E, theta = integrate_by_parts(p.bulk)
    pair, bchart = lp.pair, lp.pair.bchart
    if not lp.has_boundary:
        b, theta_bar = Form.zero(bchart, bchart.n, 1), Form.zero(bchart, bchart.n - 1, 1)
    else:
        b, theta_bar = boundary_euler_operator(p.boundary, pair.pullback(theta), dirichlet=lp.dirichlet_fields())
    return RelForm(pair, E, b), RelForm(pair, theta, theta_bar)


def decompose(lp: LagrangianPair) -> VariationDecomposition:
    """CPS steps 1-2: bulk and boundary variational decompositions, each
    certified by a zero residual where it is computed."""
    return VariationDecomposition(
        lp, *_decompose_pair(lp, lp.rel), noncanonical_theta=lp.rel.bulk.jet_order() > 2
    )


def presymplectic_current(v: VariationDecomposition) -> RelForm:
    """Symplectic currents: the field-space differential of the potentials."""
    return rel_dd(v.potential)


def slice_presymplectic(v: VariationDecomposition) -> tuple[Form, Form]:
    """The slice integrand of the presymplectic form: dd of the pulled
    potentials; the slice value stays symbolic."""
    theta, theta_bar = v.potential
    return dd(restrict(theta, v.schart)), dd(restrict(theta_bar, v.bschart))


# -- lifting space-time vector fields --------------------------------------------------


def lift_vector_field(chart: Chart, xi) -> dict[str, sp.Expr]:
    """Canonical field-space lift: the Lie derivative of each field of chart
    along xi, as the components W^a of an evolutionary field.

    Scalars: W^a = xi^m u^a_m; one-form components (``chart.meta``) pick up the
    coefficient gradient: W^{A_mu} = xi^m A_{mu,m} + A_m d_mu xi^m.
    """
    W: dict[str, sp.Expr] = {}
    families = one_form_families(chart.meta)
    for a in chart.fields:
        m = chart.meta[a]
        expr = sp.Integer(0)
        for i in range(chart.n):
            expr += xi[i] * chart.jet(a, MultiIndex.make(i))
        if m.kind == "one_form":
            family = families[(m.base, m.lie_index)]
            for nu in range(chart.n):
                expr += chart.jet(family[nu], MultiIndex()) * sp.diff(xi[nu], chart.xs[m.axis])
        W[a] = expr
    return W


def xi_invariance_residual(lp: LagrangianPair, xi, A: RelForm) -> RelForm:
    """Background-variation operator applied to the pair, with A = Lie_W(L, ell)
    for W the lift of xi: zero iff xi-invariant."""
    return rel_lie(xi, lp.rel) - A


# -- d-symmetries ----------------------------------------------------------------------


@dataclass
class SymmetryVerdict:
    is_symmetry: bool
    potential: RelForm | None  # (S, s_bar) with rel_d(S, s_bar) = Lie_W(L, ell)
    obstruction_bulk: Form | None = None
    note: str = ""


def d_symmetry_check(lp: LagrangianPair, A: RelForm, potential: RelForm | None = None) -> SymmetryVerdict:
    """Decide whether the evolutionary field W with A = Lie_W(L, ell) generates
    a variational symmetry of the pair: iff A has identically vanishing bulk
    and boundary sources (decided constructively on the chart; without a
    boundary the bulk sources decide alone).  The bulk sources are tested
    first.  Then ``potential``, the iota_xi(L, ell) of a xi whose lift is W,
    is certified when rel_d(potential) = A exactly: A is then relatively
    exact, so its boundary sources vanish and are not computed.  A that
    vanishes identically carries the zero potential.  Otherwise the boundary
    sources of A's decomposition decide, and a symmetry carries a
    not-constructed note.
    """
    pair = lp.pair
    E_A = euler_operator(A.bulk) if not A.bulk.is_zero() else None
    if E_A is not None and not E_A.is_zero():
        return SymmetryVerdict(False, None, obstruction_bulk=E_A)
    if potential is not None and (rel_d(potential) - A).is_zero():
        return SymmetryVerdict(True, potential, note="potential = iota_xi(L, ell)")
    if A.is_zero():
        zero = RelForm(pair, *(Form.zero(c, c.n - 1, 0) for c in (pair.chart, pair.bchart)))
        return SymmetryVerdict(True, zero, note="Lie derivative vanishes identically")
    try:
        boundary_exact = _decompose_pair(lp, A)[0].boundary.is_zero()
    except NonDecomposableError:
        boundary_exact = False
    if not boundary_exact:
        return SymmetryVerdict(False, None, obstruction_bulk=E_A)
    return SymmetryVerdict(
        True,
        None,
        note="exact by the source test; potential not constructed (general homotopy out of scope)",
    )


# -- Noether currents -------------------------------------------------------------------


@dataclass
class NoetherData:
    """xi-current pair (J, j_bar), the flux-identity certificate, and the
    current's slice and corner restrictions."""

    current: RelForm
    identity_residual: RelForm
    slice_current: Form
    corner_current: Form


def noether_current_xi(
    v: VariationDecomposition, S: RelForm, W: Mapping[str, sp.Expr], invariance: RelForm
) -> NoetherData:
    """xi-current (J, j_bar) = S - iota_W (Theta, theta_bar), with S = iota_xi (L, ell),
    W the lift of xi and ``invariance`` its ``xi_invariance_residual``.

    Certifies the flux identity
        rel_d (J, j_bar) = (L_xi - Lie_W)(L, ell) + iota_W (E_a th{a}, b_a th{a})
    exactly; on xi-invariant pairs the first term vanishes and the current is
    conserved on shell.
    """
    J = S - rel_iota_ev(W, v.potential)
    res = rel_d(J) - invariance - rel_iota_ev(W, v.sources)
    corner_current = restrict(J.boundary, v.bschart) if v.bchart.n > 1 else J.boundary
    return NoetherData(J, res, restrict(J.bulk, v.schart), corner_current)


# -- on-shell ideal ----------------------------------------------------------------------


class Rule:
    """u^field_mi -> rhs: a generator solved for its leading jet sym, whose
    coefficient coeff is free of jets, on first use of ``rhs``."""

    def __init__(self, ring, gen, lead):
        self.ring, self.gen, (self.sym, self.field, self.mi, self.coeff) = ring, gen, lead

    @cached_property
    def rhs(self):
        return self.ring.solve(built(self.gen), self.sym, self.coeff)


class OnShellIdeal:
    """Rewriting modulo the equations of motion and their total derivatives.

    Each generator is solved for its leading jet when that jet occurs linearly
    with a jet-free coefficient; a generator that is not solvable this way is
    kept in ``skipped`` and takes no part in the reduction, which it weakens
    but never makes unsound.  A generator is a polynomial of ``ring`` or a
    ``LazyGenerator``: the leading jets choose the rules, the skipped
    generators and the ring before anything is built, and a rule is built and
    solved when a reduction first uses it.  The right-hand sides are
    polynomials of ``ring``, or of EXPR when a leading coefficient is not a
    rational number (a quotient), and then everything is built.
    """

    def __init__(self, chart: Chart, generators: list, ring):
        self.chart, self.ring, self.generators = chart, ring, list(generators)
        self.rules, self.skipped = [], []
        for g in self.generators:
            lead = leading_jet(ring, chart, g)
            if lead is None:
                if not ring.is_zero(built(g)):
                    raise ValueError(f"equation without jets: {ring.expr(built(g))}")
            elif ring.jets(chart, lead[3]):  # the leading coefficient
                self.skipped.append(g)
            else:
                self.rules.append(Rule(ring, g, lead))
        if ring is not EXPR and any(set(r.coeff) != {()} for r in self.rules):
            n, k = len(self.generators), len(self.skipped)
            polys = [*map(built, self.generators), *map(built, self.skipped), *(r.rhs for r in self.rules)]
            self.ring, polys = choose_ring(ring, polys)
            self.generators, self.skipped = polys[:n], polys[n:n + k]
            for rule, rhs in zip(self.rules, polys[n + k:]):
                rule.rhs = rhs
        self._prolonged: dict = {}

    def _replacement(self, sym: sp.Symbol, a: str, mi: MultiIndex):
        """D_K of the right-hand side of the first rule whose leading jet is
        u^a_J with J + K = mi, memoised per jet; None if there is none."""
        if sym not in self._prolonged:
            self._prolonged[sym], have = None, Counter(mi.entries)
            for rule in self.rules:
                if rule.field == a and Counter(rule.mi.entries) <= have:
                    rhs = rule.rhs
                    for axis in (have - Counter(rule.mi.entries)).elements():
                        rhs = self.ring.total_derivative(self.chart, axis, rhs)
                    self._prolonged[sym] = rhs
                    break
        return self._prolonged[sym]

    def reduce_expr(self, p):
        """The normal form of p, a polynomial of ``ring``: every jet that a
        rule's leading jet divides is replaced by the rule's right-hand side,
        prolonged with ``ring.total_derivative``, until no jet matches."""
        for _ in range(64):
            repl = {sym: self._replacement(sym, a, mi) for sym, a, mi in self.ring.jets(self.chart, p)}
            repl = {sym: q for sym, q in repl.items() if q is not None}
            if not repl:
                return p
            p = self.ring.subs(p, repl)
        raise ArithmeticError("on-shell reduction did not reach a fixpoint")

    @cached_property
    def on_expr(self) -> "OnShellIdeal":
        """This ideal, on the sparse kernel, rebuilt on EXPR."""
        return OnShellIdeal(self.chart, [self.ring.expr(built(g)) for g in self.generators], EXPR)

    def reduce_form(self, f: Form) -> Form:
        """f with every coefficient reduced, on EXPR if f or the ideal is."""
        ideal = self.on_expr if f.ring is EXPR and self.ring is not EXPR else self
        terms = f.terms.items()
        return Form(f.chart, *f._tag, [(w, ideal.reduce_expr(_into(ideal.ring, f.ring, c))) for w, c in terms])


def _into(ring, src_ring, p):
    """p, a polynomial of src_ring, on ring, which is src_ring or EXPR."""
    return p if src_ring is ring else src_ring.expr(p)


def _source_polys(ring, src: Form) -> list:
    """The coefficients of the source form src, field by field in declaration
    order, as polynomials of ring."""
    return [_into(ring, src.ring, e) for e in source_coefficients(src).values()]


def slice_ideal(schart: Chart, equations: list, ring) -> OnShellIdeal:
    """The on-shell ideal relabeled to the Cauchy slice chart schart, including
    the time prolongations of every generator up to the jet cap, over
    ``ring``.  An equation is a sympy expression or a polynomial of ``ring``."""
    eqs = [e if isinstance(e, dict) else ring.poly(e) for e in equations]
    return OnShellIdeal(schart, prolonged_restricted_generators(schart, eqs, ring), ring)


# -- gauge diagnostics --------------------------------------------------------------------


@dataclass
class GaugeResidual:
    bulk: Form
    boundary: Form

    def is_gauge(self) -> bool:
        return self.bulk.is_zero() and self.boundary.is_zero()


def _linearized_row(schart: Chart, c: sp.Expr, grad: list, ring):
    """Sweep c * dd(gen) ^ vol on the slice chart: returns (sources, kappa).

    These are the on-shell-trivial source rows (terms proportional to the
    linearized equations, integrated by parts) that absorb a gauge residual;
    kappa is the boundary term the integration by parts sheds.  ``grad`` is
    ``ring.gradient(schart, gen)``, taken once per generator and shared by
    its rows; the generator and the sources are polynomials of ``ring``, the
    slice chart's ring or EXPR.
    """
    vol_word = top_word(schart.n)
    row = Form(schart, schart.n, 1, [(vol_word + (("v", b, mi.entries),), dgen) for _, b, mi, dgen in grad]) * c
    if row.is_zero():
        return {}, Form.zero(schart, schart.n - 1, 1)
    src, kappa = _sweep(row)
    return {a: _into(ring, row.ring, e) for a, e in src.items()}, kappa


def span_multipliers(target: dict, rows: list[dict]) -> list | None:
    """Exact lam, of ints and Fractions, with target = sum_i lam_i rows[i], or
    None outside the rows' span (sparse dicts of rationals).  Elimination takes
    the rows in order and gives a row that depends on earlier ones lam_i = 0."""
    basis = []  # (pivot, vector): combinations of the inputs, which the keys (None, i) record
    for i, vec in enumerate([*rows, target]):
        vec = {**vec, (None, i): 1}
        for key, bvec in basis:
            if key in vec:
                vec = JetRing.add(vec, bvec, -Fraction(vec[key], bvec[key]))
        pivot = next((k for k in vec if k[0] is not None), None)
        if pivot is not None:
            basis.append((pivot, vec))
    return None if pivot is not None else [-vec.get((None, i), 0) for i in range(len(rows))]


def gauge_multiplier_candidates(schart: Chart, W: Mapping[str, sp.Expr], xi) -> list[sp.Expr]:
    """Multipliers for the absorbable rows of a gauge check.

    Lifted vector fields contribute the contractions xi^mu A_mu per one-form
    base (the multiplier of the linearized-equation term their current sheds);
    gauge parameters contribute their function symbols.
    """
    chart = schart.parent
    cands: list[sp.Expr] = []
    if xi is not None:
        for family in one_form_families(chart.meta).values():
            e = sp.Integer(0)
            for axis, a in family.items():
                e += xi[axis] * chart.jet(a, MultiIndex())
            cands.append(chart.restrict_expr(e, schart))
    funcs = set()
    for e in W.values():
        funcs |= sp.sympify(e).atoms(sp.core.function.AppliedUndef)
    cands.extend(sorted(funcs, key=str))
    return [c for c in cands if c != 0]


def gauge_residual(v: VariationDecomposition, W: Mapping[str, sp.Expr], xi=None) -> GaugeResidual:
    """Contract the symplectic current with W, pull to a Cauchy slice, and
    reduce modulo the on-shell ideal.

    The bulk sources, reduced modulo the slice ideal, are absorbed by exact
    linear solves over Q: if src = sum lam_i row_i for the source rows
    proportional to linearized equations (multipliers from the structure of
    W: field contractions for lifts, gauge functions for parameter
    directions), swept and reduced the same way, src vanishes and each row's
    integration-by-parts boundary term kappa_i enters the corner piece as
    -lam_i kappa_i.  Otherwise the rows that cancel all the monomials of src
    on those monomials alone, if any, are subtracted, which leaves what the
    equations cannot absorb (a mass term).  That restricted solve runs
    first, and the full one only when it succeeds; without a candidate
    multiplier there are no rows and no solve.  The corner piece keeps its
    contact factors and only reduces coefficients modulo the boundary/corner
    equations; Dirichlet fields drop their corner variations.  Both residuals
    are linear in W, and zero in both means W is a degenerate direction.
    """
    schart, ideal = v.schart, v.slice_ideal
    G = rel_iota_ev(W, v.omega)
    pulled = restrict(G.bulk, schart)
    src, kappa = _sweep(pulled)
    cands = gauge_multiplier_candidates(schart, W, xi)
    # the stage runs on the ideal's ring unless the current or a multiplier is off it
    ring = choose_ring(ideal.ring, cands)[0] if pulled.ring is ideal.ring else EXPR
    ideal = ideal if ring is ideal.ring else ideal.on_expr
    src = {a: ideal.reduce_expr(_into(ring, pulled.ring, c)) for a, c in src.items()}
    if cands and not all(map(ring.is_zero, src.values())):
        gens = [ring.restrict(schart, e) for e in _source_polys(ring, v.sources.bulk) if not ring.is_zero(e)]
        grads = [ring.gradient(schart, gen) for gen in gens]  # one per generator, shared by its rows
        rows = [_linearized_row(schart, c, grad, ring) for c in cands for grad in grads]
        rows = [({a: ideal.reduce_expr(e) for a, e in row_src.items()}, k) for row_src, k in rows]
        target, *vectors = [  # the sources as sparse vectors {(field, monomial): Fraction}
            {(a, m): Fraction(q) for a, p in s.items() for m, q in ring.terms(p)}
            for s in [src, *(row_src for row_src, _ in rows)]
        ]
        lam = absorption_multipliers(target, vectors)
        for q, (row_src, row_kappa) in zip(lam or (), rows):
            if q:
                for a, e in row_src.items():
                    src[a] = ring.add(src.get(a, ring.poly(0)), e, -q)
                kappa = kappa - row_kappa * q
    bulk_res = Form.zero(schart, schart.n, 1)
    for a, coeff in sorted(src.items()):
        bulk_res = bulk_res + wedge(Form.top(schart, coeff), Form.contact(schart, a))
    # corner piece: the swept-off exact parts restricted to the slice corner,
    # minus the boundary symplectic current contraction
    corner = restrict(kappa, v.cchart, value=sp.Integer(0))
    if not G.boundary.is_zero():
        corner = corner - translate_form(restrict(G.boundary, v.bschart), v.cchart)
    corner = kill_dirichlet(corner, v.lp.dirichlet_fields())
    if not corner.is_zero() and v.lp.has_boundary:
        corner = v.corner_ideal.reduce_form(corner)
    return GaugeResidual(bulk_res, corner)


def absorption_multipliers(target: dict, rows: list[dict]) -> list | None:
    """Multipliers lam with target = sum lam_i rows_i, else ones that match
    target on its own monomials only, else None.  A full solution also solves
    the rows restricted to target's monomials, so the full solve runs only
    when that one succeeds."""
    lam = span_multipliers(target, [{k: x for k, x in row.items() if k in target} for row in rows])
    if lam is not None:  # the full solve's multipliers, when there are any (a nonempty list)
        lam = span_multipliers(target, rows) or lam
    return lam


def translate_form(f: Form, dst: Chart) -> Form:
    """Relabel a form between corner charts reached by restriction in either order."""
    src = f.chart
    terms = [
        (tuple(fac if fac[0] == "x" else ("v", translated_field(fac[1], src, dst), fac[2]) for fac in word),
         f.ring.translate(src, dst, coeff))
        for word, coeff in f.terms.items()
    ]
    return Form(dst, *f._tag, terms)


def _corner_ideal(v: VariationDecomposition, sideal: OnShellIdeal) -> OnShellIdeal:
    """On-shell ideal on the slice corner, over the slice ideal's ring: the
    slice ideal's generators (bulk equations restricted to the slice with their
    time prolongations) restricted again with their normal prolongations, plus
    the boundary equations restricted to the corner with their time
    prolongations and relabeled to the canonical corner chart.  Every
    generator is a ``LazyGenerator`` whose lead is read off its bulk or
    boundary equation: building the ideal builds no slice generator and
    translates no boundary generator, and a reduction builds the rules it uses."""
    ring, cchart = sideal.ring, v.cchart
    gens = prolonged_restricted_generators(cchart, sideal.generators, ring, value=sp.Integer(0))
    # the pin x = 0 can kill a generator; one with a leading jet is not built here
    gens = [g for g in gens if g.lead() is not None or not ring.is_zero(g.poly)]
    bsources = _source_polys(ring, v.sources.boundary)
    return OnShellIdeal(cchart, gens + prolonged_restricted_generators(v.bschart, bsources, ring, dst=cchart), ring)
