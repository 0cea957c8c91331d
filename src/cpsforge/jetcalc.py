"""Jet-bundle variational operators.

Total derivatives live on the chart; this module adds the source-form layer:
the componentwise Euler operator, the deterministic integration-by-parts sweep
producing a symplectic-potential representative, and its boundary analogue
(which either decomposes or raises NonDecomposableError when a transversal
variation survives).
"""
from __future__ import annotations

from dataclasses import dataclass, field

import sympy as sp

from .chart import Chart, MultiIndex
from .forms import Form, dd, d_h, top_word, wedge


class NonDecomposableError(ValueError):
    """The boundary variation cannot be decomposed into sources of boundary fields."""

    def __init__(self, message: str, term: Form | None = None):
        super().__init__(message)
        self.term = term


@dataclass
class SourceForm:
    """Map field -> top horizontal form E_a (the coefficient pairs with th{a})."""

    chart: Chart
    components: dict[str, Form] = field(default_factory=dict)

    def coefficient(self, a: str) -> sp.Expr:
        f = self.components.get(a)
        return sp.Integer(0) if f is None else f.top_coefficient()

    def is_zero(self) -> bool:
        return all(f.is_zero() for f in self.components.values())

    def paired_with_contacts(self) -> Form:
        """Sum_a E_a ^ th{a}."""
        vol_word = top_word(self.chart.n)
        return Form(self.chart, self.chart.n, 1, [
            (vol_word + (("v", a, ()),), f._top()) for a, f in self.components.items()
        ])

    def equations(self) -> dict[str, sp.Expr]:
        return {a: self.coefficient(a) for a in self.components}


def euler_operator(L: Form) -> SourceForm:
    """Componentwise Euler operator: E_a = sum_J (-1)^|J| D_J dL/du^a_J.

    Vanishes identically iff L is a null Lagrangian on the chart.
    """
    chart, ring = L.chart, L.ring
    lag = L._top()
    acc = {a: ring.poly(0) for a in chart.fields}
    for _, a, mi, d in ring.gradient(chart, lag):
        if ring.is_zero(d):
            continue
        for axis in mi:
            d = ring.total_derivative(chart, axis, d)
        acc[a] = ring.add(acc[a], d, (-1) ** mi.order)
    return SourceForm(chart, {a: Form.top(chart, e) for a, e in acc.items()})


def _sweep(P: Form) -> tuple[dict, Form]:
    """Deterministic integration-by-parts sweep of a top-degree (n,1) form.

    Writes P = sum_a src_a ^ th{a} + d_h(theta); jet indices on contact factors
    are removed highest-order-first, largest axis first.  Returns (src, theta),
    the sources as polynomials of P's ring.
    """
    chart, ring = P.chart, P.ring
    vol_word = top_word(chart.n)
    work: dict[tuple[str, tuple], object] = {}
    for word, coeff in P.terms.items():
        vfacs = [f for f in word if f[0] == "v"]
        xfacs = tuple(f for f in word if f[0] == "x")
        if len(vfacs) != 1 or xfacs != vol_word:
            raise ValueError("sweep expects terms of the form vol ^ contact")
        key = (vfacs[0][1], vfacs[0][2])
        work[key] = ring.add(work[key], coeff) if key in work else coeff
    theta_terms = []
    while True:
        pending = [k for k in work if len(k[1]) > 0 and not ring.is_zero(work[k])]
        if not pending:
            break
        a, ent = max(pending, key=lambda k: (len(k[1]), k[0], k[1]))
        coeff = work.pop((a, ent))
        axis = max(ent)
        kept = MultiIndex(ent).remove_one(axis)
        # c vol ^ th{a,J+axis} = d_h(c iota_axis(vol) ^ th{a,J}) - (D_axis c) vol ^ th{a,J}
        word = tuple(("x", i) for i in range(chart.n) if i != axis) + (("v", a, kept.entries),)
        theta_terms.append((word, ring.scale(coeff, (-1) ** axis)))
        prev = (a, kept.entries)
        work[prev] = ring.add(work.get(prev, ring.poly(0)), ring.total_derivative(chart, axis, coeff), -1)
    src = {a: coeff for (a, ent), coeff in work.items() if ent == ()}
    return src, Form(chart, chart.n - 1, 1, theta_terms)


def integrate_by_parts(L: Form) -> tuple[SourceForm, Form]:
    """Decompose the field-space differential of a Lagrangian form.

    Returns (E, Theta) with dd(L) = sum_a E_a ^ th{a} + d_h(Theta), Theta fixed
    by the highest-order-first sweep; the residual of the decomposition is
    checked to be identically zero.  That E agrees with euler_operator is not
    checked here; test_jetcalc checks it on random Lagrangians.
    """
    chart = L.chart
    L._top()  # validates shape
    P = dd(L)
    src, theta = _sweep(P)
    E = SourceForm(chart)
    for a in chart.fields:
        E.components[a] = Form.top(chart, src.get(a, 0))
    residual = P - E.paired_with_contacts() - d_h(theta)
    if not residual.is_zero():
        raise ArithmeticError(f"integration-by-parts residual is nonzero: {residual}")
    return E, theta


def kill_dirichlet(form: Form, dirichlet: set[str] | frozenset[str]) -> Form:
    """Impose homogeneous Dirichlet data: boundary restrictions of the listed
    fields vanish with all their tangential jets and variations."""
    if not dirichlet:
        return form
    sub = dict.fromkeys([s for (a, _), s in form.chart._jet_by_key.items() if a in dirichlet], form.ring.poly(0))
    terms = [
        (word, form.ring.subs(coeff, sub))
        for word, coeff in form.terms.items()
        if not any(f[0] == "v" and f[1] in dirichlet for f in word)
    ]
    return Form(form.chart, *form._tag, terms)


def boundary_euler_operator(
    ell_bar: Form,
    pulled_theta: Form,
    dirichlet: frozenset[str] | set[str] = frozenset(),
) -> tuple[SourceForm, Form]:
    """Decompose dd(ell_bar) - j*Theta on the boundary chart.

    Returns (b, theta_bar) with dd(ell) - j*Theta = sum_a b_a ^ th{a} - d_h(theta_bar),
    one source per boundary field.  The Dirichlet data are imposed on both
    inputs first (``kill_dirichlet``), so Dirichlet fields get zero sources;
    any surviving variation of a transversal family (normal-derivative field)
    raises NonDecomposableError, since it is not a source of a boundary field.
    """
    bchart = ell_bar.chart
    P = dd(kill_dirichlet(ell_bar, dirichlet)) - kill_dirichlet(pulled_theta, dirichlet)
    src, theta_sweep = _sweep(P)
    b = SourceForm(bchart)
    for a, coeff in sorted(src.items()):
        if P.ring.is_zero(coeff):
            continue
        if bchart.labels[a][1:] != (0, 0):
            term = wedge(Form.top(bchart, coeff), Form.contact(bchart, a))
            raise NonDecomposableError(
                f"boundary variation contains a transversal-derivative variation of {a!r}",
                term=term,
            )
        b.components[a] = Form.top(bchart, coeff)
    for a in bchart.fields:
        b.components.setdefault(a, Form.zero(bchart, bchart.n, 0))
    theta_bar = -theta_sweep
    residual = P - b.paired_with_contacts() + d_h(theta_bar)
    if not residual.is_zero():
        raise ArithmeticError(f"boundary decomposition residual is nonzero: {residual}")
    return b, theta_bar
