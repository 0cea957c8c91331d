"""Jet-bundle variational operators.

Total derivatives live on the chart; this module adds the source-form layer:
the Euler operator, the deterministic integration-by-parts sweep producing a
symplectic-potential representative, and its boundary analogue (which either
decomposes or raises NonDecomposableError when a transversal variation
survives).  A source is a plain (n,1) form sum_a E_a vol ^ th{a}:
``source_form`` builds one from its coefficients by field, and
``source_coefficients`` reads them back.
"""
from __future__ import annotations

from typing import Mapping

from .chart import Chart, MultiIndex
from .forms import Form, dd, d_h, top_word


class NonDecomposableError(ValueError):
    """The boundary variation cannot be decomposed into sources of boundary fields."""

    def __init__(self, message: str, term: Form | None = None):
        super().__init__(message)
        self.term = term


def source_form(chart: Chart, coeffs: Mapping[str, object]) -> Form:
    """The (n,1) source form sum_a E_a vol ^ th{a} of the coefficients E_a by field."""
    vol_word = top_word(chart.n)
    return Form(chart, chart.n, 1, [(vol_word + (("v", a, ()),), e) for a, e in coeffs.items()])


def source_coefficients(src: Form) -> dict:
    """The coefficient of vol ^ th{a} in the source form src, on ``src.ring``,
    for every field a of its chart, zeros included, in declaration order."""
    vol_word, zero = top_word(src.chart.n), src.ring.poly(0)
    return {a: src.terms.get(vol_word + (("v", a, ()),), zero) for a in src.chart.fields}


def euler_operator(L: Form) -> Form:
    """Euler operator: the source form sum_a E_a vol ^ th{a}, with
    E_a = sum_J (-1)^|J| D_J dL/du^a_J.

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
    return source_form(chart, acc)


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


def integrate_by_parts(L: Form) -> tuple[Form, Form]:
    """Decompose the field-space differential of a Lagrangian form.

    Returns (E, Theta) with dd(L) = E + d_h(Theta), E the source form
    sum_a E_a vol ^ th{a} and Theta fixed by the highest-order-first sweep;
    the residual of the decomposition is checked to be identically zero.  That E agrees with euler_operator is not
    checked here; test_jetcalc checks it on random Lagrangians.
    """
    L._top()  # validates shape
    P = dd(L)
    src, theta = _sweep(P)
    E = source_form(L.chart, src)
    residual = P - E - d_h(theta)
    if not residual.is_zero():
        raise ArithmeticError(f"integration-by-parts residual is nonzero: {residual}")
    return E, theta


def kill_dirichlet(form: Form, dirichlet: set[str] | frozenset[str]) -> Form:
    """Impose homogeneous Dirichlet data: boundary restrictions of the listed
    fields vanish with all their tangential jets and variations; the jets are
    read off the coefficients."""
    if not dirichlet:
        return form
    ring, chart = form.ring, form.chart
    jets = [s for c in form.terms.values() for s, a, _ in ring.jets(chart, c) if a in dirichlet]
    sub = dict.fromkeys(jets, ring.poly(0))
    terms = [
        (word, ring.subs(coeff, sub))
        for word, coeff in form.terms.items()
        if not any(f[0] == "v" and f[1] in dirichlet for f in word)
    ]
    return Form(chart, *form._tag, terms)


def boundary_euler_operator(
    ell_bar: Form,
    pulled_theta: Form,
    dirichlet: frozenset[str] | set[str] = frozenset(),
) -> tuple[Form, Form]:
    """Decompose dd(ell_bar) - j*Theta on the boundary chart.

    Returns (b, theta_bar) with dd(ell) - j*Theta = b - d_h(theta_bar), b the
    source form sum_a b_a vol ^ th{a} of the boundary fields.  The Dirichlet
    data are imposed on both inputs first (``kill_dirichlet``), so Dirichlet
    fields get zero sources; any surviving variation of a transversal family
    (normal-derivative field) raises NonDecomposableError, since it is not a
    source of a boundary field.
    """
    bchart = ell_bar.chart
    P = dd(kill_dirichlet(ell_bar, dirichlet)) - kill_dirichlet(pulled_theta, dirichlet)
    src, theta_sweep = _sweep(P)
    for a, coeff in sorted(src.items()):
        if bchart.labels[a][1:] != (0, 0) and not P.ring.is_zero(coeff):
            raise NonDecomposableError(
                f"boundary variation contains a transversal-derivative variation of {a!r}",
                term=source_form(bchart, {a: coeff}),
            )
    b, theta_bar = source_form(bchart, src), -theta_sweep
    residual = P - b + d_h(theta_bar)
    if not residual.is_zero():
        raise ArithmeticError(f"boundary decomposition residual is nonzero: {residual}")
    return b, theta_bar
