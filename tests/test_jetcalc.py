"""Total derivatives, Euler operator, integration by parts, boundary decomposition."""
import random
from fractions import Fraction

import pytest
import sympy as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from sympy.core.cache import clear_cache
from sympy.core.function import AppliedUndef

from cpsforge.chart import Chart, JetOrderError, MultiIndex, diff_function_atom, is_function_atom
from cpsforge.cli import corpus_dir, load_model
from cpsforge.forms import Form, d_h, dd, hodge, restrict, vol, boundary_volume, wedge
from cpsforge.jetcalc import (
    NonDecomposableError,
    boundary_euler_operator,
    euler_operator,
    integrate_by_parts,
    kill_dirichlet,
    source_coefficients,
    source_form,
)
from cpsforge.jetpoly import EXPR, JetRing, NotRepresentable, leading_jet
from cpsforge.pipeline import prolonged_restricted_generators
from cpsforge.report import run_cps

from strategies import any_forms, exprs, forms, make_chart, normalized, record_calls

settings.register_profile("jetcalc", max_examples=40, deadline=None)
settings.load_profile("jetcalc")

CH = make_chart(2, ("u", "v"), max_jet_order=8)
T, X = CH.xs
U = CH.jet("u", MultiIndex())
UT = CH.jet("u", MultiIndex.make(0))
UX = CH.jet("u", MultiIndex.make(1))
UTT = CH.jet("u", MultiIndex.make(0, 0))
UXX = CH.jet("u", MultiIndex.make(1, 1))
UTX = CH.jet("u", MultiIndex.make(0, 1))
VOL_WORD = (("x", 0), ("x", 1))


def reference_total_derivative(chart: Chart, axis: int, expr) -> sp.Expr:
    """D_axis by its definition: the partial derivative in x^axis plus, for
    every jet symbol of expr, sympy's derivative in that jet times the raised
    jet.  Independent of the chart's factor-wise kernel."""
    expr = sp.sympify(expr)
    out = sp.diff(expr, chart.xs[axis])
    for sym, field, mi in chart.jets_in(expr):
        d = sp.diff(expr, sym)
        if d != 0:
            out += chart.jet(field, mi.union(axis)) * d
    return out


def reference_euler_operator(L: Form) -> Form:
    """E_a = sum_J (-1)^|J| D_J dL/du^a_J with sympy's diff on the whole
    Lagrangian coefficient, independent of the sparse kernel."""
    chart = L.chart
    lag = L.top_coefficient()
    acc = {a: sp.Integer(0) for a in chart.fields}
    for sym, a, mi in chart.jets_in(lag):
        d = sp.diff(lag, sym)
        if d != 0:
            acc[a] += (-1) ** mi.order * chart.total_derivative_multi(mi, d)
    return source_form(chart, acc)


def reference_dd(f: Form) -> Form:
    """dd with sympy's diff on each whole coefficient, once per jet."""
    chart = f.chart
    raw_terms = []
    for word, coeff in f.iter_terms():
        hs = tuple(fac for fac in word if fac[0] == "x")
        vs = tuple(fac for fac in word if fac[0] == "v")
        for sym, a, mi in chart.jets_in(coeff):
            dc = sp.diff(coeff, sym)
            if dc != 0:
                raw_terms.append((hs + (("v", a, mi.entries),) + vs, dc))
    r0, s0 = f._tag
    return Form(chart, r0, s0 + 1, raw_terms)


def coefficient(src: Form, a: str) -> sp.Expr:
    """The coefficient of vol ^ th{a} in the source form src, as a sympy expression."""
    return src.ring.expr(source_coefficients(src)[a])


V = sp.Function("V")
K = sp.Symbol("k")
EXPLICIT = [
    V(U),
    sp.Derivative(V(U), U),
    sp.Function("lam")(T, X),
    1 / (1 + U),
    U**-2,
    U**K,
    U**X,
    sp.exp(U + X),
    sp.sqrt(2) * UX,
    T * V(U) * UX**2 + K * U * UTX,
    sp.Function("f")(T) * U**2 / (1 + UX),
]


class TestTotalDerivative:
    @given(exprs(CH, max_order=2))
    def test_matches_reference(self, e):
        for axis in range(CH.n):
            got = CH.total_derivative(axis, e)
            assert sp.expand(got - reference_total_derivative(CH, axis, e)) == 0
            assert got == sp.expand(got)

    @pytest.mark.parametrize("e", EXPLICIT, ids=str)
    def test_explicit_matches_reference(self, e):
        for axis in range(CH.n):
            got = CH.total_derivative(axis, e)
            assert sp.expand(got - reference_total_derivative(CH, axis, e)) == 0
            assert got == sp.expand(got)

    def test_jet_cap_only_when_cap_jet_occurs(self):
        ch = make_chart(2, ("u", "v"), max_jet_order=2)
        u = ch.jet("u", MultiIndex())
        u_t = ch.jet("u", MultiIndex.make(0))
        u_tx = ch.jet("u", MultiIndex.make(0, 1))
        below = u_t**2 * ch.jet("v", MultiIndex.make(1)) + V(u) + ch.xs[1] * u
        for axis in range(ch.n):
            assert sp.expand(
                ch.total_derivative(axis, below) - reference_total_derivative(ch, axis, below)
            ) == 0
            for e in (u_tx, u * u_tx**2, V(u_tx), ch.xs[0] + u_tx / (1 + u)):
                with pytest.raises(JetOrderError):
                    ch.total_derivative(axis, e)
            # the cap jet cancels once the input is expanded
            assert ch.total_derivative(axis, (u + 1) * u_tx - u * u_tx - u_tx) == 0

    def test_first_jet(self):
        assert CH.total_derivative(0, U) == UT

    def test_leibniz(self):
        assert CH.total_derivative(0, T * UX) == UX + T * UTX

    @given(exprs(CH, max_order=2))
    def test_commute(self, e):
        ab = CH.total_derivative(0, CH.total_derivative(1, e))
        ba = CH.total_derivative(1, CH.total_derivative(0, e))
        assert sp.expand(ab - ba) == 0

    def test_multi(self):
        assert CH.total_derivative_multi(MultiIndex(), U + T) == U + T
        assert CH.total_derivative_multi(MultiIndex.make(0, 0), U) == UTT

    @given(exprs(CH, max_order=1), exprs(CH, max_order=1))
    def test_multi_leibniz(self, a, b):
        mi = MultiIndex.make(0, 1)
        lhs = CH.total_derivative_multi(mi, a * b)
        rhs = CH.total_derivative(0, CH.total_derivative(1, a * b))
        assert sp.expand(lhs - rhs) == 0


# the EXPLICIT cases the sparse kernel represents; it refuses every other one
KERNEL_ATOMS = {
    str(V(U)),
    str(sp.Derivative(V(U), U)),
    str(sp.Function("lam")(T, X)),
    str(T * V(U) * UX**2 + K * U * UTX),
}
CH3 = make_chart(3, ("u", "v"), max_jet_order=3)
LEAD_CH = make_chart(2, ("u", "v"), max_jet_order=4)


def lead_exprs(chart):
    """Polynomials of jet order <= 2 in jets, coordinates (the last one, which
    a boundary restriction pins, four times as likely), V(u) and lam of every
    coordinate."""
    mis = [()] + [(i,) for i in range(chart.n)] + [(i, j) for i in range(chart.n) for j in range(i, chart.n)]
    atoms = [chart.jet(a, MultiIndex.make(*mi)) for a in chart.fields for mi in mis]
    atoms += [*chart.xs, *[chart.xs[-1]] * 3, V(chart.jet("u", MultiIndex())), sp.Function("lam")(*chart.xs)]
    monomial = st.tuples(st.integers(-3, 3), st.lists(st.sampled_from(atoms), min_size=1, max_size=3))
    return st.lists(monomial, min_size=1, max_size=4).map(
        lambda parts: sp.expand(sp.Add(*[c * sp.Mul(*fs) for c, fs in parts])))


class TestJetPolyKernel:
    @given(exprs(CH, max_order=2))
    def test_roundtrip_is_expand(self, e):
        ring = JetRing()
        assert ring.expr(ring.poly(e)) == sp.expand(e)

    @pytest.mark.parametrize("chart", [CH, CH3], ids=["2d", "3d"])
    @given(data=st.data())
    def test_prolong_restrict_matches_expr_path(self, chart, data):
        e = data.draw(exprs(chart, max_order=2))
        for axis, value in ((0, None), (chart.n - 1, sp.Integer(0))):
            sub = chart.restricted(axis)
            ring = JetRing()
            got = prolonged_restricted_generators(sub, [ring.poly(e)], ring, value)
            want = prolonged_restricted_generators(sub, [EXPR.poly(e)], EXPR, value)
            assert [ring.expr(g.poly) for g in got] == [g.poly for g in want]

    @pytest.mark.parametrize("chart", [LEAD_CH, CH3], ids=["2d", "3d"])
    @settings(max_examples=50, deadline=None, derandomize=True, database=None)
    @given(data=st.data())
    def test_predicted_lead_is_the_built_one(self, chart, data):
        # V(u), lam(t, x, ...) and factors of the pinned coordinate, which can
        # kill the partial that a prediction rests on
        e = data.draw(lead_exprs(chart))
        for axis, value in ((0, None), (chart.n - 1, sp.Integer(0))):
            sub = chart.restricted(axis)
            for ring in (JetRing(), EXPR):
                for g in prolonged_restricted_generators(sub, [ring.poly(e)], ring, value):
                    assert g.lead() == leading_jet(ring, sub, g.poly)

    def test_lead_is_predicted_unless_the_pin_kills_it(self):
        sub, x = LEAD_CH.restricted(1), LEAD_CH.xs[1]
        u, uxx = (LEAD_CH.jet("u", MultiIndex.make(*[1] * k)) for k in (0, 2))
        for e, built in ((uxx + 2 * u, False), (x * uxx + u, True)):
            ring = JetRing()
            (g, *_) = prolonged_restricted_generators(sub, [ring.poly(e)], ring, sp.Integer(0))
            lead = g.lead()
            assert ("poly" in vars(g)) == built, e
            assert lead == leading_jet(ring, sub, g.poly)
        # the top candidate of x*u_xx + u is u_xx, whose coefficient x the pin
        # kills: the generator is u, with leading coefficient 1
        assert lead[1:] == ("u", MultiIndex(), {(): 1})

    @given(exprs(CH, max_order=2))
    def test_partial_derivative_matches_sympy(self, e):
        ring = JetRing()
        p = ring.poly(e)
        for sym, _, _ in CH.jets_in(e):
            assert ring.expr(ring.diff(p, sym)) == sp.expand(sp.diff(e, sym))
        grad = ring.gradient(CH, p)
        assert [g[:3] for g in grad] == ring.jets(CH, p)
        for sym, _, _, dp in grad:
            assert dp == ring.diff(p, sym) and ring.expr(dp) == sp.expand(sp.diff(e, sym))

    @pytest.mark.parametrize("e", EXPLICIT, ids=str)
    def test_explicit_represented_or_refused(self, e):
        ring = JetRing()
        if str(e) not in KERNEL_ATOMS:
            with pytest.raises(NotRepresentable):
                ring.poly(e)
            return
        p = ring.poly(e)
        assert ring.expr(p) == sp.expand(e)
        assert ring.jets(CH, p) == CH.jets_in(e)
        for axis in range(CH.n):
            got = ring.expr(ring.total_derivative(CH, axis, p))
            assert sp.expand(got - reference_total_derivative(CH, axis, e)) == 0
        for sym, _, _ in CH.jets_in(e):
            assert sp.expand(ring.expr(ring.diff(p, sym)) - sp.diff(e, sym)) == 0
        grad = ring.gradient(CH, p)
        assert [g[:3] for g in grad] == ring.jets(CH, p)
        for sym, _, _, dp in grad:
            assert dp == ring.diff(p, sym) and sp.expand(ring.expr(dp) - sp.diff(e, sym)) == 0

    def test_sstr_is_sympys_printer(self):
        # 5000 polynomials from a fixed seed over jets, coordinates, a
        # parameter and formal-function atoms, with fractions and powers up to 3
        t, x, y = CH3.xs
        lam = sp.Function("lam")
        u, u_x, v_ty = (CH3.jet(a, MultiIndex.make(*mi)) for a, mi in (("u", ()), ("u", (1,)), ("v", (0, 2))))
        atoms = [u, u_x, v_ty, t, x, y, K, V(u), sp.Derivative(V(u), u), lam(t, x, y), lam(t, x, 0),
                 sp.Subs(sp.Derivative(lam(t, x, y), y), y, 0)]
        ring = JetRing()
        powers = [ring.poly(a**k) for a in atoms for k in (1, 2, 3)]
        rng = random.Random(0)
        for _ in range(5000):
            p = {}
            for _ in range(rng.randint(1, 4)):
                mono = {(): 1}
                for _ in range(rng.randint(0, 3)):
                    mono = ring.mul(mono, rng.choice(powers))
                p = ring.add(p, mono, Fraction(rng.choice((-3, -2, -1, 1, 1, 2, 5)), rng.choice((1, 1, 2, 3))))
            assert ring.sstr(p) == sp.sstr(ring.expr(p))
        # a positive constant before one negative atom power, as Expr.as_ordered_terms puts it
        pinned = ((1 - u / 2, "1 - u/2"), (-u, "-u"), (-u**2 / 3, "-u**2/3"), (0, "0"), (2 - K * u, "-k*u + 2"))
        for e, printed in pinned:
            assert ring.sstr(ring.poly(e)) == printed == sp.sstr(sp.expand(e))

    @given(exprs(CH, max_order=2))
    def test_coefficients_are_ints_or_proper_fractions(self, e):
        # halves and thirds meet integers: unnormalised, some sums would be integral Fractions
        ring = JetRing()
        p = ring.poly(e)
        results = [p, ring.add(p, p, Fraction(1, 2)), ring.mul(p, ring.poly(e / 3)), ring.scale(p, -1)]
        results += [ring.total_derivative(CH, axis, ring.poly(e / 2)) for axis in range(CH.n)]
        results += [ring.diff(ring.poly(e / 2), sym) for sym, _, _ in CH.jets_in(e)]
        assert all(map(normalized, results)), results

    def test_integral_fraction_sums_are_ints(self):
        ring = JetRing()
        half = ring.poly(U / 2)
        assert ring.add(half, half) == {((0, 1),): 1} and type(ring.add(half, half)[((0, 1),)]) is int
        assert [type(c) for c in ring.mul(ring.poly(2 * U), half).values()] == [int]
        assert [type(c) for c in ring.total_derivative(CH, 0, ring.poly(U**2 / 2)).values()] == [int]

    def test_jet_cap_only_when_derivative_nonzero(self):
        ch = make_chart(2, ("u", "v"), max_jet_order=2)
        u = ch.jet("u", MultiIndex())
        u_tx = ch.jet("u", MultiIndex.make(0, 1))
        ring = JetRing()
        below = ring.poly(ch.jet("u", MultiIndex.make(0))**2 + V(u) + ch.xs[1] * u)
        for axis in range(ch.n):
            ring.total_derivative(ch, axis, below)
            for e in (u_tx, u * u_tx**2, V(u_tx), ch.xs[0] + u_tx * V(u)):
                with pytest.raises(JetOrderError):
                    ring.total_derivative(ch, axis, ring.poly(e))
            # the cap jet cancels in the polynomial
            cancels = ring.poly((u + 1) * u_tx - u * u_tx - u_tx)
            assert ring.total_derivative(ch, axis, cancels) == {}


class TestSourceForms:
    @pytest.mark.parametrize("coeff", ["u**2", "1/(1 + u)"])
    def test_coefficients_of_every_field_in_declaration_order(self, coeff):
        ch = make_chart(2, ("v", "u"))
        u = ch.jet("u", MultiIndex())
        e = sp.sympify(coeff, locals={"u": u})
        src = source_form(ch, {"u": e})
        assert (src.ring is EXPR) == (coeff != "u**2")
        got = source_coefficients(src)
        assert list(got) == ["v", "u"]
        assert src.ring.is_zero(got["v"])
        assert sp.expand(src.ring.expr(got["u"]) - e) == 0
        assert source_form(ch, got) == src

    def test_euler_operator_is_a_source_form(self):
        E = euler_operator(Form.top(CH, U**2 / 2 + UT * U))  # u_t u is null
        assert E.bidegree == (2, 1)
        assert E == source_form(CH, {"u": U}) == wedge(Form.top(CH, U), Form.contact(CH, "u"))


class TestEulerOperator:
    def test_wave_lagrangian(self):
        L = Form(CH, 2, 0, {VOL_WORD: (UT**2 - UX**2) / 2})
        E = euler_operator(L)
        assert sp.expand(coefficient(E, "u") - (-(UTT - UXX))) == 0
        assert coefficient(E, "v") == 0

    def test_null_lagrangian(self):
        L = Form(CH, 2, 0, {VOL_WORD: CH.total_derivative(0, U**2)})
        # a single total-derivative coefficient is not itself d_h-exact as a form;
        # build the honest d_h-exact Lagrangian instead
        Y = Form(CH, 1, 0, {(("x", 1),): U**2})
        assert euler_operator(d_h(Y)).is_zero()

    def test_potential_only(self):
        V = sp.Function("V")
        L = Form(CH, 2, 0, {VOL_WORD: V(U)})
        E = euler_operator(L)
        assert sp.expand(coefficient(E, "u") - sp.Derivative(V(U), U)) == 0

    @given(forms(CH, 1, 0, max_order=2))
    def test_annihilates_dh_exact(self, Y):
        assert euler_operator(d_h(Y)).is_zero()

    @given(exprs(CH, max_order=2), exprs(CH, max_order=2))
    def test_additive(self, a, b):
        La = Form(CH, 2, 0, {VOL_WORD: a})
        Lb = Form(CH, 2, 0, {VOL_WORD: b})
        Lab = Form(CH, 2, 0, {VOL_WORD: a + b})
        Ea, Eb, Eab = euler_operator(La), euler_operator(Lb), euler_operator(Lab)
        for f in CH.fields:
            assert sp.expand(coefficient(Eab, f) - coefficient(Ea, f) - coefficient(Eb, f)) == 0


class TestOperatorsOnTheKernel:
    """euler_operator and dd on the form's ring equal their sympy definitions."""

    @given(exprs(CH, max_order=2))
    def test_euler_operator_matches_reference(self, e):
        L = Form.top(CH, e)
        assert euler_operator(L) == reference_euler_operator(L)

    @given(any_forms(CH, max_order=2))
    def test_dd_matches_reference(self, f):
        assert dd(f) == reference_dd(f)

    @pytest.mark.parametrize("e", EXPLICIT, ids=str)
    def test_explicit_matches_reference(self, e):
        L = Form.top(CH, e)
        assert (L.ring is EXPR) == (str(e) not in KERNEL_ATOMS)
        assert euler_operator(L) == reference_euler_operator(L) == integrate_by_parts(L)[0]
        f = Form(CH, 1, 1, {(("x", 0), ("v", "v", ())): e, (("x", 1), ("v", "u", (0,))): T * e})
        assert dd(f) == reference_dd(f)

    def test_form_with_one_non_representable_coefficient(self):
        f = Form(CH, 1, 0, {(("x", 0),): U * UX**2, (("x", 1),): 1 / (1 + U)})
        assert f.ring is EXPR
        assert dd(f) == reference_dd(f)
        assert not dd(f).is_zero()

    @pytest.mark.parametrize("lag", [
        "u_t*u_x", "u*u_tx", "u_tx**2", "u_t*u_tx", "V(u_tx)", "u_tx*V(u)", "(u + 1)*u_tx - u*u_tx",
    ])
    def test_jet_cap_raises_where_the_reference_does(self, lag):
        ch = make_chart(2, ("u", "v"), max_jet_order=2)
        jets = [ch.jet("u", MultiIndex.make(*ent)) for ent in ((), (0,), (1,), (0, 1))]
        L = Form.top(ch, sp.sympify(lag, locals={"V": V, **{ch.pretty_jet(s): s for s in jets}}))
        assert ch.jets_in(L.top_coefficient()), "the Lagrangian names the chart's jets"
        try:
            want = reference_euler_operator(L)
        except JetOrderError:
            with pytest.raises(JetOrderError):
                euler_operator(L)
        else:
            assert euler_operator(L) == want
        assert dd(L) == reference_dd(L)


class TestIntegrateByParts:
    def test_wave_theta_and_source(self):
        L = Form(CH, 2, 0, {VOL_WORD: (UT**2 - UX**2) / 2})
        E, theta = integrate_by_parts(L)
        assert E == euler_operator(L)
        # the sweep reproduces the canonical choice for first-order Lagrangians
        expected = Form(CH, 1, 1, {
            (("x", 1), ("v", "u", ())): UT,
            (("x", 0), ("v", "u", ())): UX,
        })
        assert theta == expected

    def test_potential_has_no_theta(self):
        V = sp.Function("V")
        L = Form(CH, 2, 0, {VOL_WORD: V(U)})
        _, theta = integrate_by_parts(L)
        assert theta.is_zero()

    def test_two_fields_one_dim(self):
        ch = Chart(("x",), ("u", "v"), max_jet_order=6)
        ux = ch.jet("u", MultiIndex.make(0))
        vx = ch.jet("v", MultiIndex.make(0))
        L = Form(ch, 1, 0, {(("x", 0),): ux * vx})
        E, _ = integrate_by_parts(L)
        assert sp.expand(coefficient(E, "u") + ch.jet("v", MultiIndex.make(0, 0))) == 0
        assert sp.expand(coefficient(E, "v") + ch.jet("u", MultiIndex.make(0, 0))) == 0

    @given(exprs(CH, max_order=2))
    def test_residual_zero_randomized(self, e):
        # the residual identity is asserted inside integrate_by_parts
        L = Form(CH, 2, 0, {VOL_WORD: e})
        assert integrate_by_parts(L)[0] == euler_operator(L)

    def test_deterministic(self):
        L = Form(CH, 2, 0, {VOL_WORD: UT * UX + U * UTX})
        _, t1 = integrate_by_parts(L)
        _, t2 = integrate_by_parts(L)
        assert str(t1) == str(t2)


def scalar_robin_setup():
    ch = make_chart(2, ("u",), metric=[-1, 1])
    u = ch.jet("u", MultiIndex())
    V = sp.Function("V")
    du = d_h(Form.scalar(ch, u))
    L = wedge(du, hodge(du)) * sp.Rational(1, 2) + vol(ch) * V(u)
    return ch, u, V, L


class TestBoundaryEuler:
    def test_scalar_robin(self):
        ch, u, V, L = scalar_robin_setup()
        E, theta = integrate_by_parts(L)
        utt = ch.jet("u", MultiIndex.make(0, 0))
        uxx = ch.jet("u", MultiIndex.make(1, 1))
        assert sp.expand(coefficient(E, "u") - (utt - uxx + sp.Derivative(V(u), u))) == 0

        bch = ch.restricted(1)
        jtheta = restrict(theta, bch)
        f = sp.Function("f")
        ub = bch.jet("u", MultiIndex())
        ell = boundary_volume(bch) * (f(bch.xs[0]) * ub**2 / 2)
        b, theta_bar = boundary_euler_operator(ell, jtheta)
        assert theta_bar.is_zero()
        un = bch.jet("u.n1", MultiIndex())
        expected = boundary_volume(bch) * (-(un - f(bch.xs[0]) * ub))
        assert b == wedge(expected, Form.contact(bch, "u"))

    def test_dirichlet_zero_source(self):
        ch, u, V, L = scalar_robin_setup()
        _, theta = integrate_by_parts(L)
        bch = ch.restricted(1)
        jtheta = restrict(theta, bch)
        ell = Form.zero(bch, 1, 0)
        b, theta_bar = boundary_euler_operator(ell, jtheta, dirichlet={"u"})
        assert b.is_zero() and theta_bar.is_zero()

    def test_dirichlet_value_vanishes_in_other_sources(self):
        # ell = bvol u v: with u Dirichlet, u = 0 on the boundary, so v has no source
        ch = make_chart(2, ("u", "v"), metric=[-1, 1])
        bch = ch.restricted(1)
        ell = boundary_volume(bch) * (bch.jet("u", MultiIndex()) * bch.jet("v", MultiIndex()))
        b, theta_bar = boundary_euler_operator(ell, Form.zero(bch, 1, 1), dirichlet={"u"})
        assert b.is_zero()
        assert theta_bar.is_zero()

    def test_lagrange_multiplier_variant_not_decomposable(self):
        ch = make_chart(2, ("u", "lam"), metric=[-1, 1], max_jet_order=6)
        u = ch.jet("u", MultiIndex())
        lam = ch.jet("lam", MultiIndex())
        utt = ch.jet("u", MultiIndex.make(0, 0))
        uxx = ch.jet("u", MultiIndex.make(1, 1))
        box_u = -utt + uxx
        L3 = vol(ch) * (-lam * box_u)
        _, theta = integrate_by_parts(L3)
        bch = ch.restricted(1)
        jtheta = restrict(theta, bch)
        ell = Form.zero(bch, 1, 0)
        with pytest.raises(NonDecomposableError):
            boundary_euler_operator(ell, jtheta)


# -- formal-function atoms in closed form; jets made on first use ---------------------------

LAM3 = sp.Function("lam")(*CH3.xs)
T3, X3, Y3 = CH3.xs
U3 = CH3.jet("u", MultiIndex())
EDGE_ATOMS = [
    (sp.Function("lam")(T, X), Y3),  # an argument that is not s
    (V(U), T),
    (V(U), U),  # V(u) by a jet
    (sp.Derivative(V(U), U), U),  # a repeated variable
    (sp.Derivative(LAM3, Y3), T3),  # s sorts before the variables already there
    (sp.Derivative(LAM3, T3, Y3), X3),
    (sp.Derivative(LAM3, X3, X3), X3),
    (sp.Function("lam")(T3, X3, 0), X3),
    (sp.Subs(sp.Derivative(LAM3, X3), X3, 0), X3),  # by its bound variable
    (sp.Subs(sp.Derivative(LAM3, X3), X3, 0), T3),
    (sp.Subs(sp.Derivative(LAM3, X3, Y3), (X3, Y3), (0, 1)), Y3),
    (sp.Subs(sp.Derivative(LAM3, X3), X3, 0), U3),
]


@pytest.mark.parametrize("atom, s", EDGE_ATOMS, ids=lambda a: str(a))
def test_function_atom_derivative_is_sympys(atom, s):
    assert is_function_atom(atom)
    got = diff_function_atom(atom, s)
    assert got == sp.diff(atom, s) and sp.srepr(got) == sp.srepr(sp.diff(atom, s))


def test_corpus_function_atom_derivatives_are_sympys(monkeypatch):
    seen = record_calls(monkeypatch, diff_function_atom)
    for name in sorted(f.name for f in corpus_dir().iterdir() if f.name.endswith(".cps")):
        clear_cache()
        run_cps(load_model(name))
    kinds = {next(k for k in (sp.Subs, sp.Derivative, AppliedUndef) if isinstance(atom, k)) for atom, _ in seen}
    assert kinds == {sp.Derivative, AppliedUndef}  # no derive differentiates a Subs; see EDGE_ATOMS
    for atom, s in set(seen):
        assert sp.srepr(diff_function_atom(atom, s)) == sp.srepr(sp.diff(atom, s)), (atom, s)


def test_a_derive_calls_sympys_diff_on_no_function_atom(monkeypatch):
    # yang_mills_abelian_n3 declares lam : function(t, x, y), whose
    # derivatives and their Subs at the corner meet every total derivative
    atoms, diff = [], sp.diff

    def recording(e, *args, **kwargs):
        if is_function_atom(e):
            atoms.append(e)
        return diff(e, *args, **kwargs)

    monkeypatch.setattr(sp, "diff", recording)
    seen = record_calls(monkeypatch, diff_function_atom)
    clear_cache()
    run_cps(load_model("yang_mills_abelian_n3.cps"))
    assert seen and atoms == []


def test_restricted_charts_make_no_jet_symbol(monkeypatch):
    # su2_n3's corner chart has 225 fields; their jets are made when read
    chart = load_model("yang_mills_su2_n3.cps").chart
    made = []
    jet = Chart.jet
    monkeypatch.setattr(Chart, "jet", lambda self, *key: made.append(key) or jet(self, *key))
    schart = chart.restricted(0, tag="t")
    cchart = schart.restricted(schart.n - 1, tag="n")
    assert len(cchart.fields) == 225 and made == []
    a = cchart.fields[7]
    assert cchart.jet_key(cchart.jet(a, MultiIndex())) == (a, MultiIndex())


def test_jet_key_registers_an_order_zero_symbol_made_elsewhere():
    ch = make_chart(2, ("u", "v"))
    u = sp.Symbol("u", real=True)  # made outside the chart
    assert ch.jet_key(u) == ("u", MultiIndex())
    assert ch.jets_in(u * ch.xs[0]) == [(u, "u", MultiIndex())]
    assert ch.total_derivative(1, u**2) == 2 * u * ch.jet("u", MultiIndex.make(1))
    assert ch.pretty_jet(sp.Symbol("v", real=True)) == "v"
    # a symbol of another name or other assumptions is no jet of the chart
    for other in (sp.Symbol("u"), sp.Symbol("w", real=True), ch.xs[1], sp.Dummy("u", real=True)):
        assert ch.jet_key(other) is None, other


def test_kill_dirichlet_kills_a_jet_the_chart_never_made():
    ch = make_chart(2, ("u", "v"), metric=[-1, 1])
    bch = ch.restricted(1)
    v, vt, u = sp.Symbol("v", real=True), bch.jet("v", MultiIndex.make(0)), sp.Symbol("u", real=True)
    assert ("v", MultiIndex()) not in bch._jet_by_key
    for coeff in (u * v + u, u * vt * V(v) + u, u * V(v)):  # a jet inside a formal-function atom too
        killed = kill_dirichlet(boundary_volume(bch) * coeff, {"v"})
        assert killed == boundary_volume(bch) * coeff.subs({v: 0, vt: 0})
