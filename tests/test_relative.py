"""Relative pair calculus: pullback, differential, wedge, contractions, Cartan."""
import pytest
import sympy as sp
from hypothesis import given, settings, strategies as st
from sympy.core.cache import clear_cache

from cpsforge import forms as forms_module
from cpsforge.chart import MultiIndex, NonTangentError
from cpsforge.forms import Form, d_h, iota_x, restrict
from cpsforge.jetpoly import JetRing
from cpsforge.relative import (
    BoundaryPair,
    RelForm,
    rel_d,
    rel_dd,
    rel_iota,
    rel_iota_ev,
    rel_lie,
    rel_lie_ev,
    rel_wedge,
)

from strategies import evolutionary_fields, forms, make_chart

settings.register_profile("relative", max_examples=30, deadline=None)
settings.load_profile("relative")

CH = make_chart(2, ("u", "v"))
PAIR = BoundaryPair(CH)
BCH = PAIR.bchart
T, X = CH.xs
U = CH.jet("u", MultiIndex())


def rel_forms(r, s, max_order=1):
    return st.tuples(
        forms(CH, r, s, max_order=max_order),
        forms(BCH, r - 1, s, max_order=max_order) if r >= 1 else st.just(Form.zero(BCH)),
    ).map(lambda t: RelForm(PAIR, t[0], t[1]))


def rel_degrees():
    return st.tuples(st.integers(1, 2), st.integers(0, 1))


def any_rel_forms(max_order=1):
    return rel_degrees().flatmap(lambda rs: rel_forms(rs[0], rs[1], max_order))


def tangent_fields():
    coeff = st.integers(-2, 2)
    comp = st.tuples(coeff, coeff).map(lambda c: c[0] + c[1] * T)
    return st.tuples(comp, comp).map(lambda c: [c[0], c[1] * X])


class TestPullback:
    def test_normal_one_form_dies(self):
        assert PAIR.pullback(Form.dx(CH, 1)).is_zero()

    def test_tangential_term_restricts(self):
        f = Form.dx(CH, 0) * U
        assert PAIR.pullback(f) == Form.dx(BCH, 0) * BCH.jet("u", MultiIndex())

    def test_transversal_jets_relabel(self):
        ux = CH.jet("u", MultiIndex.make(1))
        f = Form.dx(CH, 0) * ux
        assert PAIR.pullback(f) == Form.dx(BCH, 0) * BCH.jet("u.n1", MultiIndex())

    @given(forms(CH, 1, 1, max_order=2))
    def test_commutes_with_dh(self, f):
        assert PAIR.pullback(d_h(f)) == d_h(PAIR.pullback(f))

    @given(tangent_fields(), forms(CH, 1, 1, max_order=1))
    def test_commutes_with_tangent_contraction(self, xi, f):
        xibar = PAIR.restrict_vector(xi)
        assert PAIR.pullback(iota_x(xi, f)) == iota_x(xibar, PAIR.pullback(f))


class TestRestrictedChart:
    @pytest.mark.parametrize("axis, tag", [(0, "t"), (1, "n"), (1, None), (0, "n")])
    def test_knows_its_hypersurface(self, axis, tag):
        ch = make_chart(2, ("u",))
        sub = ch.restricted(axis, tag)
        assert sub.parent is ch and sub.axis == axis
        assert ch.restricted(axis, tag) is sub

    def test_restrict_refuses_a_chart_cut_from_another(self):
        other = make_chart(2, ("u", "v")).restricted(1)
        with pytest.raises(ValueError, match="not a restriction of the form's chart"):
            restrict(Form.dx(CH, 0) * U, other)
        with pytest.raises(ValueError):
            restrict(Form.dx(CH, 0) * U, BCH.restricted(0))  # a restriction of a restriction
        assert restrict(Form.dx(CH, 0) * U, BCH) == PAIR.pullback(Form.dx(CH, 0) * U)


class TestRestrictEv:
    def test_families_stop_exactly_at_jet_cap(self):
        ch = make_chart(2, ("u", "v"), max_jet_order=3)
        pair = BoundaryPair(ch)
        ut = ch.jet("u", MultiIndex.make(0))
        out = pair.restrict_ev({"u": ut, "v": ch.jet("v", MultiIndex())})
        # D_x^k u_t has order k + 1: the families of u end one short of the cap
        assert sorted(a for a in out if a.startswith("u")) == ["u", "u.n1", "u.n2"]
        assert sorted(a for a in out if a.startswith("v")) == ["v", "v.n1", "v.n2", "v.n3"]
        assert out["u.n2"] == pair.bchart.jet("u.n2", MultiIndex.make(0))
        assert out["v.n3"] == pair.bchart.jet("v.n3", MultiIndex())

    def test_other_errors_propagate(self, monkeypatch):
        ch = make_chart(2, ("u",))
        pair = BoundaryPair(ch)

        def broken(self, chart, axis, p):
            raise RuntimeError("kernel bug")

        monkeypatch.setattr(JetRing, "total_derivative", broken)
        with pytest.raises(RuntimeError, match="kernel bug"):
            pair.restrict_ev({"u": ch.jet("u", MultiIndex())})


class TestRelD:
    def test_bulk_only(self):
        a = Form.dx(CH, 0) * (T * U)
        p = RelForm(PAIR, a, Form.zero(BCH))
        out = rel_d(p)
        assert out.bulk == d_h(a)
        assert out.boundary == PAIR.pullback(a)

    def test_boundary_only(self):
        b = Form.scalar(BCH, BCH.jet("u", MultiIndex()))
        p = RelForm(PAIR, Form.zero(CH, 1, 0), b)
        out = rel_d(p)
        assert out.bulk.is_zero()
        assert out.boundary == -d_h(b)

    @given(any_rel_forms(max_order=2))
    def test_squares_to_zero(self, p):
        assert rel_d(rel_d(p)).is_zero()

    @given(any_rel_forms(max_order=1))
    def test_rel_dd_squares_to_zero(self, p):
        assert rel_dd(rel_dd(p)).is_zero()

    def test_degree_bookkeeping_enforced(self):
        with pytest.raises(ValueError):
            RelForm(PAIR, Form.dx(CH, 0), Form.dx(BCH, 0))


class TestRelWedge:
    def test_bulk_pair(self):
        p = RelForm(PAIR, Form.dx(CH, 0), Form.zero(BCH))
        q = RelForm(PAIR, Form.dx(CH, 1), Form.zero(BCH))
        out = rel_wedge(p, q)
        from cpsforge.forms import wedge

        assert out.bulk == wedge(Form.dx(CH, 0), Form.dx(CH, 1))
        assert out.boundary.is_zero()

    def test_half_factor_with_sign(self):
        # (dx^0, 0) rel-wedge (0, 1) -> (0, -1/2 dt-bar)
        p = RelForm(PAIR, Form.dx(CH, 0), Form.zero(BCH))
        q = RelForm(PAIR, Form.zero(CH, 1, 0), Form.scalar(BCH, 1))
        out = rel_wedge(p, q)
        assert out.bulk.is_zero()
        assert out.boundary == Form.dx(BCH, 0) * sp.Rational(-1, 2)

    @given(rel_forms(1, 0), rel_forms(1, 1))
    def test_relative_leibniz(self, p, q):
        lhs = rel_d(rel_wedge(p, q))
        sign = (-1) ** 1  # bulk horizontal degree of p
        rhs = rel_wedge(rel_d(p), q) + rel_wedge(p, rel_d(q)) * sign
        assert lhs == rhs

    @given(rel_forms(1, 0), rel_forms(2, 1))
    def test_graded_commutativity(self, p, q):
        sign = (-1) ** (1 * 2 + 0 * 1)
        assert rel_wedge(p, q) == rel_wedge(q, p) * sign

    def test_not_associative_documented(self):
        # the 1/2-weights break associativity: ((u,0)^(1,0))^(0,1) has boundary u/2,
        # while (u,0)^((1,0)^(0,1)) has boundary u/4
        p = RelForm(PAIR, Form.scalar(CH, U), Form.zero(BCH))
        q = RelForm(PAIR, Form.scalar(CH, 1), Form.zero(BCH))
        r = RelForm(PAIR, Form.zero(CH), Form.scalar(BCH, 1))
        left = rel_wedge(rel_wedge(p, q), r)
        right = rel_wedge(p, rel_wedge(q, r))
        ub = BCH.jet("u", MultiIndex())
        assert left.boundary == Form.scalar(BCH, ub / 2)
        assert right.boundary == Form.scalar(BCH, ub / 4)
        assert left != right


class TestRelIntegralSurface:
    def test_module_level_entry_point(self):
        import numpy as np
        from cpsforge.chart import Chart
        from cpsforge.numeric import Grid, relative_integral

        ch = Chart(("x",), ("u",), max_jet_order=4)
        pair = BoundaryPair(ch)
        grid = Grid.make(ch, [(0, 1)], (101,))
        p = RelForm(pair, Form.dx(ch, 0) * ch.xs[0], Form.zero(pair.bchart))
        val = relative_integral(p, grid, {"u": np.zeros(grid.shape)})
        assert abs(val - 0.5) < 1e-4


class TestRelContraction:
    def test_bulk_slot(self):
        p = RelForm(PAIR, Form.dx(CH, 0), Form.zero(BCH))
        out = rel_iota([1, 0], p)
        assert out.bulk == Form.scalar(CH, 1)
        assert out.boundary.is_zero()

    def test_boundary_minus_sign(self):
        p = RelForm(PAIR, Form.zero(CH, 1, 0), Form.scalar(BCH, 1))
        out = rel_iota([1, 0], p)
        assert out.bulk.is_zero()
        # iota of a boundary 0-form is zero; use a boundary 1-form instead
        p = RelForm(PAIR, Form.zero(CH, 2, 0), Form.dx(BCH, 0))
        out = rel_iota([1, 0], p)
        assert out.boundary == Form.scalar(BCH, -1)

    def test_non_tangent_rejected(self):
        p = RelForm(PAIR, Form.dx(CH, 1), Form.zero(BCH))
        with pytest.raises(NonTangentError):
            rel_iota([0, 1], p)

    @given(tangent_fields(), any_rel_forms(max_order=1))
    def test_relative_cartan(self, xi, p):
        lhs = rel_lie(xi, p)
        rhs = rel_iota(xi, rel_d(p)) + rel_d(rel_iota(xi, p))
        assert lhs == rhs

    @given(tangent_fields(), any_rel_forms(max_order=1))
    def test_lie_commutes_with_rel_d(self, xi, p):
        assert rel_lie(xi, rel_d(p)) == rel_d(rel_lie(xi, p))


class TestRelEvolutionary:
    @given(evolutionary_fields(CH, max_order=1), any_rel_forms(max_order=1))
    def test_relative_evolutionary_cartan(self, W, p):
        lhs = rel_lie_ev(W, p)
        rhs = rel_iota_ev(W, rel_dd(p)) + rel_dd(rel_iota_ev(W, p))
        assert lhs == rhs

    def test_boundary_contraction_uses_the_restricted_field(self):
        ub, un = BCH.jet("u", MultiIndex()), BCH.jet("u.n1", MultiIndex())
        p = RelForm(PAIR, Form.zero(CH, 1, 1), Form.contact(BCH, "u") + Form.contact(BCH, "u.n1"))
        out = rel_iota_ev({"u": U * CH.jet("u", MultiIndex.make(1))}, p)
        assert out.bulk.is_zero()
        assert out.boundary == Form.scalar(BCH, ub * un + un**2 + ub * BCH.jet("u.n2", MultiIndex()))

    def test_zero_boundary_form_leaves_the_field_unrestricted(self, monkeypatch):
        monkeypatch.setattr(BoundaryPair, "restrict_ev", lambda self, W: pytest.fail("W was restricted"))
        p = RelForm(PAIR, Form.contact(CH, "u"), Form.zero(BCH, 0, 1))
        assert rel_iota_ev({"u": U}, p).bulk == Form.scalar(CH, U)
        assert rel_lie_ev({"u": U}, p).boundary.is_zero()


class TestVectorMemo:
    def test_xi_is_converted_once_per_chart(self, monkeypatch):
        xi = [1 + T, 2 * X]
        xibar = PAIR.restrict_vector(xi)
        p = RelForm(PAIR, Form(CH, 1, 0, {(("x", 0),): U * X}), Form.scalar(BCH, T))
        choose = forms_module.choose_ring
        converted = []

        def counted(ring, coeffs):
            coeffs = list(coeffs)
            converted.append(coeffs)
            return choose(ring, coeffs)

        clear_cache()
        monkeypatch.setattr(forms_module, "choose_ring", counted)
        rel_lie(xi, p)
        rel_iota(xi, p)
        rel_iota(xi, rel_d(p))
        assert (converted.count(xi), converted.count(xibar)) == (1, 1)

    def test_restrict_vector_returns_a_fresh_list(self):
        clear_cache()
        xi = [T, X * T]
        first = PAIR.restrict_vector(xi)
        first.append(0)
        assert PAIR.restrict_vector(xi) == [T]
        assert PAIR.restrict_vector(tuple(xi)) is not PAIR.restrict_vector(xi)
