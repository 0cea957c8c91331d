"""Form algebra: canonicalization, wedge signs, differentials, contractions."""
import importlib
import itertools
import pkgutil

import pytest
import sympy as sp
from hypothesis import given, settings
from hypothesis import strategies as st
from sympy.core.cache import CACHE, clear_cache

import cpsforge
from cpsforge import forms as forms_module
from cpsforge.chart import Chart, JetOrderError, MultiIndex, levi_civita
from cpsforge.cli import corpus_dir, load_model
from cpsforge.forms import (
    Form,
    _sort_word,
    d_h,
    d_v_anti,
    dd,
    hodge,
    iota_ev,
    iota_ev_anti,
    iota_x,
    lie_ev,
    lie_x,
    section_pullback,
    vol,
    wedge,
)

from cpsforge.jetcalc import kill_dirichlet
from cpsforge.jetpoly import EXPR, JetRing
from cpsforge.relative import BoundaryPair, RelForm, rel_lie, rel_lie_ev
from cpsforge.report import run_cps

from strategies import (
    any_forms,
    atom_pool,
    evolutionary_fields,
    forms,
    make_chart,
    normalized,
    record_calls,
    words,
    x_vector_fields,
)

CH = make_chart(2, ("u", "v"))
T, X = CH.xs
U = CH.jet("u", MultiIndex())
UT = CH.jet("u", MultiIndex.make(0))
UX = CH.jet("u", MultiIndex.make(1))
settings.register_profile("forms", max_examples=60, deadline=None)
settings.load_profile("forms")


def dx(i):
    return Form.dx(CH, i)


def th(field, *axes):
    return Form.contact(CH, field, MultiIndex.make(*axes))


class TestNormalize:
    def test_antisymmetry_reorder(self):
        f = Form(CH, 2, 0, [((("x", 1), ("x", 0)), 1)])
        assert f == wedge(dx(0), dx(1)) * -1

    def test_repeated_factor_is_zero(self):
        f = Form(CH, 2, 0, [((("x", 0), ("x", 0)), 1)])
        assert f.is_zero()

    def test_mixed_word_collects_with_plus(self):
        # the (1,1) word: both orderings carry the same canonical sign
        a = wedge(th("u"), dx(0)) + wedge(dx(0), th("u"))
        assert a == wedge(dx(0), th("u")) * 2

    @given(any_forms(CH))
    def test_idempotent(self, f):
        # construction canonicalizes, so rebuilding from canonical terms is a no-op
        again = Form(f.chart, *f._tag, f.terms)
        assert again == f
        assert again.terms == f.terms


class TestTopForms:
    def test_top_round_trip(self):
        f = Form.top(CH, U * UX)
        assert f == vol(CH) * (U * UX)
        assert f.top_coefficient() == U * UX
        assert Form.zero(CH, 2, 0).top_coefficient() == 0

    def test_top_coefficient_rejects_other_terms(self):
        f = Form(CH, 1, 1, {(("x", 0), ("v", "u", ())): UT})
        with pytest.raises(ValueError):
            f.top_coefficient()


class TestWedge:
    def test_one_form_antisymmetry(self):
        assert wedge(dx(0), dx(1)) == wedge(dx(1), dx(0)) * -1

    def test_contact_square_zero_distinct_labels_not(self):
        assert wedge(th("u"), th("u")).is_zero()
        assert not wedge(th("u"), th("v")).is_zero()

    @given(forms(CH, 1, 0), forms(CH, 0, 1), forms(CH, 1, 1))
    def test_associative(self, f, g, h):
        assert wedge(wedge(f, g), h) == wedge(f, wedge(g, h))

    @given(any_forms(CH), any_forms(CH))
    def test_double_graded_commutativity(self, f, g):
        if f.is_zero() or g.is_zero():
            return
        rf, sf = f.bidegree
        rg, sg = g.bidegree
        sign = (-1) ** (rf * rg + sf * sg)
        assert wedge(f, g) == wedge(g, f) * sign

    def test_horizontal_overflow_is_zero(self):
        assert wedge(wedge(dx(0), dx(1)), dx(0)).is_zero()


class TestDifferentials:
    def test_dh_of_field(self):
        assert d_h(Form.scalar(CH, U)) == dx(0) * UT + dx(1) * UX

    def test_dh_of_coordinate(self):
        assert d_h(Form.scalar(CH, T)) == dx(0)

    def test_dh_squared_example(self):
        assert d_h(d_h(Form.scalar(CH, U * X**2))).is_zero()

    def test_dv_chain_rule(self):
        assert dd(Form.scalar(CH, U**2)) == th("u") * (2 * U)

    def test_dv_kills_coordinates(self):
        assert dd(Form.scalar(CH, T)).is_zero()

    def test_dv_of_jet(self):
        assert dd(Form.scalar(CH, UT)) == th("u", 0)

    def test_dv_formal_function(self):
        V = sp.Function("V")
        out = dd(Form.scalar(CH, V(U)))
        assert out == th("u") * sp.Derivative(V(U), U)

    @given(any_forms(CH))
    def test_dh_squared(self, f):
        assert d_h(d_h(f)).is_zero()

    @given(any_forms(CH))
    def test_dd_squared(self, f):
        assert dd(dd(f)).is_zero()

    @given(any_forms(CH))
    def test_dh_dd_commute(self, f):
        assert d_h(dd(f)) == dd(d_h(f))

    @given(any_forms(CH))
    def test_dh_dv_anti_anticommute(self, f):
        assert d_h(d_v_anti(f)) + d_v_anti(d_h(f)) == Form.zero(CH)

    def test_jet_cap(self):
        tight = Chart(("t", "x"), ("u",), max_jet_order=1)
        f = Form.contact(tight, "u", MultiIndex.make(0))
        with pytest.raises(JetOrderError):
            d_h(f)

    def test_jet_cap_only_where_a_kept_term_needs_the_jet(self):
        # at cap 2, u_xx is differentiated and th{u_xx} bumped only along an
        # axis whose dx the word lacks: a top form lacks none, dx lacks dt
        ch = Chart(("t", "x"), ("u",), max_jet_order=2)
        uxx = MultiIndex.make(1, 1)
        assert d_h(vol(ch) * ch.jet("u", uxx)).is_zero()
        assert d_h(wedge(vol(ch), Form.contact(ch, "u", uxx))).is_zero()
        with pytest.raises(JetOrderError):
            d_h(Form.dx(ch, 1) * ch.jet("u", uxx))

    @given(any_forms(CH))
    def test_dh_is_the_every_axis_definition(self, f):
        assert d_h(f) == every_axis_d_h(f)

    def test_dh_differentiates_along_free_axes_only(self, monkeypatch):
        # a (2, 0) form on three axes: one total derivative per coefficient
        ch = make_chart(3, ("u", "v"))
        t, u, v = ch.xs[0], ch.jet("u", MultiIndex()), ch.jet("v", MultiIndex.make(2))
        f = Form(ch, 2, 0, {(("x", 0), ("x", 1)): u * v, (("x", 0), ("x", 2)): t * u, (("x", 1), ("x", 2)): v})
        axes = []
        total_derivative = JetRing.total_derivative
        monkeypatch.setattr(JetRing, "total_derivative",
                            lambda ring, chart, axis, p: axes.append(axis) or total_derivative(ring, chart, axis, p))
        got = d_h(f)
        assert sorted(axes) == [0, 1, 2]
        assert not got.is_zero() and got == every_axis_d_h(f)


def every_axis_d_h(f: Form) -> Form:
    """d_h by its definition on sympy expressions: every coefficient
    differentiated, and every contact factor bumped, along every axis; the
    words that repeat a dx vanish in the construction."""
    chart, terms = f.chart, []
    for word, coeff in f.iter_terms():
        terms += [((("x", i),) + word, chart.total_derivative(i, coeff)) for i in range(chart.n)]
        sign = (-1) ** sum(1 for fac in word if fac[0] == "x")
        for pos, fac in enumerate(word):
            if fac[0] == "v":
                mi = MultiIndex(fac[2])
                terms += [(word[:pos] + (("x", i), ("v", fac[1], mi.union(i).entries)) + word[pos + 1:], sign * coeff)
                          for i in range(chart.n)]
    return Form(chart, f._tag[0] + 1, f._tag[1], terms)


class TestIotaHorizontal:
    def test_contract_first_slot(self):
        assert iota_x([1, 0], wedge(dx(0), dx(1))) == dx(1)

    def test_contract_contact_via_dx_expansion(self):
        assert iota_x([0, 1], th("u")) == Form.scalar(CH, -UX)

    @given(x_vector_fields(CH), forms(CH, 2, 0, max_order=1))
    def test_square_zero_on_horizontal(self, xi, f):
        assert iota_x(xi, iota_x(xi, f)).is_zero()

    def test_component_count(self):
        with pytest.raises(ValueError):
            iota_x([1], dx(0))

    def test_jet_dependent_rejected(self):
        with pytest.raises(ValueError):
            iota_x([U, 0], dx(0))


class TestIotaVertical:
    def test_constant_field(self):
        W = {"u": sp.Integer(1), "v": sp.Integer(0)}
        assert iota_ev(W, th("u")) == Form.scalar(CH, 1)
        assert iota_ev(W, th("u", 0)).is_zero()

    def test_prolongation(self):
        W = {"u": U, "v": sp.Integer(0)}
        assert iota_ev(W, th("u", 0)) == Form.scalar(CH, UT)

    @given(evolutionary_fields(CH), any_forms(CH, max_s=2), any_forms(CH, max_s=1))
    def test_leibniz_vertical_sign(self, W, a, b):
        if a.is_zero() or b.is_zero():
            return
        _, sa = a.bidegree
        lhs = iota_ev(W, wedge(a, b))
        rhs = wedge(iota_ev(W, a), b) + wedge(a, iota_ev(W, b)) * ((-1) ** sa)
        assert lhs == rhs

    @given(evolutionary_fields(CH), any_forms(CH))
    def test_anti_variant_anticommutes_with_dh(self, W, f):
        lhs = iota_ev_anti(W, d_h(f)) + d_h(iota_ev_anti(W, f))
        assert lhs == Form.zero(CH)

    @given(evolutionary_fields(CH), any_forms(CH))
    def test_commuting_variant_commutes_with_dh(self, W, f):
        assert iota_ev(W, d_h(f)) == d_h(iota_ev(W, f))


class TestLie:
    def test_lie_ev_scalar(self):
        W = {"u": U, "v": sp.Integer(0)}
        assert lie_ev(W, dx(0) * U) == dx(0) * U

    def test_lie_ev_no_field_dependence(self):
        W = {"u": U**2, "v": sp.Integer(0)}
        assert lie_ev(W, dx(1) * T).is_zero()

    @given(evolutionary_fields(CH), any_forms(CH))
    def test_lie_ev_commutes_with_dh(self, W, f):
        assert lie_ev(W, d_h(f)) == d_h(lie_ev(W, f))

    @given(evolutionary_fields(CH), any_forms(CH))
    def test_lie_ev_commutes_with_dd(self, W, f):
        assert lie_ev(W, dd(f)) == dd(lie_ev(W, f))

    def test_lie_x_coordinate_example(self):
        assert lie_x([1, 0], dx(0) * T) == dx(0)

    def test_lie_x_divergence_of_volume(self):
        xi = [T, X]
        w = wedge(dx(0), dx(1))
        assert lie_x(xi, w) == w * 2

    @given(x_vector_fields(CH), any_forms(CH))
    def test_lie_x_commutes_with_dh(self, xi, f):
        assert lie_x(xi, d_h(f)) == d_h(lie_x(xi, f))


class TestSections:
    @given(forms(CH, 1, 1, max_order=1))
    def test_contact_forms_vanish_on_sections(self, f):
        phi = {"u": T**2 * X + X**3, "v": T * X}
        pulled = section_pullback(f, phi)
        assert pulled.is_zero()

    @given(evolutionary_fields(CH, max_order=1))
    def test_lie_ev_preserves_contact_ideal(self, W):
        phi = {"u": T**3 - X * T, "v": X**2}
        out = lie_ev(W, th("u", 0))
        pulled = section_pullback(out, phi)
        assert pulled.is_zero()


class TestHodge:
    def test_hodge_basis(self):
        chm = make_chart(2, ("u",), metric=[-1, 1])
        f1 = hodge(Form.dx(chm, 0))
        assert f1 == Form.dx(chm, 1) * -1
        f2 = hodge(Form.dx(chm, 1))
        assert f2 == Form.dx(chm, 0) * -1
        assert hodge(Form.scalar(chm, 1)) == vol(chm)

    def test_rejects_vertical(self):
        chm = make_chart(2, ("u",), metric=[-1, 1])
        with pytest.raises(ValueError):
            hodge(Form.contact(chm, "u"))

    @pytest.mark.parametrize("metric,on_ring", [((-1, 2, sp.Rational(1, 3)), False), ((-4, 1, sp.Rational(1, 9)), True)])
    def test_metric_constants_match_the_sympy_path(self, metric, on_ring):
        # sqrt|det g| = sqrt(2/3) is not a polynomial of the ring, 2/3 is
        ch = make_chart(3, ("u", "v"), metric=list(metric))

        @given(st.integers(0, 3).flatmap(lambda r: forms(ch, r, 0, max_terms=3)))
        def check(f):
            got = hodge(f)
            assert _identical(got, sympy_hodge(f))
            assert (got.ring is ch.ring) is (on_ring or got.is_zero())

        check()

    def test_corpus_forms_match_the_sympy_path(self, monkeypatch):
        # every horizontal form that parsing and deriving a corpus model builds
        # on a chart with a metric, the inputs of the models' hodge among them
        built, init = [], Form.__init__
        monkeypatch.setattr(Form, "__init__", lambda self, *a, **kw: init(self, *a, **kw) or built.append(self))
        inputs = record_calls(monkeypatch, hodge)
        for name in sorted(f.name for f in corpus_dir().iterdir() if f.name.endswith(".cps")):
            run_cps(load_model(name))
        monkeypatch.undo()
        horizontal = [f for f in built if f.chart.metric is not None and all(
            fac[0] == "x" for w in f.terms for fac in w)]
        assert len(inputs) == 16 and len(horizontal) > 1000
        for f in horizontal:
            assert _identical(hodge(f), sympy_hodge(f)), f


def sympy_hodge(f: Form) -> Form:
    """The Hodge star built from sympy expressions, word by word: the
    constant, sign times sqrt|det g| over the word's metric entries, times
    the coefficient, converted by the construction."""
    chart, g = f.chart, f.chart.require_metric()
    root = sp.sqrt(sp.Abs(chart.metric_det()))
    terms, r = [], f._tag[0]
    for word, coeff in f.iter_terms():
        idx = [fac[1] for fac in word]
        comp = [i for i in range(chart.n) if i not in idx]
        scale = sp.Mul(*[sp.Integer(1) / g[i] for i in idx])
        terms.append((tuple(("x", i) for i in comp), levi_civita(*(idx + comp)) * scale * root * coeff))
        r = len(word)
    return Form(chart, chart.n - r, 0, terms)


def _identical(got: Form, want: Form) -> bool:
    """Same ring, bidegree and coefficients (on EXPR, the same expressions)."""
    return got.ring is want.ring and got._tag == want._tag and got.terms == want.terms


# -- forms whose coefficients leave the jet-polynomial kernel ----------------------------

KER = make_chart(2, ("u", "v"))
REF = make_chart(2, ("u", "v"))
REF.ring = EXPR  # every form on REF takes the sympy path: the reference


def _mixed(ch):
    """A (1,1) form with the non-polynomial coefficient 1/(1+u)."""
    u, ut = ch.jet("u", MultiIndex()), ch.jet("u", MultiIndex.make(0))
    return Form(ch, 1, 1, {
        (("x", 0), ("v", "v", ())): 1 / (1 + u) + ut,
        (("x", 1), ("v", "u", (0,))): u * ut,
    })


def _kernel(ch):
    """A (1,1) form with polynomial coefficients."""
    u, vx = ch.jet("u", MultiIndex()), ch.jet("v", MultiIndex.make(1))
    return Form(ch, 1, 1, {(("x", 0), ("v", "u", ())): u**2, (("x", 1), ("v", "v", (1,))): vx - 2})


def _same(got: Form, want: Form) -> bool:
    g, w = dict(got.iter_terms()), dict(want.iter_terms())
    return g.keys() == w.keys() and all(sp.expand(g[k] - w[k]) == 0 for k in g)


MIXED_OPERATIONS = {
    "sum": lambda ch: _mixed(ch) + _kernel(ch),
    "wedge": lambda ch: wedge(_mixed(ch), Form.dx(ch, 1) * ch.jet("v", MultiIndex())),
    "d_h": lambda ch: d_h(_mixed(ch)),
    "dd": lambda ch: dd(_mixed(ch)),
    "iota_x": lambda ch: iota_x([1, ch.xs[0]], _mixed(ch)),
    "iota_ev": lambda ch: iota_ev({"u": ch.xs[1], "v": ch.jet("u", MultiIndex.make(1)) ** 2}, _mixed(ch)),
    "iota_ev_along_quotient": lambda ch: iota_ev({"u": 1 / (1 + ch.jet("u", MultiIndex()))}, _kernel(ch)),
}


class TestMixedRings:
    def test_non_representable_coefficient_puts_form_on_expr(self):
        assert _mixed(KER).ring is EXPR
        assert isinstance(KER.ring, JetRing) and _kernel(KER).ring is KER.ring

    @pytest.mark.parametrize("name", MIXED_OPERATIONS)
    def test_operation_matches_sympy_reference(self, name):
        op = MIXED_OPERATIONS[name]
        got, want = op(KER), op(REF)
        assert got.ring is EXPR and want.ring is EXPR
        assert not got.is_zero() and _same(got, want)

    def test_cancelling_sum_returns_to_the_chart_ring(self):
        u, ut = KER.jet("u", MultiIndex()), KER.jet("u", MultiIndex.make(0))
        f = _mixed(KER) + Form(KER, 1, 1, {(("x", 0), ("v", "v", ())): -1 / (1 + u)})
        assert f.ring is KER.ring
        assert f == Form(KER, 1, 1, {(("x", 0), ("v", "v", ())): ut, (("x", 1), ("v", "u", (0,))): u * ut})

    def test_kill_dirichlet_substitutes_in_expr_coefficients(self):
        u, v, vx = (KER.jet(a, MultiIndex.make(*e)) for a, e in (("u", ()), ("v", ()), ("v", (1,))))
        f = Form(KER, 1, 1, {
            (("x", 0), ("v", "u", ())): v / (1 + u) + vx * u + u,
            (("x", 1), ("v", "v", ())): u,
        })
        assert f.ring is EXPR
        killed = kill_dirichlet(f, {"v"})
        assert killed.ring is KER.ring
        assert killed == Form(KER, 1, 1, {(("x", 0), ("v", "u", ())): u})


# -- contractions on the ring; prolongations and sorted words in sympy's cache -----------

# components the ring cannot represent, which put a contraction on EXPR
NOT_ON_THE_RING = (1 / (1 + T), sp.sqrt(2))


def with_quotients(components):
    """Each of the two components kept or replaced by one of NOT_ON_THE_RING."""
    pick = st.sampled_from((None,) * 4 + NOT_ON_THE_RING)
    return st.tuples(components, st.tuples(pick, pick)).map(
        lambda p: [c if new is None else new for c, new in zip(*p)])


XI_FIELDS = with_quotients(x_vector_fields(CH))
EV_FIELDS = with_quotients(evolutionary_fields(CH).map(lambda w: list(w.values()))).map(
    lambda c: dict(zip(CH.fields, c)))
CONTRACTIONS = {
    "iota_x": (iota_x, XI_FIELDS), "lie_x": (lie_x, XI_FIELDS),
    "iota_ev": (iota_ev, EV_FIELDS), "lie_ev": (lie_ev, EV_FIELDS),
}


def _cold(op, vector, f):
    """op(vector, f) from an empty sympy cache, with the calls it made to
    Chart.total_derivative and to the word sort key."""
    clear_cache()
    calls = []
    total_derivative, sort_key = Chart.total_derivative, forms_module._factor_sort_key
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(Chart, "total_derivative", lambda *a: calls.append("D") or total_derivative(*a))
        mp.setattr(forms_module, "_factor_sort_key", lambda fac: calls.append("key") or sort_key(fac))
        return op(vector, f), calls


def _on_expr_ring(op, vector, f):
    """op(vector, f) with f rebuilt on a new chart whose ring is EXPR."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(Chart, "ring", EXPR)
        ref = make_chart(2, ("u", "v"))
        atom_pool(ref)  # the jets the strategies draw from
        return op(vector, Form(ref, *f._tag, f.iter_terms()))


@pytest.mark.parametrize("name", sorted(CONTRACTIONS))
@settings(derandomize=True, max_examples=30, deadline=None)
@given(data=st.data())
def test_contractions_match_the_expr_ring_from_a_cold_cache(name, data):
    op, vectors = CONTRACTIONS[name]
    vector, f = data.draw(vectors), data.draw(any_forms(CH).filter(lambda f: not f.is_zero()))
    got, calls = _cold(op, vector, f)
    again, calls_again = _cold(op, vector, f)
    assert calls_again == calls  # a cleared cache leaves no memo warm
    assert _same(got, _on_expr_ring(op, vector, f)) and _same(again, got)


def test_each_prolongation_once_per_cache_epoch(monkeypatch):
    calls = []
    total_derivative = Chart.total_derivative
    monkeypatch.setattr(Chart, "total_derivative", lambda *a: calls.append(a[1:]) or total_derivative(*a))
    field = {"u": U * UX, "v": T * U}
    f = Form(CH, 1, 1, {(("x", 0), ("v", "u", (1,))): UT, (("x", 1), ("v", "v", (0, 0))): 1})
    clear_cache()
    first = lie_ev(field, f)
    # D_x W^u, D_t W^u (dd of the coefficient u_t gives th{u_t}), D_t W^v
    # and D_tt W^v = D_t(D_t W^v)
    assert not first.is_zero() and len(calls) == 4
    assert _sort_word.cache_info().currsize > 0
    assert lie_ev(field, f) == first and len(calls) == 4
    clear_cache()  # as at the start of a process or a benchmark unit
    assert _sort_word.cache_info().currsize == 0
    assert lie_ev(field, f) == first and len(calls) == 8


# -- memos in sympy's cache; forms compared and built without a sympy round trip ------


def _memos() -> dict:
    """Every object with ``cache_clear`` that a cpsforge module, or a class in
    one, binds, by name."""
    out = {}
    for info in pkgutil.iter_modules(cpsforge.__path__):
        module = importlib.import_module(f"cpsforge.{info.name}")
        for obj in vars(module).values():
            for o in (obj, *(vars(obj).values() if isinstance(obj, type) else ())):
                if hasattr(o, "cache_clear"):
                    out[o.__qualname__] = o
    return out


# the memos a relative Lie derivative and a relative evolutionary one fill
KERNEL_MEMOS = ("_sort_word", "_check_xi", "_contact_value", "_prolonged", "_bumped",
                "BoundaryPair._restricted_vector", "Chart.total_derivative_multi", "_chain_candidates")


def test_every_memo_is_emptied_by_clear_cache():
    memos = _memos()
    assert [name for name, m in memos.items() if m not in CACHE] == []
    pair = BoundaryPair(CH)
    p = RelForm(pair, Form(CH, 1, 1, {(("x", 0), ("v", "u", (1,))): U * UT}),
                Form(pair.bchart, 0, 1, {(("v", "u", ()),): T}))
    clear_cache()
    assert not rel_lie([1 + T, X], p).is_zero()
    assert not rel_lie_ev({"u": U * UX}, p).is_zero()
    assert [name for name in KERNEL_MEMOS if not memos[name].cache_info().currsize] == []
    clear_cache()  # the worker's cold-cache rule: nothing survives the clear
    assert sum(m.cache_info().currsize for m in CACHE) == 0


def test_distinct_words_are_sorted_once_per_epoch():
    pool = [("v", a, (0,) * i + (1,) * j) for a in ("u", "v") for i in range(5) for j in range(4)]
    raw = list(itertools.islice(itertools.permutations(pool, 2), 1500))
    clear_cache()
    first = [_sort_word(w) for w in raw]
    misses = _sort_word.cache_info().misses
    assert misses == 1500
    assert [_sort_word(w) for w in raw] == first
    assert _sort_word.cache_info().misses == misses


def _fraction_and_expr_forms(draw):
    """A form from ``any_forms``, scaled by a rational, sometimes with a
    1/(1+t) term that puts it on EXPR."""
    f = draw(any_forms(CH)) * draw(st.sampled_from((1, sp.Rational(1, 2), sp.Rational(-2, 3))))
    if draw(st.booleans()):
        f = f + Form(CH, *f._tag, {draw(words(CH, *f._tag, max_order=1)): 1 / (1 + T)})
    return f


@st.composite
def form_pairs(draw):
    f = _fraction_and_expr_forms(draw)
    how = draw(st.sampled_from(("other", "same", "rebuilt")))
    if how == "other":
        return f, _fraction_and_expr_forms(draw)
    if how == "same":
        return f, Form(CH, *f._tag, f.terms)
    return f, Form(CH, *f._tag, f.iter_terms())


@settings(derandomize=True, max_examples=80, deadline=None)
@given(form_pairs())
def test_equality_and_difference_agree_with_the_sum_of_the_negative(pair):
    f, g = pair
    through_sum = f + -g
    assert (f == g) is through_sum.is_zero()
    diff = f - g
    assert diff.ring is through_sum.ring and diff.terms == through_sum.terms
    for h in (f, g):
        from_sympy, from_ring = Form(CH, *h._tag, h.iter_terms()), Form(CH, *h._tag, h.terms)
        assert from_ring.ring is from_sympy.ring is h.ring
        assert from_ring.terms == from_sympy.terms == h.terms
        assert all(normalized(c) for c in from_ring.terms.values() if isinstance(c, dict))


def test_equal_forms_on_either_ring():
    half = Form(CH, 1, 0, {(("x", 0),): U / 2})
    assert half.ring is CH.ring
    assert half == Form(CH, 1, 0, {(("x", 1),): 0, (("x", 0),): U * sp.Rational(1, 2)})
    assert half != half * 2 and (half * 2).terms == {(("x", 0),): CH.ring.poly(U)}
    quotient = Form(CH, 1, 0, {(("x", 0),): U / (1 + U) + 1 / (1 + U)})  # 1, which expand does not see
    assert quotient.ring is EXPR
    assert quotient == Form.dx(CH, 0) and Form.dx(CH, 0) == quotient
