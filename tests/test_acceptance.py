"""Acceptance suite: one test per criterion, tolerances pinned, PASS lines printed.

Symbolic criteria demand exact equality after normalization against values
expanded by independent routes (componentwise Euler formula, raw
structure-constant loops, hand-expanded coordinate forms); numeric criteria
pin the stated tolerances.  Each test prints one line on success.
"""
import pathlib
import random
import time

import sympy as sp

from cpsforge import checks
from cpsforge.chart import Chart, MultiIndex, levi_civita
from cpsforge.forms import (
    Form,
    boundary_volume,
    d_h,
    d_v_anti,
    dd,
    iota_ev_anti,
    lie_ev,
    wedge,
)
from cpsforge.jetcalc import euler_operator
from cpsforge.model import parse_model
from cpsforge.pipeline import (
    LagrangianPair,
    decompose,
    gauge_residual,
    lift_vector_field,
)
from cpsforge.relative import BoundaryPair, RelForm, rel_d, rel_iota, rel_lie, rel_wedge
from cpsforge.report import run_cps

from test_jetcalc import coefficient, reference_total_derivative

CORPUS = pathlib.Path(__file__).resolve().parents[1] / "src" / "cpsforge" / "corpus"


def load(name):
    return parse_model((CORPUS / name).read_text())


def passed(n, msg):
    print(f"\nACCEPTANCE {n}: PASS - {msg}")


# -- random generators (seeded, independent of hypothesis) --------------------------------


class Rand:
    def __init__(self, chart: Chart, seed: int, max_order=2):
        self.chart = chart
        self.rng = random.Random(seed)
        self.atoms = list(chart.xs)
        for a in chart.fields:
            self.atoms.append(chart.jet(a, MultiIndex()))
            for i in range(chart.n):
                self.atoms.append(chart.jet(a, MultiIndex.make(i)))
            if max_order >= 2:
                self.atoms.append(chart.jet(a, MultiIndex.make(0, chart.n - 1)))

    def expr(self):
        out = sp.Integer(0)
        for _ in range(self.rng.randint(0, 2)):
            m = sp.Integer(self.rng.choice([-3, -2, -1, 1, 2, 3]))
            for _ in range(self.rng.randint(0, 2)):
                m *= self.rng.choice(self.atoms)
            out += m
        return out

    def word(self, r, s):
        hs = self.rng.sample(range(self.chart.n), r)
        mi_pool = [MultiIndex()] + [MultiIndex.make(i) for i in range(self.chart.n)]
        vs = set()
        while len(vs) < s:
            vs.add((self.rng.choice(self.chart.fields), self.rng.choice(mi_pool)))
        word = tuple(("x", i) for i in sorted(hs))
        word += tuple(
            ("v", a, mi.entries) for a, mi in sorted(vs, key=lambda p: (p[0], p[1].entries))
        )
        return word

    def form(self, r, s, terms=2):
        acc = {}
        for _ in range(self.rng.randint(1, terms)):
            acc[self.word(r, s)] = self.expr()
        return Form(self.chart, r, s, acc)

    def any_form(self, max_r=None, max_s=2):
        r = self.rng.randint(0, self.chart.n if max_r is None else max_r)
        s = self.rng.randint(0, max_s)
        return self.form(r, s)

    def ev_field(self, max_order=1):
        comps = {}
        for a in self.chart.fields:
            comps[a] = self.expr()
        return comps

    def x_field(self):
        out = []
        for i in range(self.chart.n):
            c = sp.Integer(self.rng.randint(-2, 2))
            c += self.rng.randint(-2, 2) * self.chart.xs[self.rng.randrange(self.chart.n)]
            out.append(c)
        return out


# -- criterion 1 ---------------------------------------------------------------------------


def test_01_scalar_robin():
    t0 = time.perf_counter()
    m = load("scalar_robin.cps")
    v = decompose(m.lp)
    ch, bch = m.chart, m.pair.bchart
    u = ch.jet("u", MultiIndex())
    utt = ch.jet("u", MultiIndex.make(0, 0))
    uxx = ch.jet("u", MultiIndex.make(1, 1))
    # E = -(box u - V') vol with box = -d_t^2 + d_x^2 for the declared diag(-1,1)
    box_u = -utt + uxx
    Vp = sp.Derivative(sp.Function("V")(u), u)
    expected_E = -(box_u - Vp)
    assert sp.expand(coefficient(v.sources.bulk, "u") - expected_E) == 0
    # b = -(normal derivative - f u) bvol, theta_bar = 0
    un = bch.jet("u.n1", MultiIndex())
    ub = bch.jet("u", MultiIndex())
    expected_b = boundary_volume(bch) * (-(un - sp.Symbol("f") * ub))
    assert v.sources.boundary == wedge(expected_b, Form.contact(bch, "u"))
    assert v.potential.boundary.is_zero()
    assert v.residual().is_zero()
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0, f"runtime {elapsed:.2f}s"
    passed(1, f"scalar Robin sources exact, residuals zero ({elapsed:.2f}s < 1s)")


# -- criterion 2 ---------------------------------------------------------------------------


def test_02_chern_simons():
    t0 = time.perf_counter()
    m = load("chern_simons_k1.cps")
    v = decompose(m.lp)
    ch, bch = m.chart, m.pair.bchart
    labels = ["A_t", "A_x", "A_y"]

    def jet(label, *axes):
        return ch.jet(label, MultiIndex.make(*axes))

    # E_mu vol = -(dA) ^ dx^mu: independent epsilon expansion
    for mu in range(3):
        expected = sp.Integer(0)
        for al in range(3):
            for be in range(3):
                c = levi_civita(al, be, mu)
                if c:
                    expected += -c * jet(labels[be], al)
        assert sp.expand(coefficient(v.sources.bulk, labels[mu]) - expected) == 0
    # b = -1/2 Abar: components 1/2 A_x and -1/2 A_t on the dt^dx volume word
    ab_t = bch.jet("A_t", MultiIndex())
    ab_x = bch.jet("A_x", MultiIndex())
    assert sp.expand(coefficient(v.sources.boundary, "A_t") - ab_x / 2) == 0
    assert sp.expand(coefficient(v.sources.boundary, "A_x") + ab_t / 2) == 0
    assert sp.expand(coefficient(v.sources.boundary, "A_y")) == 0
    assert v.potential.boundary.is_zero()
    assert v.residual().is_zero()
    # gauge: lifted vector fields are degenerate directions modulo the ideal
    for xi in ([1, 0, 0], [ch.xs[1], 1, 0]):
        W = lift_vector_field(ch, xi)
        g = gauge_residual(v, W, xi=xi)
        assert g.bulk.is_zero() and g.boundary.is_zero()
    # lambda-gauge: verbatim boundary obstruction for free data, killed by Dirichlet
    lam = sp.Function("lam")(*ch.xs)
    W = {a: sp.diff(lam, ch.xs[mt.axis]) for a, mt in ch.meta.items()}
    g = gauge_residual(v, W)
    assert g.bulk.is_zero()
    cchart = g.boundary.chart
    expected_obstruction = Form(
        cchart, 1, 1,
        {(("x", 0), ("v", "A_x", ())): sp.Function("lam")(ch.xs[0], cchart.xs[0], sp.Integer(0))},
    )
    assert g.boundary == expected_obstruction
    md = load("chern_simons_k1_dirichlet.cps")
    vd = decompose(md.lp)
    Wd = {
        a: sp.diff(sp.Function("lam")(*md.chart.xs), md.chart.xs[mt.axis])
        for a, mt in md.chart.meta.items()
    }
    gd = gauge_residual(vd, Wd)
    assert gd.bulk.is_zero() and gd.boundary.is_zero()
    elapsed = time.perf_counter() - t0
    assert elapsed < 5.0, f"runtime {elapsed:.2f}s"
    passed(2, f"Chern-Simons k=1 sources, gauge directions, lambda obstruction ({elapsed:.2f}s < 5s)")


# -- criterion 3 ---------------------------------------------------------------------------


def ym_oracle(model, structure):
    """Brute-force -D*F expansion with explicit index loops (no Form machinery)."""
    ch = model.chart
    n = ch.n
    g = list(ch.metric)
    ginv = [1 / x for x in g]
    dim = 3 if structure else 1

    def jet(label, *axes):
        return ch.jet(label, MultiIndex.make(*axes))

    def lbl(I, mu):
        base = f"A{I + 1}" if structure else "A"
        return f"{base}_{ch.coord_names[mu]}"

    def D(ax, e):
        return reference_total_derivative(ch, ax, e)

    def lc3(i, j, k):
        return levi_civita(i, j, k) if structure else 0

    A = {(I, mu): jet(lbl(I, mu)) for I in range(dim) for mu in range(n)}
    F = {}
    for I in range(dim):
        for mu in range(n):
            for nu in range(n):
                val = D(mu, A[(I, nu)]) - D(nu, A[(I, mu)])
                for J in range(dim):
                    for K in range(dim):
                        c = lc3(I, J, K)
                        if c:
                            val += c * A[(J, mu)] * A[(K, nu)]
                F[(I, mu, nu)] = sp.expand(val)
    root = sp.sqrt(sp.Abs(sp.prod(g)))
    if n == 3:
        s = {}
        for I in range(dim):
            for rho in range(n):
                val = sp.Integer(0)
                for mu in range(n):
                    for nu in range(n):
                        c = levi_civita(mu, nu, rho)
                        if c:
                            val += sp.Rational(1, 2) * F[(I, mu, nu)] * ginv[mu] * ginv[nu] * c * root
                s[(I, rho)] = sp.expand(val)
        G = {}
        for I in range(dim):
            for al in range(n):
                for be in range(n):
                    val = D(al, s[(I, be)]) - D(be, s[(I, al)])
                    for J in range(dim):
                        for K in range(dim):
                            c = lc3(I, J, K)
                            if c:
                                val += c * (A[(J, al)] * s[(K, be)] - A[(J, be)] * s[(K, al)])
                    G[(I, al, be)] = sp.expand(val)
        E = {}
        for I in range(dim):
            for mu in range(n):
                val = sp.Integer(0)
                for al in range(n):
                    for be in range(n):
                        c = levi_civita(al, be, mu)
                        if c:
                            val += -sp.Rational(1, 2) * G[(I, al, be)] * c
                E[lbl(I, mu)] = sp.expand(val)
        return E, s, lbl, dim
    # n == 2: *F is the scalar g^{tt}g^{xx} F_{tx} sqrt|g|.  The source pairs as
    # E ^ dd A; commuting the (1,1) variation past the (n-1,0) current costs
    # (-1)^{n-1}, so E = (-1)^n D*F: minus at n=3, plus at n=2.
    s0 = {I: sp.expand(F[(I, 0, 1)] * ginv[0] * ginv[1] * root) for I in range(dim)}
    E = {}
    for I in range(dim):
        for mu in range(n):
            val = sp.Integer(0)
            for al in range(n):
                c = levi_civita(al, mu)
                if c:
                    term = D(al, s0[I])
                    for J in range(dim):
                        for K in range(dim):
                            cc = lc3(I, J, K)
                            if cc:
                                term += cc * A[(J, al)] * s0[K]
                    val += c * term
            E[lbl(I, mu)] = sp.expand(val)
    return E, s0, lbl, dim


def test_03_yang_mills():
    t0 = time.perf_counter()
    # abelian n=3: E = -d*dA in components, b = j*(*dA)
    m = load("yang_mills_abelian_n3.cps")
    v = decompose(m.lp)
    E_oracle, s, lbl, _ = ym_oracle(m, structure=False)
    for label, expected in E_oracle.items():
        assert sp.expand(coefficient(v.sources.bulk, label) - expected) == 0
    # boundary: b_t = restrict(s_x), b_x = -restrict(s_t), b_y = 0, theta_bar = 0
    ch, bch = m.chart, m.pair.bchart
    r = lambda e: ch.restrict_expr(e, bch, value=0)
    assert sp.expand(coefficient(v.sources.boundary, "A_t") - r(s[(0, 1)])) == 0
    assert sp.expand(coefficient(v.sources.boundary, "A_x") + r(s[(0, 0)])) == 0
    assert sp.expand(coefficient(v.sources.boundary, "A_y")) == 0
    assert v.potential.boundary.is_zero()
    # su(2) n=3 and n=2 against the structure-constant oracle
    for name in ("yang_mills_su2_n3.cps", "yang_mills_su2_n2.cps", "yang_mills_abelian_n2.cps"):
        ms = load(name)
        vs = decompose(ms.lp)
        Es, _, _, _ = ym_oracle(ms, structure="su2" in name)
        for label, expected in Es.items():
            assert sp.expand(coefficient(vs.sources.bulk, label) - expected) == 0, (name, label)
        assert vs.residual().bulk.is_zero()
    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0, f"runtime {elapsed:.2f}s"
    passed(3, f"Yang-Mills abelian and su(2) match the brute-force oracle ({elapsed:.2f}s < 30s)")


# -- criterion 4 ---------------------------------------------------------------------------


def test_04_null_lagrangians():
    ch = Chart(("t", "x"), ("u", "v"), max_jet_order=8)
    rnd = Rand(ch, seed=4, max_order=2)
    for k in range(200):
        Y = rnd.form(1, 0, terms=2)
        assert euler_operator(d_h(Y)).is_zero(), f"case {k}"
    passed(4, "200 randomized total divergences have exactly zero Euler image")


# -- criterion 5 ---------------------------------------------------------------------------


def test_05_representative_independence():
    ch = Chart(("t", "x"), ("u", "v"), max_jet_order=8, metric=[-1, 1])
    pair = BoundaryPair(ch)
    bch = pair.bchart
    u = ch.jet("u", MultiIndex())
    ut = ch.jet("u", MultiIndex.make(0))
    ux = ch.jet("u", MultiIndex.make(1))
    vx = ch.jet("v", MultiIndex.make(1))
    word = (("x", 0), ("x", 1))
    L1 = Form(ch, 2, 0, {word: (-(ut**2) + ux**2) / 2 + u**3 + u * vx})
    ub = bch.jet("u", MultiIndex())
    ell1 = boundary_volume(bch) * (ub**2 / 2)
    lp1 = LagrangianPair(RelForm(pair, L1, ell1), bc={"u": "free", "v": "free"})
    v1 = decompose(lp1)
    rnd = Rand(ch, seed=5, max_order=1)
    brnd = Rand(bch, seed=55, max_order=0)
    for k in range(50):
        Y = rnd.form(1, 0, terms=2)
        ybar = Form(bch, 0, 0, {(): brnd.expr()})
        L2 = L1 + d_h(Y)
        ell2 = ell1 + pair.pullback(Y) - d_h(ybar)
        lp2 = LagrangianPair(RelForm(pair, L2, ell2), bc={"u": "free", "v": "free"})
        v2 = decompose(lp2)
        assert (v2.sources - v1.sources).is_zero(), f"case {k}"
        shift = v2.potential - v1.potential - RelForm(pair, dd(Y), dd(ybar))
        assert rel_d(shift).is_zero(), f"case {k}"
    passed(5, "50 randomized representative shifts: sources exact, potential shift rel_d-closed")


# -- criterion 6 ---------------------------------------------------------------------------


def test_06_bicomplex_property_suite():
    ch = Chart(("t", "x"), ("u", "v"), max_jet_order=8)
    pair = BoundaryPair(ch)
    bch = pair.bchart
    N = 500
    rnd = Rand(ch, seed=6, max_order=1)
    brnd = Rand(bch, seed=66, max_order=1)
    for k in range(N):
        f = rnd.any_form()
        assert d_h(d_h(f)).is_zero(), f"d_h^2 case {k}"
        assert d_v_anti(d_v_anti(f)).is_zero(), f"d_v^2 case {k}"
        assert (d_h(d_v_anti(f)) + d_v_anti(d_h(f))).is_zero(), f"anticommute case {k}"
    for k in range(N):
        f, g = rnd.any_form(), rnd.any_form()
        if f.is_zero() or g.is_zero():
            continue
        rf, sf = f.bidegree
        rg, sg = g.bidegree
        sign = (-1) ** (rf * rg + sf * sg)
        assert wedge(f, g) == wedge(g, f) * sign, f"commutativity case {k}"
    for k in range(N):
        f = rnd.any_form()
        W = rnd.ev_field()
        assert (iota_ev_anti(W, d_h(f)) + d_h(iota_ev_anti(W, f))).is_zero(), f"iota case {k}"
        assert lie_ev(W, d_h(f)) == d_h(lie_ev(W, f)), f"lie-dh case {k}"
        assert lie_ev(W, dd(f)) == dd(lie_ev(W, f)), f"lie-dd case {k}"
    # relative Cartan and relative Leibniz
    def tangent(rnd):
        c = rnd.x_field()
        c[-1] = c[-1] * ch.xs[-1]
        return c

    for k in range(N):
        r = rnd.rng.randint(1, 2)
        s = rnd.rng.randint(0, 1)
        p = RelForm(pair, rnd.form(r, s), brnd.form(r - 1, s))
        xi = tangent(rnd)
        lhs = rel_lie(xi, p)
        rhs = rel_iota(xi, rel_d(p)) + rel_d(rel_iota(xi, p))
        assert lhs.bulk == rhs.bulk and lhs.boundary == rhs.boundary, f"rel Cartan case {k}"
    for k in range(N):
        p = RelForm(pair, rnd.form(1, 0), brnd.form(0, 0))
        q = RelForm(pair, rnd.form(1, 1), brnd.form(0, 1))
        lhs = rel_d(rel_wedge(p, q))
        rhs = rel_wedge(rel_d(p), q) + rel_wedge(p, rel_d(q)) * (-1)
        assert lhs.bulk == rhs.bulk and lhs.boundary == rhs.boundary, f"rel Leibniz case {k}"
    passed(6, f"bicomplex property suite exact on {N} randomized cases per identity")


# -- criterion 7 ---------------------------------------------------------------------------


def test_07_fd_variation_slopes():
    for name in ("scalar_neumann.cps", "scalar_robin_const.cps"):
        m = load(name)
        res = checks.fd_check(m, (129, 129), eps_list=(1e-2, 1e-3, 1e-4))
        assert res.slope >= 1.9, (name, res.slope, res.rows)
        if name == "scalar_robin_const.cps":
            ratios = [
                ra / max(rb, 1e-300)
                for (_, ra), (_, rb) in zip(res.ablated_rows, res.rows)
            ]
            assert max(ratios) >= 1e2, ratios
    passed(7, "FD variation slope >= 1.9 on Neumann and Robin; ablation breaks by >= 1e2")


# -- criterion 8 ---------------------------------------------------------------------------


def test_08_slice_independence():
    m = load("scalar_periodic.cps")
    res = checks.slice_independence(m, (129, 256), mode="spectral")
    assert max(abs(x) for x in res.values) > 1.0
    assert res.drift < 1e-5, res.drift
    mw = load("scalar_wave_neumann.cps")
    res_fd = checks.slice_independence(mw, (257, 256), mode="fd")
    assert max(abs(x) for x in res_fd.values) > 0.1
    assert res_fd.drift < 1e-3, res_fd.drift
    passed(8, f"slice drift: spectral {res.drift:.1e} < 1e-5, FD {res_fd.drift:.1e} < 1e-3")


# -- criterion 9 ---------------------------------------------------------------------------


def test_09_flux_law():
    m = load("scalar_periodic.cps")
    res = checks.flux_check(m, "dt", (257, 256))
    assert abs(res.delta_q) < 1e-6, res.delta_q
    res2 = checks.flux_check(m, "tdt", (257, 256))
    assert res2.mismatch < 1e-4, (res2.delta_q, res2.rhs)
    assert abs(res2.delta_q) > 1e-2  # the non-Killing flux is genuinely nonzero
    passed(9, f"flux law: Killing drift {abs(res.delta_q):.1e} < 1e-6, "
              f"non-Killing mismatch {res2.mismatch:.1e} < 1e-4")


# -- criterion 10 --------------------------------------------------------------------------


def test_10_no_equation_pair():
    r1 = run_cps(load("no_equation_L1.cps"), with_symmetries=False)
    r2 = run_cps(load("no_equation_L2.cps"), with_symmetries=False)
    assert r1.steps["3"]["declared_constraints"] == r2.steps["3"]["declared_constraints"]
    assert r1.steps["3"]["declared_constraints"]  # nonempty constraint set
    assert r2.steps["3"]["Sol"] == {}  # the zero Lagrangian has no equations at all
    assert r1.steps["4"]["slice_form"] != "0"
    assert r2.steps["4"]["slice_form"] == "0"
    passed(10, "same declared solution set, divergent presymplectic slice forms in the report")


# -- criterion 11 --------------------------------------------------------------------------


def test_11_hamiltonian_comparison():
    m = load("scalar_periodic.cps")
    val, canonical, diff = checks.hamiltonian_comparison(m, (129, 256))
    assert abs(val) > 1.0  # non-degenerate pairing
    assert diff < 1e-6, (val, canonical)
    passed(11, f"slice pairing equals the canonical p = normal-derivative pairing "
               f"({val:.6f} vs {canonical:.6f})")
