"""Grids, quadrature, FD variation residuals, relative Stokes, wave solver,
and the memo of compiled evaluators."""
import pathlib

import numpy as np
import pytest
import sympy as sp
from sympy.core.cache import clear_cache

from cpsforge import checks, numeric
from cpsforge.chart import Chart, MultiIndex
from cpsforge.forms import Form, boundary_volume, vol
from cpsforge.model import ModelError, parse_model
from cpsforge.numeric import (
    FaceBinding,
    FieldState,
    Grid,
    action_value,
    bulk_integral,
    eval_bulk_expr,
    fd_variation_residual,
    relative_integral,
    relative_stokes_residual,
    source_pairing,
    wave_solver,
)
from cpsforge.relative import BoundaryPair, RelForm

from strategies import make_chart

CORPUS = pathlib.Path(__file__).resolve().parents[1] / "src" / "cpsforge" / "corpus"


def bump(t, lo, hi):
    """Smooth bump supported in (lo, hi)."""
    s = (t - lo) * (hi - t)
    out = np.zeros_like(t)
    mask = s > 0
    out[mask] = np.exp(-1.0 / s[mask])
    return out / out.max()


class TestQuadrature:
    def test_unit_volume(self):
        ch = make_chart(2, ("u",), metric=[-1, 1])
        grid = Grid.make(ch, [(0, 1), (0, 1)], (41, 41))
        state = FieldState(grid, {"u": np.zeros(grid.shape)})
        ell = Form.zero(BoundaryPair(ch).bchart, 1, 0)
        assert abs(action_value(vol(ch), ell, grid, state) - 1.0) < 1e-12

    def test_lateral_boundary_sign(self):
        ch = make_chart(2, ("u",), metric=[-1, 1])
        pair = BoundaryPair(ch)
        grid = Grid.make(ch, [(0, 1), (0, 1)], (41, 41))
        state = FieldState(grid, {"u": np.zeros(grid.shape)})
        L = Form.zero(ch, 2, 0)
        ell = boundary_volume(pair.bchart)
        val = action_value(L, ell, grid, state)
        # each of the two lateral faces contributes -(integral of the density 1)
        assert abs(val - (-2.0)) < 1e-12

    def test_static_kinetic_action(self):
        # phi = sin(x) static; L-coefficient (u_t^2 - u_x^2)/2 -> S = -pi/4
        ch = make_chart(2, ("u",))
        grid = Grid.make(ch, [(0, 1), (0, np.pi)], (31, 401))
        tt, xx = grid.mesh()
        state = FieldState(grid, {"u": np.sin(xx)})
        ut = ch.jet("u", MultiIndex.make(0))
        ux = ch.jet("u", MultiIndex.make(1))
        word = (("x", 0), ("x", 1))
        L = Form(ch, 2, 0, {word: (ut**2 - ux**2) / 2})
        val = bulk_integral(L, grid, state)
        h = grid.spacing(1)
        assert abs(val - (-np.pi / 4)) < 20 * h**2


class TestFaceBinding:
    """Restricted labels bind to bulk jets on the face; outward-normal families
    carry the sign (-1)^k on the min face."""

    def make(self):
        ch = make_chart(2, ("u",))
        pair = BoundaryPair(ch)
        grid = Grid.make(ch, [(0, 1), (0, 1)], (17, 21))
        tt, xx = grid.mesh()
        state = FieldState(grid, {"u": np.sin(tt + 2 * xx) + tt * xx**3})
        return ch, pair.bchart, grid, state

    def test_raw_binding_is_bulk_restriction(self):
        ch, bchart, grid, state = self.make()
        t, x = ch.xs
        u, ux, uxx, utx = (ch.jet("u", MultiIndex.make(*mi)) for mi in ((), (1,), (1, 1), (0, 1)))
        bulk = u * ux + t * uxx + x * utx + 3
        face = ch.restrict_expr(bulk, bchart)
        for index in (0, -1):
            fb = FaceBinding(bchart, index, outward=False)
            got = fb.eval(face, grid, state)
            want = fb.restrict_array(eval_bulk_expr(ch, bulk, grid, state))
            assert got.shape == (grid.shape[0],)
            assert np.allclose(got, want, rtol=1e-12, atol=1e-12)

    def test_outward_sign_on_min_face(self):
        ch, bchart, grid, state = self.make()
        for k in (1, 2, 3):
            label = f"u.n{k}"
            raw = state.jet("u", MultiIndex((1,) * k))
            low = FaceBinding(bchart, 0, outward=True)
            high = FaceBinding(bchart, -1, outward=True)
            assert np.array_equal(low.jet(state, label, MultiIndex()), (-1) ** k * raw[:, 0])
            assert np.array_equal(high.jet(state, label, MultiIndex()), raw[:, -1])
            dens = bchart.jet(label, MultiIndex())
            assert np.array_equal(low.eval(dens, grid, state), (-1) ** k * raw[:, 0])

    def test_normal_component_of_a_one_form_flips_on_min_face(self):
        # the outward normal on the min face {x = 0} is -dx, so A_n = -A_x there
        # while the tangential A_t keeps its sign; a normal derivative flips again
        m = parse_model((CORPUS / "yang_mills_abelian_n2.cps").read_text())
        grid = checks.make_grid(m, (17, 21))
        assert {a: mt.axis for a, mt in m.chart.meta.items() if mt.kind == "one_form"} == {"A_t": 0, "A_x": 1}
        tt, xx = grid.mesh()
        state = FieldState(grid, {"A_t": np.sin(tt + 2 * xx), "A_x": np.cos(3 * tt) + tt * xx**2})
        low, high = (FaceBinding(m.pair.bchart, index, outward=True) for index in (0, -1))
        for label, base, k, sign in (("A_t", "A_t", 0, 1), ("A_x", "A_x", 0, -1),
                                     ("A_t.n1", "A_t", 1, -1), ("A_x.n1", "A_x", 1, 1)):
            raw = state.jet(base, MultiIndex((1,) * k))
            assert np.array_equal(low.jet(state, label, MultiIndex()), sign * raw[:, 0]), label
            assert np.array_equal(high.jet(state, label, MultiIndex()), raw[:, -1]), label


class TestRelativeIntegral:
    def chart1(self):
        return Chart(("x",), ("u",), max_jet_order=4)

    def test_analytic_interval(self):
        ch = self.chart1()
        pair = BoundaryPair(ch)
        grid = Grid.make(ch, [(0, 1)], (201,))
        state = FieldState(grid, {"u": np.zeros(grid.shape)})
        p = RelForm(pair, Form.dx(ch, 0) * ch.xs[0], Form.zero(pair.bchart))
        val = relative_integral(p, grid, state)
        assert abs(val - 0.5) < 1e-4

    def test_constant_boundary_cancels(self):
        ch = self.chart1()
        pair = BoundaryPair(ch)
        grid = Grid.make(ch, [(0, 1)], (101,))
        state = FieldState(grid, {"u": np.zeros(grid.shape)})
        p = RelForm(pair, Form.dx(ch, 0), Form.scalar(pair.bchart, 7))
        val = relative_integral(p, grid, state)
        assert abs(val - 1.0) < 1e-12

    def test_exact_pair_integrates_to_zero_interval(self):
        ch = self.chart1()
        pair = BoundaryPair(ch)
        grid = Grid.make(ch, [(0, 1)], (401,))
        x = grid.axis_points(0)
        state = FieldState(grid, {"u": np.sin(3 * x)})
        u = ch.jet("u", MultiIndex())
        Y = Form.scalar(ch, u**2 + ch.xs[0])
        val = relative_stokes_residual(Y, Form.zero(pair.bchart), grid, state)
        h = grid.spacing(0)
        assert val < 50 * h**2

    def test_relative_stokes_strip(self):
        """O(h^2) relative Stokes on a strip; the lid-restricting component of Y
        is damped by a bump so the (lateral-pair) relative integral is exact."""
        ch = make_chart(2, ("u",))
        pair = BoundaryPair(ch)
        t, x = ch.xs
        u = ch.jet("u", MultiIndex())
        residuals = []
        for m in (33, 65, 129):
            grid = Grid.make(ch, [(0, 1), (0, 1)], (m, m))
            tt, xx = grid.mesh()
            state = FieldState(grid, {"u": np.sin(tt + 2 * xx), "v": 0 * tt})
            damp_sym = (t * (1 - t)) ** 4
            Y = Form.dx(ch, 0) * (u * sp.sin(x)) + Form.dx(ch, 1) * (damp_sym * (u**2 + x))
            z = Form.scalar(pair.bchart, pair.bchart.jet("u", MultiIndex()) * damp_sym.subs({x: 0}))
            val = relative_stokes_residual(Y, z, grid, state)
            residuals.append(val)
        assert residuals[2] < 1e-3
        # roughly second-order decay
        assert residuals[0] / residuals[2] > 8


class TestVariation:
    def setup_scalar(self, m=129, robin=0.0):
        ch = make_chart(2, ("u",), metric=[-1, 1])
        pair = BoundaryPair(ch)
        t, x = ch.xs
        ut = ch.jet("u", MultiIndex.make(0))
        ux = ch.jet("u", MultiIndex.make(1))
        utt = ch.jet("u", MultiIndex.make(0, 0))
        uxx = ch.jet("u", MultiIndex.make(1, 1))
        word = (("x", 0), ("x", 1))
        u = ch.jet("u", MultiIndex())
        # quartic self-interaction: the central action difference of a quadratic
        # functional is exact, so the eps^2 slope needs a nonlinearity
        L = Form(ch, 2, 0, {word: (-(ut**2) + ux**2) / 2 + u**4 / 4})
        ub = pair.bchart.jet("u", MultiIndex())
        un = pair.bchart.jet("u.n1", MultiIndex())
        if robin:
            ell = boundary_volume(pair.bchart) * (sp.Rational(robin) * ub**2 / 2)
        else:
            ell = Form.zero(pair.bchart, 1, 0)
        E = {"u": utt - uxx + u**3}
        b_dens = {"u": -(un - sp.Rational(robin) * ub) if robin else -un}
        grid = Grid.make(ch, [(0, 1), (0, 1)], (m, m))
        tt, xx = grid.mesh()
        state = FieldState(grid, {"u": np.sin(2 * tt + 1) * np.cos(3 * xx)})
        v = bump(tt, 0.15, 0.85) * (1 + 0.3 * np.cos(2 * xx))
        return ch, pair, L, ell, E, b_dens, grid, state, v

    def test_eps_squared_slope_neumann(self):
        ch, pair, L, ell, E, b, grid, state, v = self.setup_scalar()
        pairing = source_pairing(E, b, pair.bchart, grid, state, {"u": v})
        rs = []
        for eps in (1e-2, 1e-3, 1e-4):
            rs += fd_variation_residual(L, ell, [pairing], grid, state, {"u": v}, eps)
        slope = (np.log10(rs[0]) - np.log10(rs[2])) / 2
        assert slope >= 1.9

    def test_robin_ablation_breaks(self):
        ch, pair, L, ell, E, b, grid, state, v = self.setup_scalar(robin=0.5)
        pairing = source_pairing(E, b, pair.bchart, grid, state, {"u": v})
        ablated = source_pairing(E, {}, pair.bchart, grid, state, {"u": v})
        ok, broken = fd_variation_residual(L, ell, [pairing, ablated], grid, state, {"u": v}, 1e-3)
        assert ok < 1e-4
        assert broken / max(ok, 1e-15) >= 1e2

    @pytest.mark.parametrize("name, pairings", [("scalar_neumann.cps", 1), ("scalar_robin_const.cps", 2)])
    def test_fd_check_pairs_the_sources_once_per_row_kind(self, monkeypatch, name, pairings):
        """The source pairing does not depend on eps: one fd_check computes it
        once for its rows and once more for the ablated rows of a model with a
        boundary Lagrangian, however many eps it takes."""
        model = parse_model((CORPUS / name).read_text())
        calls = []
        real = checks.source_pairing
        monkeypatch.setattr(checks, "source_pairing", lambda *a: calls.append(a) or real(*a))
        res = checks.fd_check(model, (33, 33))
        assert len(calls) == pairings
        assert len(res.rows) == 3 and len(res.ablated_rows) == (3 if pairings == 2 else 0)

    @pytest.mark.parametrize("name", ["scalar_neumann.cps", "scalar_robin_const.cps"])
    def test_fd_check_evaluates_each_action_once(self, monkeypatch, name):
        """The base action, then u +- eps v once per eps: the ablated rows
        share the rows' central differences."""
        model = parse_model((CORPUS / name).read_text())
        calls, real = [], numeric.action_value

        def counted(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(numeric, "action_value", counted)
        monkeypatch.setattr(checks, "action_value", counted)
        res = checks.fd_check(model, (33, 33))
        assert len(calls) == 1 + 2 * len(res.rows) == 7


def test_mesh_is_built_once_and_read_only():
    grid = Grid.make(make_chart(2, ("u",)), [(0, 1), (0, 2)], (5, 7))
    tt, xx = grid.mesh()
    assert all(a is b for a, b in zip((tt, xx), grid.mesh()))
    assert tt.shape == xx.shape == (5, 7) and xx[0, -1] == 2.0
    for arr in (tt, xx):
        with pytest.raises(ValueError, match="read-only"):
            arr[0, 0] = 1.0


class TestWaveSolver:
    def exact_error(self, m):
        ch = make_chart(2, ("u",))
        T = 1.0
        nt = 2 * m
        grid = Grid.make(ch, [(0, T), (0, np.pi)], (nt + 1, m + 1))
        x = grid.axis_points(1)
        u = wave_solver(grid, np.sin(x), np.zeros_like(x), bc="dirichlet")
        tt, xx = grid.mesh()
        exact = np.cos(tt) * np.sin(xx)
        return np.max(np.abs(u - exact))

    def test_standing_wave_second_order(self):
        e1, e2 = self.exact_error(64), self.exact_error(128)
        assert e1 < 2e-3
        assert e1 / e2 > 3.0

    def test_zero_data(self):
        ch = make_chart(2, ("u",))
        grid = Grid.make(ch, [(0, 1), (0, 1)], (65, 33))
        u = wave_solver(grid, np.zeros(33), np.zeros(33), bc="neumann")
        assert np.all(u == 0)

    def test_robin_identity(self):
        ch = make_chart(2, ("u",))
        m = 201
        f = 0.7
        grid = Grid.make(ch, [(0, 1), (0, 1)], (2 * m - 1, m))
        x = grid.axis_points(1)
        u = wave_solver(grid, np.cos(np.pi * x), np.zeros_like(x), bc="robin", robin_f=f)
        dx = grid.spacing(1)
        k = u.shape[0] // 2
        lhs = (u[k, -1] - u[k, -2]) / dx
        rhs = f * u[k, -1]
        assert abs(lhs - rhs) < 10 * dx

    def test_cfl_guard(self):
        ch = make_chart(2, ("u",))
        grid = Grid.make(ch, [(0, 1), (0, 1)], (11, 101))
        with pytest.raises(ValueError):
            wave_solver(grid, np.zeros(101), np.zeros(101))


class TestCompiledMemo:
    """Each (arguments, expression) pair is compiled once, until sympy's cache is cleared."""

    @staticmethod
    def count_lambdify(monkeypatch) -> list:
        calls = []
        real = sp.lambdify

        def counted(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(sp, "lambdify", counted)
        return calls

    @pytest.mark.parametrize("name, compiles", [("scalar_robin_const.cps", 4), ("scalar_neumann.cps", 3)])
    def test_fd_check_compiles_once_per_cache_lifetime(self, monkeypatch, name, compiles):
        model = parse_model((CORPUS / name).read_text())
        calls = self.count_lambdify(monkeypatch)
        clear_cache()
        checks.fd_check(model, (33, 33))
        assert len(calls) == compiles
        checks.fd_check(model, (33, 33))
        assert len(calls) == compiles
        # a cleared cache, as at the start of a process or a benchmark unit, compiles again
        clear_cache()
        checks.fd_check(model, (33, 33))
        assert len(calls) == 2 * compiles

    def test_refusals_run_on_every_call(self):
        ch = make_chart(2, ("u",))
        grid = Grid.make(ch, [(0, 1), (0, 1)], (5, 5))
        state = FieldState(grid, {"u": np.ones(grid.shape)})
        u = ch.jet("u", MultiIndex())
        formal = sp.Function("V")(u)
        for _ in range(2):
            with pytest.raises(ModelError, match="formal functions"):
                eval_bulk_expr(ch, formal, grid, state)
        massive = sp.Symbol("m") * u
        bound = Grid.make(ch, [(0, 1), (0, 1)], (5, 5), bindings={"m": 2.0})
        assert np.all(eval_bulk_expr(ch, massive, bound, FieldState(bound, state.values)) == 2.0)
        for _ in range(2):
            with pytest.raises(ModelError, match="no numeric binding"):
                eval_bulk_expr(ch, massive, grid, state)
