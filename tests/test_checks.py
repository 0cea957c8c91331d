"""Model-level numeric drivers: pairing properties, solver glue, flux pieces."""
import pathlib

import numpy as np
import pytest
import sympy as sp

from cpsforge import checks, pipeline
from cpsforge.model import ModelError, parse_model
from cpsforge.numeric import contract_two_vertical
from cpsforge.pipeline import decompose, slice_presymplectic

from strategies import count_calls

CORPUS = pathlib.Path(__file__).resolve().parents[1] / "src" / "cpsforge" / "corpus"


def load(name):
    return parse_model((CORPUS / name).read_text())


@pytest.fixture(scope="module")
def periodic_model():
    return load("scalar_periodic.cps")


class TestPairing:
    def test_antisymmetry_and_bilinearity(self, periodic_model):
        m = periodic_model
        grid = checks.make_grid(m, (65, 128))
        v = decompose(m.lp)
        om, _ = slice_presymplectic(v)
        rng = np.random.default_rng(7)
        tt, xx = grid.mesh()

        def rand_state():
            ks = rng.integers(1, 4, size=2)
            ph = rng.uniform(0, 2 * np.pi, size=2)
            a = rng.uniform(-1, 1, size=2)
            arr = sum(
                ai * np.cos(k * (xx - tt) + p) for ai, k, p in zip(a, ks, ph)
            )
            from cpsforge.numeric import FieldState

            return FieldState(grid, {"u": arr})

        base = rand_state()
        t1, t2, t3 = rand_state(), rand_state(), rand_state()
        k = grid.shape[0] // 2

        def om_eval(a, b):
            return contract_two_vertical(om, grid, base, k, a, b)

        assert abs(om_eval(t1, t1)) < 1e-12
        assert abs(om_eval(t1, t2) + om_eval(t2, t1)) < 1e-12
        from cpsforge.numeric import FieldState

        t13 = FieldState(grid, {"u": t1.values["u"] + 2.5 * t3.values["u"]})
        lhs = om_eval(t13, t2)
        rhs = om_eval(t1, t2) + 2.5 * om_eval(t3, t2)
        assert abs(lhs - rhs) < 1e-10 * max(1.0, abs(rhs))

    def test_spectral_tangents_not_degenerate(self, periodic_model):
        m = periodic_model
        res = checks.slice_independence(m, (65, 128), mode="spectral")
        assert max(abs(x) for x in res.values) > 1.0


class TestSolverGlue:
    def test_potential_extraction(self):
        m = load("scalar_neumann.cps")
        grid = checks.make_grid(m, (129, 128))
        x = grid.axis_points(1)
        st = checks.solve_model(m, grid, 0.01 * np.cos(np.pi * x), np.zeros_like(x))
        assert st.values["u"].shape == grid.shape
        # small-amplitude quartic field stays close to the free Neumann eigenmode
        tt, xx = grid.mesh()
        free = 0.01 * np.cos(np.pi * tt) * np.cos(np.pi * xx)
        assert np.max(np.abs(st.values["u"] - free)) < 1e-4

    def test_robin_solver_runs(self):
        m = load("scalar_robin_const.cps")
        grid = checks.make_grid(m, (129, 128))
        x = grid.axis_points(1)
        st = checks.solve_model(m, grid, 0.1 * np.cos(np.pi * x), np.zeros_like(x))
        assert np.all(np.isfinite(st.values["u"]))


class TestFlux:
    def test_killing_charge_constant_under_fd_solution(self, periodic_model):
        m = periodic_model
        grid = checks.make_grid(m, (257, 256))
        x = grid.axis_points(1)
        st = checks.solve_model(m, grid, np.sin(x), np.zeros_like(x))
        res = checks.flux_check(m, "dt", (257, 256), state=st)
        # leapfrog + SBP jets conserve the charge to the discretization order
        assert abs(res.delta_q) < 1e-3

    def test_zero_vector_zero_charge(self, periodic_model):
        m = periodic_model
        m.vectors["zero"] = [sp.Integer(0), sp.Integer(0)]
        res = checks.flux_check(m, "zero", (129, 128))
        assert res.q_values == [0.0, 0.0]
        assert res.delta_q == 0.0


def test_numeric_session_decomposes_once(monkeypatch):
    # every check reads the decomposition cached on the model it is given
    counts = count_calls(monkeypatch, pipeline.decompose)
    m = load("scalar_periodic.cps")
    checks.slice_independence(m, (65, 128), mode="spectral")
    checks.flux_check(m, "dt", (65, 128))
    checks.flux_check(m, "tdt", (65, 128))
    checks.hamiltonian_comparison(m, (65, 128))
    assert counts["decompose"] == 1


class TestRobinCoefficient:
    """The wave solver reads c off the boundary source b[u] = u.n1 - c*u."""

    @staticmethod
    def drift(text):
        return checks.slice_independence(parse_model(text), (257, 256), mode="fd").drift

    def test_coefficient_is_read_off_the_source_not_a_binding_name(self):
        text = (CORPUS / "scalar_robin_const.cps").read_text()
        renamed = text.replace("f = 1/2;", "k = 1/2;").replace("f * u**2", "k * u**2")
        assert renamed.count("f") == text.count("f") - 2
        assert self.drift(renamed) == self.drift(text)
        # ell = f u^2 doubles c: the drift of c = 1, not of c = f = 1/2
        doubled = text.replace("(1/2) * f * u**2", "f * u**2")
        assert self.drift(doubled) == self.drift(text.replace("f = 1/2;", "f = 1;")) != self.drift(text)

    def test_other_boundary_source_is_refused(self):
        text = (CORPUS / "scalar_robin_const.cps").read_text()
        quartic = text.replace("(1/2) * f * u**2", "(1/4) * f * u**4")
        with pytest.raises(ModelError, match=r"b\[u\] = u.n1 - c\*u"):
            self.drift(quartic)
