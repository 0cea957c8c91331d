"""Self-tests of the benchmark harness (not of cpsforge itself).

    python3 perfbench/selftest.py          # everything, about 4 minutes
    python3 perfbench/selftest.py -k Cold  # unittest name filter

Run from the root of a checkout.  The per-workload tests start `run.py` for
one pass of every workload, untraced once and traced twice with one seed.
"""
import json
import pathlib
import subprocess
import sys
import unittest

HERE = pathlib.Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
import run  # noqa: E402
import spans  # noqa: E402
import worker  # noqa: E402

SEED = 7

# per-layer metrics that must fire on each workload (a nonzero count)
DERIVE_SPANS = (
    "model.parse_model", "report.run_cps", "report.report_json",
    "pipeline.decompose", "pipeline.presymplectic_current", "pipeline.slice_presymplectic",
    "pipeline.xi_invariance_residual", "pipeline.d_symmetry_check", "pipeline.noether_current_xi",
    "pipeline.gauge_residual", "pipeline.slice_ideal", "pipeline._corner_ideal",
    "pipeline._linearized_row", "pipeline.OnShellIdeal.reduce_expr",
    "jetcalc.euler_operator", "jetcalc.integrate_by_parts", "jetcalc._sweep",
    "jetcalc.boundary_euler_operator",
    "chart.Chart.total_derivative", "chart.Chart.restrict_expr",
    "forms.Form.__init__", "forms.wedge", "forms.d_h", "forms.dd", "forms.iota_ev",
    "forms.lie_ev", "forms.restrict", "relative.rel_lie",
)
FIRES = {
    "derive-su2": [f"{s}.calls" for s in DERIVE_SPANS] + list(spans.COUNTERS),
    "derive-corpus": [f"{s}.calls" for s in DERIVE_SPANS + ("chart.translate_expr",)]
    + [c for c in spans.COUNTERS if c != "pipeline.OnShellIdeal.rules_skipped"],
    "kernel-bicomplex": [
        f"{s}.calls" for s in (
            "chart.Chart.total_derivative", "chart.Chart.restrict_expr", "forms.Form.__init__",
            "forms.wedge", "forms.d_h", "forms.dd", "forms.iota_ev", "forms.lie_ev",
            "forms.restrict", "relative.rel_d", "relative.rel_lie", "relative.rel_wedge",
        )
    ] + ["chart.Chart.total_derivative.out_monomials", "forms.Form.__init__.terms_out"],
    "numeric-checks": [
        f"{s}.calls" for s in (
            "model.parse_model", "pipeline.decompose", "pipeline.slice_presymplectic",
            "pipeline.noether_current_xi", "pipeline.xi_invariance_residual",
            "checks.fd_check", "checks.slice_independence", "checks.flux_check",
            "checks.hamiltonian_comparison", "numeric.fd_variation_residual",
            "numeric.contract_two_vertical", "numeric.wave_solver", "numeric.eval_bulk_expr",
        )
    ],
}


def bench(workload: str, trace: int) -> tuple[dict, dict]:
    """One pass of a workload through run.py: (worker details, final result)."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(SEED),
         "--seconds", "0", "--trace", str(trace), "--details"],
        stdout=subprocess.PIPE, text=True, timeout=600, check=True,
    )
    lines = proc.stdout.splitlines()
    details = next(json.loads(ln[len(run.DETAILS):]) for ln in lines if ln.startswith(run.DETAILS))
    return details, json.loads(lines[-1])


def counts(result: dict) -> dict:
    return {k: m["value"] for k, m in result["metrics"].items() if m["unit"] == "count"}


class WorkloadTest:
    """Mixed into one TestCase per workload; runs it three times in setUpClass."""

    workload = ""

    @classmethod
    def setUpClass(cls):
        cls.plain, cls.plain_result = bench(cls.workload, 0)
        cls.traced, cls.traced_result = bench(cls.workload, 1)
        cls.again, cls.again_result = bench(cls.workload, 1)

    def test_outputs_correct(self):
        for res in (self.plain_result, self.traced_result, self.again_result):
            self.assertTrue(res["correct"])
            self.assertEqual(res["failed"], 0)
            self.assertGreater(res["attempted"], 0)

    def test_metric_names(self):
        bench_json = json.loads((HERE.parent / "BENCHMARK.json").read_text())
        self.assertEqual(set(self.plain_result["metrics"]), {m["name"] for m in bench_json["end_to_end"]})
        self.assertEqual(set(self.traced_result["metrics"]), {m["name"] for m in bench_json["per_layer"]})

    def test_traced_outputs_equal_untraced(self):
        self.assertEqual(self.traced["digests"], self.plain["digests"])

    def test_named_metrics_fire(self):
        got = self.traced_result["metrics"]
        silent = [name for name in FIRES[self.workload] if not got[name]["value"] > 0]
        self.assertEqual(silent, [])

    def test_counts_repeat_exactly(self):
        self.assertEqual(counts(self.traced_result), counts(self.again_result))


class DeriveSu2(WorkloadTest, unittest.TestCase):
    workload = "derive-su2"


class DeriveCorpus(WorkloadTest, unittest.TestCase):
    workload = "derive-corpus"


class KernelBicomplex(WorkloadTest, unittest.TestCase):
    workload = "kernel-bicomplex"


class NumericChecks(WorkloadTest, unittest.TestCase):
    workload = "numeric-checks"


class Rebinding(unittest.TestCase):
    def test_every_import_site_is_wrapped(self):
        worker.import_program()
        import cpsforge.checks
        import cpsforge.pipeline
        import cpsforge.report

        originals = spans.install(spans.Tracer())
        self.assertEqual(spans.stale_bindings(originals), [])
        for bound, name in ((cpsforge.report.decompose, "pipeline.decompose"),
                            (cpsforge.checks.decompose, "pipeline.decompose"),
                            (cpsforge.pipeline.wedge, "forms.wedge")):
            self.assertIs(bound.__wrapped__, originals[name])


class ColdCache(unittest.TestCase):
    def test_derive_without_clear_fails(self):
        worker.import_program()
        from sympy.core.cache import clear_cache

        unit = next(u for u in worker.build("derive-corpus", SEED) if u[0].name == "derive:no_equation_L2")
        cold = worker.Runner(clear_cache)
        cold.run_unit(unit)
        self.assertEqual((cold.attempted, cold.failed), (1, 0))
        warm = worker.Runner(lambda: None)  # skips the clear: the cache holds the last derive
        warm.run_unit(unit)
        self.assertEqual((warm.attempted, warm.failed), (1, 1))
        self.assertIn("cold-cache rule", warm.errors[0])


if __name__ == "__main__":
    unittest.main()
