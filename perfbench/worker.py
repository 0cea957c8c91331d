"""One benchmark workload, run in a fresh process.

    python3 perfbench/worker.py --workload NAME --seed N --seconds S --trace 0|1
                                [--setup-only] [--details]

`run.py` starts this file with a fixed PYTHONHASHSEED and reads the JSON
object it prints on its last line.  The worker imports `cpsforge` from the
`src/` directory next to this benchmark, builds the workload's inputs from
the seed (the set-up), then runs whole passes over the workload's
operations until `--seconds` have passed, and at least MIN_PASSES of them.
Every operation's output is checked; a failed check or an exception counts
the operation as failed.

Cold-cache rule: a `cpsforge derive` user starts a fresh process every time,
so sympy's global cache is cleared before every unit of work (a derive, a
numeric-check session, a kernel pass), and the first operation of each unit
fails if the cache is not empty when it starts.
"""
import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import pathlib  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402

HERE = pathlib.Path(__file__).resolve().parent
SRC = HERE.parent / "src"
HASH_SEED = "0"

DERIVE_HEAVY = ("yang_mills_su2_n2", "yang_mills_su2_n3")
KERNEL_CASES = 400  # per identity group
MIN_PASSES = 2  # a run makes at least this many passes, then more until its time is up
SHAPE_SEED = 6  # sizes of the kernel's random forms; the benchmark seed picks the rest


class SetupError(RuntimeError):
    pass


def import_program():
    """Import cpsforge from this checkout's src/ and nowhere else."""
    if not (SRC / "cpsforge" / "__init__.py").is_file():
        raise SetupError(f"no cpsforge sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import cpsforge

    if pathlib.Path(cpsforge.__file__).resolve().parent != (SRC / "cpsforge").resolve():
        raise SetupError(f"cpsforge imported from {cpsforge.__file__}, not from {SRC}")
    import cpsforge.checks
    import cpsforge.cli
    import cpsforge.report  # noqa: F401


# -- operations ----------------------------------------------------------------------


class Op:
    """One timed call into the program plus an untimed check of its output.

    `run(ctx)` returns the output; `check(output)` returns None when the output
    is correct and otherwise a one-line reason.  `ctx` is shared by the
    operations of one unit (a numeric session keeps its parsed model there).
    """

    def __init__(self, name, run, check):
        self.name, self.run, self.check = name, run, check


def cache_entries() -> int:
    from sympy.core.cache import CACHE

    return sum(fn.cache_info().currsize for fn in CACHE)


def load_reference() -> dict:
    return json.loads((HERE / "reference.json").read_text())


def certificates(rep: dict) -> list[tuple[str, str]]:
    """The zero-residual certificate fields of a parsed derive report."""
    steps = rep["steps"]
    out = []
    if "1" in steps:
        out += [("bulk residual", steps["1"]["residual"]),
                ("boundary residual", steps["2"]["residual"])]
    for blk in rep["symmetries"]:
        if "noether" in blk:
            out += [(f"{blk['vector']} Noether {k}", blk["noether"][f"identity_residual_{k}"])
                    for k in ("bulk", "boundary")]
    return out


def derive(name: str) -> str:
    """What `cpsforge derive` does for a corpus model: parse, run with symmetries,
    print the canonical JSON report."""
    from cpsforge import cli, report

    return report.report_json(report.run_cps(cli.load_model(f"{name}.cps"), with_symmetries=True))


def derive_op(name: str, ref: dict) -> Op:
    digest = ref["reports"][name]
    known_nonzero = set(ref["nonzero_certificates"].get(name, ()))

    def check(text):
        if hashlib.sha256(text.encode()).hexdigest() != digest:
            return "report digest differs from the pinned reference"
        bad = [label for label, value in certificates(json.loads(text))
               if value != "0" and label not in known_nonzero]
        return f"nonzero certificate: {', '.join(bad)}" if bad else None

    return Op(f"derive:{name}", lambda ctx: derive(name), check)


def corpus_names() -> list[str]:
    return sorted(p.stem for p in (SRC / "cpsforge" / "corpus").glob("*.cps"))


def build_derive(seed: int, heavy: bool) -> list[list[Op]]:
    ref = load_reference()
    names = [n for n in corpus_names() if (n in DERIVE_HEAVY) == heavy]
    missing = sorted(set(names) - set(ref["reports"]))
    if missing:
        raise SetupError(f"no pinned report for {missing}")
    random.Random(seed).shuffle(names)
    return [[derive_op(n, ref)] for n in names]


def _numeric_checks():
    """model -> [(check name, call, acceptance test)], as in tests/test_acceptance.py."""
    from cpsforge import checks

    def fd(m):
        return checks.fd_check(m, (129, 129), eps_list=(1e-2, 1e-3, 1e-4))

    def fd_ok(res):
        return res.slope >= 1.9

    def fd_ablated_ok(res):
        ratios = [ra / max(rb, 1e-300) for (_, ra), (_, rb) in zip(res.ablated_rows, res.rows)]
        return res.slope >= 1.9 and max(ratios) >= 1e2

    def drift_ok(limit, floor):
        return lambda res: max(abs(x) for x in res.values) > floor and res.drift < limit

    return {
        "scalar_neumann": [("fd_check", fd, fd_ok)],
        "scalar_robin_const": [("fd_check", fd, fd_ablated_ok)],
        "scalar_periodic": [
            ("slice_spectral",
             lambda m: checks.slice_independence(m, (129, 256), mode="spectral"),
             drift_ok(1e-5, 1.0)),
            ("flux_dt", lambda m: checks.flux_check(m, "dt", (257, 256)),
             lambda res: abs(res.delta_q) < 1e-6),
            ("flux_tdt", lambda m: checks.flux_check(m, "tdt", (257, 256)),
             lambda res: res.mismatch < 1e-4 and abs(res.delta_q) > 1e-2),
            ("hamiltonian", lambda m: checks.hamiltonian_comparison(m, (129, 256)),
             lambda res: abs(res[0]) > 1.0 and res[2] < 1e-6),
        ],
        "scalar_wave_neumann": [
            ("slice_fd", lambda m: checks.slice_independence(m, (257, 256), mode="fd"),
             drift_ok(1e-3, 0.1)),
        ],
    }


def build_numeric(seed: int) -> list[list[Op]]:
    """One session per model; the seed orders the sessions.  Inside a session the
    checks keep the acceptance suite's order, because the first one to need the
    model's decomposition pays for it with a cold cache."""
    from cpsforge import cli

    sessions = []
    for model_name, items in sorted(_numeric_checks().items()):
        def parse(ctx, model_name=model_name):
            ctx["model"] = cli.load_model(f"{model_name}.cps")
            return ctx["model"].name

        ops = []
        for check_name, call, ok in items:
            ops.append(Op(
                f"{check_name}:{model_name}",
                lambda ctx, call=call: call(ctx["model"]),
                lambda res, ok=ok: None if ok(res) else f"outside the acceptance tolerance: {res}",
            ))
        sessions.append([Op(f"parse:{model_name}", parse, lambda name: None)] + ops)
    random.Random(seed).shuffle(sessions)
    return sessions


class RandomForms:
    """Seeded random forms on a chart, drawn as in the bicomplex property suite.

    Two generators: `shape` (a fixed seed) makes every choice that sets the
    amount of work: the number of terms, monomials and factors, the bidegree,
    the kind of each atom (coordinate, field, first jet), the jet order of each
    contact factor and which coefficients of a vector field vanish.  `rng` (the
    benchmark seed) picks everything else: the atom of that kind, the nonzero
    coefficients, the axes and the fields.  Seeds then differ in the forms'
    content but not in their size, which keeps the spread of the timings across
    seeds small.
    """

    def __init__(self, chart, rng: random.Random, shape: random.Random):
        from cpsforge.chart import MultiIndex

        self.chart, self.rng, self.shape, self.MI = chart, rng, shape, MultiIndex
        n = chart.n
        self.atoms = {
            "coordinate": list(chart.xs),
            "field": [chart.jet(a, MultiIndex()) for a in chart.fields],
            "jet": [chart.jet(a, MultiIndex.make(i)) for a in chart.fields for i in range(n)],
        }
        # a kind is drawn as often as a uniformly drawn atom would be of that kind
        self.kinds = [kind for kind, atoms in self.atoms.items() for _ in atoms]

    def expr(self):
        import sympy as sp

        out = sp.Integer(0)
        for _ in range(self.shape.randint(0, 2)):
            m = sp.Integer(self.rng.choice([-3, -2, -1, 1, 2, 3]))
            for _ in range(self.shape.randint(0, 2)):
                m *= self.rng.choice(self.atoms[self.shape.choice(self.kinds)])
            out += m
        return out

    def word(self, r, s):
        MI, n = self.MI, self.chart.n
        hs = self.rng.sample(range(n), r)
        orders = [self.shape.randrange(n + 1) > 0 for _ in range(s)]
        vs: list = []
        for first_order in orders:
            while True:
                mi = MI.make(self.rng.randrange(n)) if first_order else MI()
                fac = (self.rng.choice(self.chart.fields), mi)
                if fac not in vs:
                    break
            vs.append(fac)
        return tuple(("x", i) for i in sorted(hs)) + tuple(
            ("v", a, mi.entries) for a, mi in sorted(vs, key=lambda p: (p[0], p[1].entries))
        )

    def form(self, r, s, terms=2):
        from cpsforge.forms import Form

        acc = {}
        for _ in range(self.shape.randint(1, terms)):
            acc[self.word(r, s)] = self.expr()
        return Form(self.chart, r, s, acc)

    def any_form(self):
        return self.form(self.shape.randint(0, self.chart.n), self.shape.randint(0, 2))

    def ev_field(self):
        return {a: self.expr() for a in self.chart.fields}

    def coefficient(self) -> int:
        return self.rng.choice([-2, -1, 1, 2]) if self.shape.randrange(5) else 0

    def tangent_field(self):
        n = self.chart.n
        out = [self.coefficient() + self.coefficient() * self.chart.xs[self.rng.randrange(n)]
               for _ in range(n)]
        out[-1] = out[-1] * self.chart.xs[-1]
        return out


def _identities(*pairs):
    """An operation's output: each (label, lhs, rhs) with whether lhs == rhs;
    an rhs of None stands for zero."""
    return [(label, lhs, rhs, lhs.is_zero() if rhs is None else lhs == rhs)
            for label, lhs, rhs in pairs]


def _identity_check(out):
    bad = [label for label, _, _, ok in out if not ok]
    return f"identity fails: {', '.join(bad)}" if bad else None


def build_kernel(seed: int) -> list[list[Op]]:
    from cpsforge import forms, relative
    from cpsforge.chart import Chart

    chart = Chart(("t", "x"), ("u", "v"), max_jet_order=8)
    pair = relative.BoundaryPair(chart)
    rnd = RandomForms(chart, random.Random(seed), random.Random(SHAPE_SEED))
    brnd = RandomForms(pair.bchart, random.Random(seed + 1), random.Random(SHAPE_SEED + 1))
    ops = []

    def add(group, k, run):
        ops.append(Op(f"{group}:{k}", lambda ctx: run(), _identity_check))

    for k in range(KERNEL_CASES):
        def run(f=rnd.any_form()):
            d_h, dd, d_v = forms.d_h, forms.dd, forms.d_v_anti
            return _identities(
                ("d_h^2", d_h(d_h(f)), None),
                ("dd^2", dd(dd(f)), None),
                ("anticommutator", d_h(d_v(f)) + d_v(d_h(f)), None),
            )
        add("d_h_dd", k, run)
    for k in range(KERNEL_CASES):
        f, g = rnd.any_form(), rnd.any_form()
        if f.is_zero() or g.is_zero():
            continue
        (rf, sf), (rg, sg) = f.bidegree, g.bidegree

        def run(f=f, g=g, sign=(-1) ** (rf * rg + sf * sg)):
            return _identities(("graded commutativity", forms.wedge(f, g), forms.wedge(g, f) * sign))
        add("wedge", k, run)
    for k in range(KERNEL_CASES):
        def run(f=rnd.any_form(), W=rnd.ev_field()):
            d_h, dd, iota, lie = forms.d_h, forms.dd, forms.iota_ev_anti, forms.lie_ev
            return _identities(
                ("iota anticommutes with d_h", iota(W, d_h(f)) + d_h(iota(W, f)), None),
                ("lie commutes with d_h", lie(W, d_h(f)), d_h(lie(W, f))),
                ("lie commutes with dd", lie(W, dd(f)), dd(lie(W, f))),
            )
        add("iota_lie", k, run)
    for k in range(KERNEL_CASES):
        r, s = rnd.shape.randint(1, 2), rnd.shape.randint(0, 1)
        p = relative.RelForm(pair, rnd.form(r, s), brnd.form(r - 1, s))

        def run(p=p, xi=rnd.tangent_field()):
            rel_d, rel_iota = relative.rel_d, relative.rel_iota
            lhs = relative.rel_lie(xi, p)
            rhs = rel_iota(xi, rel_d(p)) + rel_d(rel_iota(xi, p))
            return _identities(("relative Cartan bulk", lhs.bulk, rhs.bulk),
                               ("relative Cartan boundary", lhs.boundary, rhs.boundary))
        add("rel_cartan", k, run)
    for k in range(KERNEL_CASES):
        p = relative.RelForm(pair, rnd.form(1, 0), brnd.form(0, 0))
        q = relative.RelForm(pair, rnd.form(1, 1), brnd.form(0, 1))

        def run(p=p, q=q):
            rel_d, rel_wedge = relative.rel_d, relative.rel_wedge
            lhs = rel_d(rel_wedge(p, q))
            rhs = rel_wedge(rel_d(p), q) + rel_wedge(p, rel_d(q)) * (-1)
            return _identities(("relative Leibniz bulk", lhs.bulk, rhs.bulk),
                               ("relative Leibniz boundary", lhs.boundary, rhs.boundary))
        add("rel_leibniz", k, run)
    random.Random(seed).shuffle(ops)
    return [ops]


def build(workload: str, seed: int) -> list[list[Op]]:
    if workload == "derive-su2":
        return build_derive(seed, heavy=True)
    if workload == "derive-corpus":
        return build_derive(seed, heavy=False)
    if workload == "kernel-bicomplex":
        return build_kernel(seed)
    if workload == "numeric-checks":
        return build_numeric(seed)
    raise SetupError(f"unknown workload {workload!r}")


# -- measurement ---------------------------------------------------------------------


def output_digest(out) -> str:
    return hashlib.sha256(str(out).encode()).hexdigest()


class Runner:
    """Runs units of operations, timing each and recording its failures."""

    def __init__(self, clear_cache):
        self.clear_cache = clear_cache
        self.times: dict[str, list[float]] = {}
        self.attempted = self.failed = 0
        self.errors: list[str] = []
        self.digests: dict[str, str] | None = None

    def _fail(self, op: Op, why: str) -> None:
        self.failed += 1
        if len(self.errors) < 20:
            self.errors.append(f"{op.name}: {why}")

    def run_unit(self, unit: list[Op]) -> float:
        """Clear the cache, run the unit's operations; returns their summed time.

        A full garbage collection first gives every unit the same clean heap a
        fresh process would start from.
        """
        self.clear_cache()
        gc.collect()
        ctx: dict = {}
        spent = 0.0
        for i, op in enumerate(unit):
            self.attempted += 1
            if i == 0 and cache_entries():
                self._fail(op, "cold-cache rule broken: sympy cache not empty at start")
                continue
            t0 = time.perf_counter()
            try:
                out = op.run(ctx)
            except Exception as err:  # an exception is a failed operation, not a crash
                self._fail(op, f"{type(err).__name__}: {err}")
                continue
            dt = time.perf_counter() - t0
            spent += dt
            self.times.setdefault(op.name, []).append(dt)
            why = op.check(out)
            if why is not None:
                self._fail(op, why)
            if self.digests is not None:
                self.digests.setdefault(op.name, output_digest(out))
        return spent


def median_by_pass(per_pass: list[dict], index: int) -> dict:
    """Per span, the median over passes of one of its [calls, self_s, total_s]."""
    return {k: statistics.median(p[k][index] for p in per_pass) for k in per_pass[0]}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true", help="time the set-up and exit")
    ap.add_argument("--details", action="store_true",
                    help="also report a digest of every operation's output")
    args = ap.parse_args(argv)
    if sys.flags.hash_randomization:
        raise SetupError(f"run with PYTHONHASHSEED={HASH_SEED}")

    import_program()
    from sympy.core.cache import clear_cache

    units = build(args.workload, args.seed)
    setup_s = time.perf_counter() - T_START
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    tracer = None
    if args.trace:
        import spans

        tracer = spans.Tracer()
        spans.install(tracer)
    runner = Runner(clear_cache)
    if args.details:
        runner.digests = {}
    pass_s, pass_stats, pass_counters = [], [], []
    deadline = time.perf_counter() + args.seconds
    while True:
        pass_s.append(sum(runner.run_unit(unit) for unit in units))
        if tracer is not None:
            stats, counters = tracer.take()
            pass_stats.append(stats)
            pass_counters.append(counters)
        if len(pass_s) >= MIN_PASSES and time.perf_counter() >= deadline:
            break
    result = {
        "setup_s": setup_s,
        "pass_s": pass_s,
        "op_times": runner.times,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "errors": runner.errors,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if tracer is not None:
        # counts from the first pass, so they repeat exactly for one seed; times as
        # medians over passes
        first = pass_stats[0]
        result["trace"] = {
            "calls": {k: v[0] for k, v in first.items()},
            "self_s": median_by_pass(pass_stats, 1),
            "total_s": median_by_pass(pass_stats, 2),
            "counters": pass_counters[0],
        }
    if runner.digests is not None:
        result["digests"] = runner.digests
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except SetupError as err:
        print(f"worker: {err}", file=sys.stderr)
        sys.exit(2)
