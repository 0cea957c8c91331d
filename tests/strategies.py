"""Shared test helpers: hypothesis strategies for random jet expressions and
random forms, and a call counter for cpsforge functions."""
from __future__ import annotations

import collections
import sys
from fractions import Fraction

import sympy as sp
from hypothesis import strategies as st

from cpsforge.chart import Chart, MultiIndex
from cpsforge.forms import Form


def make_chart(n=2, fields=("u", "v"), metric=None, max_jet_order=4) -> Chart:
    names = ("t", "x", "y", "z")[:n]
    return Chart(names, fields, max_jet_order=max_jet_order, metric=metric)


def atom_pool(chart: Chart, max_order=2):
    atoms = list(chart.xs)
    for a in chart.fields:
        atoms.append(chart.jet(a, MultiIndex()))
        for i in range(chart.n):
            if max_order >= 1:
                atoms.append(chart.jet(a, MultiIndex.make(i)))
        if max_order >= 2:
            atoms.append(chart.jet(a, MultiIndex.make(0, min(1, chart.n - 1))))
    return atoms


def exprs(chart: Chart, max_order=2):
    """Small polynomial jet expressions with integer coefficients."""
    atoms = atom_pool(chart, max_order)
    base = st.sampled_from(atoms)
    coeff = st.integers(min_value=-3, max_value=3)

    def build(parts):
        e = sp.Integer(0)
        for c, factors in parts:
            m = sp.Integer(c)
            for f in factors:
                m *= f
            e += m
        return sp.expand(e)

    monomial = st.tuples(coeff, st.lists(base, min_size=0, max_size=2))
    return st.lists(monomial, min_size=0, max_size=3).map(build)


def words(chart: Chart, r: int, s: int, max_order=2):
    hs = st.lists(
        st.integers(min_value=0, max_value=chart.n - 1), min_size=r, max_size=r, unique=True
    )
    mi_pool = [MultiIndex()]
    for i in range(chart.n):
        mi_pool.append(MultiIndex.make(i))
    if max_order >= 2:
        mi_pool.append(MultiIndex.make(0, 0))
        mi_pool.append(MultiIndex.make(0, min(1, chart.n - 1)))
    vs = st.lists(
        st.tuples(st.sampled_from(chart.fields), st.sampled_from(mi_pool)),
        min_size=s,
        max_size=s,
        unique=True,
    )

    def build(pair):
        hlist, vlist = pair
        word = tuple(("x", i) for i in sorted(hlist))
        word += tuple(
            ("v", a, mi.entries) for a, mi in sorted(vlist, key=lambda p: (p[0], p[1].entries))
        )
        return word

    return st.tuples(hs, vs).map(build)


def forms(chart: Chart, r: int, s: int, max_order=1, max_terms=2):
    """Random homogeneous (r, s) forms with small polynomial coefficients."""
    term = st.tuples(exprs(chart, max_order), words(chart, r, s, max_order))

    def build(terms):
        acc = {}
        for coeff, word in terms:
            acc[word] = acc.get(word, sp.Integer(0)) + coeff
        return Form(chart, r, s, acc)

    return st.lists(term, min_size=0, max_size=max_terms).map(build)


def bidegrees(n: int, max_r=None, max_s=2):
    max_r = n if max_r is None else max_r
    return st.tuples(st.integers(0, max_r), st.integers(0, max_s))


def any_forms(chart: Chart, max_order=1, max_r=None, max_s=2):
    return bidegrees(chart.n, max_r, max_s).flatmap(
        lambda rs: forms(chart, rs[0], rs[1], max_order=max_order)
    )


def evolutionary_fields(chart: Chart, max_order=1):
    """Random evolutionary field: one expression per chart field."""
    return st.tuples(*[exprs(chart, max_order) for _ in chart.fields]).map(
        lambda es: dict(zip(chart.fields, es))
    )


def x_vector_fields(chart: Chart):
    """Random polynomial vector field on the base: components in coordinates only."""
    coeff = st.integers(min_value=-2, max_value=2)
    comp = st.tuples(coeff, coeff, st.sampled_from(list(chart.xs))).map(
        lambda t: t[0] + t[1] * t[2]
    )
    return st.tuples(*[comp for _ in range(chart.n)]).map(list)


def _rebind(monkeypatch, fn, wrapper) -> None:
    """Replace ``fn`` by ``wrapper`` wherever a loaded cpsforge module binds it
    (modules import each other's names)."""
    for name, mod in list(sys.modules.items()):
        if name == "cpsforge" or name.startswith("cpsforge."):
            for attr, value in list(vars(mod).items()):
                if value is fn:
                    monkeypatch.setattr(mod, attr, wrapper)


def count_calls(monkeypatch, *fns) -> collections.Counter:
    """Count the calls of each cpsforge function in ``fns`` by name, wherever a
    loaded cpsforge module binds it."""
    counts: collections.Counter = collections.Counter()

    def counted(fn):
        def wrapper(*args, **kwargs):
            counts[fn.__name__] += 1
            return fn(*args, **kwargs)

        return wrapper

    for fn in fns:
        _rebind(monkeypatch, fn, counted(fn))
    return counts


def record_calls(monkeypatch, fn) -> list:
    """Record the positional arguments of every call of the cpsforge function
    ``fn``, wherever a loaded cpsforge module binds it."""
    calls: list = []

    def wrapper(*args, **kwargs):
        calls.append(args)
        return fn(*args, **kwargs)

    _rebind(monkeypatch, fn, wrapper)
    return calls


def normalized(p: dict) -> bool:
    """Every coefficient of a jet polynomial is an int or a Fraction with denominator != 1."""
    return all(type(c) is int or (type(c) is Fraction and c.denominator != 1) for c in p.values())
