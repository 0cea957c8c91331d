"""Coordinate charts, jet symbols, and restriction (boundary / Cauchy slice) maps.

A chart fixes coordinate names, the declared dynamical fields, a jet-order cap
and an optional constant diagonal metric.  Jet variables ``u^a_J`` are plain
sympy symbols managed here, named ``<field>__<coords>`` with the multi-index
spelled as a sorted run of coordinate names (so ``u__tx`` is the mixed second
jet of ``u``).  Restriction to a hypersurface {axis = const} relabels jets with
transversal entries to independent fields of the restricted chart:
``u.n1`` / ``u.t1`` are the first normal / time derivative families produced by
restricting along the last / first axis.  Every chart records the tensor
character of each of its fields, scalar unless set: the model parser marks the
one-form components of the root chart, and consumers of a restricted chart
read its root.

Jet symbols are made on first use: ``Chart.jet`` makes and registers one, and
``Chart.jet_key`` registers a field's order-0 jet the first time it meets that
symbol, so a restricted chart with hundreds of fields builds none up front.
A formal-function atom (``V(u)``, ``lam(t, x)``, its derivatives, or such a
derivative at a rational point) is differentiated in closed form by
``diff_function_atom``, which builds sympy's canonical result without
``sp.diff``.
"""
from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Iterable

import sympy as sp
from sympy.core.cache import cacheit
from sympy.core.expr import Expr
from sympy.core.function import AppliedUndef


class JetOrderError(ValueError):
    """A jet symbol beyond the chart's configured maximum order was requested."""


class NonTangentError(ValueError):
    """A vector field used in a relative operation is not tangent to the boundary."""


@dataclass(frozen=True)
class FieldMeta:
    """Tensor character of a declared field component."""

    kind: str  # "scalar" | "one_form"
    base: str = ""
    axis: int = -1  # component slot for one-form fields
    lie_index: int = 0


def one_form_families(meta: dict[str, FieldMeta]) -> dict[tuple[str, int], dict[int, str]]:
    """The component fields of each one-form, {(base, lie_index): {axis: field}},
    in declaration order."""
    families: dict[tuple[str, int], dict[int, str]] = {}
    for a, m in meta.items():
        if m.kind == "one_form":
            families.setdefault((m.base, m.lie_index), {})[m.axis] = a
    return families


def is_function_atom(e: sp.Expr) -> bool:
    """An undefined function of distinct symbols and rational constants, its
    derivative in some of those symbols, or such a derivative at a rational
    point (the ``Subs`` a pinned restriction makes)."""
    if isinstance(e, AppliedUndef):
        syms = [a for a in e.args if not a.is_Rational]
        return all(a.is_Symbol for a in syms) and len(set(syms)) == len(syms)
    if isinstance(e, sp.Derivative):
        return is_function_atom(e.expr) and all(v in e.expr.args for v in e.variables)
    if isinstance(e, sp.Subs):
        at_rational_point = all(p.is_Rational for p in e.point)
        return isinstance(e.expr, sp.Derivative) and is_function_atom(e.expr) and at_rational_point
    return False


def diff_function_atom(e: sp.Expr, s: sp.Symbol) -> sp.Expr:
    """``sp.diff(e, s)`` of a formal-function atom e, built in sympy's
    canonical form: f(args) gives Derivative(f, s) when s is an argument,
    Derivative(f, vc) gives Derivative(f, vc + s) with the variables sorted
    and merged as sympy does, and Subs(D, vars, point) gives
    Subs(dD/ds, vars, point), or 0 when s is bound; 0 where s does not occur.

    The result must equal ``sp.diff``'s by ``srepr``, not only by ``==``: it
    leans on sympy internals (the private ``Derivative._sort_variable_count``
    for the canonical variable order, and ``Expr.__new__`` to skip
    Derivative's constructor), checked on sympy 1.14.0.  The tests
    ``test_function_atom_derivative_is_sympys`` and
    ``test_corpus_function_atom_derivatives_are_sympys`` enforce it, so a
    sympy release that changes either fails there first."""
    if isinstance(e, sp.Subs):
        if s in e.variables:
            return sp.S.Zero
        d = diff_function_atom(e.expr, s)
        return sp.S.Zero if d == 0 else sp.Subs(d, e.variables, e.point)
    if isinstance(e, sp.Derivative):
        if s not in e.expr.args:
            return sp.S.Zero
        variable_count = sp.Derivative._sort_variable_count([*e.variable_count, (s, 1)])
        return Expr.__new__(sp.Derivative, e.expr, *variable_count)
    if s not in e.args:
        return sp.S.Zero
    return Expr.__new__(sp.Derivative, e, sp.Tuple(s, sp.S.One))


@dataclass(frozen=True, order=True)
class MultiIndex:
    """Sorted multiset of coordinate axis indices; {1,2} == {2,1}."""

    entries: tuple[int, ...] = ()

    @staticmethod
    def make(*indices: int) -> "MultiIndex":
        return MultiIndex(tuple(sorted(indices)))

    def __post_init__(self):
        if tuple(sorted(self.entries)) != self.entries:
            object.__setattr__(self, "entries", tuple(sorted(self.entries)))

    @property
    def order(self) -> int:
        return len(self.entries)

    def union(self, axis: int) -> "MultiIndex":
        return MultiIndex(tuple(sorted(self.entries + (axis,))))

    def count(self, axis: int) -> int:
        return self.entries.count(axis)

    def remove_one(self, axis: int) -> "MultiIndex":
        entries = list(self.entries)
        entries.remove(axis)
        return MultiIndex(tuple(entries))

    def split_axis(self, axis: int) -> tuple["MultiIndex", int]:
        """Return (entries without `axis`, multiplicity of `axis`)."""
        kept = tuple(e for e in self.entries if e != axis)
        return MultiIndex(kept), self.order - len(kept)

    def shift_down(self, axis: int) -> "MultiIndex":
        """Re-number entries after deleting `axis` from the coordinate list."""
        return MultiIndex(tuple(e - 1 if e > axis else e for e in self.entries))

    def __iter__(self):
        return iter(self.entries)

    def __str__(self):
        return "{" + ",".join(str(e) for e in self.entries) + "}"


class Chart:
    """A single coordinate chart with declared fields and jet bookkeeping."""

    def __init__(
        self,
        coords: Iterable[str],
        fields: Iterable[str],
        max_jet_order: int = 4,
        metric: Iterable[sp.Expr] | None = None,
    ):
        self.coord_names: tuple[str, ...] = tuple(coords)
        if len(set(self.coord_names)) != len(self.coord_names):
            raise ValueError("duplicate coordinate names")
        self.n = len(self.coord_names)
        self.xs: tuple[sp.Symbol, ...] = tuple(
            sp.Symbol(c, real=True) for c in self.coord_names
        )
        self.fields: tuple[str, ...] = tuple(fields)
        if len(set(self.fields)) != len(self.fields):
            raise ValueError("duplicate field names")
        self.max_jet_order = max_jet_order
        self.meta: dict[str, FieldMeta] = dict.fromkeys(self.fields, FieldMeta("scalar"))
        # metric: constant diagonal entries g_00..g_{n-1,n-1}; None = no metric declared
        self.metric: tuple[sp.Expr, ...] | None = (
            tuple(sp.sympify(m) for m in metric) if metric is not None else None
        )
        self._jet_by_symbol: dict[sp.Symbol, tuple[str, MultiIndex]] = {}
        self._jet_by_key: dict[tuple[str, MultiIndex], sp.Symbol] = {}
        # (base field, normal order, time order) of each field, and the
        # transversal family (field, field.<tag>1, ...) of each field of the
        # chart this one restricts; ``restricted`` fills both in
        self.labels: dict[str, tuple[str, int, int]] = {a: (a, 0, 0) for a in self.fields}
        self.families: dict[str, tuple[str, ...]] = {}
        # the chart this one restricts and the axis it drops; ``restricted`` sets both
        self.parent: Chart | None = None
        self.axis: int | None = None
        self._restricted: dict[tuple[int, str], Chart] = {}

    # -- jet symbols -----------------------------------------------------------------

    def jet(self, field: str, mi: MultiIndex) -> sp.Symbol:
        """The jet symbol u^field_mi (cached; errors beyond the jet cap)."""
        key = (field, mi)
        sym = self._jet_by_key.get(key)
        if sym is not None:
            return sym
        if field not in self.fields:
            raise KeyError(f"unknown field {field!r}")
        suffix = "".join(self.coord_names[i] for i in mi)
        if mi.order > self.max_jet_order:
            raise JetOrderError(f"jet {field}_{suffix} exceeds max jet order {self.max_jet_order}")
        name = field if not suffix else f"{field}__{suffix}"
        sym = sp.Symbol(name, real=True)
        self._jet_by_key[key] = sym
        self._jet_by_symbol[sym] = key
        return sym

    def jet_key(self, sym: sp.Symbol) -> tuple[str, MultiIndex] | None:
        """(field, multi-index) of a jet symbol of this chart, else None.  A
        symbol equal to a field's order-0 jet is registered as that jet here,
        wherever it was made."""
        key = self._jet_by_symbol.get(sym)
        if key is None and sym.name in self.labels and sym == self.jet(sym.name, MultiIndex()):
            key = (sym.name, MultiIndex())
        return key

    def jets_in(self, expr: sp.Expr) -> list[tuple[sp.Symbol, str, MultiIndex]]:
        """All jet symbols occurring in expr, deterministically ordered."""
        out = []
        for sym in expr.atoms(sp.Symbol):
            key = self.jet_key(sym)
            if key is not None:
                out.append((sym, key[0], key[1]))
        out.sort(key=lambda t: (t[1], t[2].order, t[2].entries))
        return out

    def pretty_jet(self, sym: sp.Symbol) -> str:
        key = self.jet_key(sym)
        if key is None:
            return str(sym)
        field, mi = key
        if mi.order == 0:
            return field
        return f"{field}_" + "".join(self.coord_names[i] for i in mi)

    @functools.cached_property
    def ring(self):
        """The JetRing of the forms on this chart; restrictions share it."""
        from .jetpoly import JetRing  # jetpoly imports this module

        return JetRing()

    # -- derivatives -----------------------------------------------------------------

    def factor_derivative(self, axis: int, f: sp.Expr) -> tuple[sp.Expr, bool]:
        """D_axis of one factor of a monomial; the flag marks a formal-function
        or sympy result, a sum that may need expanding."""
        x = self.xs[axis]
        if f.is_Symbol or (f.is_Pow and f.base.is_Symbol and f.exp.is_Number):
            base, e = f.as_base_exp()
            if base == x:
                inner = sp.S.One
            elif (key := self.jet_key(base)) is not None:
                inner = self.jet(key[0], key[1].union(axis))
            else:
                return sp.S.Zero, False
            return e * base ** (e - 1) * inner, False
        if not f.free_symbols:
            return sp.S.Zero, False
        diff = diff_function_atom if is_function_atom(f) else sp.diff
        out = diff(f, x)
        for sym, field, mi in self.jets_in(f):
            d = diff(f, sym)
            if d != 0:
                out += self.jet(field, mi.union(axis)) * d
        return out, True

    def total_derivative(self, axis: int, expr: sp.Expr) -> sp.Expr:
        """Total derivative D_axis of a sympy expression, returned expanded.

        The input is expanded once; on each monomial the chain rule acts
        factor by factor (Leibniz rule).  A jet power s**e with numeric e gives
        e*s**(e-1)*s_{J+axis} and a power of x^axis its ordinary derivative;
        a formal-function atom is differentiated in closed form
        (``diff_function_atom``), with the chain rule through the jets among
        its arguments; any other factor that depends on x^axis or on a jet (a
        symbolic exponent, a non-polynomial power) is differentiated by sympy
        on its own.  Constants and parameters give nothing.  JetOrderError is
        raised only when a jet at the cap occurs with a nonzero derivative.
        """
        expr = sp.expand(sp.sympify(expr))
        memo: dict[sp.Expr, tuple[sp.Expr, bool]] = {}
        terms = []
        needs_expand = False
        for mono in sp.Add.make_args(expr):
            factors = sp.Mul.make_args(mono)
            for i, f in enumerate(factors):
                got = memo.get(f)
                if got is None:
                    got = memo[f] = self.factor_derivative(axis, f)
                d, fallback = got
                if d == 0:
                    continue
                needs_expand |= fallback
                terms.append(sp.Mul(*factors[:i], d, *factors[i + 1:]))
        out = sp.Add(*terms)
        return sp.expand(out) if needs_expand else out

    @cacheit
    def total_derivative_multi(self, mi: MultiIndex, expr: sp.Expr) -> sp.Expr:
        """D_J expr, taken as D_{j_last} D_{J - j_last} expr and memoised per
        (chart, J, expr), so each prefix of J is taken once.  The memo lives in
        sympy's cache, so ``clear_cache()`` empties it."""
        if not mi.entries:
            return sp.sympify(expr)
        *prefix, axis = mi.entries
        return self.total_derivative(axis, self.total_derivative_multi(MultiIndex(tuple(prefix)), expr))

    # -- metric helpers ----------------------------------------------------------------

    def require_metric(self) -> tuple[sp.Expr, ...]:
        if self.metric is None:
            raise ValueError("chart declares no metric")
        return self.metric

    def metric_det(self) -> sp.Expr:
        g = self.require_metric()
        return sp.prod(g)

    # -- restriction -------------------------------------------------------------------

    def restricted(self, axis: int, tag: str | None = None) -> "Chart":
        """Chart of the hypersurface {x^axis = const}, made once per (axis, tag).

        Fields: every bulk field, plus transversal-derivative families
        ``<field>.n<k>`` (boundary role) or ``<field>.t<k>`` (Cauchy-slice
        role) up to the jet cap.  The restricted metric is the induced
        (deleted-axis) diagonal.  The sub-chart records where it comes from,
        ``sub.parent is self`` and ``sub.axis == axis``, so every restriction
        to it (``restrict_expr``, ``forms.restrict``, the rings' ``restrict``)
        takes the sub-chart alone.
        """
        tag = tag or ("n" if axis == self.n - 1 else "t")
        got = self._restricted.get((axis, tag))
        if got is not None:
            return got
        coords = tuple(c for i, c in enumerate(self.coord_names) if i != axis)
        families = {
            a: (a,) + tuple(f"{a}.{tag}{k}" for k in range(1, self.max_jet_order + 1))
            for a in self.fields
        }
        metric = None
        if self.metric is not None:
            metric = tuple(m for i, m in enumerate(self.metric) if i != axis)
        fields = [name for family in families.values() for name in family]
        sub = Chart(coords, fields, max_jet_order=self.max_jet_order, metric=metric)
        sub.ring = self.ring
        sub.parent, sub.axis = self, axis
        sub.families = families
        for a, family in families.items():
            base, normal, time = self.labels[a]
            for k, name in enumerate(family):
                sub.labels[name] = (base, normal + k, time) if tag == "n" else (base, normal, time + k)
        self._restricted[(axis, tag)] = sub
        return sub

    def restricted_jet(self, field: str, mi: MultiIndex, sub: "Chart") -> sp.Symbol:
        """The jet of sub, a restriction of this chart, that u^field_mi relabels to."""
        kept, k = mi.split_axis(sub.axis)
        return sub.jet(sub.families[field][k], kept.shift_down(sub.axis))

    def restrict_expr(self, expr: sp.Expr, sub: "Chart", value: sp.Expr | None = None) -> sp.Expr:
        """Relabel jets of expr for sub, a restriction of this chart.

        The transversal coordinate symbol is kept inert unless a pin value is
        given (the numeric layer binds it per face; the pipeline pins it to the
        canonical face).  A formal function of that coordinate is pinned with
        ``subs``, so ``Derivative(lam(t, x), x)`` becomes a ``Subs`` at the
        pinned point instead of a derivative by a number.
        """
        x = self.xs[sub.axis]
        kinds = (sp.Symbol,) if value is None else (sp.Symbol, AppliedUndef, sp.Derivative, sp.Subs)
        repl, funcs = {}, []
        for a in expr.atoms(*kinds):
            key = self.jet_key(a) if a.is_Symbol else None
            if key is not None:
                repl[a] = self.restricted_jet(*key, sub)
            elif not a.is_Symbol and x in a.free_symbols:
                funcs.append(a)
        if value is not None:
            value = sp.sympify(value)
            repl.update({f: f.xreplace(repl).subs(x, value) for f in funcs})
            repl[x] = value
        return expr.xreplace(repl)


def translate_expr(expr: sp.Expr, src: "Chart", dst: "Chart") -> sp.Expr:
    """Relabel the jets of expr between charts whose restricted-field labels
    differ only in tag composition order (e.g. corner charts reached via
    slice-then-boundary vs boundary-then-slice)."""
    repl = {
        sym: dst.jet(translated_field(field, src, dst), mi) for sym, field, mi in src.jets_in(expr)
    }
    return expr.xreplace(repl)


def translated_field(field: str, src: "Chart", dst: "Chart") -> str:
    """The field of dst with the same (base, normal order, time order) as
    field has in src."""
    for cand, label in dst.labels.items():
        if label == src.labels[field]:
            return cand
    raise KeyError(f"no field in target chart matching {field!r}")


@cacheit
def _perm_sign(perm: tuple[int, ...]) -> int:
    sign = 1
    seen = [False] * len(perm)
    for i in range(len(perm)):
        if seen[i]:
            continue
        j, length = i, 0
        while not seen[j]:
            seen[j] = True
            j = perm[j]
            length += 1
        if length % 2 == 0:
            sign = -sign
    return sign


def levi_civita(*indices: int) -> int:
    """Sign of the permutation given by indices; 0 on repeats."""
    if len(set(indices)) != len(indices):
        return 0
    order = tuple(sorted(range(len(indices)), key=lambda k: indices[k]))
    return _perm_sign(order)
