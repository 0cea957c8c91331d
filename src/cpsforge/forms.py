"""Bigraded differential forms on a jet chart.

A ``Form`` is a finite sum of terms ``coeff * word`` where the word is a
strictly sorted wedge of horizontal generators ``dx^i`` and vertical (contact)
generators ``th{u_J}``.  The global basis order is dx^0 < ... < dx^{n-1} <
contact generators ordered by (field, multi-index).  A word with r horizontal
and s vertical factors has bidegree (r, s); most forms are homogeneous, but
mixed contractions are allowed to produce inhomogeneous sums (the word always
carries the true grading, and every operator acts term-by-term).

Sign conventions.  The wedge is graded-commutative with the double-grading sign

    f ^ g = (-1)^(r_f r_g + s_f s_g) g ^ f,

so horizontal and vertical generators commute with each other while generators
of like type anticommute.  On this algebra the consistent left-Leibniz signs
are per-grading, and the primitive operators are the commuting-convention pair:

    d_h   : (r,s) -> (r+1,s)   Leibniz sign (-1)^r,    d_h d_h = 0
    dd    : (r,s) -> (r,s+1)   Leibniz sign (-1)^s,    dd dd = 0,  d_h dd = dd d_h
    iota_x: horizontal slot sign (-1)^r, contact slot sign (-1)^s
    iota_ev: (r,s) -> (r,s-1)  Leibniz sign (-1)^s,    iota_ev d_h = d_h iota_ev
    lie_x  = iota_x d_h + d_h iota_x        lie_ev = iota_ev dd + dd iota_ev

The anticommuting-convention views differ by the usual (-1)^r ``twist`` and
are exposed as ``d_v_anti = (-1)^r dd`` and ``iota_ev_anti = (-1)^r iota_ev``;
for those the identities d_h d_v_anti + d_v_anti d_h = 0 and
iota_ev_anti d_h + d_h iota_ev_anti = 0 hold exactly.

Coefficients.  A form's coefficients are polynomials of its chart's
``JetRing`` (see ``jetpoly``), which the root chart owns and its restrictions
share, so the operators are ring arithmetic: ``wedge`` multiplies, ``d_h`` and
``dd`` apply the ring's derivations, ``restrict`` relabels atoms.  A
coefficient the ring cannot represent (``1/(1+u)``, ``sqrt(2)``) puts the
whole form on ``EXPR``, expanded sympy expressions.  An operation whose forms
sit on different rings, or whose scalar (a vector component, ``D_J W^a``, a
metric factor) is not representable, runs on ``EXPR``; its result returns to
the chart's ring when every coefficient converts.  Sympy expressions enter as
constructor input; ``iter_terms`` and ``top_coefficient`` give them back, and
``str`` prints each coefficient with its ring's ``sstr``.

Memos.  Work whose inputs repeat is done once per sympy cache epoch: the
sort of each raw word (``_sort_word``, unbounded), xi's components on their
ring (``_check_xi``), the polynomial of each prolongation D_J W^a
(``_prolonged``, over ``Chart.total_derivative_multi``) and each contact
factor bumped by d_h along a word's free axes (``_bumped``).  All of them live in sympy's cache, so
``clear_cache()`` empties them and a new process or benchmark unit starts
cold.  A memoised polynomial is shared, and nothing mutates it: no ``JetRing``
operation changes its arguments.  A form on the chart's ring compares by its
``terms``: canonical words, no zero coefficients and ``int`` for every
integral rational make dict equality exact.
"""
from __future__ import annotations

import functools
from typing import Callable, Iterable, Mapping

import sympy as sp
from sympy.core.cache import CACHE, cacheit

from .chart import Chart, MultiIndex, levi_civita
from .jetpoly import EXPR, choose_ring

# factor encodings: ("x", axis) horizontal, ("v", field, entries) vertical
Factor = tuple
Word = tuple


def _factor_sort_key(f: Factor):
    if f[0] == "x":
        return (0, f[1], "", ())
    return (1, 0, f[1], f[2])


def top_word(n: int) -> Word:
    """The volume word dx^0 ^ ... ^ dx^{n-1}."""
    return tuple(("x", i) for i in range(n))


def word_bidegree(word: Word) -> tuple[int, int]:
    r = sum(1 for f in word if f[0] == "x")
    return (r, len(word) - r)


@functools.lru_cache(maxsize=None)
def _sort_word(raw: Word) -> tuple[Word, int]:
    """Canonically sort a raw factor sequence.

    Returns (word, sign); the sign counts only transpositions of like-type
    factors (cross-type factors commute).  A repeated factor gives sign 0.
    Memoised without bound in sympy's cache: one pass over many forms sorts
    more distinct words than ``cacheit``'s 1,000 entries hold.
    """
    keys = [_factor_sort_key(f) for f in raw]
    if all(a < b for a, b in zip(keys, keys[1:])):
        return tuple(raw), 1
    hs = [f for f in raw if f[0] == "x"]
    vs = [f for f in raw if f[0] != "x"]
    sign = 1
    for part in (hs, vs):
        m = len(part)
        for i in range(m):
            for j in range(m - 1 - i):
                ka, kb = _factor_sort_key(part[j]), _factor_sort_key(part[j + 1])
                if ka == kb:
                    return tuple(), 0
                if ka > kb:
                    part[j], part[j + 1] = part[j + 1], part[j]
                    sign = -sign
    return tuple(hs + vs), sign


CACHE.append(_sort_word)  # so clear_cache() empties it


class Form:
    """Immutable linear combination of wedge words.

    The coefficients are polynomials of ``ring``: the chart's ``JetRing`` when
    it represents every one of them, else ``EXPR`` (expanded sympy
    expressions).
    """

    __slots__ = ("chart", "_tag", "terms", "ring")

    def __init__(self, chart: Chart, r: int = 0, s: int = 0, terms: dict | Iterable = ()):
        """``terms`` is a dict from words to coefficients, or (word, coeff) pairs.
        Words may be unsorted or repeated: the sorting sign is applied and
        repeats are summed.  A coefficient is a sympy expression or a
        polynomial of ``chart.ring``."""
        self.chart = chart
        self._tag = (r, s)
        # Polynomials of chart.ring are summed as they come.  From the first
        # other coefficient (a sympy expression) on, the terms wait in rest
        # for one choose_ring over every coefficient.
        ring, acc, rest = chart.ring, {}, []
        for word, coeff in terms.items() if isinstance(terms, dict) else terms:
            word, sign = _sort_word(word)
            if not sign:
                continue
            if rest or coeff.__class__ is not dict:
                rest.append((word, sign, coeff))
            else:
                acc[word] = ring.add(acc[word], coeff, sign) if word in acc else ring.scale(coeff, sign)
        if rest:
            ring, coeffs = choose_ring(ring, [*acc.values(), *(c for _, _, c in rest)])
            acc = dict(zip(acc, coeffs))  # the sums so far, on the chosen ring
            for (word, sign, _), c in zip(rest, coeffs[len(acc):]):
                acc[word] = ring.add(acc[word], c, sign) if word in acc else ring.scale(c, sign)
        if ring is not chart.ring:  # a cancellation may leave representable sums
            ring, sums = choose_ring(chart.ring, acc.values())
            acc = dict(zip(acc, sums))
        self.ring = ring
        self.terms = {w: c for w, c in acc.items() if not ring.is_zero(c)}

    # -- constructors ------------------------------------------------------------------

    @staticmethod
    def zero(chart: Chart, r: int = 0, s: int = 0) -> "Form":
        return Form(chart, r, s)

    @staticmethod
    def scalar(chart: Chart, expr) -> "Form":
        return Form(chart, 0, 0, {(): expr})

    @staticmethod
    def top(chart: Chart, coeff) -> "Form":
        """coeff dx^0 ^ ... ^ dx^{n-1}."""
        return Form(chart, chart.n, 0, {top_word(chart.n): coeff})

    @staticmethod
    def dx(chart: Chart, axis: int) -> "Form":
        return Form(chart, 1, 0, {(("x", axis),): 1})

    @staticmethod
    def contact(chart: Chart, field: str, mi: MultiIndex = MultiIndex()) -> "Form":
        chart.jet(field, mi)  # validates field and jet cap
        return Form(chart, 0, 1, {(("v", field, mi.entries),): 1})

    # -- bookkeeping -------------------------------------------------------------------

    @property
    def bidegree(self) -> tuple[int, int]:
        """Common bidegree of all terms (the construction tag for the zero form)."""
        degs = {word_bidegree(w) for w in self.terms}
        if not degs:
            return self._tag
        if len(degs) > 1:
            raise ValueError(f"inhomogeneous form: bidegrees {sorted(degs)}")
        return degs.pop()

    @property
    def r(self) -> int:
        return self.bidegree[0]

    def is_zero(self) -> bool:
        return not self.terms

    def is_homogeneous(self) -> bool:
        return len({word_bidegree(w) for w in self.terms}) <= 1

    def _words(self) -> list:
        """The words, in canonical order."""
        return sorted(self.terms, key=lambda w: (len(w), tuple(_factor_sort_key(f) for f in w)))

    def iter_terms(self):
        """(word, coefficient as a sympy expression), in canonical word order."""
        for word in self._words():
            yield word, self.ring.expr(self.terms[word])

    def _top(self):
        """Coefficient of the volume word on ``ring``; raises on any other term."""
        word = top_word(self.chart.n)
        if any(w != word for w in self.terms):
            raise ValueError("expected a purely horizontal top-degree form")
        return self.terms.get(word, self.ring.poly(0))

    def top_coefficient(self) -> sp.Expr:
        return self.ring.expr(self._top())

    def jet_order(self) -> int:
        ring, chart = self.ring, self.chart
        orders = [mi.order for c in self.terms.values() for _, _, mi in ring.jets(chart, c)]
        return max(orders + [len(f[2]) for w in self.terms for f in w if f[0] == "v"], default=0)

    # -- algebra -----------------------------------------------------------------------

    def __add__(self, other: "Form") -> "Form":
        return self._plus(other, other.terms.items())

    def __sub__(self, other: "Form") -> "Form":
        return self._plus(other, [(w, other.ring.scale(c, -1)) for w, c in other.terms.items()])

    def _plus(self, other: "Form", other_terms) -> "Form":
        """self plus other_terms, other's terms or their negatives, in one construction."""
        if self.chart is not other.chart:
            raise ValueError("forms live on different charts")
        tag = self._tag if self.terms or not other.terms else other._tag
        return Form(self.chart, *tag, [*self.terms.items(), *other_terms])

    def __mul__(self, scalar) -> "Form":
        if isinstance(scalar, Form):
            raise TypeError("use wedge() for form products")
        ring, (k, *coeffs) = choose_ring(self.chart.ring, [scalar, *self.terms.values()])
        return Form(self.chart, *self._tag, zip(self.terms, [ring.mul(k, c) for c in coeffs]))

    __rmul__ = __mul__

    def __neg__(self) -> "Form":
        return Form(self.chart, *self._tag, {w: self.ring.scale(c, -1) for w, c in self.terms.items()})

    def __eq__(self, other) -> bool:
        if not isinstance(other, Form):
            return NotImplemented
        if self.chart is not other.chart:
            return False
        if self.ring is not EXPR and other.ring is not EXPR:  # both on chart.ring
            return self.terms == other.terms
        return (self - other).is_zero()

    def __hash__(self):
        raise TypeError("Form is not hashable")

    def __repr__(self):
        return f"Form{self._pretty_degree()}: {self}"

    def _pretty_degree(self) -> str:
        try:
            return str(self.bidegree)
        except ValueError:
            return "(mixed)"

    def __str__(self):
        if not self.terms:
            return "0"
        chart = self.chart
        parts = []
        for word in self._words():
            factors = []
            for f in word:
                if f[0] == "x":
                    factors.append("d" + chart.coord_names[f[1]])
                else:
                    factors.append("th{%s}" % chart.pretty_jet(chart.jet(f[1], MultiIndex(f[2]))))
            cs = self.ring.sstr(self.terms[word])
            if factors:
                parts.append(f"({cs}) {'^'.join(factors)}")
            else:
                parts.append(f"({cs})")
        return " + ".join(parts)


# -- wedge ---------------------------------------------------------------------------


def wedge(f: Form, g: Form) -> Form:
    """Wedge product; graded-commutative with the double-grading sign.

    Horizontal overflow needs no special case: a word with more than n
    horizontal factors repeats one and vanishes, and such products are skipped.
    """
    if f.chart is not g.chart:
        raise ValueError("forms live on different charts")
    nf = len(f.terms)
    ring, coeffs = choose_ring(f.chart.ring, [*f.terms.values(), *g.terms.values()])
    g_terms = list(zip(g.terms, coeffs[nf:]))
    rf, sf = f._tag
    rg, sg = g._tag
    return Form(f.chart, rf + rg, sf + sg, [
        (wf + wg, ring.mul(cf, cg))
        for wf, cf in zip(f.terms, coeffs[:nf]) for wg, cg in g_terms
        if not any(fac in wf for fac in wg)
    ])


# -- differentials -------------------------------------------------------------------


def d_h(f: Form) -> Form:
    """Horizontal differential; (r,s) -> (r+1,s).

    dx^i ^ word vanishes when the word holds dx^i, so a term's coefficient is
    differentiated, and its contact factors bumped, only along the other
    (free) axes; JetOrderError exactly where such a kept term needs a jet
    past the cap."""
    chart, ring = f.chart, f.ring
    terms = []
    for word, coeff in f.terms.items():
        free = tuple(i for i in range(chart.n) if ("x", i) not in word)
        if not free:
            continue
        terms += [((("x", i),) + word, ring.total_derivative(chart, i, coeff)) for i in free]
        signed = ring.scale(coeff, (-1) ** (chart.n - len(free)))  # (-1)^r
        for pos, fac in enumerate(word):
            if fac[0] == "v":
                terms += [(word[:pos] + (("x", i), bumped) + word[pos + 1:], signed)
                          for i, bumped in zip(free, _bumped(chart, fac, free))]
    r0, s0 = f._tag
    return Form(chart, r0 + 1, s0, terms)


@cacheit
def _bumped(chart: Chart, fac: Factor, axes: tuple) -> tuple:
    """The contact factors th{u_{J+i}}, one per axis i of axes, of th{u_J};
    JetOrderError past the jet cap.  Memoised per (chart, factor, axes) in
    sympy's cache."""
    a, mi = fac[1], MultiIndex(fac[2])
    for i in axes:
        chart.jet(a, mi.union(i))  # jet-cap check
    return tuple(("v", a, mi.union(i).entries) for i in axes)


def dd(f: Form) -> Form:
    """Vertical (field-space) differential; (r,s) -> (r,s+1); commutes with d_h."""
    chart, ring = f.chart, f.ring
    terms = []
    for word, p in f.terms.items():
        hs = tuple(fac for fac in word if fac[0] == "x")
        vs = tuple(fac for fac in word if fac[0] == "v")
        for _, a, mi, dp in ring.gradient(chart, p):
            terms.append((hs + (("v", a, mi.entries),) + vs, dp))
    r0, s0 = f._tag
    return Form(chart, r0, s0 + 1, terms)


def twist(f: Form) -> Form:
    """The anticommuting-convention sign: (-1)^r on each term of horizontal degree r."""
    terms = {w: f.ring.scale(c, (-1) ** word_bidegree(w)[0]) for w, c in f.terms.items()}
    return Form(f.chart, *f._tag, terms)


def d_v_anti(f: Form) -> Form:
    """Anticommuting-convention vertical differential: (-1)^r dd, term by term."""
    return twist(dd(f))


# -- contractions --------------------------------------------------------------------


@cacheit
def _check_xi(chart: Chart, xi: tuple) -> tuple:
    """(ring, xi's components on it): the chart's ring when it represents
    every component, else EXPR.  Memoised per (chart, xi) in sympy's cache;
    xi is a tuple of sympy expressions, so 1 and 1.0 are different keys."""
    if len(xi) != chart.n:
        raise ValueError(f"vector field needs {chart.n} components, got {len(xi)}")
    ring, comps = choose_ring(chart.ring, xi)
    if any(ring.jets(chart, c) for c in comps):
        raise ValueError("jet-dependent vector fields are not supported")
    return ring, tuple(comps)


def _contract(f: Form, value: Callable[[Factor], object], r: int, s: int) -> Form:
    """The antiderivation that replaces each factor of a word by the scalar
    value(factor), a sympy expression or a polynomial of the chart's ring,
    with the sign (-1)^k for k like-type factors before it."""
    values = {fac: value(fac) for fac in dict.fromkeys(fac for word in f.terms for fac in word)}
    nf = len(f.terms)
    ring, coeffs = f.chart.ring, [*f.terms.values(), *values.values()]
    if not all(isinstance(c, dict) for c in coeffs):  # else all are polynomials of the ring
        ring, coeffs = choose_ring(ring, coeffs)
    values = {fac: v for fac, v in zip(values, coeffs[nf:]) if not ring.is_zero(v)}
    terms = []
    for word, c in zip(f.terms, coeffs[:nf]):
        sign = {"x": 1, "v": 1}
        for pos, fac in enumerate(word):
            if fac in values:
                signed = ring.scale(c, sign[fac[0]])
                terms.append((word[:pos] + word[pos + 1:], ring.mul(signed, values[fac])))
            sign[fac[0]] *= -1
    return Form(f.chart, r, s, terms)


def iota_x(xi, f: Form) -> Form:
    """Contraction with the coordinate vector field xi^i d/dx^i.

    Horizontal slots contract to xi^i (antiderivation in the horizontal
    grading); contact generators contract through their dx expansion,
    iota th{u_J} = -u_{J+m} xi^m (antiderivation in the vertical grading).
    Both values are built on the ring that represents xi's components.
    """
    chart, xi = f.chart, tuple(map(sp.sympify, xi))
    _, comps = _check_xi(chart, xi)

    def value(fac):
        return comps[fac[1]] if fac[0] == "x" else _contact_value(chart, xi, fac)

    r0, s0 = f._tag
    return _contract(f, value, max(r0 - 1, 0), s0)


@cacheit
def _contact_value(chart: Chart, xi: tuple, fac: Factor):
    """iota_xi th{u_J} = -sum_m xi^m u_{J+m}, on the ring of ``_check_xi``.
    Memoised per (chart, xi, factor) in sympy's cache; the polynomial is
    shared, so it is never mutated."""
    ring, comps = _check_xi(chart, xi)
    mi, out = MultiIndex(fac[2]), ring.poly(0)
    for m, c in enumerate(comps):
        if not ring.is_zero(c):
            out = ring.add(out, ring.mul(c, ring.poly(chart.jet(fac[1], mi.union(m)))), -1)
    return out


def iota_ev(W: Mapping[str, sp.Expr], f: Form) -> Form:
    """Contraction with the prolongation of the evolutionary field W.

    Contact slots contract to D_J W^a, horizontal slots are annihilated;
    vertical-grading antiderivation (Leibniz sign (-1)^s).
    """
    chart = f.chart
    W = {a: sp.sympify(w) for a, w in W.items()}

    def value(fac):
        if fac[0] == "x" or fac[1] not in W:
            return chart.ring.poly(0)
        return _prolonged(chart, fac[2], W[fac[1]])

    r0, s0 = f._tag
    return _contract(f, value, r0, max(s0 - 1, 0))


@cacheit
def _prolonged(chart: Chart, entries: tuple, w: sp.Expr):
    """D_J w for J = entries, as a polynomial of ``chart.ring`` when that ring
    represents it, else as the expanded expression.  Memoised per (chart, J,
    w) in sympy's cache; the polynomial is shared, so it is never mutated."""
    _, (p,) = choose_ring(chart.ring, [chart.total_derivative_multi(MultiIndex(entries), w)])
    return p


def iota_ev_anti(W: Mapping[str, sp.Expr], f: Form) -> Form:
    """Anticommuting-convention evolutionary contraction: (-1)^r iota_ev, term by term."""
    return twist(iota_ev(W, f))


# -- Lie derivatives -----------------------------------------------------------------


def lie_x(xi, f: Form) -> Form:
    """Lie derivative along xi via the horizontal Cartan formula.

    On purely horizontal forms this is the classical coordinate Lie derivative
    with total-derivative coefficients, which is the evaluation-compatible one.
    """
    return iota_x(xi, d_h(f)) + d_h(iota_x(xi, f))


def lie_ev(W: Mapping[str, sp.Expr], f: Form) -> Form:
    """Evolutionary Lie derivative: bidegree preserving, commutes with d_h and dd."""
    return iota_ev(W, dd(f)) + dd(iota_ev(W, f))


# -- metric machinery ----------------------------------------------------------------


def vol(chart: Chart) -> Form:
    """Metric volume form sqrt|det g| dx^0 ^ ... ^ dx^{n-1} (coefficient 1 if no metric)."""
    coeff = sp.Integer(1)
    if chart.metric is not None:
        coeff = sp.sqrt(sp.Abs(chart.metric_det()))
    return Form.top(chart, coeff)


def hodge(f: Form) -> Form:
    """Hodge star on horizontal forms, for the chart's constant diagonal metric;
    each word's constant multiplies its coefficient on ``choose_ring``'s ring."""
    chart = f.chart
    g = chart.require_metric()
    root = sp.sqrt(sp.Abs(chart.metric_det()))
    words, scales = [], []
    k = None
    for word in f.terms:
        r, s = word_bidegree(word)
        if s != 0:
            raise ValueError("hodge star implemented on horizontal forms only")
        k = r
        idx = [fac[1] for fac in word]
        comp = [i for i in range(chart.n) if i not in idx]
        words.append(tuple(("x", i) for i in comp))
        scales.append(levi_civita(*(idx + comp)) * sp.Mul(*[sp.Integer(1) / g[i] for i in idx]) * root)
    ring, coeffs = choose_ring(f.ring, [*scales, *f.terms.values()])
    r0, _ = f._tag
    terms = zip(words, map(ring.mul, coeffs[:len(scales)], coeffs[len(scales):]))
    return Form(chart, chart.n - (k if k is not None else r0), 0, terms)


def boundary_volume(bchart: Chart) -> Form:
    """Oriented lateral-boundary volume form on the boundary chart (outward
    normal along +x^{n-1} of ``bchart.parent``)."""
    chart = bchart.parent
    g = chart.require_metric()
    gnn = g[-1]
    eps = sp.sign(gnn)
    coeff = eps * (-1) ** (chart.n - 1) * sp.sqrt(sp.Abs(chart.metric_det() / gnn))
    return Form.top(bchart, sp.nsimplify(coeff))


# -- restriction ----------------------------------------------------------------------


def restrict(f: Form, sub: Chart, value: sp.Expr | None = None) -> Form:
    """Pull a form back to the hypersurface {x^axis = value}, where sub is the
    chart ``f.chart.restricted(axis, ...)``; ValueError for any other chart.

    Words containing dx^axis are dropped; transversal jets (in coefficients and
    in contact generators) are relabeled to the restricted chart's derivative
    families; remaining horizontal axes are renumbered.  The transversal
    coordinate stays an inert symbol unless a pin value is supplied.
    """
    if sub.parent is not f.chart:
        raise ValueError("the target chart is not a restriction of the form's chart")
    ring, axis = f.ring, sub.axis
    terms = []
    for word, coeff in f.terms.items():
        if any(fac[0] == "x" and fac[1] == axis for fac in word):
            continue
        new_word = []
        for fac in word:
            if fac[0] == "x":
                new_word.append(("x", fac[1] - 1 if fac[1] > axis else fac[1]))
            else:
                mi = MultiIndex(fac[2])
                kept, k = mi.split_axis(axis)
                new_word.append(("v", sub.families[fac[1]][k], kept.shift_down(axis).entries))
        terms.append((tuple(new_word), ring.restrict(sub, coeff, value)))
    r0, s0 = f._tag
    return Form(sub, max(r0 - 1, 0), s0, terms)


def section_pullback(f: Form, phi: Mapping[str, sp.Expr]) -> Form:
    """Pull back along the prolonged section u^a = phi^a(x).

    Contact generators are expanded in the du/dx basis and evaluated on the
    section, so any contact factor collapses to zero after simplification.
    """
    chart = f.chart

    def section_sub(e: sp.Expr) -> sp.Expr:
        repl = {}
        for sym, a, mi in chart.jets_in(e):
            base = sp.sympify(phi[a])
            for ax in mi:
                base = sp.diff(base, chart.xs[ax])
            repl[sym] = base
        return e.xreplace(repl)

    out = Form.zero(chart, 0, 0)
    for word, coeff in f.iter_terms():
        piece = Form.scalar(chart, section_sub(coeff))
        for fac in word:
            if fac[0] == "x":
                piece = wedge(piece, Form.dx(chart, fac[1]))
            else:
                a, mi = fac[1], MultiIndex(fac[2])
                one_form = Form.zero(chart, 1, 0)
                for m in range(chart.n):
                    d_section = sp.diff(section_sub(chart.jet(a, mi)), chart.xs[m])
                    jet_val = section_sub(chart.jet(a, mi.union(m)))
                    one_form = one_form + Form.dx(chart, m) * (d_section - jet_val)
                piece = wedge(piece, one_form)
        out = out + piece
    return out
