"""Sparse polynomials in jet symbols: the coefficient kernel of every form
and of the on-shell ideals.

A polynomial is a dict ``{monomial: rational}`` with no zero values; a
monomial is a sorted tuple of ``(atom index, exponent)`` pairs with positive
integer exponents, and ``()`` is the constant monomial.  A coefficient is an
``int``, or a ``Fraction`` whose denominator is not 1: ``_add_to``, where every
result coefficient is accumulated, turns ``Fraction(2, 1)`` back into ``2``.
An integral ``Fraction`` would stay one through every sum and product derived
from it, at many times the cost of ``int`` arithmetic.

A ``JetRing`` numbers the atoms in order of first appearance.  Atoms are
symbols (jets, coordinates, parameters) and formal-function atoms: an
undefined function of distinct symbols and rational constants, such as
``V(u)``, ``lam(t, x, y)`` or ``lam(t, x, 0)``, its derivative in some of
those symbols, or such a derivative at a rational point (the ``Subs`` a
boundary restriction makes); ``chart.is_function_atom`` tells them apart.  A
formal-function atom gets its chain rule from ``chart.diff_function_atom``,
sympy's derivative of that atom alone built in closed form, as
``Chart.factor_derivative`` does.

The ring prints its own polynomials: ``JetRing.sstr(p)`` is
``sp.sstr(ring.expr(p))`` without building the expression.  It orders terms as
``Expr.as_ordered_terms`` does and writes each one as ``StrPrinter._print_Mul``
does, from each atom's sort key and string, cached on the ring.

Any other input -- a non-rational constant, a power with a negative or
symbolic exponent, any other function -- raises ``NotRepresentable``.  Such
factors cannot be atoms without making the zero test unsound: ``u*u**-3`` and
``u**-2`` would be distinct monomials.  ``choose_ring`` is where that is
caught: it returns the given ring when it represents every coefficient, else
the sympy ``ExprRing`` (``EXPR``) with the expanded expressions.  So an
on-shell rule whose leading coefficient is not a rational number (``k*u_tt``,
solved with a quotient) puts its whole ideal on ``EXPR``.

Every chart owns one ring (``Chart.ring``, made by the root chart and shared
by its restrictions), so a ring and its memos live as long as the model that
created them.  The one module-level memo, ``_chain_candidates``, lives in
sympy's cache, which ``clear_cache()`` empties.

The on-shell ideals' generators are ``LazyGenerator``s, built on first use;
each one's leading jet and coefficient come from its unprolonged equation.
A corner generator prolongs a slice generator along the normal without
building it, and reads its lead off the bulk equation; a boundary generator
is relabeled to the corner chart on first use, and its lead is ranked under
its corner name.  Each prolongation chain ranks its candidate jets once,
and reads each base's candidate names on the corner chart from that memo
instead of scanning the corner chart's labels.
"""
from __future__ import annotations

from fractions import Fraction
from functools import cached_property

import sympy as sp
from sympy.core.cache import cacheit

from .chart import Chart, MultiIndex, diff_function_atom, is_function_atom, translate_expr, translated_field


class NotRepresentable(ValueError):
    """An expression outside the sparse kernel's atoms and rational coefficients."""


def _add_to(out: dict, mono: tuple, c) -> None:
    """out[mono] += c, dropping a zero and keeping an integral sum an int."""
    c = out.get(mono, 0) + c
    if not c:
        out.pop(mono, None)
    elif c.__class__ is int or c.denominator != 1:
        out[mono] = c
    else:
        out[mono] = c.numerator


def _mono_mul(m1: tuple, m2: tuple) -> tuple:
    if not m1:
        return m2
    if not m2:
        return m1
    acc = dict(m1)
    for i, e in m2:
        acc[i] = acc.get(i, 0) + e
    return tuple(sorted(acc.items()))


def _mul(p: dict, q: dict) -> dict:
    out: dict = {}
    for m1, c1 in p.items():
        for m2, c2 in q.items():
            _add_to(out, _mono_mul(m1, m2), c1 * c2)
    return out


def _number(q: Fraction):
    """Integral coefficients stay Python ints, whose arithmetic is cheaper."""
    return q.numerator if q.denominator == 1 else q


def _rational(c) -> sp.Rational:
    return sp.Integer(c) if c.denominator == 1 else sp.Rational(c.numerator, c.denominator)


class JetRing:
    """Atom table and operations of sparse jet polynomials.

    The jet-dependent operations take the chart that interprets the symbols,
    so one ring serves a chart and its restrictions.  Images of atoms under a
    total derivative, a partial derivative or a relabeling are memoised on the
    ring.
    """

    def __init__(self):
        self.atoms: list[sp.Expr] = []
        self._index: dict[sp.Expr, int] = {}
        self._functions: set[int] = set()  # the formal-function atoms
        self._memo: dict[tuple, dict[int, dict | None]] = {}
        self._sort_keys: dict[int, tuple] = {}  # atom.sort_key(), which is its default_sort_key
        self._powers: dict[tuple, str] = {}  # sstr(atom**k)

    def _atom(self, a: sp.Expr) -> int:
        i = self._index.get(a)
        if i is None:
            i = self._index[a] = len(self.atoms)
            self.atoms.append(a)
            if not a.is_Symbol:
                self._functions.add(i)
        return i

    # -- conversion ------------------------------------------------------------------

    def poly(self, e) -> dict:
        """The polynomial of a sympy expression; raises NotRepresentable."""
        e = sp.sympify(e)
        if e.is_Add:
            out: dict = {}
            for t in e.args:
                for m, c in self.poly(t).items():
                    _add_to(out, m, c)
            return out
        if e.is_Mul:
            out = {(): 1}
            for f in e.args:
                out = _mul(out, self.poly(f))
            return out
        if e.is_Pow:
            n = e.exp
            if not (n.is_Integer and n > 0):
                raise NotRepresentable(f"power with exponent {n}: {e}")
            base = self.poly(e.base)
            if len(base) == 1:
                ((m, c),) = base.items()
                return {tuple((i, k * int(n)) for i, k in m): c ** int(n)}
            out = {(): 1}
            for _ in range(int(n)):
                out = _mul(out, base)
            return out
        if e.is_Rational:
            return {(): _number(Fraction(int(e.p), int(e.q)))} if e != 0 else {}
        if e.is_Symbol or is_function_atom(e):
            return {((self._atom(e), 1),): 1}
        raise NotRepresentable(f"not a polynomial in jet atoms: {e}")

    def expr(self, p: dict) -> sp.Expr:
        """The expanded sympy expression of a polynomial."""
        atoms = self.atoms
        return sp.Add(*[
            sp.Mul(_rational(c), *[atoms[i] if k == 1 else atoms[i] ** k for i, k in m])
            for m, c in p.items()
        ])

    def sstr(self, p: dict) -> str:
        """``sp.sstr(self.expr(p))``, as sympy 1.14 prints it.

        Terms are sorted by their exponent vectors over the atoms of p (in
        ``default_sort_key`` order), largest first, except that a positive
        constant precedes a single negative atom power (``1 - u/2``), as in
        ``Expr.as_ordered_terms``.  A term is its sign, its numerator unless
        1, its atom powers in ``sort_key`` order and its denominator, as
        ``StrPrinter._print_Mul`` writes it."""
        if not p:
            return "0"
        key = self._sort_key
        column = {i: n for n, i in enumerate(sorted({i for m in p for i, _ in m}, key=key))}

        def exponents(term):
            v = [0] * len(column)
            for i, k in term[0]:
                v[column[i]] = -k
            return v

        terms = sorted(p.items(), key=exponents)
        if len(terms) == 2 and terms[1][0] == () and len(terms[0][0]) == 1 and terms[0][1] < 0 < terms[1][1]:
            terms.reverse()
        out = []
        for m, c in terms:
            num, den = (abs(c), 1) if c.__class__ is int else (abs(c.numerator), c.denominator)
            factors = [str(num)] if num != 1 or not m else []
            factors += [self._power(i, k) for i, k in sorted(m, key=lambda f: (key(f[0]), f[1]))]
            out += [" - " if c < 0 else " + ", "*".join(factors) + (f"/{den}" if den != 1 else "")]
        out[0] = "-" if out[0] == " - " else ""
        return "".join(out)

    def _sort_key(self, i: int) -> tuple:
        return self._sort_keys.get(i) or self._sort_keys.setdefault(i, self.atoms[i].sort_key())

    def _power(self, i: int, k: int) -> str:
        return self._powers.get((i, k)) or self._powers.setdefault((i, k), sp.sstr(self.atoms[i] ** k))

    @staticmethod
    def is_zero(p: dict) -> bool:
        return not p

    @staticmethod
    def add(p: dict, q: dict, k=1) -> dict:
        """p + k*q."""
        out = dict(p)
        for m, c in q.items():
            _add_to(out, m, k * c)
        return out

    @staticmethod
    def scale(p: dict, k: int) -> dict:
        """k*p for k = 1 (p itself) or -1."""
        return p if k == 1 else {m: k * c for m, c in p.items()}

    mul = staticmethod(_mul)

    terms = staticmethod(dict.items)  # (monomial, rational coefficient) pairs

    # -- jets ------------------------------------------------------------------------

    def jets(self, chart: Chart, p: dict) -> list:
        """Jet symbols of the chart in p, also inside formal-function atoms,
        ordered as ``Chart.jets_in`` orders them."""
        found = {}
        for i in {i for m in p for i, _ in m}:
            a = self.atoms[i]
            if a.is_Symbol:
                key = chart.jet_key(a)
                if key is not None:
                    found[a] = (a, key[0], key[1])
            else:
                for t in chart.jets_in(a):
                    found[t[0]] = t
        return sorted(found.values(), key=lambda t: (t[1], t[2].order, t[2].entries))

    # -- atom maps -------------------------------------------------------------------

    def _images(self, key: tuple, make):
        """image(i): the polynomial of make(atom i) (a sympy expression or a
        polynomial), None for zero, memoised on the ring under key."""
        table = self._memo.setdefault(key, {})
        atoms = self.atoms

        def image(i):
            try:
                return table[i]
            except KeyError:
                img = make(atoms[i])
                img = table[i] = (img if isinstance(img, dict) else self.poly(img)) or None
                return img

        return image

    def _derive(self, p: dict, image) -> dict:
        """Apply the derivation that sends atom i to image(i), by the Leibniz
        rule on every monomial."""
        out: dict = {}
        for m, c in p.items():
            for pos, (i, k) in enumerate(m):
                d = image(i)
                if d is None:
                    continue
                rest = m[:pos] + ((i, k - 1),) + m[pos + 1:] if k > 1 else m[:pos] + m[pos + 1:]
                ck = c * k
                for dm, dc in d.items():
                    _add_to(out, _mono_mul(rest, dm), ck * dc)
        return out

    def total_derivative(self, chart: Chart, axis: int, p: dict) -> dict:
        """D_axis on the chart; JetOrderError exactly where Chart.total_derivative
        raises it, at a cap jet whose derivative is needed.  A jet u_J maps to
        the atom of u_{J+axis}, x^axis to 1 and any other symbol to zero; only
        a formal-function atom goes through ``Chart.factor_derivative``."""
        x = chart.xs[axis]

        def image(a):
            if not a.is_Symbol:
                return chart.factor_derivative(axis, a)[0]
            key = chart.jet_key(a)
            if key is not None:
                return {((self._atom(chart.jet(key[0], key[1].union(axis))), 1),): 1}
            return {(): 1} if a == x else {}

        return self._derive(p, self._images(("D", chart, axis), image))

    def _partials(self, sym: sp.Symbol):
        return self._images(("d", sym), lambda a: int(a == sym) if a.is_Symbol else diff_function_atom(a, sym))

    def diff(self, p: dict, sym: sp.Symbol) -> dict:
        """Partial derivative by one symbol, through formal-function atoms too;
        a monomial with neither sym nor a formal-function atom is constant in sym."""
        live = {self._index.get(sym), *self._functions}
        p = {m: c for m, c in p.items() if any(i in live for i, _ in m)}
        return self._derive(p, self._partials(sym))

    def gradient(self, chart: Chart, p: dict) -> list:
        """[(sym, field, mi, diff(p, sym))] for the jets of ``self.jets(chart,
        p)``, in that order, from one walk over the monomials; a
        formal-function atom contributes to each jet by the chain rule."""
        jets = self.jets(chart, p)
        outs: list[dict] = [{} for _ in jets]
        column = {self._index[sym]: n for n, (sym, _, _) in enumerate(jets) if sym in self._index}
        partials = [self._partials(sym) for sym, _, _ in jets] if self._functions else []
        for m, c in p.items():
            for pos, (i, k) in enumerate(m):
                n = column.get(i)
                if n is None and i not in self._functions:
                    continue
                rest = m[:pos] + ((i, k - 1),) + m[pos + 1:] if k > 1 else m[:pos] + m[pos + 1:]
                if n is not None:
                    _add_to(outs[n], rest, c * k)
                    continue
                for out, image in zip(outs, partials):
                    for dm, dc in (image(i) or {}).items():
                        _add_to(out, _mono_mul(rest, dm), c * k * dc)
        return [(*jet, out) for jet, out in zip(jets, outs)]

    def _relabel(self, p: dict, image) -> dict:
        """Substitute image(i) for every atom i."""
        out: dict = {}
        for m, c in p.items():
            exps: dict[int, int] = {}
            sums = []
            for i, k in m:
                img = image(i)
                if img is None:
                    c = 0
                    break
                if len(img) > 1:
                    sums += [img] * k
                    continue
                ((im, ic),) = img.items()
                c *= ic ** k
                for j, e in im:
                    exps[j] = exps.get(j, 0) + e * k
            if not c:
                continue
            term = {tuple(sorted(exps.items())): c}
            for img in sums:
                term = _mul(term, img)
            for tm, tc in term.items():
                _add_to(out, tm, tc)
        return out

    def restrict(self, sub: Chart, p: dict, value=None) -> dict:
        """Chart.restrict_expr on polynomials, to sub, a restricted chart."""
        chart = sub.parent

        def image(a):
            if not a.is_Symbol:
                return chart.restrict_expr(a, sub, value=value)
            key = chart.jet_key(a)
            if key is not None:
                return chart.restricted_jet(key[0], key[1], sub)
            return value if value is not None and a == chart.xs[sub.axis] else a

        return self._relabel(p, self._images(("r", sub, value), image))

    def translate(self, src: Chart, dst: Chart, p: dict) -> dict:
        """chart.translate_expr on polynomials."""
        image = self._images(("t", src, dst), lambda a: translate_expr(a, src, dst))
        return self._relabel(p, image)

    def subs(self, p: dict, repl: dict) -> dict:
        """p with each symbol of repl replaced by its polynomial, inside
        formal-function atoms too."""
        def make(a):
            return repl.get(a, a) if a.is_Symbol else a.xreplace({s: self.expr(q) for s, q in repl.items()})

        key = ("s", frozenset((s, frozenset(q.items())) for s, q in repl.items()))
        return self._relabel(p, self._images(key, make))

    # -- solving ---------------------------------------------------------------------

    def solve(self, p: dict, sym: sp.Symbol, c: dict):
        """Solve p = 0 for sym, given c = dp/dsym free of jets: -(p - c*sym)/c.

        A polynomial when c is a rational number.  Any other c needs a
        quotient, so the solution is then the expanded sympy expression,
        which ``choose_ring`` sends to EXPR."""
        j = self._index[sym]
        rest = {m: v for m, v in p.items() if all(i != j for i, _ in m)}
        if len(c) != 1 or () not in c:
            return sp.expand(-self.expr(rest) / self.expr(c))
        q = c[()]
        if q in (1, -1):
            return {m: -v * q for m, v in rest.items()}
        return {m: _number(-Fraction(v) / q) for m, v in rest.items()}


class ExprRing:
    """The JetRing interface on expanded sympy expressions: the path for
    inputs the sparse kernel cannot represent, and its reference in tests."""

    @staticmethod
    def poly(e) -> sp.Expr:
        return sp.expand(e)

    @staticmethod
    def expr(p: sp.Expr) -> sp.Expr:
        return p

    @staticmethod
    def is_zero(p: sp.Expr) -> bool:
        """Zero as expanded, or, with a negative power, as a cancelled quotient."""
        return p == 0 or (any(q.exp.is_negative for q in p.atoms(sp.Pow)) and sp.cancel(p) == 0)

    @staticmethod
    def add(p: sp.Expr, q: sp.Expr, k=1) -> sp.Expr:
        return p + k * q

    @staticmethod
    def scale(p: sp.Expr, k: int) -> sp.Expr:
        return k * p

    @staticmethod
    def mul(p: sp.Expr, q: sp.Expr) -> sp.Expr:
        return sp.expand(p * q)

    @staticmethod
    def jets(chart: Chart, p: sp.Expr) -> list:
        return chart.jets_in(p)

    @staticmethod
    def total_derivative(chart: Chart, axis: int, p: sp.Expr) -> sp.Expr:
        return chart.total_derivative(axis, p)

    @staticmethod
    def diff(p: sp.Expr, sym: sp.Symbol) -> sp.Expr:
        return sp.diff(p, sym)

    @staticmethod
    def gradient(chart: Chart, p: sp.Expr) -> list:
        return [(sym, a, mi, sp.diff(p, sym)) for sym, a, mi in chart.jets_in(p)]

    sstr = staticmethod(sp.sstr)

    @staticmethod
    def terms(p: sp.Expr) -> list:
        """(monomial, rational coefficient) pairs; another number (sqrt(2)) stays in its monomial."""
        return [(m, c) if c.is_Rational else (c * m, 1) for m, c in p.as_coefficients_dict().items() if c]

    @staticmethod
    def restrict(sub: Chart, p: sp.Expr, value=None) -> sp.Expr:
        return sp.expand(sub.parent.restrict_expr(p, sub, value=value))

    @staticmethod
    def translate(src: Chart, dst: Chart, p: sp.Expr) -> sp.Expr:
        return translate_expr(p, src, dst)

    @staticmethod
    def subs(p: sp.Expr, repl: dict) -> sp.Expr:
        return sp.expand(p.xreplace(repl))

    @staticmethod
    def solve(p: sp.Expr, sym: sp.Symbol, c: sp.Expr) -> sp.Expr:
        return sp.expand(-(p - c * sym) / c)


EXPR = ExprRing()


def choose_ring(ring, coeffs) -> tuple:
    """(ring, polynomials of coeffs) when ring represents every coefficient,
    else EXPR and the expanded expressions.  A coefficient is a sympy
    expression or already a polynomial of ring."""
    coeffs = list(coeffs)
    try:
        return ring, [c if isinstance(c, dict) else ring.poly(c) for c in coeffs]
    except NotRepresentable:
        return EXPR, [ring.expr(c) if isinstance(c, dict) else sp.expand(c) for c in coeffs]


def _rank(a: str, mi: MultiIndex) -> tuple:
    """OnShellIdeal's ranking of u^a_mi: order, time derivatives, multi-index, field."""
    return mi.order, mi.count(0), mi.entries, a


def leading_jet(ring, chart: Chart, g):
    """(sym, field, mi, dg/dsym) for the top-ranked jet of g, a polynomial of
    ring or a ``LazyGenerator`` on chart; None when g has no jets."""
    if isinstance(g, LazyGenerator):
        return g.lead()
    jets = ring.jets(chart, g)
    if not jets:
        return None
    sym, a, mi = max(jets, key=lambda t: _rank(t[1], t[2]))
    return sym, a, mi, ring.diff(g, sym)


def built(g):
    """The polynomial of g, a polynomial or a ``LazyGenerator`` (built here)."""
    return g.poly if isinstance(g, LazyGenerator) else g


@cacheit
def _chain_candidates(sub: Chart, dst: Chart, a: str, mi: MultiIndex, length: int) -> tuple:
    """(names, kept): restrict(u^a_(J + k*axis)) to sub is u^(family[c + k])_kept,
    J = mi having c entries axis; names holds those fields on dst for k <
    length.  Memoised in sympy's cache: relabeling scans dst's labels per name."""
    kept, c = mi.split_axis(sub.axis)
    names = sub.families[a][c:c + length]
    if dst is not sub:
        names = tuple(translated_field(name, sub, dst) for name in names)
    return names, kept.shift_down(sub.axis)


class _Prolongation:
    """restrict(D_axis^k eq) to sub (axis = sub.axis), relabeled to dst, for k
    up to the jet cap less the jet order of eq; each D_axis^k eq on first use.

    eq is a polynomial on sub.parent or, unbuilt, a ``LazyGenerator`` there
    of an unpinned chain.  A base is a jet u_J of the root equation, the steps
    the outer chains prolonged it by, and the name and multi-index on dst of
    its candidate J + k*axis for each k: the candidates of generator k, those
    of every base up to step k, hold every jet of the built generator."""

    def __init__(self, ring, sub: Chart, eq, value=None, dst: Chart | None = None):
        self.ring, self.sub, self.value, self.dst = ring, sub, value, dst or sub
        self.eq, self.terms, self._coefficients = eq, [], {}
        if isinstance(eq, LazyGenerator):  # one candidate of eq per outer base and step
            outer = eq._chain
            self.steps = (*outer.steps, eq.k)
            jets = [(sym, (*steps, j), names[j], kept) for sym, steps, names, kept in outer.bases
                    for j in range(eq.k + 1)]
        else:
            self.steps = ()
            jets = [(sym, (), a, mi) for sym, a, mi in ring.jets(sub.parent, eq)]
        self.length = sub.parent.max_jet_order - max((mi.order for *_, mi in jets), default=0) + 1
        self.bases = [(sym, steps, *_chain_candidates(sub, self.dst, a, mi, self.length))
                      for sym, steps, a, mi in jets]

    def __getitem__(self, k: int):
        if not self.terms:
            self.terms.append(built(self.eq))
        while len(self.terms) <= k:
            self.terms.append(self.ring.total_derivative(self.sub.parent, self.sub.axis, self.terms[-1]))
        return self.terms[k]

    @cached_property
    def tops(self) -> list:
        """Per generator k, the base whose step-k candidate alone is top-ranked
        among the candidates of generator k, if the base's steps are the
        chain's own, else None; each candidate is ranked once."""
        tops, top, who = [], None, []  # who: the (base, step) pairs of the top candidate
        for k in range(self.length):
            for base in self.bases:
                rank = _rank(base[2][k], base[3])  # the name and multi-index of its step-k candidate
                if top is None or rank > top:
                    top, who = rank, [(base, k)]
                elif rank == top:
                    who.append((base, k))
            base, step = who[0] if len(who) == 1 else (None, None)
            tops.append(base if step == k and base[1] == self.steps else None)
        return tops

    def coefficient(self, sym):
        """restrict(d eq/d sym) to dst through the outer chains, sym a jet of
        the root equation; memoised per jet."""
        got = self._coefficients.get(sym)
        if got is None:
            eq = self.eq
            got = eq._chain.coefficient(sym) if isinstance(eq, LazyGenerator) else self.ring.diff(eq, sym)
            got = self.ring.restrict(self.sub, got, value=self.value)
            if self.dst is not self.sub:
                got = self.ring.translate(self.sub, self.dst, got)
            self._coefficients[sym] = got
        return got


class LazyGenerator:
    """restrict(D_axis^k eq) to sub, relabeled to dst, built on first use of ``poly``.

    By [d/du_M, D_i] = d/du_{M-i}, the jets of D_K eq are J + L for the jets J
    of eq (inside formal atoms too) and L <= K, and d(D_K eq)/du_{J+K} is
    d eq/du_J when no other such pair gives J + K; for a corner generator
    prolonged from a slice generator, K = k_t*t + k*n.  Restriction and
    translation relabel jets one to one, so ``lead()`` reads the leading jet
    and its coefficient off the root equation when the top-ranked candidate
    comes from (J, K) alone and the restricted d eq/du_J is not zero;
    otherwise it builds the generator."""

    def __init__(self, chain: _Prolongation, k: int):
        self._chain, self.k = chain, k

    @cached_property
    def poly(self):
        chain = self._chain
        p = chain.ring.restrict(chain.sub, chain[self.k], value=chain.value)
        return p if chain.dst is chain.sub else chain.ring.translate(chain.sub, chain.dst, p)

    def lead(self):
        """``leading_jet`` of the generator on dst."""
        return self._lead

    @cached_property
    def _lead(self):
        chain, k = self._chain, self.k
        base = chain.tops[k]
        if base is not None:
            sym, _, names, kept = base
            coeff = chain.coefficient(sym)
            if not chain.ring.is_zero(coeff):
                return chain.dst.jet(names[k], kept), names[k], kept, coeff
        return leading_jet(chain.ring, chain.dst, self.poly)


def prolonged_restricted_generators(sub: Chart, equations: list, ring, value=None, dst: Chart | None = None) -> list:
    """Restrict each generator and its prolongations along ``sub.axis`` (up to
    the jet cap) to the hypersurface chart sub, relabeled to the corner chart
    dst if given; this is how "all differential consequences" of an equation
    survive the loss of the transversal direction, and how an evolutionary
    field's components reach the boundary families.  The equations are
    polynomials of ``ring`` on ``sub.parent``, or ``LazyGenerator``s there;
    the ``LazyGenerator``s returned of one equation share its prolongation
    chain.  A ``LazyGenerator`` of an unpinned chain with jets stays unbuilt:
    it is nonzero, of its candidates' jet order.  Any other is built here."""
    gens: list = []
    for eq in equations:
        if not (isinstance(eq, LazyGenerator) and eq._chain.value is None and eq._chain.bases):
            eq = built(eq)
            if ring.is_zero(eq):
                continue
        chain = _Prolongation(ring, sub, eq, value, dst)
        gens += [LazyGenerator(chain, k) for k in range(chain.length)]
    return gens
