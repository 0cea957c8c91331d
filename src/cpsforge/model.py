"""Model files: a small block-structured DSL for Lagrangian-pair problems.

A model is a ``model NAME { ... }`` of seven blocks, each at most once: chart
(coordinates, lateral boundary, numeric domain, periodic axes), fields
(scalars, one-forms, su2-valued one-forms), background (metric, constants,
values, formal functions), lagrangian (the pair L, ell), bc, vectors (named
vector-field candidates) and constraints (a-priori equations).  Every
statement ends in ``;``, and every value is read by one expression grammar.
Expressions use jet names bound to the declared coordinates (u, u_t, u_{tx}),
arithmetic, d(), wedge(), hodge(), iota(), vol(), bvol(), tr(), bracket(),
declared formal functions, and Derivative() of a field-free scalar in
coordinates (a jet is written u_t).  Metric entries, domain bounds and
background values are numbers of the same grammar: integers, decimals, pi,
+ - * / ** and parentheses.  A vector is one parenthesised tuple of scalar
expressions.  An expression's value is a sympy scalar, a Form, or an
su(2)-valued form: a list of Forms, one per colour.  Parsing type-checks
degrees, and every error is a ModelError with line and column.
"""
from __future__ import annotations

import itertools
import math
import re
from dataclasses import dataclass, field as dc_field
from functools import cached_property

import sympy as sp

from .chart import Chart, FieldMeta, JetOrderError, MultiIndex, NonTangentError, levi_civita, one_form_families
from .forms import Form, boundary_volume, d_h, hodge, iota_x, vol, wedge
from .pipeline import LagrangianPair, VariationDecomposition, decompose
from .relative import BoundaryPair, RelForm

SU2_STRUCTURE = {
    ijk: sp.Integer(levi_civita(*ijk)) for ijk in itertools.permutations(range(3))
}


class ModelError(ValueError):
    """Parse or type error with source position."""

    def __init__(self, message: str, line: int | None = None, col: int | None = None):
        self.line, self.col = line, col
        pos = f" (line {line}, col {col})" if line is not None else ""
        super().__init__(message + pos)

    @classmethod
    def at(cls, message: str, tok: "Token") -> "ModelError":
        return cls(message, tok.line, tok.col)


@dataclass
class Model:
    name: str
    backgrounds: dict[str, str]  # name -> const | function | value
    domain: tuple[tuple[float, float], ...]
    periodic: tuple[str, ...]

    chart: Chart = dc_field(default=None, repr=False)
    pair: BoundaryPair = dc_field(default=None, repr=False)
    lp: LagrangianPair = dc_field(default=None, repr=False)
    vectors: dict[str, list[sp.Expr]] = dc_field(default_factory=dict, repr=False)
    constraints: list[sp.Expr] = dc_field(default_factory=list, repr=False)
    bindings: dict[str, float] = dc_field(default_factory=dict, repr=False)

    @cached_property
    def decomposition(self) -> VariationDecomposition:
        """CPS steps 1-2 of the model's Lagrangian pair, derived once per model."""
        return decompose(self.lp)


# -- lexer ------------------------------------------------------------------------------

_TOKEN_RE = re.compile(
    r"""
    (?P<ws>\s+|\#[^\n]*)
  | (?P<pow>\*\*)
  | (?P<num>\d+(\.\d+)?)
  | (?P<ident>[A-Za-z][A-Za-z0-9_]*(\{[A-Za-z]+\})?)
  | (?P<punct>[{}();,=:+\-*/])
    """,
    re.VERBOSE,
)


@dataclass
class Token:
    kind: str
    text: str
    line: int
    col: int


def tokenize(text: str) -> list[Token]:
    tokens = []
    line, col, pos = 1, 1, 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if not m:
            raise ModelError(f"unexpected character {text[pos]!r}", line, col)
        kind = m.lastgroup
        raw = m.group()
        if kind != "ws":
            tokens.append(Token(kind, raw.replace("{", "").replace("}", "") if kind == "ident" else raw, line, col))
        nl = raw.count("\n")
        if nl:
            line += nl
            col = len(raw) - raw.rfind("\n")
        else:
            col += len(raw)
        pos = m.end()
    tokens.append(Token("eof", "", line, col))
    return tokens


class TokenCursor:
    """A position in a token list, shared by the model and expression parsers."""

    def __init__(self, tokens: list[Token]):
        self.tokens = tokens
        self.i = 0

    def peek(self) -> Token:
        return self.tokens[self.i]

    def next(self) -> Token:
        t = self.tokens[self.i]
        self.i += 1
        return t

    def expect(self, text: str) -> Token:
        t = self.next()
        if t.text != text:
            raise ModelError.at(f"expected {text!r}, got {t.text!r}", t)
        return t

    def expect_ident(self) -> Token:
        t = self.next()
        if t.kind != "ident":
            raise ModelError.at(f"expected an identifier, got {t.text!r}", t)
        return t

    def items(self, item, close: str) -> list:
        """``item {, item} close``: a comma-separated list and its closing token."""
        out = [item()]
        while self.peek().text == ",":
            self.next()
            out.append(item())
        self.expect(close)
        return out

    def names(self) -> list[Token]:
        """``name {, name} ;`` with no name repeated."""
        out = self.items(self.expect_ident, ";")
        for k, t in enumerate(out):
            if t.text in (u.text for u in out[:k]):
                raise ModelError.at(f"{t.text!r} is listed twice", t)
        return out


class ExprParser(TokenCursor):
    """Recursive-descent expression parser over a chart-bound symbol table.

    It reads one statement at a time; the statement's ``;`` ends every value.
    Without a model only coordinates, numbers and ``pi`` are known: the chart
    then has no fields, and ``number`` reads metric entries, domain bounds and
    background values.
    """

    def __init__(self, chart: Chart, model: Model | None = None, boundary: bool = False):
        super().__init__([])
        self.chart = chart
        self.model = model
        self.boundary = boundary
        self.families = one_form_families(model.chart.meta) if model else {}
        self.backgrounds = model.backgrounds if model else {}
        self.vectors = model.vectors if model else {}

    def start(self, tokens: list[Token]) -> "ExprParser":
        self.tokens, self.i = tokens, 0
        return self

    def scalar(self) -> sp.Expr:
        t = self.peek()
        v = self.expr()
        if not isinstance(v, sp.Expr):
            raise ModelError.at("expected a scalar", t)
        return v

    def number(self) -> sp.Expr:
        """A finite real constant: integers, decimals, pi, + - * / ** and parentheses."""
        t = self.peek()
        e = self.scalar()
        if not (e.is_number and e.is_real and math.isfinite(e)):
            raise ModelError.at("expected a number", t)
        return e

    def tuple_of(self, item) -> list:
        """``( item {, item} )``."""
        self.expect("(")
        return self.items(item, ")")

    def as_form(self, v, tok: Token) -> Form:
        if isinstance(v, list):
            raise ModelError.at("expected a scalar-valued form, got a Lie-algebra-valued one", tok)
        return v if isinstance(v, Form) else Form.scalar(self.chart, v)

    # symbol resolution ------------------------------------------------------------

    def resolve_ident(self, tok: Token):
        name = tok.text
        chart = self.chart
        if name in chart.coord_names:
            return chart.xs[chart.coord_names.index(name)]
        if name == "pi":
            return sp.pi
        # one-form bases: lie_index 0 is a plain one-form, 1..dim a Lie-valued one
        bases = {li: fam for (base, li), fam in self.families.items() if base == name}
        if 0 in bases:
            return self._one_form(bases[0])
        if bases:
            return [self._one_form(fam) for fam in bases.values()]
        jet = self._try_jet(tok)
        if jet is not None:
            return jet
        if self.backgrounds.get(name) in ("const", "value"):
            return sp.Symbol(name)
        raise ModelError.at(f"unknown symbol {name!r}", tok)

    def _one_form(self, family: dict[int, str]) -> Form:
        """sum_c A_c dx^c over this chart's coordinates: on the boundary chart,
        the pullback of the bulk one-form."""
        chart = self.chart
        out = Form.zero(chart, 1, 0)
        for i, c in enumerate(chart.coord_names):
            label = family[self.model.chart.coord_names.index(c)]
            out = out + Form.dx(chart, i) * chart.jet(label, MultiIndex())
        return out

    def _try_jet(self, tok: Token):
        chart, name = self.chart, tok.text
        candidates = [f for f in chart.fields if name == f or name.startswith(f + "_")]
        if not candidates:
            return None
        field = max(candidates, key=len)
        if name == field:
            return chart.jet(field, MultiIndex())
        suffix = name[len(field) + 1:]
        axes = []
        for ch_ in suffix:
            if ch_ not in chart.coord_names:
                return None
            axes.append(chart.coord_names.index(ch_))
        try:
            return chart.jet(field, MultiIndex.make(*axes))
        except JetOrderError as err:
            raise ModelError.at(str(err), tok) from None

    # parsing ----------------------------------------------------------------------

    def expr(self):
        v = self.term()
        while self.peek().text in ("+", "-"):
            op = self.next()
            w = self.term()
            v = self.add(v, w if op.text == "+" else self.scale(w, -1), op)
        return v

    def term(self):
        v = self.power()
        while self.peek().text in ("*", "/"):
            op = self.next()
            w = self.power()
            v = self.mul(v, w, op) if op.text == "*" else self.div(v, w, op)
        return v

    def power(self):
        v = self.unary()
        if self.peek().text == "**":
            op = self.next()
            e = self.unary()
            if not (isinstance(v, sp.Expr) and isinstance(e, sp.Expr)):
                raise ModelError.at("powers apply to scalar expressions only", op)
            if v == 0 and e.is_negative:
                raise ModelError.at("division by zero", op)
            return v ** e
        return v

    def unary(self):
        t = self.peek()
        if t.text == "-":
            self.next()
            return self.scale(self.unary(), -1)
        if t.text == "+":
            self.next()
            return self.unary()
        return self.atom()

    def atom(self):
        t = self.next()
        if t.text == "(":
            v = self.expr()
            self.expect(")")
            return v
        if t.kind == "num":
            return sp.Rational(t.text) if "." in t.text else sp.Integer(t.text)
        if t.kind == "ident":
            if self.peek().text == "(":
                return self.call(t)
            return self.resolve_ident(t)
        raise ModelError.at(f"unexpected token {t.text!r}", t)

    def call(self, tok: Token):
        self.expect("(")
        if tok.text == "iota":
            vec = self.expect_ident()
            self.expect(",")
            arg = self.expr()
            self.expect(")")
            if vec.text not in self.vectors:
                raise ModelError.at(f"unknown vector field {vec.text!r}", vec)
            xi = self.vectors[vec.text]  # tangent to the boundary, so it restricts there
            return iota_x(self.model.pair.restrict_vector(xi) if self.boundary else xi, self.as_form(arg, tok))
        if self.peek().text == ")":
            self.next()
            return self.apply(tok, [])
        return self.apply(tok, self.items(self.expr, ")"))

    def apply(self, tok: Token, args: list):
        chart, name = self.chart, tok.text
        if name == "d":
            self._arity(args, 1, tok)
            if isinstance(args[0], list):
                return [d_h(c) for c in args[0]]
            return d_h(self.as_form(args[0], tok))
        if name == "wedge":
            if len(args) < 2:
                raise ModelError.at("wedge needs at least two arguments", tok)
            out = self.as_form(args[0], tok)
            for a in args[1:]:
                f = self.as_form(a, tok)
                if out.terms and f.terms and out.r + f.r > chart.n:
                    raise ModelError.at(
                        f"wedge exceeds the chart dimension ({out.r}+{f.r} > {chart.n})", tok
                    )
                out = wedge(out, f)
            return out
        if name == "hodge":
            self._arity(args, 1, tok)
            if chart.metric is None:
                raise ModelError.at("hodge requires a declared metric", tok)
            if isinstance(args[0], list):
                return [hodge(c) for c in args[0]]
            return hodge(self.as_form(args[0], tok))
        if name == "vol":
            self._arity(args, 0, tok)
            if self.boundary:
                raise ModelError.at("vol() is a bulk form; use bvol() on the boundary", tok)
            return vol(chart)
        if name == "bvol":
            self._arity(args, 0, tok)
            if not self.boundary:
                raise ModelError.at("bvol() only appears in boundary expressions", tok)
            return boundary_volume(chart)
        if name == "tr":
            self._arity(args, 2, tok)
            a, b = args
            if not (isinstance(a, list) and isinstance(b, list)) or len(a) != len(b):
                raise ModelError.at("tr() pairs two Lie-algebra-valued forms", tok)
            out = Form.zero(chart)
            for ca, cb in zip(a, b):
                out = out + wedge(ca, cb)
            return out
        if name == "bracket":
            self._arity(args, 2, tok)
            a, b = args
            if not (isinstance(a, list) and isinstance(b, list)):
                raise ModelError.at("bracket() needs Lie-algebra-valued forms", tok)
            comps = [Form.zero(chart) for _ in a]
            for (i, j, k), c in SU2_STRUCTURE.items():
                comps[k] = comps[k] + wedge(a[i], b[j]) * c
            return comps
        if name == "Derivative":
            f, *xs = args or [None]
            coords = [a for a in xs if isinstance(a, sp.Expr) and a in chart.xs]
            if not xs or len(coords) < len(xs) or not isinstance(f, sp.Expr) or chart.jets_in(f):
                raise ModelError.at("Derivative() takes a field-free scalar and coordinates", tok)
            return sp.diff(f, *coords)
        if self.backgrounds.get(name) == "function":
            if not all(isinstance(a, sp.Expr) for a in args):
                raise ModelError.at(f"{name}() takes scalar arguments", tok)
            return sp.Function(name)(*args)
        raise ModelError.at(f"unknown function {name!r}", tok)

    @staticmethod
    def _arity(args, k, tok):
        if len(args) != k:
            raise ModelError.at(f"{tok.text}() takes {k} argument(s), got {len(args)}", tok)

    def add(self, a, b, op: Token):
        if isinstance(a, sp.Expr) and isinstance(b, sp.Expr):
            return a + b
        if isinstance(a, list) and isinstance(b, list):
            return [self._sum(x, y, op) for x, y in zip(a, b)]
        return self._sum(self.as_form(a, op), self.as_form(b, op), op)

    @staticmethod
    def _sum(fa: Form, fb: Form, op: Token) -> Form:
        if fa.terms and fb.terms and fa.bidegree != fb.bidegree:
            raise ModelError.at(f"degree mismatch in sum: {fa.bidegree} vs {fb.bidegree}", op)
        return fa + fb

    @staticmethod
    def scale(a, c):
        return [f * c for f in a] if isinstance(a, list) else a * c

    def mul(self, a, b, op: Token):
        if isinstance(a, sp.Expr):
            return self.scale(b, a)
        if isinstance(b, sp.Expr):
            return self.scale(a, b)
        raise ModelError.at("use wedge() to multiply forms", op)

    def div(self, a, b, op: Token):
        if not isinstance(b, sp.Expr):
            raise ModelError.at("division by a form", op)
        if b == 0:
            raise ModelError.at("division by zero", op)
        if isinstance(a, sp.Expr):
            return a / b
        return self.scale(a, 1 / b)


# -- model parser ---------------------------------------------------------------------

BLOCKS = ("chart", "fields", "background", "lagrangian", "bc", "vectors", "constraints")
CHART_ENTRIES = ("coords", "boundary", "domain", "periodic")


class ModelParser(TokenCursor):
    def __init__(self, text: str, max_jet_order: int | None = None):
        super().__init__(tokenize(text))
        self.max_jet_order = 4 if max_jet_order is None else max_jet_order
        self.heads: dict[str, Token] = {}

    def statement(self) -> list[Token]:
        """One statement's tokens, its terminating ``;`` included as the end marker."""
        start = self.i
        while self.peek().text != ";":
            t = self.next()
            if t.kind == "eof" or t.text in ("{", "}"):
                raise ModelError.at(f"expected ';', got {t.text!r}", t)
        self.next()
        return self.tokens[start:self.i]

    def parse(self) -> Model:
        self.expect("model")
        name = self.expect_ident().text
        self.expect("{")
        blocks: dict[str, list[list[Token]]] = {}
        while self.peek().text != "}":
            head = self.expect_ident()
            if head.text not in BLOCKS or head.text in blocks:
                what = "repeated" if head.text in blocks else "unknown"
                blocks_are = ", ".join(BLOCKS)
                raise ModelError.at(f"{what} block {head.text!r} (blocks are {blocks_are})", head)
            self.heads[head.text] = head
            self.expect("{")
            blocks[head.text] = []
            while self.peek().text != "}":
                blocks[head.text].append(self.statement())
            self.next()
        close = self.next()
        t = self.peek()
        if t.kind != "eof":
            raise ModelError.at(f"unexpected token {t.text!r} after the model", t)
        for need in ("chart", "fields", "lagrangian"):
            if need not in blocks:
                raise ModelError.at(f"model needs a {need} block", close)
        return self.build(name, blocks)

    # block interpretation ------------------------------------------------------------

    def build(self, name: str, blocks) -> Model:
        chart_entries: dict[str, list[Token]] = {}
        for stmt in blocks["chart"]:
            cur = TokenCursor(stmt)
            key = cur.expect_ident()
            if key.text not in CHART_ENTRIES or key.text in chart_entries:
                what = "repeated" if key.text in chart_entries else "unknown"
                raise ModelError.at(f"{what} chart entry {key.text!r}", key)
            cur.expect("=")
            chart_entries[key.text] = stmt
        if "coords" not in chart_entries:
            raise ModelError.at("chart declares no coordinates", self.heads["chart"])
        coords = tuple(t.text for t in TokenCursor(chart_entries["coords"][2:]).names())
        has_boundary = True
        if "boundary" in chart_entries:
            stmt = chart_entries["boundary"]
            if len(stmt) != 4 or stmt[2].text not in ("true", "false"):
                raise ModelError.at("boundary declarations look like `boundary = true;`", stmt[0])
            has_boundary = stmt[2].text == "true"
        periodic: tuple[str, ...] = ()
        if "periodic" in chart_entries:
            for t in TokenCursor(chart_entries["periodic"][2:]).names():
                if t.text not in coords:
                    raise ModelError.at(f"periodic names {t.text!r}, which is not a coordinate", t)
                periodic += (t.text,)
        numbers = ExprParser(Chart(coords, ()))
        domain = tuple((0.0, 1.0) for _ in coords)
        if "domain" in chart_entries:
            stmt = chart_entries["domain"]
            p = numbers.start(stmt[2:])

            def interval():
                t = p.peek()
                bounds = p.tuple_of(p.number)
                if len(bounds) != 2:
                    raise ModelError.at("domain intervals look like (0, 1)", t)
                if bounds[0] >= bounds[1]:
                    raise ModelError.at("a domain interval (lo, hi) needs lo < hi", t)
                return tuple(float(b) for b in bounds)

            domain = tuple(p.items(interval, ";"))
            if len(domain) != len(coords):
                raise ModelError.at(
                    f"domain needs one interval per coordinate ({len(coords)}), got {len(domain)}",
                    stmt[0],
                )

        meta: dict[str, FieldMeta] = {}
        for stmt in blocks["fields"]:
            cur = TokenCursor(stmt)
            fname = cur.expect_ident()
            cur.expect(":")
            kind = cur.expect_ident()
            colours = (0,)
            if kind.text == "one_form" and cur.peek().text == "(":
                cur.next()
                cur.expect("su2")
                cur.expect(")")
                colours = (1, 2, 3)
            elif kind.text not in ("scalar", "one_form"):
                raise ModelError.at(f"unknown field kind {kind.text!r}", kind)
            cur.expect(";")
            # component labels, spelled here only: u, A_t, and A1_t for colour 1
            if kind.text == "scalar":
                labels = {fname.text: FieldMeta("scalar", base=fname.text)}
            else:
                labels = {
                    f"{fname.text}{li or ''}_{c}":
                        FieldMeta("one_form", base=fname.text, axis=i, lie_index=li)
                    for li in colours
                    for i, c in enumerate(coords)
                }
            for label, m in labels.items():
                if label in meta or label in coords:
                    raise ModelError.at(
                        f"field component {label!r} repeats a field or coordinate", fname
                    )
                meta[label] = m
        if not meta:
            raise ModelError.at("no dynamical fields declared", self.heads["fields"])

        def nonzero():
            t = p.peek()
            entry = p.number()
            if entry == 0:
                raise ModelError.at("a metric diagonal entry is zero: the metric is degenerate", t)
            return entry

        metric = None
        backgrounds: dict[str, str] = {}
        bindings: dict[str, float] = {}
        for stmt in blocks.get("background", []):
            p = numbers.start(stmt)
            key = p.expect_ident()
            if key.text in backgrounds or (key.text == "metric" and metric is not None):
                raise ModelError.at(f"{key.text!r} is declared twice", key)
            t = p.next()
            if key.text == "metric":
                if t.text != "=" or p.next().text != "diag":
                    raise ModelError.at(
                        "metric declarations look like `metric = diag(-1, 1);`", key
                    )
                metric = tuple(p.tuple_of(nonzero))
                p.expect(";")
                if len(metric) != len(coords):
                    raise ModelError.at(
                        f"metric needs one diagonal entry per coordinate ({len(coords)})", key
                    )
            elif t.text == ":":
                p.expect("function")
                p.tuple_of(p.expect_ident)
                p.expect(";")
                backgrounds[key.text] = "function"
            elif t.text == "=":
                bindings[key.text] = float(p.number())
                p.expect(";")
                backgrounds[key.text] = "value"
            elif t.text == ";":
                backgrounds[key.text] = "const"
            else:
                raise ModelError.at(f"unexpected token {t.text!r}", t)

        lag: dict[str, list[Token]] = {}
        for stmt in blocks["lagrangian"]:
            key = stmt[0]
            if key.text not in ("L", "ell") or key.text in lag or stmt[1].text != "=":
                raise ModelError.at(
                    "lagrangian entries are one `L = ...;` and one `ell = ...;`", key
                )
            lag[key.text] = stmt
        if "L" not in lag:
            raise ModelError.at("lagrangian block must define L", self.heads["lagrangian"])

        bc: dict[str, str] = {}
        for stmt in blocks.get("bc", []):
            texts = [t.text for t in stmt]
            if len(texts) != 4 or texts[1] != "=" or texts[2] not in ("free", "dirichlet", "robin"):
                raise ModelError.at(
                    "boundary conditions look like `u = free;` (free, dirichlet or robin)", stmt[0]
                )
            if texts[0] not in {m.base for m in meta.values()} or texts[0] in bc:
                raise ModelError.at(
                    f"boundary condition for an undeclared or repeated field {texts[0]!r}", stmt[0]
                )
            bc[texts[0]] = texts[2]

        chart = Chart(coords, tuple(meta), max_jet_order=self.max_jet_order, metric=metric)
        chart.meta = meta
        model = Model(
            name=name,
            backgrounds=backgrounds,
            domain=domain,
            periodic=periodic,
            chart=chart,
            pair=BoundaryPair(chart),
            bindings=bindings,
        )
        # vectors first: iota() needs them
        bulk = ExprParser(chart, model)
        for stmt in blocks.get("vectors", []):
            p = bulk.start(stmt)
            vname = p.expect_ident()
            p.expect("=")
            comps = p.tuple_of(p.scalar)
            p.expect(";")
            if vname.text in model.vectors:
                raise ModelError.at(f"vector {vname.text!r} is defined twice", vname)
            if len(comps) != chart.n:
                raise ModelError.at(f"vector {vname.text!r} needs {chart.n} components", vname)
            if any(chart.jets_in(c) for c in comps):
                raise ModelError.at(f"vector {vname.text!r} depends on a field", vname)
            # every vector is restricted to x^{n-1} = 0, with or without a boundary
            try:
                model.pair.check_tangent(comps)
            except NonTangentError:
                raise ModelError.at(
                    f"vector {vname.text!r} is not tangent to {chart.coord_names[-1]} = 0", vname
                ) from None
            model.vectors[vname.text] = comps

        L = self._top_form(bulk, lag["L"], "L must be a top horizontal form")
        bchart = model.pair.bchart
        ell = Form.zero(bchart, bchart.n, 0)
        if "ell" in lag:
            bparser = ExprParser(bchart, model, boundary=True)
            ell = self._top_form(bparser, lag["ell"], "ell must be a boundary top form")
        tags = {label: bc.get(m.base, "free") for label, m in meta.items()}
        model.lp = LagrangianPair(RelForm(model.pair, L, ell), bc=tags, has_boundary=has_boundary)

        for stmt in blocks.get("constraints", []):
            p = bulk.start(stmt)
            model.constraints.append(p.scalar())
            if p.peek().text == "=":
                p.next()
                p.expect("0")
            p.expect(";")
        return model

    @staticmethod
    def _top_form(parser: ExprParser, stmt: list[Token], what: str) -> Form:
        """The top form ``key = expr;`` defines on the parser's chart."""
        p = parser.start(stmt[2:])
        f = p.as_form(p.expr(), stmt[0])
        p.expect(";")
        n = p.chart.n
        if f.terms and f.bidegree != (n, 0):
            raise ModelError.at(f"{what}, got degree {f.bidegree}", stmt[0])
        return f if not f.is_zero() else Form.zero(p.chart, n, 0)


def parse_model(text: str, max_jet_order: int | None = None) -> Model:
    return ModelParser(text, max_jet_order=max_jet_order).parse()
