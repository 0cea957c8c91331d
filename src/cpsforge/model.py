"""Model files: a small line-oriented DSL for Lagrangian-pair problems.

A model declares a chart (coordinates, lateral boundary, numeric domain),
fields (scalars, one-forms, su2-valued one-forms), background objects (metric,
constants, formal functions), the Lagrangian pair, boundary conditions, named
vector-field candidates, and optional a-priori constraints.  Expressions use
jet names bound to the declared coordinates (u, u_t, u_{tx}), arithmetic,
d(), wedge(), hodge(), iota(), vol(), bvol(), tr(), bracket(), and declared
formal functions.  Parsing type-checks degrees and reports positioned errors.
"""
from __future__ import annotations

import re
from dataclasses import dataclass, field as dc_field
from functools import cached_property

import sympy as sp

from .chart import Chart, MultiIndex, NonTangentError
from .forms import Form, boundary_volume, d_h, hodge, iota_x, vol, wedge
from .pipeline import FieldMeta, LagrangianPair, VariationDecomposition, decompose
from .relative import BoundaryPair

SU2_STRUCTURE = {}
for _i in range(3):
    for _j in range(3):
        for _k in range(3):
            val = sp.LeviCivita(_i, _j, _k)
            if val != 0:
                SU2_STRUCTURE[(_i, _j, _k)] = sp.Integer(val)


class ModelError(ValueError):
    """Parse or type error with source position."""

    def __init__(self, message: str, line: int | None = None, col: int | None = None):
        self.line, self.col = line, col
        pos = f" (line {line}, col {col})" if line is not None else ""
        super().__init__(message + pos)


@dataclass
class FieldDecl:
    name: str
    kind: str  # scalar | one_form | one_form_su2
    src: str = ""


@dataclass
class BackgroundDecl:
    name: str
    kind: str  # const | function | value
    args: tuple[str, ...] = ()
    value: str = ""


@dataclass
class Model:
    name: str
    coords: tuple[str, ...]
    has_boundary: bool
    metric: tuple[sp.Expr, ...] | None
    field_decls: list[FieldDecl]
    backgrounds: list[BackgroundDecl]
    lagrangian_src: dict[str, str]
    bc: dict[str, str]
    vector_srcs: dict[str, tuple[str, ...]]
    constraint_srcs: list[str]
    domain: tuple[tuple[float, float], ...]
    periodic: tuple[str, ...]
    max_jet_order: int = 4

    chart: Chart = dc_field(default=None, repr=False)
    pair: BoundaryPair = dc_field(default=None, repr=False)
    meta: dict[str, FieldMeta] = dc_field(default_factory=dict, repr=False)
    lp: LagrangianPair = dc_field(default=None, repr=False)
    vectors: dict[str, list[sp.Expr]] = dc_field(default_factory=dict, repr=False)
    constraints: list[sp.Expr] = dc_field(default_factory=list, repr=False)
    bindings: dict[str, float] = dc_field(default_factory=dict, repr=False)
    lie_dim: dict[str, int] = dc_field(default_factory=dict, repr=False)

    @cached_property
    def decomposition(self) -> VariationDecomposition:
        """CPS steps 1-2 of the model's Lagrangian pair, derived once per model."""
        return decompose(self.lp)

    def component_fields(self) -> list[str]:
        out = []
        for fd in self.field_decls:
            if fd.kind == "scalar":
                out.append(fd.name)
            elif fd.kind == "one_form":
                out.extend(f"{fd.name}_{c}" for c in self.coords)
            elif fd.kind == "one_form_su2":
                for i in (1, 2, 3):
                    out.extend(f"{fd.name}{i}_{c}" for c in self.coords)
        return out


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


# -- expression values --------------------------------------------------------------------


@dataclass
class Val:
    """Parser value: a scalar expression, a form, or a Lie-algebra-valued form."""

    kind: str  # "scalar" | "form" | "lie"
    scalar: sp.Expr = None
    form: Form = None
    comps: list[Form] = None

    @staticmethod
    def of_scalar(e) -> "Val":
        return Val("scalar", scalar=sp.sympify(e))

    @staticmethod
    def of_form(f: Form) -> "Val":
        return Val("form", form=f)

    def as_form(self, chart: Chart) -> Form:
        if self.kind == "scalar":
            return Form.scalar(chart, self.scalar)
        if self.kind == "form":
            return self.form
        raise ModelError("expected a scalar-valued form, got a Lie-algebra-valued one")


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
            raise ModelError(f"expected {text!r}, got {t.text!r}", t.line, t.col)
        return t

    def expect_ident(self) -> Token:
        t = self.next()
        if t.kind != "ident":
            raise ModelError(f"expected an identifier, got {t.text!r}", t.line, t.col)
        return t


class ExprParser(TokenCursor):
    """Recursive-descent expression parser over a chart-bound symbol table."""

    def __init__(self, model: Model, chart: Chart, boundary: bool):
        super().__init__([])
        self.model = model
        self.chart = chart
        self.boundary = boundary

    # symbol resolution ------------------------------------------------------------

    def resolve_ident(self, tok: Token) -> Val:
        name = tok.text
        chart = self.chart
        if name in chart.coord_names:
            return Val.of_scalar(chart.xs[chart.coord_names.index(name)])
        if name == "pi":
            return Val.of_scalar(sp.pi)
        # Lie-valued one-form base
        if name in self.model.lie_dim:
            dim = self.model.lie_dim[name]
            comps = []
            for i in range(1, dim + 1):
                comps.append(self._base_one_form(f"{name}{i}"))
            return Val("lie", comps=comps)
        # plain one-form base
        if any(fd.name == name and fd.kind == "one_form" for fd in self.model.field_decls):
            return Val.of_form(self._base_one_form(name))
        # field / jet reference
        jet = self._try_jet(name)
        if jet is not None:
            return Val.of_scalar(jet)
        for bg in self.model.backgrounds:
            if bg.name == name and bg.kind in ("const", "value"):
                return Val.of_scalar(sp.Symbol(name))
        raise ModelError(f"unknown symbol {name!r}", tok.line, tok.col)

    def _base_one_form(self, base: str) -> Form:
        chart = self.chart
        out = Form.zero(chart, 1, 0)
        for i, c in enumerate(self.model.coords):
            label = f"{base}_{c}"
            if label not in chart.fields:
                raise ModelError(f"one-form component {label!r} missing on this chart")
            out = out + Form.dx(chart, i) * chart.jet(label, MultiIndex())
        return out

    def _try_jet(self, name: str):
        chart = self.chart
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
        except Exception as err:
            raise ModelError(str(err))

    # parsing ----------------------------------------------------------------------

    def parse(self, tokens: list[Token]) -> Val:
        self.tokens = tokens
        self.i = 0
        v = self.expr()
        if self.peek().kind != "eof":
            t = self.peek()
            raise ModelError(f"unexpected token {t.text!r}", t.line, t.col)
        return v

    def expr(self) -> Val:
        v = self.term()
        while self.peek().text in ("+", "-"):
            op = self.next().text
            w = self.term()
            v = self.add(v, w) if op == "+" else self.add(v, self.scale(w, -1))
        return v

    def term(self) -> Val:
        v = self.power()
        while self.peek().text in ("*", "/"):
            op = self.next().text
            w = self.power()
            v = self.mul(v, w) if op == "*" else self.div(v, w)
        return v

    def power(self) -> Val:
        v = self.unary()
        if self.peek().text == "**":
            self.next()
            e = self.unary()
            if v.kind != "scalar" or e.kind != "scalar":
                t = self.peek()
                raise ModelError("powers apply to scalar expressions only", t.line, t.col)
            return Val.of_scalar(v.scalar ** e.scalar)
        return v

    def unary(self) -> Val:
        t = self.peek()
        if t.text == "-":
            self.next()
            return self.scale(self.unary(), -1)
        if t.text == "+":
            self.next()
            return self.unary()
        return self.atom()

    def atom(self) -> Val:
        t = self.next()
        if t.text == "(":
            v = self.expr()
            self.expect(")")
            return v
        if t.kind == "num":
            if "." in t.text:
                return Val.of_scalar(sp.Rational(t.text))
            return Val.of_scalar(sp.Integer(t.text))
        if t.kind == "ident":
            if self.peek().text == "(":
                return self.call(t)
            return self.resolve_ident(t)
        raise ModelError(f"unexpected token {t.text!r}", t.line, t.col)

    def call(self, name_tok: Token) -> Val:
        name = name_tok.text
        self.expect("(")
        args: list[Val] = []
        arg_names: list[str | None] = []
        if name == "iota":
            vec = self.expect_ident()
            arg_names.append(vec.text)
            args.append(Val.of_scalar(0))
            self.expect(",")
            arg_names.append(None)
            args.append(self.expr())
            self.expect(")")
            return self.apply(name, args, arg_names, name_tok)
        if self.peek().text != ")":
            while True:
                arg_names.append(self.peek().text if self.peek().kind == "ident" else None)
                args.append(self.expr())
                if self.peek().text == ",":
                    self.next()
                    continue
                break
        self.expect(")")
        return self.apply(name, args, arg_names, name_tok)

    def apply(self, name: str, args: list[Val], arg_names, tok: Token) -> Val:
        chart = self.chart
        if name == "d":
            self._arity(name, args, 1, tok)
            if args[0].kind == "lie":
                return Val("lie", comps=[d_h(c) for c in args[0].comps])
            return Val.of_form(d_h(args[0].as_form(chart)))
        if name == "wedge":
            if len(args) < 2:
                raise ModelError("wedge needs at least two arguments", tok.line, tok.col)
            out = args[0].as_form(chart)
            for a in args[1:]:
                f = a.as_form(chart)
                if out.terms and f.terms and out.r + f.r > chart.n:
                    raise ModelError(
                        f"wedge exceeds the chart dimension ({out.r}+{f.r} > {chart.n})",
                        tok.line,
                        tok.col,
                    )
                out = wedge(out, f)
            return Val.of_form(out)
        if name == "hodge":
            self._arity(name, args, 1, tok)
            if chart.metric is None:
                raise ModelError("hodge requires a declared metric", tok.line, tok.col)
            if args[0].kind == "lie":
                return Val("lie", comps=[hodge(c) for c in args[0].comps])
            return Val.of_form(hodge(args[0].as_form(chart)))
        if name == "iota":
            self._arity(name, args, 2, tok)
            vec = arg_names[0]
            if vec not in self.model.vectors:
                raise ModelError(f"unknown vector field {vec!r}", tok.line, tok.col)
            return Val.of_form(iota_x(self.model.vectors[vec], args[1].as_form(chart)))
        if name == "vol":
            self._arity(name, args, 0, tok)
            if self.boundary:
                raise ModelError("vol() is a bulk form; use bvol() on the boundary", tok.line, tok.col)
            return Val.of_form(vol(chart))
        if name == "bvol":
            self._arity(name, args, 0, tok)
            if not self.boundary:
                raise ModelError("bvol() only appears in boundary expressions", tok.line, tok.col)
            return Val.of_form(boundary_volume(self.model.chart, chart))
        if name == "tr":
            self._arity(name, args, 2, tok)
            a, b = args
            if a.kind != "lie" or b.kind != "lie" or len(a.comps) != len(b.comps):
                raise ModelError("tr() pairs two Lie-algebra-valued forms", tok.line, tok.col)
            out = Form.zero(chart)
            for ca, cb in zip(a.comps, b.comps):
                out = out + wedge(ca, cb)
            return Val.of_form(out)
        if name == "bracket":
            self._arity(name, args, 2, tok)
            a, b = args
            if a.kind != "lie" or b.kind != "lie":
                raise ModelError("bracket() needs Lie-algebra-valued forms", tok.line, tok.col)
            dim = len(a.comps)
            comps = [Form.zero(chart) for _ in range(dim)]
            for (i, j, k), c in SU2_STRUCTURE.items():
                comps[k] = comps[k] + wedge(a.comps[i], b.comps[j]) * c
            return Val("lie", comps=comps)
        for bg in self.model.backgrounds:
            if bg.name == name and bg.kind == "function":
                fn = sp.Function(name)
                vals = []
                for a in args:
                    if a.kind != "scalar":
                        raise ModelError(f"{name}() takes scalar arguments", tok.line, tok.col)
                    vals.append(a.scalar)
                return Val.of_scalar(fn(*vals))
        raise ModelError(f"unknown function {name!r}", tok.line, tok.col)

    @staticmethod
    def _arity(name, args, k, tok):
        if len(args) != k:
            raise ModelError(f"{name}() takes {k} argument(s), got {len(args)}", tok.line, tok.col)

    def add(self, a: Val, b: Val) -> Val:
        if a.kind == "scalar" and b.kind == "scalar":
            return Val.of_scalar(a.scalar + b.scalar)
        if a.kind == "lie" and b.kind == "lie":
            return Val("lie", comps=[x + y for x, y in zip(a.comps, b.comps)])
        fa, fb = a.as_form(self.chart), b.as_form(self.chart)
        if fa.terms and fb.terms and fa.bidegree != fb.bidegree:
            raise ModelError(f"degree mismatch in sum: {fa.bidegree} vs {fb.bidegree}")
        return Val.of_form(fa + fb)

    def scale(self, a: Val, c) -> Val:
        if a.kind == "scalar":
            return Val.of_scalar(c * a.scalar)
        if a.kind == "lie":
            return Val("lie", comps=[f * c for f in a.comps])
        return Val.of_form(a.form * c)

    def mul(self, a: Val, b: Val) -> Val:
        if a.kind == "scalar" and b.kind == "scalar":
            return Val.of_scalar(a.scalar * b.scalar)
        if a.kind == "scalar":
            return self.scale(b, a.scalar)
        if b.kind == "scalar":
            return self.scale(a, b.scalar)
        raise ModelError("use wedge() to multiply forms")

    def div(self, a: Val, b: Val) -> Val:
        if b.kind != "scalar":
            raise ModelError("division by a form")
        if a.kind == "scalar":
            return Val.of_scalar(a.scalar / b.scalar)
        return self.scale(a, 1 / b.scalar)


# -- model parser ---------------------------------------------------------------------


class ModelParser(TokenCursor):
    def __init__(self, text: str, max_jet_order: int | None = None):
        super().__init__(tokenize(text))
        self.max_jet_order = max_jet_order

    def statement_tokens(self) -> list[Token]:
        """Collect tokens until the statement-terminating semicolon."""
        out = []
        depth = 0
        while True:
            t = self.peek()
            if t.kind == "eof":
                raise ModelError("unterminated statement", t.line, t.col)
            if t.text == ";" and depth == 0:
                self.next()
                return out
            if t.text == "(":
                depth += 1
            if t.text == ")":
                depth -= 1
            out.append(self.next())

    def parse(self) -> Model:
        self.expect("model")
        name = self.expect_ident().text
        self.expect("{")
        blocks: dict[str, list] = {}
        order = []
        while self.peek().text != "}":
            head = self.expect_ident().text
            self.expect("{")
            stmts = []
            while self.peek().text != "}":
                stmts.append(self.statement_tokens())
            self.expect("}")
            blocks[head] = stmts
            order.append(head)
        self.expect("}")
        return self.build(name, blocks)

    # block interpretation ------------------------------------------------------------

    @staticmethod
    def _stmt_text(stmt: list[Token]) -> str:
        out = []
        for t in stmt:
            out.append(t.text)
        return " ".join(out)

    def build(self, name: str, blocks) -> Model:
        if "chart" not in blocks or "fields" not in blocks or "lagrangian" not in blocks:
            raise ModelError("model needs chart, fields, and lagrangian blocks")
        coords: tuple[str, ...] = ()
        has_boundary = True
        domain_stmt = None
        periodic: tuple[str, ...] = ()
        for stmt in blocks["chart"]:
            key = stmt[0].text
            if key == "coords":
                coords = tuple(t.text for t in stmt[2:] if t.kind == "ident")
            elif key == "boundary":
                has_boundary = stmt[2].text == "true"
            elif key == "domain":
                domain_stmt = stmt
            elif key == "periodic":
                periodic = tuple(t.text for t in stmt[2:] if t.kind == "ident")
            else:
                raise ModelError(f"unknown chart entry {key!r}", stmt[0].line, stmt[0].col)
        if not coords:
            raise ModelError("chart declares no coordinates")
        if domain_stmt is None:
            domain = tuple((0.0, 1.0) for _ in coords)
        else:
            nums = self._domain_numbers(domain_stmt)
            if len(nums) != 2 * len(coords):
                raise ModelError(
                    f"domain needs one interval per coordinate ({len(coords)}), "
                    f"got {len(nums)} number(s)", domain_stmt[0].line, domain_stmt[0].col,
                )
            domain = tuple((nums[2 * i], nums[2 * i + 1]) for i in range(len(coords)))

        field_decls: list[FieldDecl] = []
        for stmt in blocks["fields"]:
            fname = stmt[0].text
            if len(stmt) < 3 or stmt[1].text != ":":
                raise ModelError("field declarations look like `u : scalar;`", stmt[0].line, stmt[0].col)
            kind = stmt[2].text
            if kind == "one_form" and len(stmt) > 3:
                if [t.text for t in stmt[3:]] == ["(", "su2", ")"]:
                    kind = "one_form_su2"
                else:
                    raise ModelError("unknown one_form qualifier", stmt[0].line, stmt[0].col)
            if kind not in ("scalar", "one_form", "one_form_su2"):
                raise ModelError(f"unknown field kind {kind!r}", stmt[0].line, stmt[0].col)
            field_decls.append(FieldDecl(fname, kind))
        if not field_decls:
            raise ModelError("no dynamical fields declared")

        metric = None
        backgrounds: list[BackgroundDecl] = []
        bindings: dict[str, float] = {}
        for stmt in blocks.get("background", []):
            key = stmt[0].text
            if key == "metric":
                entries = []
                texts = [t.text for t in stmt]
                if texts[1:4] != ["=", "diag", "("] or texts[-1] != ")":
                    raise ModelError(
                        "metric declarations look like `metric = diag(-1, 1);`",
                        stmt[0].line, stmt[0].col,
                    )
                inner = texts[4: len(texts) - 1]
                cur = []
                for t in inner:
                    if t == ",":
                        entries.append("".join(cur))
                        cur = []
                    elif t != ")":
                        cur.append(t)
                if cur:
                    entries.append("".join(cur))
                try:
                    metric = tuple(sp.sympify(e) for e in entries)
                except (sp.SympifyError, TypeError, ValueError) as err:
                    raise ModelError(
                        f"unreadable metric entry: {err}", stmt[0].line, stmt[0].col
                    ) from None
                if len(metric) != len(coords):
                    raise ModelError(
                        f"metric needs one diagonal entry per coordinate ({len(coords)})",
                        stmt[0].line, stmt[0].col,
                    )
            elif len(stmt) >= 3 and stmt[1].text == ":":
                argnames = tuple(t.text for t in stmt[4:] if t.kind == "ident")
                backgrounds.append(BackgroundDecl(key, "function", args=argnames))
            elif len(stmt) >= 3 and stmt[1].text == "=":
                valtext = "".join(t.text for t in stmt[2:])
                backgrounds.append(BackgroundDecl(key, "value", value=valtext))
                try:
                    bindings[key] = float(sp.sympify(valtext))
                except (sp.SympifyError, TypeError, ValueError):
                    raise ModelError(
                        f"background value {valtext!r} is not a number", stmt[0].line, stmt[0].col
                    ) from None
            else:
                backgrounds.append(BackgroundDecl(key, "const"))

        lagrangian_src: dict[str, str] = {}
        lag_tokens: dict[str, list[Token]] = {}
        for stmt in blocks["lagrangian"]:
            key = stmt[0].text
            if key not in ("L", "ell") or stmt[1].text != "=":
                raise ModelError("lagrangian entries are `L = ...;` and `ell = ...;`", stmt[0].line, stmt[0].col)
            lagrangian_src[key] = self._stmt_text(stmt[2:])
            lag_tokens[key] = stmt[2:] + [Token("eof", "", 0, 0)]
        if "L" not in lagrangian_src:
            raise ModelError("lagrangian block must define L")

        bc: dict[str, str] = {}
        for stmt in blocks.get("bc", []):
            texts = [t.text for t in stmt]
            if len(texts) != 3 or texts[1] != "=" or texts[2] not in ("free", "dirichlet", "robin"):
                raise ModelError(
                    "boundary conditions look like `u = free;` (free, dirichlet or robin)",
                    stmt[0].line, stmt[0].col,
                )
            bc[texts[0]] = texts[2]

        vector_srcs: dict[str, tuple[str, ...]] = {}
        vec_tokens: dict[str, list[list[Token]]] = {}
        for stmt in blocks.get("vectors", []):
            vname = stmt[0].text
            comps: list[list[Token]] = [[]]
            depth = 0
            for t in stmt[2:]:
                if t.text == "(" and depth == 0:
                    depth += 1
                    continue
                if t.text == ")" and depth == 1:
                    break
                if t.text == "(":
                    depth += 1
                if t.text == ")":
                    depth -= 1
                if t.text == "," and depth == 1:
                    comps.append([])
                else:
                    comps[-1].append(t)
            vector_srcs[vname] = tuple(" ".join(x.text for x in c) for c in comps)
            vec_tokens[vname] = [c + [Token("eof", "", 0, 0)] for c in comps]

        constraint_srcs = []
        cons_tokens = []
        for stmt in blocks.get("constraints", []):
            texts = [t.text for t in stmt]
            if texts[-2:] == ["=", "0"]:
                stmt = stmt[:-2]
            constraint_srcs.append(self._stmt_text(stmt))
            cons_tokens.append(stmt + [Token("eof", "", 0, 0)])

        model = Model(
            name=name,
            coords=coords,
            has_boundary=has_boundary,
            metric=metric,
            field_decls=field_decls,
            backgrounds=backgrounds,
            lagrangian_src=lagrangian_src,
            bc=bc,
            vector_srcs=vector_srcs,
            constraint_srcs=constraint_srcs,
            domain=domain,
            periodic=periodic,
            max_jet_order=self.max_jet_order or 4,
        )
        model.bindings = bindings
        self._realize(model, lag_tokens, vec_tokens, cons_tokens)
        return model

    @staticmethod
    def _domain_numbers(stmt: list[Token]) -> list[float]:
        nums: list[float] = []
        sign = 1.0
        for t in stmt[2:]:
            if t.text == "-":
                sign = -1.0
            elif t.kind == "num":
                nums.append(sign * float(t.text))
                sign = 1.0
            elif t.text == "pi":
                nums.append(sign * float(sp.pi))
                sign = 1.0
        return nums

    def _realize(self, model: Model, lag_tokens, vec_tokens, cons_tokens):
        labels = model.component_fields()
        chart = Chart(model.coords, labels, max_jet_order=model.max_jet_order, metric=model.metric)
        model.chart = chart
        model.pair = BoundaryPair(chart)
        for fd in model.field_decls:
            if fd.kind == "scalar":
                model.meta[fd.name] = FieldMeta("scalar")
            elif fd.kind == "one_form":
                for i, c in enumerate(model.coords):
                    model.meta[f"{fd.name}_{c}"] = FieldMeta("one_form", base=fd.name, axis=i)
            else:
                model.lie_dim[fd.name] = 3
                for li in (1, 2, 3):
                    for i, c in enumerate(model.coords):
                        model.meta[f"{fd.name}{li}_{c}"] = FieldMeta(
                            "one_form", base=fd.name, axis=i, lie_index=li
                        )
        # vectors first: iota() needs them
        bulk = ExprParser(model, chart, boundary=False)
        for vname, comps in vec_tokens.items():
            if len(comps) != chart.n:
                raise ModelError(f"vector {vname!r} needs {chart.n} components")
            vals = []
            for ctoks in comps:
                v = bulk.parse(ctoks)
                if v.kind != "scalar":
                    raise ModelError(f"vector components must be scalars ({vname!r})")
                vals.append(v.scalar)
            model.vectors[vname] = vals

        Lval = bulk.parse(lag_tokens["L"])
        L = Lval.as_form(chart)
        if L.terms and L.bidegree != (chart.n, 0):
            raise ModelError(f"L must be a top horizontal form, got degree {L.bidegree}")
        if L.is_zero():
            L = Form.zero(chart, chart.n, 0)

        bchart = model.pair.bchart
        ell = Form.zero(bchart, bchart.n, 0)
        if "ell" in lag_tokens:
            bparser = ExprParser(model, bchart, boundary=True)
            ellval = bparser.parse(lag_tokens["ell"])
            ell = ellval.as_form(bchart)
            if ell.terms and ell.bidegree != (bchart.n, 0):
                raise ModelError(f"ell must be a boundary top form, got degree {ell.bidegree}")
            if ell.is_zero():
                ell = Form.zero(bchart, bchart.n, 0)

        bc = {}
        for fd in model.field_decls:
            tag = model.bc.get(fd.name, "free")
            if fd.kind == "scalar":
                bc[fd.name] = tag
            else:
                for label, m in model.meta.items():
                    if m.base == fd.name:
                        bc[label] = tag
        unknown_bc = set(model.bc) - {fd.name for fd in model.field_decls}
        if unknown_bc:
            raise ModelError(f"boundary conditions for undeclared fields: {sorted(unknown_bc)}")
        model.lp = LagrangianPair(model.pair, L, ell, bc=bc, has_boundary=model.has_boundary)

        for ctoks in cons_tokens:
            v = bulk.parse(ctoks)
            if v.kind != "scalar":
                raise ModelError("constraints must be scalar expressions")
            model.constraints.append(v.scalar)

        # tangency of declared vectors to the lateral boundary
        if model.has_boundary:
            for vname, comps in model.vectors.items():
                try:
                    model.pair.check_tangent(comps)
                except NonTangentError:
                    raise ModelError(
                        f"vector {vname!r} is not tangent to the lateral boundary"
                    ) from None


def parse_model(text: str, max_jet_order: int | None = None) -> Model:
    return ModelParser(text, max_jet_order=max_jet_order).parse()


def print_model(model: Model) -> str:
    """Canonical text of a model; parses back to an equivalent model."""
    out = [f"model {model.name} {{"]
    out.append("  chart {")
    out.append(f"    coords = {', '.join(model.coords)};")
    out.append(f"    boundary = {'true' if model.has_boundary else 'false'};")
    dom = ", ".join(f"({a:g}, {b:g})" for a, b in model.domain)
    out.append(f"    domain = {dom};")
    if model.periodic:
        out.append(f"    periodic = {', '.join(model.periodic)};")
    out.append("  }")
    out.append("  fields {")
    for fd in model.field_decls:
        kind = "one_form(su2)" if fd.kind == "one_form_su2" else fd.kind
        out.append(f"    {fd.name} : {kind};")
    out.append("  }")
    if model.backgrounds or model.metric is not None:
        out.append("  background {")
        if model.metric is not None:
            out.append(f"    metric = diag({', '.join(str(m) for m in model.metric)});")
        for bg in model.backgrounds:
            if bg.kind == "const":
                out.append(f"    {bg.name};")
            elif bg.kind == "function":
                out.append(f"    {bg.name} : function({', '.join(bg.args)});")
            else:
                out.append(f"    {bg.name} = {bg.value};")
        out.append("  }")
    out.append("  lagrangian {")
    out.append(f"    L = {model.lagrangian_src['L']};")
    if "ell" in model.lagrangian_src:
        out.append(f"    ell = {model.lagrangian_src['ell']};")
    out.append("  }")
    if model.bc:
        out.append("  bc {")
        for k, v in model.bc.items():
            out.append(f"    {k} = {v};")
        out.append("  }")
    if model.vector_srcs:
        out.append("  vectors {")
        for k, comps in model.vector_srcs.items():
            out.append(f"    {k} = ({', '.join(comps)});")
        out.append("  }")
    if model.constraint_srcs:
        out.append("  constraints {")
        for c in model.constraint_srcs:
            out.append(f"    {c} = 0;")
        out.append("  }")
    out.append("}")
    return "\n".join(out) + "\n"
