"""DSL parsing, token round trips, and positioned errors."""
import pathlib

import pytest
import sympy as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from cpsforge.chart import MultiIndex
from cpsforge.forms import Form, boundary_volume, d_h, iota_x, wedge
from cpsforge.model import ModelError, parse_model, tokenize

CORPUS = pathlib.Path(__file__).resolve().parents[1] / "src" / "cpsforge" / "corpus"


def corpus_files():
    return sorted(CORPUS.glob("*.cps"))


@pytest.mark.parametrize("path", corpus_files(), ids=lambda p: p.stem)
def test_roundtrip(path):
    """The token texts joined by spaces, the text the token fuzzer below
    mutates, parse to the same model: layout, comments and the braces of
    u_{tx} carry no meaning."""
    text = path.read_text()
    m1 = parse_model(text)
    m2 = parse_model(" ".join(t.text for t in tokenize(text)[:-1]))
    assert str(m1.lp.rel.bulk) == str(m2.lp.rel.bulk)
    assert str(m1.lp.rel.boundary) == str(m2.lp.rel.boundary)
    assert m1.chart.coord_names == m2.chart.coord_names
    assert m1.lp.bc == m2.lp.bc
    assert {k: [sp.sstr(c) for c in v] for k, v in m1.vectors.items()} == {
        k: [sp.sstr(c) for c in v] for k, v in m2.vectors.items()
    }
    assert [sp.sstr(c) for c in m1.constraints] == [sp.sstr(c) for c in m2.constraints]


BASE = """
model demo {
  chart { coords = t, x; boundary = true; }
  fields { %s }
  background { metric = diag(-1, 1); }
  lagrangian { L = %s; ell = 0; }
}
"""


REFUSAL_MODEL = """model demo {{
  chart {{ {chart} }}
  fields {{ u : scalar; }}
  background {{ {background} }}
  lagrangian {{ {lagrangian} }}
  vectors {{ {vectors} }}
  constraints {{ {constraints} }}
}}
"""
REFUSAL_BLOCKS = {
    "chart": "coords = t, x; boundary = true;",
    "background": "metric = diag(-1, 1); f : function(t, x);",
    "lagrangian": "L = u * vol(); ell = 0;",
    "vectors": "dt = (1, 0);",
    "constraints": "",
}


class TestErrors:
    def test_no_fields(self):
        with pytest.raises(ModelError, match="no dynamical fields"):
            parse_model(BASE % ("", "vol()"))

    def test_wedge_degree_overflow(self):
        with pytest.raises(ModelError, match="exceeds the chart dimension"):
            parse_model(BASE % ("u : scalar;", "wedge(vol(), vol())"))

    def test_unknown_symbol_position(self):
        text = BASE % ("u : scalar;", "q * vol()")
        with pytest.raises(ModelError, match="unknown symbol 'q'"):
            parse_model(text)

    def test_sum_degree_mismatch(self):
        with pytest.raises(ModelError, match="degree mismatch"):
            parse_model(BASE % ("u : scalar;", "vol() + d(u)"))

    def test_wrong_lagrangian_degree(self):
        with pytest.raises(ModelError, match="top horizontal form"):
            parse_model(BASE % ("u : scalar;", "d(u)"))

    def test_non_tangent_vector(self):
        text = """
model demo {
  chart { coords = t, x; boundary = true; }
  fields { u : scalar; }
  background { metric = diag(-1, 1); }
  lagrangian { L = u * vol(); ell = 0; }
  vectors { dx = (0, 1); }
}
"""
        with pytest.raises(ModelError, match="not tangent"):
            parse_model(text)

    def test_bvol_in_bulk_rejected(self):
        with pytest.raises(ModelError, match="bvol"):
            parse_model(BASE % ("u : scalar;", "bvol()"))

    @pytest.mark.parametrize("background, col", [
        ("lam; lam : function(t, x, y);", 21),
        ("metric = diag(-1, 1, 1); metric = diag(1, 1, 1);", 41),
    ])
    def test_repeated_background_name(self, background, col):
        text = (CORPUS / "chern_simons_k1.cps").read_text()
        old = "background { lam : function(t, x, y); }"
        assert text.count(old) == 1
        with pytest.raises(ModelError, match=rf"is declared twice \(line 9, col {col}\)$"):
            parse_model(text.replace(old, f"background {{ {background} }}"))

    @pytest.mark.parametrize("blocks, message, line, col", [
        ({"background": "", "lagrangian": "L = wedge(d(u), hodge(d(u))); ell = 0;"},
         "hodge requires a declared metric", 5, 32),
        ({"lagrangian": "L = u * vol(); ell = u * vol();"},
         "vol() is a bulk form; use bvol() on the boundary", 5, 41),
        ({"lagrangian": "L = tr(d(u), d(u)); ell = 0;"}, "tr() pairs two Lie-algebra-valued forms", 5, 20),
        ({"lagrangian": "L = bracket(u, u); ell = 0;"}, "bracket() needs Lie-algebra-valued forms", 5, 20),
        ({"lagrangian": "L = f(d(u)) * vol(); ell = 0;"}, "f() takes scalar arguments", 5, 20),
        ({"lagrangian": "L = vol() / d(u); ell = 0;"}, "division by a form", 5, 26),
        ({"lagrangian": "L = u_ttttt * vol(); ell = 0;"}, "jet u_ttttt exceeds max jet order 4", 5, 20),
        ({"vectors": "dt = (1, 0); dt = (0, 0);"}, "vector 'dt' is defined twice", 6, 26),
        ({"background": "metric = diag(-1);"}, "metric needs one diagonal entry per coordinate (2)", 4, 16),
        ({"lagrangian": "ell = 0;"}, "lagrangian block must define L", 5, 3),
        ({"chart": "boundary = true;"}, "chart declares no coordinates", 2, 3),
        ({"constraints": "d(u);"}, "expected a scalar", 7, 17),
    ])
    def test_refusal_is_positioned(self, blocks, message, line, col):
        with pytest.raises(ModelError) as err:
            parse_model(REFUSAL_MODEL.format(**{**REFUSAL_BLOCKS, **blocks}))
        assert (str(err.value), err.value.line, err.value.col) == (f"{message} (line {line}, col {col})", line, col)

    def test_iota_in_boundary_lagrangian_contracts_the_boundary_vector(self):
        # on a 1+1 chart iota(dt, bvol()) is a boundary 0-form: a degree error,
        # not a contraction with the two-component bulk vector
        lagrangian = "L = u * vol(); ell = u * iota(dt, bvol());"
        with pytest.raises(ModelError) as err:
            parse_model(REFUSAL_MODEL.format(**{**REFUSAL_BLOCKS, "lagrangian": lagrangian}))
        assert str(err.value) == "ell must be a boundary top form, got degree (0, 0) (line 5, col 31)"


class TestResolution:
    def test_jet_names(self):
        text = BASE % ("u : scalar;", "(u_t**2 - u_{xx} * u) * vol()")
        m = parse_model(text)
        ch = m.chart

        ut = ch.jet("u", MultiIndex.make(0))
        uxx = ch.jet("u", MultiIndex.make(1, 1))
        u = ch.jet("u", MultiIndex())
        assert sp.expand(m.lp.rel.bulk.top_coefficient() - (ut**2 - uxx * u)) == 0

    def test_one_form_components(self):
        text = """
model demo {
  chart { coords = t, x; boundary = true; }
  fields { A : one_form; }
  lagrangian { L = wedge(A, d(A_t) ) * 0 + wedge(A, A) * 0 + A_x * vol(); ell = 0; }
}
"""
        m = parse_model(text)
        assert "A_t" in m.chart.fields and "A_x" in m.chart.fields

    def test_su2_components(self):
        m = parse_model((CORPUS / "yang_mills_su2_n2.cps").read_text())
        assert "A1_t" in m.chart.fields and "A3_x" in m.chart.fields
        assert {f.lie_index for f in m.chart.meta.values() if f.base == "A"} == {1, 2, 3}

    def test_formal_function_and_binding(self):
        m = parse_model((CORPUS / "scalar_robin_const.cps").read_text())
        assert m.bindings["f"] == 0.5

    def test_domain_bounds_are_expressions(self):
        text = (CORPUS / "scalar_robin.cps").read_text()
        m = parse_model(text.replace("domain = (0, 1), (0, 1);", "domain = (0, 2*pi), (0, 1);"))
        assert m.domain == ((0.0, 2 * float(sp.pi)), (0.0, 1.0))

    def test_boundary_one_form_is_pulled_back(self):
        # the boundary chart has coordinates t, x: A there is A_t dt + A_x dx
        text = (CORPUS / "yang_mills_abelian_n3.cps").read_text()
        m = parse_model(text.replace("ell = 0;", "ell = (1/2) * wedge(A, hodge(A));"))
        bch = m.pair.bchart
        A_t, A_x = (bch.jet(a, MultiIndex()) for a in ("A_t", "A_x"))
        assert m.lp.rel.boundary.top_coefficient() == sp.expand((A_x**2 - A_t**2) / 2)

    def test_iota_in_boundary_expression_uses_the_boundary_vector(self):
        m = parse_model("""
model demo {
  chart { coords = t, x, y; boundary = true; }
  fields { u : scalar; }
  background { metric = diag(-1, 1, 1); }
  lagrangian { L = u * vol(); ell = wedge(d(u), iota(dt, bvol())); }
  vectors { dt = (1, 0, 0); }
}
""")
        pair = m.pair
        ub = Form.scalar(pair.bchart, pair.bchart.jet("u", MultiIndex()))
        xibar = pair.restrict_vector(m.vectors["dt"])
        assert xibar == [1, 0]
        assert m.lp.rel.boundary == wedge(d_h(ub), iota_x(xibar, boundary_volume(pair.bchart)))


CORPUS_TOKENS = {p.stem: [t.text for t in tokenize(p.read_text())[:-1]] for p in corpus_files()}


@st.composite
def token_mutants(draw):
    """A corpus model with one token deleted, duplicated or swapped with another."""
    toks = list(CORPUS_TOKENS[draw(st.sampled_from(sorted(CORPUS_TOKENS)))])
    i = draw(st.integers(0, len(toks) - 1))
    op = draw(st.sampled_from(("delete", "duplicate", "swap")))
    if op == "delete":
        del toks[i]
    elif op == "duplicate":
        toks.insert(i, toks[i])
    else:
        j = draw(st.integers(0, len(toks) - 1))
        toks[i], toks[j] = toks[j], toks[i]
    return " ".join(toks)


@settings(max_examples=1000, deadline=None, derandomize=True, database=None)
@given(token_mutants())
def test_token_mutants_parse_or_give_positioned_errors(text):
    try:
        parse_model(text)
    except ModelError as err:
        assert err.line is not None, str(err)
