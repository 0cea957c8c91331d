"""DSL parsing, token round trips, and positioned errors."""
import pathlib

import pytest
import sympy as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from cpsforge.chart import MultiIndex
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
    assert str(m1.lp.L) == str(m2.lp.L)
    assert str(m1.lp.ell) == str(m2.lp.ell)
    assert m1.coords == m2.coords
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


class TestResolution:
    def test_jet_names(self):
        text = BASE % ("u : scalar;", "(u_t**2 - u_{xx} * u) * vol()")
        m = parse_model(text)
        ch = m.chart

        ut = ch.jet("u", MultiIndex.make(0))
        uxx = ch.jet("u", MultiIndex.make(1, 1))
        u = ch.jet("u", MultiIndex())
        assert sp.expand(m.lp.L.top_coefficient() - (ut**2 - uxx * u)) == 0

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
        assert {f.lie_index for f in m.meta.values() if f.base == "A"} == {1, 2, 3}

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
        assert m.lp.ell.top_coefficient() == sp.expand((A_x**2 - A_t**2) / 2)


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
