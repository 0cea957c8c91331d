"""Relative pairs (bulk form, boundary form) over a chart with lateral boundary.

The boundary is the face {x^{n-1} = 0} with outward normal along +x^{n-1}; the
boundary chart relabels transversal jets to normal-derivative field families.
The relative operations follow the pair calculus: d(a, b) = (d a, j*a - d b),
wedge with the 1/2-weights, horizontal contractions with the boundary minus
sign, field-space differential, evolutionary contractions and Lie derivatives
componentwise.  The relative wedge is not associative in general (the
1/2-factors); see the unit test that documents a failing triple.  The pipeline
computes every (bulk, boundary) pair of the CPS algorithm with these
operators, so the relative sign conventions are written here only.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Mapping

import sympy as sp
from sympy.core.cache import cacheit

from .chart import Chart, NonTangentError
from .forms import Form, d_h, dd, iota_ev, iota_x, lie_ev, lie_x, restrict, twist, wedge
from .jetpoly import choose_ring, prolonged_restricted_generators


class BoundaryPair:
    """A bulk chart together with its lateral-boundary chart."""

    def __init__(self, chart: Chart):
        self.chart = chart
        self.axis = chart.n - 1

    @cached_property
    def bchart(self) -> Chart:
        return self.chart.restricted(self.axis)

    def pullback(self, f: Form) -> Form:
        """j*: drop dx^{n-1} words, relabel transversal jets, pin x^{n-1} = 0.

        This is the canonical-face pullback used by the symbolic layer; the
        numeric layer evaluates face fluxes directly from bulk forms instead.
        """
        return restrict(f, self.bchart, value=sp.Integer(0))

    def check_tangent(self, xi) -> list[sp.Expr]:
        comps = [sp.sympify(c) for c in xi]
        normal = self.chart.restrict_expr(comps[self.axis], self.bchart, value=0)
        if sp.expand(normal) != 0:
            raise NonTangentError(
                f"vector field is not tangent to the boundary: xi_normal = {normal}"
            )
        return comps

    def restrict_vector(self, xi) -> list[sp.Expr]:
        return list(self._restricted_vector(tuple(map(sp.sympify, xi))))

    @cacheit
    def _restricted_vector(self, xi: tuple) -> tuple:
        """``restrict_vector``'s components, memoised per (pair, xi) in sympy's cache."""
        comps = self.check_tangent(xi)
        return tuple(self.chart.restrict_expr(c, self.bchart, value=sp.Integer(0)) for c in comps[: self.axis])

    def restrict_ev(self, W: Mapping[str, sp.Expr]) -> dict[str, sp.Expr]:
        """Boundary components of an evolutionary field.

        The variation of the k-th normal-derivative family is the restriction
        of D_n^k of the bulk component, for k up to the jet cap less the
        component's jet order; a zero component has no boundary entries.
        """
        fields = [a for a in self.chart.fields if a in W]
        ring, polys = choose_ring(self.chart.ring, [W[a] for a in fields])
        out: dict[str, sp.Expr] = {}
        for a, p in zip(fields, polys):
            gens = prolonged_restricted_generators(self.bchart, [p], ring, value=0)
            out.update(zip(self.bchart.families[a], (ring.expr(g.poly) for g in gens)))
        return out


@dataclass
class RelForm:
    """Relative pair: bulk form on the chart, boundary form on the boundary chart."""

    pair: BoundaryPair
    bulk: Form
    boundary: Form

    def __post_init__(self):
        if self.bulk.chart is not self.pair.chart:
            raise ValueError("bulk form lives on the wrong chart")
        if self.boundary.chart is not self.pair.bchart:
            raise ValueError("boundary form lives on the wrong chart")
        # degree bookkeeping is enforced for homogeneous pairs; inhomogeneous data
        # only arises transiently inside contraction identities
        if self.bulk.is_homogeneous() and self.boundary.is_homogeneous():
            if not self.bulk.is_zero() and not self.boundary.is_zero():
                rb, sb = self.bulk.bidegree
                rn, sn = self.boundary.bidegree
                if rn != rb - 1 or sn != sb:
                    raise ValueError(
                        "relative degree bookkeeping violated: "
                        f"bulk {(rb, sb)} vs boundary {(rn, sn)}"
                    )

    def __iter__(self):
        return iter((self.bulk, self.boundary))

    def is_zero(self) -> bool:
        return self.bulk.is_zero() and self.boundary.is_zero()

    def __add__(self, other: "RelForm") -> "RelForm":
        return RelForm(self.pair, self.bulk + other.bulk, self.boundary + other.boundary)

    def __sub__(self, other: "RelForm") -> "RelForm":
        return RelForm(self.pair, self.bulk - other.bulk, self.boundary - other.boundary)

    def __mul__(self, c) -> "RelForm":
        return RelForm(self.pair, self.bulk * c, self.boundary * c)

    __rmul__ = __mul__

    def __eq__(self, other) -> bool:
        if not isinstance(other, RelForm):
            return NotImplemented
        return self.bulk == other.bulk and self.boundary == other.boundary

    def __repr__(self):
        return f"RelForm(bulk={self.bulk}, boundary={self.boundary})"


def rel_d(p: RelForm) -> RelForm:
    """Relative differential: (d bulk, j*bulk - d boundary); squares to zero."""
    jb = p.pair.pullback(p.bulk)
    return RelForm(p.pair, d_h(p.bulk), jb - d_h(p.boundary))


def rel_dd(p: RelForm) -> RelForm:
    """Relative field-space differential: componentwise."""
    return RelForm(p.pair, dd(p.bulk), dd(p.boundary))


def rel_wedge(p: RelForm, q: RelForm) -> RelForm:
    """Relative wedge with the 1/2-weights.

    boundary = (-1)^{|bulk_p|}/2 (j*bulk_p) ^ bnd_q + 1/2 bnd_p ^ (j*bulk_q),
    the sign taken per horizontal degree of the bulk term (``twist``).
    """
    pair = p.pair
    boundary = wedge(twist(pair.pullback(p.bulk)), q.boundary) + wedge(p.boundary, pair.pullback(q.bulk))
    return RelForm(pair, wedge(p.bulk, q.bulk), boundary * sp.Rational(1, 2))


def rel_iota(xi, p: RelForm) -> RelForm:
    """Relative horizontal contraction: (iota_xi bulk, -iota_xibar boundary)."""
    xibar = p.pair.restrict_vector(xi)
    return RelForm(p.pair, iota_x(xi, p.bulk), -iota_x(xibar, p.boundary))


def rel_lie(xi, p: RelForm) -> RelForm:
    """Relative horizontal Lie derivative, componentwise."""
    xibar = p.pair.restrict_vector(xi)
    return RelForm(p.pair, lie_x(xi, p.bulk), lie_x(xibar, p.boundary))


def _boundary_field(W: Mapping[str, sp.Expr], p: RelForm) -> Mapping[str, sp.Expr]:
    """W restricted to the boundary, where p's boundary form needs it: a zero
    boundary form is contracted with no field, so W is not restricted."""
    return {} if p.boundary.is_zero() else p.pair.restrict_ev(W)


def rel_iota_ev(W: Mapping[str, sp.Expr], p: RelForm) -> RelForm:
    """Relative evolutionary contraction, componentwise."""
    return RelForm(p.pair, iota_ev(W, p.bulk), iota_ev(_boundary_field(W, p), p.boundary))


def rel_lie_ev(W: Mapping[str, sp.Expr], p: RelForm) -> RelForm:
    """Relative evolutionary Lie derivative, componentwise."""
    return RelForm(p.pair, lie_ev(W, p.bulk), lie_ev(_boundary_field(W, p), p.boundary))
