"""Jet variables, truncated-series derivations, jet and fiber ideals.

The derivation D_i reads the t^i coefficient of a polynomial after the
substitution x_j -> x_j@0 + x_j@1 t + ... + x_j@l t^l, truncated at
t^(l+1).  That divided-power convention satisfies
D_m(fg) = sum_{i+j=m} D_i(f) D_j(g) in every characteristic.

Pointed jets set the base point to 0: phi(x_j@0) = 0, in the ring
k[x@1, ..., x@l] (``Series`` with first = 1), whose variables are the
last ones of ``JetRing``.  Closures, jet-support membership and the
universal jet image only ask questions modulo fiber ideals, which
contain every x_j@0, so they work there, on the term dicts of the
series and the fiber ideal image of ``closures._Ladder``.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from itertools import chain
from math import factorial

from .groebner import Ideal
from .poly import FieldSpec, Polynomial, RingContext


class JetRing:
    """Level-l jet variables over a base ring.

    Variables are ordered level-major: x_1@0, ..., x_n@0, x_1@1, ...,
    so the level-l' prefix of the level-l context is the level-l'
    context itself, and the pointed jet ring k[x@1, ..., x@l] is
    named by the variables after the first n.
    """

    def __init__(self, base: RingContext, level: int):
        if level < 0:
            raise ValueError("jet level must be nonnegative")
        self.base = base
        self.level = level
        names = []
        for i in range(level + 1):
            for v in base.variables:
                names.append(f"{v}@{i}")
        self.context = RingContext(base.field_spec, tuple(names))

    def variable_index(self, base_index: int, order: int) -> int:
        """Position of x_j@i in the jet context."""
        if not (0 <= base_index < self.base.nvars and 0 <= order <= self.level):
            raise IndexError("jet variable out of range")
        return order * self.base.nvars + base_index

    def variable(self, base_index: int, order: int) -> Polynomial:
        return self.context.variable(self.variable_index(base_index, order))

    def origin_fiber_generators(self) -> list:
        """The expansion of the base maximal ideal: x_1@0, ..., x_n@0."""
        return [self.variable(j, 0) for j in range(self.base.nvars)]


class Series:
    """D_i(x^u) in closed form, read off partitions of the excess.

    Under x_j -> x_j@first t^first + ... + x_j@level t^level (first = 0
    in the full jet ring, 1 in the pointed one), the coefficient of t^i
    in the series of x^u is D_i(x^u), phi(D_i x^u) when pointed.  It
    involves the jet variables of order <= i only, so it does not change
    when the level grows: ``extend`` raises the level, and
    ``coefficient`` writes D_i over the variables of the series' level,
    level-major (``JetRing``), those of order <= i first.

    The closed form.  Let E = i - first * deg u, the excess.  D_i(x^u)
    has one term for each choice, per variable j, of a partition
    lambda_j of an excess e_j into at most u_j parts, with
    sum_j e_j = E.  That term puts u_j - |lambda_j| on x_j@first and
    m_v(lambda_j), the number of parts v of lambda_j, on x_j@(first + v);
    its coefficient is the product over j of the falling factorial
    u_j (u_j - 1) ... (u_j - |lambda_j| + 1) over prod_v m_v(lambda_j)!.

    Proof.  By the multinomial theorem, (sum_k x_j@k t^k)^(u_j) is the
    sum, over multiplicities (m_k)_(k >= first) with sum_k m_k = u_j, of
    u_j! / prod_k m_k! times prod_k x_j@k^(m_k) t^(sum_k k m_k): the
    count of the ways to take x_j@k from m_k of the u_j factors.  Write
    k = first + v; then sum_k k m_k = first u_j + sum_(v >= 1) v m_(first+v),
    so the m_(first+v), v >= 1, are the multiplicities of a partition
    lambda_j of e_j = sum_v v m_(first+v) with |lambda_j| <= u_j parts,
    m_first = u_j - |lambda_j|, and u_j! / (m_first! prod_v m_v!) is
    the coefficient above.  The product over j has t-degree
    first * deg u + sum_j e_j, so D_i collects the choices with
    sum_j e_j = E.  Every order first + v <= first + E <= i (for u != 1)
    lies in the series, so truncating at t^(level+1) drops nothing.
    Two choices give two different monomials, since the choice is read
    back off the exponents of x_j@(first + v), and two monomials x^u give
    disjoint terms, since the exponents of x_j@k sum to u_j.  Each
    coefficient is a positive integer, so nothing cancels: ``coefficient``
    writes D_i f term by term, maps each coefficient into the field once
    and drops those that vanish mod p.  A huge u_j costs
    at most E factors of its falling factorial, and a monomial with
    E < 0 (degree above the level when pointed) costs nothing.
    """

    def __init__(self, nvars: int, first: int, fld: FieldSpec):
        self.n, self.first, self.fld = nvars, first, fld
        self.level = 0

    def width(self, i: int) -> int:
        """The number of jet variables of order <= i."""
        return self.n * (i + 1 - self.first)

    def extend(self) -> None:
        """Raise the level by one."""
        self.level += 1

    def coefficient(self, f: dict, i: int) -> dict:
        """D_i of the polynomial with terms ``f``, over the jet variables of the series' level."""
        fld, n, first = self.fld, self.n, self.first
        orders, w = self.level + 1 - first, self.width(self.level)
        zero, pad = (0,) * orders, (0,) * (w - n)
        rows: dict = {}  # (u_j, e_j) -> [(exponents of x_j@first .. x_j@level, coefficient)]
        out: dict = {}
        for u, c in f.items():
            deg = sum(u)
            excess = i - first * deg
            if not deg:  # D_0(1) = 1, and D_i(1) = 0 for i > 0
                if i == 0:
                    out[(0,) * w] = c
            elif excess == 0:  # the one partition: x@first^u
                out[u + pad] = c
            elif excess > 0:
                last = max(j for j in range(n) if u[j])
                chosen = [(excess, (), 1)]  # (excess left, exponents of x_1 .. x_j, coefficient)
                for j, e in enumerate(u):
                    if not e:
                        chosen = [(left, vs + (zero,), k) for left, vs, k in chosen]
                        continue
                    grown = []
                    for left, vs, k in chosen:
                        for ej in (left,) if j == last else range(left + 1):
                            choices = rows.get((e, ej))
                            if choices is None:
                                choices = rows[e, ej] = [(v + zero[len(v):], m) for v, m in _partitions(e, ej)]
                            grown += [(left - ej, vs + (v,), k * m) for v, m in choices]
                    chosen = grown
                for _, vs, k in chosen:
                    x = fld.mul(c, k)
                    if not fld.is_zero(x):
                        out[tuple(chain.from_iterable(zip(*vs)))] = x
        return out


@functools.lru_cache(maxsize=4096)
def _partitions(exponent: int, excess: int) -> tuple:
    """((u - |lambda|, m_1, ..., m_e), u^(|lambda|) / prod_v m_v!) for
    each partition lambda of e = ``excess`` into at most u = ``exponent``
    parts, m_v its number of parts v (``Series``)."""
    out = []
    for m in _multiplicities(excess, excess):
        parts = sum(m)
        if parts <= exponent:
            k = 1
            for t in range(parts):
                k *= exponent - t
            for mv in m:
                k //= factorial(mv)
            out.append(((exponent - parts,) + m, k))
    return tuple(out)


def _multiplicities(e: int, v: int):
    """(m_1, ..., m_v) with sum_s s m_s = e: the partitions of e into
    parts of size <= v."""
    if v == 0:
        if e == 0:
            yield ()
        return
    for mv in range(e // v + 1):
        for head in _multiplicities(e - v * mv, v - 1):
            yield head + (mv,)


def _derivations(polys: list, jr: JetRing) -> list:
    """[D_0 f, ..., D_l f] in ``jr`` for each f in ``polys``.

    Each D_i is linear, so D_i f is the sum of c * D_i(x^u) over the
    terms c*x^u of f, each read off its closed form (``Series``).
    """
    series = Series(jr.base.nvars, 0, jr.base.field_spec)
    series.level = jr.level
    return [
        [Polynomial(jr.context, series.coefficient(f.terms, i)) for i in range(jr.level + 1)]
        for f in polys
    ]


def hs_derivations(f: Polynomial, level: int) -> list:
    """[D_0 f, ..., D_level f] in the level-``level`` jet ring of f's ring,
    in the closed form of ``Series``."""
    return _derivations([f], JetRing(f.ring, level))[0]


@dataclass
class JetIdeal:
    """Jets of an ideal: D_i of each source generator, 0 <= i <= level."""

    jet_ring: JetRing
    source: Ideal
    generators: list  # D_i(g), grouped by source generator, i ascending

    def ideal(self) -> Ideal:
        return Ideal(self.jet_ring.context, self.generators)


def jet_ideal(I: Ideal, level: int) -> JetIdeal:
    """D_0 g, ..., D_level g for each generator g of I."""
    jr = JetRing(I.ring, level)
    return JetIdeal(jr, I, [d for ds in _derivations(I.generators, jr) for d in ds])


def fiber_ideal(I: Ideal, level: int) -> Ideal:
    """Jets of I plus the origin fiber: cuts out jets based at 0."""
    ji = jet_ideal(I, level)
    return Ideal(ji.jet_ring.context, ji.generators + ji.jet_ring.origin_fiber_generators())
