"""Jet variables, truncated-series derivations, jet and fiber ideals.

The derivation D_i reads the t^i coefficient of a polynomial after the
substitution x_j -> x_j@0 + x_j@1 t + ... + x_j@l t^l, truncated at
t^(l+1).  That divided-power convention satisfies
D_m(fg) = sum_{i+j=m} D_i(f) D_j(g) in every characteristic.
"""

from __future__ import annotations

from dataclasses import dataclass

from .groebner import Ideal
from .poly import MonomialOrder, Polynomial, RingContext


class JetRing:
    """Level-l jet variables over a base ring.

    Variables are ordered level-major: x_1@0, ..., x_n@0, x_1@1, ...,
    so the level-l' prefix of the level-l context is the level-l'
    context itself.
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


def _series_mul(a: list, b: list, ring: RingContext, level: int) -> list:
    out = [ring.zero() for _ in range(level + 1)]
    for i, ai in enumerate(a):
        if ai.is_zero():
            continue
        for j in range(level + 1 - i):
            bj = b[j]
            if bj.is_zero():
                continue
            out[i + j] = out[i + j] + ai * bj
    return out


def hs_derivations(f: Polynomial, level: int) -> list:
    """[D_0 f, ..., D_level f] in the level-``level`` jet ring of f's ring.

    Each D_i is linear, so D_i f is the sum of c * D_i(x^u) over the
    terms c*x^u of f, with the monomial series of ``monomial_jets``.
    """
    jr = JetRing(f.ring, level)
    ring = jr.context
    coeffs = [ring.zero() for _ in range(level + 1)]
    for u, series in _monomial_series(jr, f.terms).items():
        c = f.terms[u]
        for i in range(level + 1):
            coeffs[i] = coeffs[i] + series[i].scale(c)
    return coeffs


def monomial_jets(ring: RingContext, monomials, level: int) -> dict:
    """{u: hs_derivations(x^u, level)} for every exponent tuple u in ``monomials``.

    The truncated series of x^u is that of x^(u - e_j) times that of
    x_j, for any j with u_j > 0.  Each series is computed once and
    memoized for the length of this call, so the call costs one
    truncated multiplication per distinct monomial met while walking
    each u down to 1, instead of deg u per monomial.  Along a
    staircase, which is closed under division, those are the monomials
    of the set itself.
    """
    return _monomial_series(JetRing(ring, level), monomials)


def _monomial_series(jr: JetRing, monomials) -> dict:
    level, nvars, jring = jr.level, jr.base.nvars, jr.context
    var_series = [[jr.variable(j, i) for i in range(level + 1)] for j in range(nvars)]
    memo = {(0,) * nvars: [jring.one()] + [jring.zero() for _ in range(level)]}

    def series(u):
        path = []
        while u not in memo:
            j = max(j for j, e in enumerate(u) if e)
            path.append((u, j))
            u = u[:j] + (u[j] - 1,) + u[j + 1 :]
        for v, j in reversed(path):
            memo[v] = _series_mul(memo[u], var_series[j], jring, level)
            u = v
        return memo[u]

    return {u: series(u) for u in monomials}


@dataclass
class JetIdeal:
    """Jets of an ideal: D_i of each source generator, 0 <= i <= level."""

    jet_ring: JetRing
    source: Ideal
    generators: list  # D_i(g), grouped by source generator, i ascending

    def ideal(self) -> Ideal:
        return Ideal(self.jet_ring.context, self.generators)


def jet_ideal(I: Ideal, level: int) -> JetIdeal:
    jr = JetRing(I.ring, level)
    gens = []
    for g in I.generators:
        gens.extend(hs_derivations(g, level))
    return JetIdeal(jr, I, gens)


def fiber_ideal(I: Ideal, level: int) -> Ideal:
    """Jets of I plus the origin fiber: cuts out jets based at 0."""
    ji = jet_ideal(I, level)
    return Ideal(ji.jet_ring.context, ji.generators + ji.jet_ring.origin_fiber_generators())


def universal_jet_image(f: Polynomial, I: Ideal, level: int) -> list:
    """Normal forms of D_0 f, ..., D_level f modulo the fiber ideal of I.

    All entries vanish exactly when f is killed by the universal jet of
    the quotient by I at this level.
    """
    basis = fiber_ideal(I, level).groebner_basis(MonomialOrder.degrevlex())
    return [basis.normal_form(d) for d in hs_derivations(f, level)]
