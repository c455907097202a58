"""Jet variables, truncated-series derivations, jet and fiber ideals.

The derivation D_i reads the t^i coefficient of a polynomial after the
substitution x_j -> x_j@0 + x_j@1 t + ... + x_j@l t^l, truncated at
t^(l+1).  That divided-power convention satisfies
D_m(fg) = sum_{i+j=m} D_i(f) D_j(g) in every characteristic.

Pointed jets set the base point to 0: phi(x_j@0) = 0, in the ring
k[x@1, ..., x@l].  Closures only ask questions modulo fiber ideals,
which contain every x_j@0, so they work there (``pointed_fiber_ideal``).
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import mul

from .groebner import DEGREVLEX, Ideal
from .poly import Polynomial, RingContext


class JetRing:
    """Level-l jet variables over a base ring.

    Variables are ordered level-major: x_1@0, ..., x_n@0, x_1@1, ...,
    so the level-l' prefix of the level-l context is the level-l'
    context itself.  The pointed jet ring leaves out the base point:
    its variables are x_1@1, ..., x_n@l, and x_j@0 reads as 0.
    """

    def __init__(self, base: RingContext, level: int, pointed: bool = False):
        if level < 0:
            raise ValueError("jet level must be nonnegative")
        self.base = base
        self.level = level
        self.first = 1 if pointed else 0
        names = []
        for i in range(self.first, level + 1):
            for v in base.variables:
                names.append(f"{v}@{i}")
        self.context = RingContext(base.field_spec, tuple(names))

    def variable_index(self, base_index: int, order: int) -> int:
        """Position of x_j@i in the jet context."""
        if not (0 <= base_index < self.base.nvars and self.first <= order <= self.level):
            raise IndexError("jet variable out of range")
        return (order - self.first) * self.base.nvars + base_index

    def variable(self, base_index: int, order: int) -> Polynomial:
        return self.context.variable(self.variable_index(base_index, order))

    def variable_series(self) -> list:
        """[x_j@0, x_j@1, ..., x_j@l] for each base variable x_j, with
        x_j@0 = 0 in the pointed ring: the series substituted for x_j."""
        zero = self.context.zero()
        return [
            [self.variable(j, i) if i >= self.first else zero for i in range(self.level + 1)]
            for j in range(self.base.nvars)
        ]

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


def _derivations(polys: list, jr: JetRing) -> list:
    """[D_0 f, ..., D_l f] in ``jr`` for each f in ``polys``, on one walk.

    Each D_i is linear, so D_i f is the sum of c * D_i(x^u) over the
    terms c*x^u of f.
    """
    ring = jr.context
    monomials = {u for f in polys for u in f.terms}
    jets = _monomial_series(ring, jr.variable_series(), monomials, jr.level)
    out = []
    for f in polys:
        coeffs = [ring.zero() for _ in range(jr.level + 1)]
        for u, c in f.terms.items():
            for i, d in enumerate(jets[u]):
                if d:
                    coeffs[i] = coeffs[i] + d.scale(c)
        out.append(coeffs)
    return out


def hs_derivations(f: Polynomial, level: int) -> list:
    """[D_0 f, ..., D_level f] in the level-``level`` jet ring of f's ring,
    on the series walk of ``_monomial_series``."""
    return _derivations([f], JetRing(f.ring, level))[0]


def _monomial_series(ring: RingContext, var_series: list, monomials, level: int) -> dict:
    """{u: series of x^u mod t^(level+1)} for every exponent tuple u in
    ``monomials``, under the substitution x_j -> var_series[j].

    The truncated series of x^u is that of x^(u - e_j) times that of
    x_j, for any j with u_j > 0.  Each series is computed once and
    memoized for the length of this call, so the call costs one
    truncated multiplication per distinct monomial met while walking
    each u down to 1, instead of deg u per monomial.  Along a
    staircase, which is closed under division, those are the monomials
    of the set itself.

    Zeros without a walk.  Let low_j be the least i with
    var_series[j][i] nonzero, or level+1 if there is none: 0 in the
    full jet ring (x_j@0), 1 in the pointed one (x_j@1).  The series of
    x_j is then t^(low_j) times a power series, so that of x^u is
    t^w times one, w = sum_j u_j low_j.  If w > level, every
    coefficient up to t^level is zero, and x^u gets the zero series at
    once; in the pointed ring a monomial of degree above the level
    costs nothing, whatever its exponents.  The walk down from any
    other u meets only divisors of u, of weight at most w <= level, so
    the memo never holds a shortcut's zeros.
    """
    nvars = len(var_series)
    zero = ring.zero()
    low = [next((i for i, s in enumerate(ser) if s), level + 1) for ser in var_series]
    memo = {(0,) * nvars: [ring.one()] + [zero] * level}

    def series(u):
        if sum(map(mul, u, low)) > level:
            return [zero] * (level + 1)
        path = []
        while u not in memo:
            j = max(j for j, e in enumerate(u) if e)
            path.append((u, j))
            u = u[:j] + (u[j] - 1,) + u[j + 1 :]
        for v, j in reversed(path):
            memo[v] = _series_mul(memo[u], var_series[j], ring, level)
            u = v
        return memo[u]

    return {u: series(u) for u in monomials}


# ---------------------------------------------------------------------
# pointed jets: the base point x@0 set to 0
# ---------------------------------------------------------------------


def pointed_jets(ring: RingContext, monomials, level: int) -> dict:
    """{u: [phi(D_0 x^u), ..., phi(D_level x^u)]} in the pointed jet ring.

    phi sets every x_j@0 to 0, so the walk of ``_monomial_series`` runs
    on the series x_j -> x_j@1 t + ... + x_j@level t^level.  A monomial
    of degree d then starts at t^d, and its series is zero, returned
    without a walk, when d > level.
    """
    jr = JetRing(ring, level, pointed=True)
    return _monomial_series(jr.context, jr.variable_series(), monomials, level)


def pointed_derivations(f: Polynomial, level: int) -> list:
    """[phi(D_0 f), ..., phi(D_level f)] in the pointed jet ring."""
    return _derivations([f], JetRing(f.ring, level, pointed=True))[0]


def pointed_fiber_ideal(I: Ideal, level: int) -> Ideal:
    """phi(F), for F the level-``level`` fiber ideal of I, in k[x@1, ..., x@level].

    phi is onto, and F is generated by (x@0) and the D_k(g), g a
    generator of I, so phi(F) is generated by the phi(D_k g),
    0 <= k <= level.  phi(D_0 g) = g(0) is zero when I is proper.  The
    kernel (x@0) of phi lies in F, so phi induces
    R_jet/F = k[x@1, ..., x@level]/phi(F): D lies in F iff phi(D) lies
    in phi(F), and D^m in F iff phi(D)^m in phi(F), so radicals
    correspond as well.
    """
    jr = JetRing(I.ring, level, pointed=True)
    return Ideal(jr.context, [d for ds in _derivations(I.generators, jr) for d in ds])


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
    basis = fiber_ideal(I, level).groebner_basis(DEGREVLEX)
    return [basis.normal_form(d) for d in hs_derivations(f, level)]
