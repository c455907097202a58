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

from dataclasses import dataclass
from operator import add

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
    """Truncated series of monomials, one t-power at a time.

    Under x_j -> x_j@first t^first + ... + x_j@level t^level (first = 0
    in the full jet ring, 1 in the pointed one), the coefficient of t^i
    in the series of x^u is D_i(x^u), phi(D_i x^u) when pointed.  Each
    memoized monomial keeps [D_0, ..., D_level] as term dicts, D_i over
    the jet variables of order <= i only: x_j@k has weight k, D_i(x^u)
    is weighted-homogeneous of weight i, and every variable of order
    > i has weight > i.  So D_i(x^u) does not change when the level
    grows: a series starts at level 0, ``extend`` raises the level by
    adding one coefficient to every memoized monomial, and
    ``coefficient`` pads D_i to the variables of the series' level.
    The level-l variables are level-major (``JetRing``): those of order
    <= i come first, and padding appends zeros.

    One multiplication per monomial.  The series of 1 and of each x_j
    are written down; every other memoized monomial u is the product of
    the series of two memoized divisors a, b with a + b = u, and stores
    them, so ``extend`` reads its new coefficient off theirs:
    D_l(x^u) = sum_(i+k=l) D_i(x^a) D_k(x^b) (Leibniz), the factors
    already extended since they were memoized first.  A monomial u not
    in the memo is reached by walking down to it (``_factors``):

    * u - e_j in the memo, j the last variable of u: u = (u - e_j) + e_j.
      Along a staircase, closed under division and asked for in
      increasing degree, this is every step: one multiplication by a
      one-term series per monomial of the staircase, and no other
      monomial is memoized.
    * a pure power x_j^e, e >= 2, with x_j^(e-1) not memoized: the square
      of x_j^(e/2) for even e, else x_j^(e-1) times x_j.  This is
      square-and-multiply: the exponent at least halves every two
      steps, so x_j^e costs at most 2 log2(e) multiplications, not e.
    * any other u: the product of the rest of u and x_j^(u_j), two
      divisors with fewer variables, each reached the same way.

    Every memoized monomial divides one that was asked for, and costs
    one multiplication, whatever the order of the walk.  From an empty
    memo, x^u costs at most sum_j (2 log2(u_j) + 1) of them: the third
    case splits off one variable at a time, each as a pure power.

    Zeros without a walk.  The series of x_j starts at t^first, so that
    of x^u is t^(first * deg u) times a power series.  If first * deg u
    > level, every coefficient up to t^level is zero, and u gets the
    zero series without entering the memo; in the pointed ring a
    monomial of degree above the level costs nothing, whatever its
    exponents.  A monomial enters the memo only at a level where its
    series can be nonzero, and so do its divisors.
    """

    def __init__(self, nvars: int, first: int, fld: FieldSpec):
        self.n, self.first, self.fld = nvars, first, fld
        self.level = 0
        self.memo: dict = {}  # u -> [D_0(x^u), ..., D_level(x^u)]
        self.factors: dict = {}  # u -> (a, b), or None for 1 and the x_j
        zero = (0,) * nvars
        self._insert(zero, None)
        for j in range(nvars):
            self._insert(zero[:j] + (1,) + zero[j + 1:], None)

    def width(self, i: int) -> int:
        """The number of jet variables of order <= i."""
        return self.n * (i + 1 - self.first)

    def _base(self, u: tuple, i: int) -> dict:
        """D_i of 1 or of x_j: 1 at t^0, or the variable x_j@i."""
        if not any(u):
            return {(0,) * self.width(0): self.fld.one()} if i == 0 else {}
        if i < self.first:
            return {}
        k = (i - self.first) * self.n + u.index(1)
        w = self.width(i)
        return {(0,) * k + (1,) + (0,) * (w - k - 1): self.fld.one()}

    def _product(self, a: tuple, b: tuple, i: int) -> dict:
        """D_i(x^(a+b)) = sum_(k <= i) D_(i-k)(x^a) D_k(x^b)."""
        fld, w = self.fld, self.width(i)
        A, B = self.memo[a], self.memo[b]
        out: dict = {}
        for k in range(i + 1):
            da, db = A[i - k], B[k]
            if not da or not db:
                continue
            pa, pb = (0,) * (w - self.width(i - k)), (0,) * (w - self.width(k))
            for v, c in da.items():
                v = v + pa
                for y, d in db.items():
                    z = tuple(map(add, v, y + pb))
                    s = fld.add(out.get(z, 0), fld.mul(c, d))
                    if fld.is_zero(s):
                        out.pop(z, None)
                    else:
                        out[z] = s
        return out

    def _insert(self, u: tuple, factors) -> None:
        self.factors[u] = factors
        if factors is None:
            self.memo[u] = [self._base(u, i) for i in range(self.level + 1)]
        else:
            self.memo[u] = [self._product(*factors, i) for i in range(self.level + 1)]

    def _factors(self, u: tuple) -> tuple:
        """Two divisors a, b of u with a + b = u (see the class docstring)."""
        support = [j for j, e in enumerate(u) if e]
        j = support[-1]
        e_j = tuple(int(k == j) for k in range(len(u)))
        step = u[:j] + (u[j] - 1,) + u[j + 1:]
        if step in self.memo:
            return step, e_j
        if len(support) == 1:
            if u[j] % 2:
                return step, e_j
            half = u[:j] + (u[j] // 2,) + u[j + 1:]
            return half, half
        return u[:j] + (0,) + u[j + 1:], (0,) * j + u[j:]

    def series(self, u: tuple) -> list:
        """[D_0(x^u), ..., D_level(x^u)], walking u into the memo."""
        if self.first * sum(u) > self.level:
            return [{}] * (self.level + 1)
        stack = [u]
        while stack:
            v = stack[-1]
            if v in self.memo:
                stack.pop()
                continue
            a, b = self._factors(v)
            missing = [f for f in (a, b) if f not in self.memo]
            if missing:
                stack += missing
            else:
                stack.pop()
                self._insert(v, (a, b))
        return self.memo[u]

    def extend(self) -> None:
        """Raise the level by one: one new coefficient per memoized monomial."""
        self.level += 1
        for u, factors in self.factors.items():
            self.memo[u].append(
                self._base(u, self.level) if factors is None else self._product(*factors, self.level)
            )

    def coefficient(self, f: dict, i: int) -> dict:
        """D_i of the polynomial with terms ``f``, over the jet variables of the series' level."""
        fld = self.fld
        pad = (0,) * (self.width(self.level) - self.width(i))
        out: dict = {}
        for u, c in f.items():
            for v, x in self.series(u)[i].items():
                v = v + pad
                s = fld.add(out.get(v, 0), fld.mul(c, x))
                if fld.is_zero(s):
                    out.pop(v, None)
                else:
                    out[v] = s
        return out


def _derivations(polys: list, jr: JetRing) -> list:
    """[D_0 f, ..., D_l f] in ``jr`` for each f in ``polys``, on one walk.

    Each D_i is linear, so D_i f is the sum of c * D_i(x^u) over the
    terms c*x^u of f.  The monomials are walked in increasing degree, so
    that a staircase among them is walked one step per monomial
    (``Series``).
    """
    series = Series(jr.base.nvars, 0, jr.base.field_spec)
    for _ in range(jr.level):
        series.extend()
    for u in sorted({u for f in polys for u in f.terms}, key=sum):
        series.series(u)
    return [
        [Polynomial(jr.context, series.coefficient(f.terms, i)) for i in range(jr.level + 1)]
        for f in polys
    ]


def hs_derivations(f: Polynomial, level: int) -> list:
    """[D_0 f, ..., D_level f] in the level-``level`` jet ring of f's ring,
    on the series walk of ``Series``."""
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
    """D_0 g, ..., D_level g for each generator g of I, on one walk."""
    jr = JetRing(I.ring, level)
    return JetIdeal(jr, I, [d for ds in _derivations(I.generators, jr) for d in ds])


def fiber_ideal(I: Ideal, level: int) -> Ideal:
    """Jets of I plus the origin fiber: cuts out jets based at 0."""
    ji = jet_ideal(I, level)
    return Ideal(ji.jet_ring.context, ji.generators + ji.jet_ring.origin_fiber_generators())
