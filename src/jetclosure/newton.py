"""Monomial-ideal integral closure via exact Newton-polyhedron membership.

A lattice point u lies in the Newton polyhedron of a monomial ideal
exactly when some convex combination of the generator exponents is
componentwise at most u.  A combination of two generators is found, when
there is one, by integer cross-multiplication on their segment; every
other point's feasibility is decided by a phase-one simplex
(Bland's rule) over Python integers: every tableau row is a positive
multiple of the true row, the pivots are fraction-free and each row is
divided by the gcd of its entries.  There is no floating point and no
tolerance anywhere.

An infeasible system yields a Farkas certificate, which becomes a cut
(w, c): w >= 0, w.e >= c for every generator e, and w.u < c.  Each point
q of the polyhedron dominates some convex combination of generators,
so w.q >= c, and the cut proves u outside.  Cuts are kept on the
``MonomialIdealData`` they were found for, and later points that a
cut already separates need no LP.
"""

from __future__ import annotations

from itertools import combinations
from math import gcd
from operator import ge, index

from .errors import InternalError
from .poly import minimal_exponents, walk_order_ideal


class MonomialIdealData:
    """Exponent vectors of a monomial ideal, stored as its minimal
    generators in lex order (``minimal_exponents``), a canonical form."""

    def __init__(self, exponents):
        vectors = [_integer_vector(u) for u in exponents]
        if not vectors:
            raise ValueError("a monomial ideal needs at least one generator")
        width = len(vectors[0])
        for u in vectors:
            if len(u) != width:
                raise ValueError("exponent vectors have mixed lengths")
            if any(e < 0 for e in u):
                raise ValueError("exponents must be nonnegative")
        self.exponents = tuple(minimal_exponents(vectors))
        self._cuts = []  # (w, c) with w.q >= c on the polyhedron; see newton_membership

    @classmethod
    def _of_minimal(cls, exponents) -> "MonomialIdealData":
        """The ideal whose minimal generators are ``exponents``, each once
        and nonnegative ints: sorted into lex order with no minimal pass."""
        M = cls.__new__(cls)
        M.exponents = tuple(sorted(exponents))
        M._cuts = []
        return M

    @property
    def nvars(self) -> int:
        return len(self.exponents[0])

    def __eq__(self, other):
        if not isinstance(other, MonomialIdealData):
            return NotImplemented
        return self.exponents == other.exponents

    def __repr__(self):
        return f"MonomialIdealData({list(self.exponents)})"


def _integer_vector(u) -> tuple:
    """``u`` as a tuple of ints; ValueError for an entry that is not an
    integer (a float is rejected, not truncated)."""
    try:
        return tuple(map(index, u))
    except TypeError:
        raise ValueError(f"exponents must be integers, got {u!r}") from None


def _phase_one(columns: list, rhs: list):
    """Exact phase-one simplex for ``columns * lam = rhs, lam >= 0``.

    ``columns`` is a list of n integer column vectors of length m and
    ``rhs`` is a nonnegative integer vector.  Returns None when the
    system is feasible, otherwise a Farkas vector z of integers with
    ``z . A_j >= 0`` for every column A_j and ``z . rhs < 0``.

    Artificial variables give the identity as starting basis, and the
    objective is their sum.  Row i of the tableau is kept as integers
    ``T_i = d_i * (true row i)`` with d_i > 0.  Pivoting on row l at
    column j keeps T_l, which is ``T_l[j]`` times the normalized pivot
    row, and replaces another row by ``T_l[j] * T_i - T_i[j] * T_l``,
    which is ``d_i * T_l[j]`` times the true eliminated row; each
    result is divided by the gcd of its entries.  The reduced-cost row
    is kept as ``R = s * (true cost row)`` in the same way, s > 0.
    Signs, and the ratio ``T_i[-1] / T_i[j]`` in which d_i cancels, do
    not depend on the scales, so Bland's rule (the smallest index with
    a negative reduced cost enters; ratio ties leave by the smaller
    basic index) takes the same pivots as over the rationals, and it
    terminates.  Phase one is bounded below by 0, so the ratio test
    always finds a row.

    Certificate: let y = c_B B^-1 be the duals at the optimum.  The true
    reduced cost of column j is ``-y . A_j`` and that of artificial i is
    ``1 - y_i``; R[-1] is s times minus the optimum ``y . rhs``.  With
    z = -s*y, i.e. ``z_i = R[n+i] - s``, optimality (no negative
    reduced cost) gives ``z . A_j = R[j] >= 0`` and a positive optimum
    gives ``z . rhs = R[-1] < 0``.
    """
    m = len(rhs)
    n = len(columns)
    # tableau rows: [a_1 ... a_n | artificial I | rhs]
    rows = [
        [col[i] for col in columns] + [int(k == i) for k in range(m)] + [rhs[i]]
        for i in range(m)
    ]
    basis = list(range(n, n + m))
    # reduced costs of the artificial objective; artificial columns are basic
    cost = [-sum(col) for col in columns] + [0] * m + [-sum(rhs)]
    scale = 1

    while True:
        enter = next((j for j in range(n + m) if cost[j] < 0), None)
        if enter is None:
            break
        leave = None
        for i, row in enumerate(rows):
            a = row[enter]
            if a > 0:
                if leave is None:
                    leave = i
                    continue
                best = rows[leave]
                lhs, rhs_l = row[-1] * best[enter], best[-1] * a
                if lhs < rhs_l or (lhs == rhs_l and basis[i] < basis[leave]):
                    leave = i
        if leave is None:
            raise InternalError("phase-one simplex is unbounded")
        top = rows[leave]
        p = top[enter]
        for i, row in enumerate(rows):
            f = row[enter]
            if f and i != leave:
                new = [p * x - f * y for x, y in zip(row, top)]
                g = gcd(*new)
                rows[i] = [x // g for x in new]
        f = cost[enter]
        cost = [p * x - f * y for x, y in zip(cost, top)]
        scale *= p
        g = gcd(scale, *cost)
        cost = [x // g for x in cost]
        scale //= g
        basis[leave] = enter
    if cost[-1] == 0:
        return None
    return [cost[n + i] - scale for i in range(m)]


def newton_membership(u, M: MonomialIdealData) -> bool:
    """Is u in the Newton polyhedron of M, the convex hull of the
    generator exponents plus the nonnegative orthant?

    Equivalently: is there lam >= 0 with sum(lam_e) = 1 and
    sum(lam_e * e) <= u componentwise?  Four exact steps decide it.

    1. A point with a negative coordinate is not a member: the
       polyhedron lies in the nonnegative orthant.  From here on the
       right-hand side (u, 1) is nonnegative.
    2. A cut (w, c) cached on M with ``w . u < c`` proves u outside.
    3. A point that dominates a point of the segment between two
       generators is a member (``_dominates_segment``); this proves
       most members without an LP, and every other point goes on.
    4. Otherwise ``_phase_one`` solves the system, with one slack
       column per coordinate.  When it is infeasible, its Farkas vector
       z satisfies ``z . (e_i, 0) = w_i >= 0`` on the slack columns,
       ``w . e + z_n >= 0`` on each generator column (e, 1), and
       ``w . u + z_n < 0`` on the right-hand side, with w = z[:n].  So
       (w, c) with c = -z_n is a cut: each point q >= sum(lam_e * e) of
       the polyhedron has ``w . q >= sum(lam_e * (w . e)) >= c > w . u``.
       It is appended to M's cuts.

    Every cut is valid on its own, so concurrent callers that append to
    the same list need no lock: a caller that misses a cut appended by
    another only solves one more LP.
    """
    u = _integer_vector(u)
    if len(u) != M.nvars:
        raise ValueError("dimension mismatch")
    if any(e < 0 for e in u):
        return False
    for w, c in M._cuts:
        if sum(a * b for a, b in zip(w, u)) < c:
            return False
    if any(_dominates_segment(u, e, f) for e, f in combinations(M.exponents, 2)):
        return True
    n = M.nvars
    # slack variables turn the componentwise inequalities into equalities
    columns = [list(e) + [1] for e in M.exponents]
    columns += [[int(k == i) for k in range(n + 1)] for i in range(n)]
    z = _phase_one(columns, list(u) + [1])
    if z is None:
        return True
    M._cuts.append((tuple(z[:n]), -z[n]))
    return False


def _dominates_segment(u: tuple, e: tuple, f: tuple) -> bool:
    """Is u >= lam*e + (1 - lam)*f for some lam in [0, 1]?

    Coordinate i asks lam*(e_i - f_i) <= u_i - f_i: with d = e_i - f_i
    and r = u_i - f_i, lam <= r/d when d > 0, lam >= r/d = (-r)/(-d)
    when d < 0, and r >= 0 when d == 0.  The bounds start at lam in
    [0, 1] and are kept as fractions lo_n/lo_d and hi_n/hi_d with
    positive denominators, compared by cross-multiplication, so the
    test is exact in integers.  A True answer exhibits a convex
    combination of two generators below u, a proof of membership.

    In two variables, over two or more generators, asking every pair
    is complete.  A member u dominates some p in conv(E), and p
    dominates a minimal point q of the compact conv(E).  A point
    interior to a polygon has points of the polygon below it, so q lies
    on the boundary of conv(E): on an edge between two generators (a
    polygon's boundary is its edges, and a segment is its own edge).
    In three or more variables q may lie inside a 2-face, and the LP
    decides.
    """
    lo_n, lo_d, hi_n, hi_d = 0, 1, 1, 1
    for a, b, x in zip(e, f, u):
        d, r = a - b, x - b
        if d > 0:
            if r * hi_d < hi_n * d:
                hi_n, hi_d = r, d
        elif d < 0:
            if -r * lo_d > lo_n * -d:
                lo_n, lo_d = -r, -d
        elif r < 0:
            return False
    return lo_n * hi_d <= hi_n * lo_d


def monomial_integral_closure(M: MonomialIdealData) -> MonomialIdealData:
    """Minimal generators of the integral closure of the monomial ideal.

    Every minimal generator of the closure lies in the box bounded by
    the componentwise maximum b of the input generators: every generator
    has e_i <= b_i, so a member stays a member when a coordinate u_i
    above b_i is lowered to b_i.  The Newton polyhedron is closed
    upward, so the corners of ``walk_order_ideal`` over the box u <= b
    are the minimal box members.  A point that dominates a generator
    needs no LP (lambda is the indicator of that generator); every
    other point asked goes to ``newton_membership``, where a cached cut
    or a dominated segment answers most of them, and the rest get one
    exact LP each.

    One bucket per point.  The unit ideal is its own closure; otherwise
    no generator divides 0.  The walk asks v != 0 only from the inside
    point v - e_j, j the largest index of v's support: a non-member,
    which no generator divides.  So a generator e that divides v has
    e_j = v_j, and j is the largest index of its support.  The
    generators are bucketed once by that pair.

    The corners are the minimal box members, each once (proofs in
    ``walk_order_ideal``), so they go to ``MonomialIdealData`` with no
    second minimal pass.
    """
    zero = (0,) * M.nvars
    if zero in M.exponents:
        return M
    buckets: dict = {}  # (j, e_j) -> generators e with j the largest index of e's support
    for e in M.exponents:
        j = max(i for i, x in enumerate(e) if x)
        buckets.setdefault((j, e[j]), []).append(e)

    def outside(v):
        j = len(v) - 1
        while j >= 0 and not v[j]:
            j -= 1
        if j >= 0 and any(all(map(ge, v, e)) for e in buckets.get((j, v[j]), ())):
            return True
        return newton_membership(v, M)

    bounds = [max(e[i] for e in M.exponents) + 1 for i in range(M.nvars)]
    return MonomialIdealData._of_minimal(walk_order_ideal(bounds, outside)[1])
