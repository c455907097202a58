"""Monomial-ideal integral closure via exact Newton-polyhedron membership.

A lattice point u lies in the Newton polyhedron of a monomial ideal
exactly when some convex combination of the generator exponents is
componentwise at most u.  Feasibility is decided by a phase-one simplex
over exact rationals (Bland's rule), so there is no floating point and
no tolerance anywhere.
"""

from __future__ import annotations

from fractions import Fraction


class MonomialIdealData:
    """Exponent vectors of a monomial ideal, stored as minimal generators."""

    def __init__(self, exponents):
        vectors = [tuple(int(e) for e in u) for u in exponents]
        if not vectors:
            raise ValueError("a monomial ideal needs at least one generator")
        width = len(vectors[0])
        for u in vectors:
            if len(u) != width:
                raise ValueError("exponent vectors have mixed lengths")
            if any(e < 0 for e in u):
                raise ValueError("exponents must be nonnegative")
        self.exponents = tuple(_reduce_generators(vectors))

    @property
    def nvars(self) -> int:
        return len(self.exponents[0])

    def __eq__(self, other):
        if not isinstance(other, MonomialIdealData):
            return NotImplemented
        return self.exponents == other.exponents

    def __repr__(self):
        return f"MonomialIdealData({list(self.exponents)})"


def _dominates(u, v) -> bool:
    return all(a >= b for a, b in zip(u, v))


def _reduce_generators(vectors: list) -> list:
    """Drop componentwise-dominated vectors; sort for a canonical form.

    One pass in ascending lex order suffices: a vector that dominates a
    distinct v is lex-larger, so it comes after v and is rejected against
    v, or against the kept vector that v dominates if v was rejected.
    """
    kept = []
    for u in sorted(set(vectors)):
        if not any(_dominates(u, v) for v in kept):
            kept.append(u)
    return kept


def _feasible(columns: list, rhs: list) -> bool:
    """Exact phase-one simplex: does
    columns * lam = rhs, lam >= 0 admit a solution?

    ``columns`` is a list of column vectors (length m each); artificial
    variables give the obvious starting basis, Bland's rule guarantees
    termination, and feasibility means the artificial objective reaches
    exactly zero.
    """
    m = len(rhs)
    n = len(columns)
    # tableau rows: [a_1 ... a_n | artificial I | rhs]
    tableau = []
    for i in range(m):
        row = [Fraction(col[i]) for col in columns]
        row += [Fraction(1) if j == i else Fraction(0) for j in range(m)]
        row.append(Fraction(rhs[i]))
        if row[-1] < 0:
            row = [-x for x in row]
        tableau.append(row)
    basis = list(range(n, n + m))
    # objective: minimize the sum of artificial variables
    cost = [Fraction(0)] * (n + m + 1)
    for row in tableau:
        cost = [c - x for c, x in zip(cost, row)]
    for j in range(n, n + m):
        cost[j] = Fraction(0)

    while True:
        enter = None
        for j in range(n + m):
            if cost[j] < 0:
                enter = j  # Bland: smallest index with negative reduced cost
                break
        if enter is None:
            break
        leave = None
        best = None
        for i in range(m):
            a = tableau[i][enter]
            if a > 0:
                ratio = tableau[i][-1] / a
                if best is None or ratio < best or (ratio == best and basis[i] < basis[leave]):
                    best = ratio
                    leave = i
        if leave is None:
            return False  # unbounded phase-one cannot happen; defensive
        pivot = tableau[leave][enter]
        tableau[leave] = [x / pivot for x in tableau[leave]]
        for i in range(m):
            if i != leave and tableau[i][enter] != 0:
                f = tableau[i][enter]
                tableau[i] = [x - f * y for x, y in zip(tableau[i], tableau[leave])]
        if cost[enter] != 0:
            f = cost[enter]
            cost = [x - f * y for x, y in zip(cost, tableau[leave])]
        basis[leave] = enter
    return cost[-1] == 0


def newton_membership(u, M: MonomialIdealData) -> bool:
    """Is u in the Newton polyhedron (hull of generators + orthant)?

    Solves sum(lam_e) = 1, lam_e >= 0, sum(lam_e * e) <= u componentwise.
    """
    u = tuple(int(e) for e in u)
    if len(u) != M.nvars:
        raise ValueError("dimension mismatch")
    n = M.nvars
    # slack variables turn the componentwise inequalities into equalities
    columns = []
    for e in M.exponents:
        columns.append(list(e) + [1])
    for i in range(n):
        col = [0] * (n + 1)
        col[i] = 1
        columns.append(col)
    rhs = list(u) + [1]
    return _feasible(columns, rhs)


def monomial_integral_closure(M: MonomialIdealData) -> MonomialIdealData:
    """Minimal generators of the integral closure of the monomial ideal.

    Every minimal generator of the closure lies in the box bounded by
    the componentwise maximum b of the input generators: every generator
    has e_i <= b_i, so a member stays a member when a coordinate u_i
    above b_i is lowered to b_i.  The Newton polyhedron is closed
    upward, so the box points that are not members form an order ideal.
    A depth-first walk from 0 visits all of them: from each non-member u
    it tests u + e_j for every j that stays in the box, and walks on
    from the non-members.  Every non-member v is reached along any
    monotone path from 0 to v, whose points all divide v and so are
    non-members too.

    A box member u != 0 that is minimal among box members has only
    non-members u - e_k (u_k > 0), so the walk tests u from any of
    them.  The tested members thus include every minimal box member, and
    every tested member dominates one; ``MonomialIdealData`` keeps the
    minimal ones.  Each point is tested once.  A point that dominates a
    generator needs no LP (lambda is the indicator of that generator);
    every other point gets one exact LP.  If 0 is a member, there is
    nothing to walk and the closure is the unit ideal.
    """
    n = M.nvars
    box = [max(e[i] for e in M.exponents) for i in range(n)]
    member = {}

    def test(u) -> bool:
        member[u] = any(_dominates(u, e) for e in M.exponents) or newton_membership(u, M)
        return member[u]

    zero = (0,) * n
    stack = [] if test(zero) else [zero]
    while stack:
        u = stack.pop()
        for j in range(n):
            if u[j] < box[j]:
                v = u[:j] + (u[j] + 1,) + u[j + 1:]
                if v not in member and not test(v):
                    stack.append(v)
    return MonomialIdealData([u for u, is_member in member.items() if is_member])
