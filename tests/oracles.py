"""Independent brute-force oracles used to freeze expected test values.

Nothing here touches the Groebner machinery: membership is decided by
exact linear algebra over bounded-degree multiplier spaces, monomial
questions by direct divisibility, integral closure by the power test.
"""

from __future__ import annotations

import itertools

from jetclosure.linalg import in_row_span, rank
from jetclosure.poly import Polynomial, RingContext


def monomials_up_to_degree(nvars: int, max_degree: int) -> list:
    out = [
        u
        for u in itertools.product(*(range(max_degree + 1) for _ in range(nvars)))
        if sum(u) <= max_degree
    ]
    out.sort()
    return out


def _coordinates(p: Polynomial, columns: list, fld) -> list:
    return [p.terms.get(u, fld.zero()) for u in columns]


def _multiple_rows(gens: list, ring: RingContext, max_degree: int):
    """All monomial multiples x^a * g with total degree <= max_degree."""
    columns = monomials_up_to_degree(ring.nvars, max_degree)
    rows = []
    for g in gens:
        gdeg = g.total_degree()
        if gdeg < 0:
            continue
        for a in monomials_up_to_degree(ring.nvars, max_degree - gdeg):
            rows.append(ring.monomial(a) * g)
    return columns, rows


def brute_force_member(f: Polynomial, gens: list, max_degree: int) -> bool:
    """Is f a combination sum(q_i g_i) with every q_i g_i of degree <= max_degree?

    Solved as exact linear algebra: f must lie in the span of all
    monomial multiples of the generators up to the degree bound.  For a
    true member, any bound at least the degree needed by one witness
    combination answers yes; a false answer at a bound only certifies
    "no combination within the bound".
    """
    ring = f.ring
    fld = ring.field_spec
    columns, rows = _multiple_rows(gens, ring, max_degree)
    row_vecs = [_coordinates(r, columns, fld) for r in rows]
    return in_row_span(_coordinates(f, columns, fld), row_vecs, len(columns), fld)


def brute_force_colength(gens: list, ring: RingContext, max_degree: int) -> int:
    """dim_k of ring/(gens) assuming every monomial of degree > max_degree
    already lies in the ideal (true for the m-primary ideals tested)."""
    fld = ring.field_spec
    columns, rows = _multiple_rows(gens, ring, max_degree)
    row_vecs = [_coordinates(r, columns, fld) for r in rows]
    return len(columns) - rank(row_vecs, len(columns), fld)


def truncated_module_member(v, gens: list, degree: int) -> bool:
    """Is the vector v in the submodule N generated by ``gens``?

    Valid when N contains every monomial of total degree ``degree`` in
    each component, hence m^degree times the whole free module.  Then
    everything can be read modulo m^degree: v lies in N iff its
    truncation below ``degree`` is in the span of the truncations of the
    multiples x^a * g with |a| < degree.
    """
    ring = v.ring
    fld = ring.field_spec
    low = monomials_up_to_degree(ring.nvars, degree - 1)
    columns = [(c, u) for c in range(v.rank) for u in low]

    def coords(w) -> list:
        return [w.components[c].terms.get(u, fld.zero()) for c, u in columns]

    rows = [coords(g.scale(ring.monomial(a))) for g in gens for a in low]
    return in_row_span(coords(v), rows, len(columns), fld)


def monomial_ideal_intersection(gens_a: list, gens_b: list) -> list:
    """Minimal generators of the intersection of two monomial ideals (lcm oracle)."""
    lcms = sorted(
        {tuple(max(x, y) for x, y in zip(u, v)) for u in gens_a for v in gens_b}
    )
    return [
        u
        for u in lcms
        if not any(v != u and all(a >= b for a, b in zip(u, v)) for v in lcms)
    ]


def monomial_power_member(u, gens: list, power: int) -> bool:
    """Does (x^u)^power lie in (gens)^power?  Direct monomial check."""
    target = tuple(power * e for e in u)
    for combo in itertools.combinations_with_replacement(gens, power):
        total = tuple(sum(es) for es in zip(*combo))
        if all(a >= b for a, b in zip(target, total)):
            return True
    return False


def power_test_closure(gens: list, max_power: int = 6) -> list:
    """Integral-closure candidates by the power test, minimalized.

    Scans the bounding box of the generators; a lattice point passes
    when some power of its monomial falls into the matching power of
    the ideal.
    """
    n = len(gens[0])
    box = [max(g[i] for g in gens) for i in range(n)]
    members = [
        u
        for u in itertools.product(*(range(b + 1) for b in box))
        if any(monomial_power_member(u, gens, m) for m in range(1, max_power + 1))
    ]
    return [
        u
        for u in members
        if not any(v != u and all(a >= b for a, b in zip(u, v)) for v in members)
    ]
