"""Independent brute-force oracles used to freeze expected test values.

Nothing here touches the Groebner machinery: membership is decided by
exact linear algebra over bounded-degree multiplier spaces, monomial
questions by direct divisibility, integral closure by the power test.
The exceptions are the sections of reference paths at the end: they
keep the slower computations that a proven shortcut replaced, so the
shortcut can be checked against them.
"""

from __future__ import annotations

import itertools

from jetclosure.closures import _primary_replacement
from jetclosure.groebner import DEGREVLEX, Ideal, radical_member, standard_monomial_basis
from jetclosure.jets import fiber_ideal, hs_derivations
from jetclosure.linalg import nullspace_basis, rref
from jetclosure.newton import MonomialIdealData, newton_membership
from jetclosure.poly import Polynomial, RingContext, monomial_divides


def rank(rows: list, ncols: int, fld) -> int:
    return len(rref(rows, ncols, fld)[0])


def in_row_span(vector: list, rows: list, ncols: int, fld) -> bool:
    """True when ``vector`` is a linear combination of ``rows``."""
    base = rank(rows, ncols, fld)
    return rank(list(rows) + [vector], ncols, fld) == base


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


# ---------------------------------------------------------------------
# reference paths: fiber ideal of a' = a + I + m^(level+1)
# ---------------------------------------------------------------------


# (variables, modulus, ideal, levels): cases for checking the fiber ideal
# of a + I against the reference paths, over any coefficient field
FIBER_SHORTCUT_CASES = [
    (("x", "y"), (), ("x^2", "y^3"), range(6)),
    (("x", "y"), (), ("x^2 - y^3",), range(6)),
    (("x", "y"), ("y^2 - x^3",), ("x*y",), range(6)),
    (("x", "y"), ("x^2", "y^2"), (), range(6)),
    (("x", "y", "z"), ("x*z - y^2",), ("x^2", "y*z"), range(6)),
]


def reference_fiber_ideal(P, a, level: int) -> Ideal:
    """The fiber ideal of a' = a + I + m^(level+1), m^(level+1) jets included."""
    return fiber_ideal(_primary_replacement(P, a, level), level)


def reference_jet_closure(P, a, level: int):
    """(kernel basis, reduced closure basis) of the level-``level`` jet closure.

    Normal forms are taken modulo the reference fiber ideal, and each
    column's jets come from its own ``hs_derivations`` call; columns,
    rows and the kernel basis are ordered as in ``jet_closure``.
    """
    ring = P.ring
    fld = ring.field_spec
    aprime = _primary_replacement(P, a, level)
    basis = fiber_ideal(aprime, level).groebner_basis(DEGREVLEX)
    columns = sorted(standard_monomial_basis(aprime).monomials, key=DEGREVLEX.key, reverse=True)
    images = [
        {
            (i, w): c
            for i, d in enumerate(hs_derivations(ring.monomial(u), level))
            for w, c in basis.normal_form(d).terms.items()
        }
        for u in columns
    ]
    rows = sorted(set().union(*images), key=lambda r: (r[0], DEGREVLEX.key(r[1])))
    matrix = [[img.get(r, fld.zero()) for img in images] for r in rows]
    kernel = [
        Polynomial(ring, {u: x for x, u in zip(vec, columns) if not fld.is_zero(x)})
        for vec in nullspace_basis(matrix, len(columns), fld)
    ]
    closure = Ideal(ring, aprime.generators + tuple(kernel))
    return kernel, list(closure.groebner_basis(DEGREVLEX))


def reference_jsc_membership(P, a, f: Polynomial, level: int) -> bool:
    """f in the level-``level`` jet support closure, on the reference fiber ideal."""
    J = reference_fiber_ideal(P, a, level)
    return all(radical_member(d, J) for d in hs_derivations(f, level))


# ---------------------------------------------------------------------
# reference paths: box scans replaced by walks over order ideals
# ---------------------------------------------------------------------


def box_standard_monomials(lts: list, nvars: int) -> list:
    """Exponents that no leading exponent divides, by scanning the whole
    box of the least pure powers, in lex order.  Every variable must
    have a pure power among ``lts``."""
    bounds = [None] * nvars
    for lt in lts:
        support = [j for j, e in enumerate(lt) if e]
        if len(support) == 1:
            j = support[0]
            if bounds[j] is None or lt[j] < bounds[j]:
                bounds[j] = lt[j]
    return [
        u
        for u in itertools.product(*(range(b) for b in bounds))
        if not any(monomial_divides(lt, u) for lt in lts)
    ]


def reference_integral_closure(M: MonomialIdealData) -> MonomialIdealData:
    """Integral closure by one exact LP at every point of the box bounded
    by the componentwise maximum of the generators, then minimalized."""
    box = [max(e[i] for e in M.exponents) for i in range(M.nvars)]
    members = [
        u
        for u in itertools.product(*(range(b + 1) for b in box))
        if newton_membership(u, M)
    ]
    minimal = [
        u
        for u in members
        if not any(v != u and all(a >= b for a, b in zip(u, v)) for v in members)
    ]
    return MonomialIdealData(minimal)
