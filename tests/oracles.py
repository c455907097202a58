"""Independent brute-force oracles used to freeze expected test values.

Nothing here touches the Groebner machinery: membership is decided by
exact linear algebra over bounded-degree multiplier spaces, monomial
questions by direct divisibility, integral closure by the power test.
The exceptions are the sections of reference paths at the end: they
keep the slower computations that a proven shortcut replaced, so the
shortcut can be checked against them.
"""

from __future__ import annotations

import functools
import itertools
from fractions import Fraction

from jetclosure.closures import _artinian_standard_basis, _block_key, _kernel, _primary_replacement, jet_closure
from jetclosure.errors import InternalError
from jetclosure.groebner import (
    DEGREVLEX,
    FreeModuleElement,
    Ideal,
    SubmodulePresentation,
    intersect_ideals,
    module_standard_monomials,
    radical_member,
    standard_monomial_basis,
)
from jetclosure.jets import JetRing, fiber_ideal
from jetclosure.linalg import nullspace_basis, rref
from jetclosure.newton import MonomialIdealData
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


def reference_hs_derivations(f: Polynomial, level: int) -> list:
    """[D_0 f, ..., D_level f], each term's series built on its own.

    For every term c*x^u the truncated series c, then c times
    (x_j@0 + x_j@1 t + ... + x_j@level t^level) once per unit of u_j,
    variables in ascending order, is multiplied out here; ``jets``
    shares one memoized walk over all the monomials instead.
    """
    jr = JetRing(f.ring, level)
    ring = jr.context
    coeffs = [ring.zero() for _ in range(level + 1)]
    for u, c in f.terms.items():
        series = [ring.constant(c)] + [ring.zero() for _ in range(level)]
        for j, e in enumerate(u):
            for _ in range(e):
                product = [ring.zero() for _ in range(level + 1)]
                for a, s in enumerate(series):
                    for b in range(level + 1 - a):
                        product[a + b] = product[a + b] + s * jr.variable(j, b)
                series = product
        coeffs = [x + y for x, y in zip(coeffs, series)]
    return coeffs


def drop_base_point(d: Polynomial, level: int) -> Polynomial:
    """phi(d) for d in the level-``level`` jet ring: every term with some
    x@0 dropped, the rest moved to k[x@1, ..., x@level], whose variables
    are named and ordered here, level-major."""
    base = d.ring.variables[: len(d.ring.variables) // (level + 1)]
    n = len(base)
    names = tuple(f"{v.split('@')[0]}@{i}" for i in range(1, level + 1) for v in base)
    ring = RingContext(d.ring.field_spec, names)
    return Polynomial(ring, {u[n:]: c for u, c in d.terms.items() if not any(u[:n])})


def reference_jet_closure(P, a, level: int):
    """(kernel basis, reduced closure basis) of the level-``level`` jet closure.

    Normal forms are taken modulo the reference fiber ideal, and each
    column's jets come from its own ``reference_hs_derivations`` call; columns,
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
            for i, d in enumerate(reference_hs_derivations(ring.monomial(u), level))
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
    return all(radical_member(d, J) for d in reference_hs_derivations(f, level))


def reference_module_jet_closure(MP, level: int) -> list:
    """Kernel basis of the level-``level`` module jet closure, in the full
    jet ring: the base modulus's fiber ideal, x@0 included, times every
    coordinate, plus the t-shifted jets of each relation; column jets from
    ``reference_hs_derivations``, columns ordered as in ``module_jet_closure``."""
    ring = MP.base.ring
    fld = ring.field_spec
    rank = MP.rank
    _artinian_standard_basis(MP.base.modulus)
    sm = module_standard_monomials(SubmodulePresentation(ring, rank, MP.working_relations()))

    jr = JetRing(ring, level)
    jet_ctx = jr.context
    fiber = [d for g in MP.base.modulus.generators for d in reference_hs_derivations(g, level)]
    J = Ideal(jet_ctx, fiber + jr.origin_fiber_generators())
    big_rank = rank * (level + 1)

    def big_index(component: int, t_power: int) -> int:
        return t_power * rank + component

    zero_vec = [jet_ctx.zero()] * big_rank
    big_rels = []
    for g in J.groebner_basis(DEGREVLEX):
        for idx in range(big_rank):
            comps = list(zero_vec)
            comps[idx] = g
            big_rels.append(FreeModuleElement(jet_ctx, comps))
    for v in list(MP.relations) + list(MP.submodule):
        jets = [reference_hs_derivations(comp, level) for comp in v.components]
        for shift in range(level + 1):
            comps = list(zero_vec)
            for c in range(rank):
                for j in range(shift, level + 1):
                    comps[big_index(c, j)] = comps[big_index(c, j)] + jets[c][j - shift]
            vec = FreeModuleElement(jet_ctx, comps)
            if not vec.is_zero():
                big_rels.append(vec)
    big_gb = SubmodulePresentation(jet_ctx, big_rank, big_rels).groebner_basis()

    def image(cu):
        comp, u = cu
        comps = list(zero_vec)
        for j, d in enumerate(reference_hs_derivations(ring.monomial(u), level)):
            comps[big_index(comp, j)] = d
        return big_gb.normal_form(FreeModuleElement(jet_ctx, comps))._terms()

    columns = sorted(sm, key=_block_key, reverse=True)
    return [FreeModuleElement._from_terms(ring, rank, t) for t in _kernel(columns, image, fld)]


# ---------------------------------------------------------------------
# reference paths: box scans replaced by walks over order ideals, and
# the Fraction LP replaced by integer pivots and cached cuts
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


def reference_feasible(columns: list, rhs: list) -> bool:
    """Exact phase-one simplex over ``Fraction``s: does
    columns * lam = rhs, lam >= 0 admit a solution?

    Rows with a negative right-hand side are negated before the
    artificial identity is appended, so the artificial variables are a
    feasible starting basis; Bland's rule guarantees termination, and
    feasibility means the artificial objective reaches exactly zero.
    """
    m = len(rhs)
    n = len(columns)
    # tableau rows: [a_1 ... a_n | artificial I | rhs]
    tableau = []
    for i in range(m):
        sign = -1 if rhs[i] < 0 else 1
        row = [Fraction(sign * col[i]) for col in columns]
        row += [Fraction(1) if j == i else Fraction(0) for j in range(m)]
        row.append(Fraction(sign * rhs[i]))
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
            raise AssertionError("phase one is bounded below by 0")
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


def reference_newton_membership(u, M: MonomialIdealData) -> bool:
    """Newton-polyhedron membership by one fresh ``Fraction`` LP, with
    no cuts: sum(lam_e) = 1, lam_e >= 0, sum(lam_e * e) <= u."""
    n = M.nvars
    # slack variables turn the componentwise inequalities into equalities
    columns = [list(e) + [1] for e in M.exponents]
    for i in range(n):
        col = [0] * (n + 1)
        col[i] = 1
        columns.append(col)
    return reference_feasible(columns, list(u) + [1])


def reference_integral_closure(M: MonomialIdealData) -> MonomialIdealData:
    """Integral closure by one exact LP at every point of the box bounded
    by the componentwise maximum of the generators, then minimalized."""
    box = [max(e[i] for e in M.exponents) for i in range(M.nvars)]
    members = [
        u
        for u in itertools.product(*(range(b + 1) for b in box))
        if reference_newton_membership(u, M)
    ]
    minimal = [
        u
        for u in members
        if not any(v != u and all(a >= b for a, b in zip(u, v)) for v in members)
    ]
    return MonomialIdealData(minimal)


# ---------------------------------------------------------------------
# reference path: the colon ideal by intersections with principal
# ideals, replaced by one submodule basis
# ---------------------------------------------------------------------


def _exact_quotient(f: Polynomial, g: Polynomial, order=DEGREVLEX) -> Polynomial:
    """f / g when g divides f exactly (single-divisor division)."""
    fld = f.ring.field_spec
    g_lt, g_lc = g.leading_term(order)
    work = dict(f.terms)
    quot: dict = {}
    while work:
        u = max(work, key=order.key)
        c = work.pop(u)
        if not all(a >= b for a, b in zip(u, g_lt)):
            raise InternalError("division is not exact")
        q = tuple(a - b for a, b in zip(u, g_lt))
        factor = fld.div(c, g_lc)
        quot[q] = factor
        for v, cv in g.terms.items():
            if v == g_lt:
                continue
            w = tuple(a + b for a, b in zip(q, v))
            s = fld.sub(work.get(w, 0), fld.mul(factor, cv))
            if fld.is_zero(s):
                work.pop(w, None)
            else:
                work[w] = s
    return Polynomial(f.ring, quot)


def reference_colon_ideal(I: Ideal, J: Ideal) -> Ideal:
    """(I : J) as the intersection over the nonzero generators g of J of
    (I cap (g)) / g: s intersections, s exact divisions, s-1 more
    intersections."""
    ring = I.ring
    gens = [g for g in J.generators if not g.is_zero()]
    if not gens:
        return Ideal(ring, [ring.one()])
    parts = []
    for g in gens:
        meet = intersect_ideals(I, Ideal(ring, [g]))
        parts.append(Ideal(ring, [_exact_quotient(h, g) for h in meet.generators]))
    return functools.reduce(intersect_ideals, parts)


# ---------------------------------------------------------------------
# reference path: the closure chain as a running intersection of the
# closures, replaced by the closures themselves
# ---------------------------------------------------------------------


def reference_closure_chain(P, a, max_level: int) -> list:
    """C_0, ..., C_max_level with C_0 = closure_0 and
    C_l = C_(l-1) ∩ closure_l, one tag-variable intersection per level."""
    chain = []
    for level in range(max_level + 1):
        closure = jet_closure(P, a, level).closure
        chain.append(intersect_ideals(chain[-1], closure) if chain else closure)
    return chain
