"""Independent brute-force oracles used to freeze expected test values.

Nothing here touches the Groebner machinery: membership is decided by
exact linear algebra over bounded-degree multiplier spaces, monomial
questions by direct divisibility, integral closure by the power test.
The exceptions are ``maximal_ideal_power``, which lists m^d on the
library's order-ideal walk, and the sections at the end.  Those run
Buchberger on the orders that the library does not use (lex and
elimination blocks) and keep the slower computations that a proven
shortcut replaced, so the shortcut can be checked against them.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

from jetclosure.closures import (
    GorensteinWalkthrough,
    LocalAlgebraPresentation,
    MatlisEmbedding,
    ModulePresentation,
    SocleReport,
    WalkthroughStage,
    certify_arc_closed,
)
from jetclosure.errors import (
    InfiniteDimensionalError,
    InternalError,
    NotArtinianError,
    NotGorensteinError,
    PowersNotContainedError,
    RingMismatchError,
)
from jetclosure.groebner import (
    DEGREVLEX,
    FreeModuleElement,
    Ideal,
    SubmodulePresentation,
    _buchberger,
    colon_ideal,
    ideals_equal,
    module_standard_monomials,
    standard_monomial_basis,
)
from jetclosure.jets import JetRing, fiber_ideal
from jetclosure.newton import MonomialIdealData
from jetclosure.poly import Polynomial, RingContext, monomial_divides, walk_order_ideal


def ideal_sum(I: Ideal, J: Ideal) -> Ideal:
    """I + J; the other operand itself, with its cached bases, when one
    side has no generators."""
    if I.ring != J.ring:
        raise RingMismatchError("ideal sum requires a common ring")
    if not I.generators:
        return J
    if not J.generators:
        return I
    return Ideal(I.ring, I.generators + J.generators)


def reference_rref(rows: list, ncols: int, fld):
    """Dense Gauss-Jordan on a copy of ``rows`` (lists of scalars):
    (the nonzero rows of the reduced row echelon form, pivot columns)."""
    mat = [list(r) for r in rows]
    pivots = []
    r = 0
    for c in range(ncols):
        pivot = None
        for i in range(r, len(mat)):
            if not fld.is_zero(mat[i][c]):
                pivot = i
                break
        if pivot is None:
            continue
        mat[r], mat[pivot] = mat[pivot], mat[r]
        inv = fld.inv(mat[r][c])
        mat[r] = [fld.mul(x, inv) for x in mat[r]]
        for i in range(len(mat)):
            if i != r and not fld.is_zero(mat[i][c]):
                factor = mat[i][c]
                mat[i] = [fld.sub(x, fld.mul(factor, y)) for x, y in zip(mat[i], mat[r])]
        pivots.append(c)
        r += 1
        if r == len(mat):
            break
    return mat[:r], pivots


def reference_nullspace_basis(rows: list, ncols: int, fld) -> list:
    """Dense kernel basis read off ``reference_rref``: for each free
    column c in order, the vector with a 1 at c, 0 at the other free
    columns, and minus row r's entry at c at row r's pivot."""
    mat, pivots = reference_rref(rows, ncols, fld)
    pivot_set = set(pivots)
    basis = []
    for c in range(ncols):
        if c in pivot_set:
            continue
        v = [fld.zero()] * ncols
        v[c] = fld.one()
        for r, pc in enumerate(pivots):
            v[pc] = fld.neg(mat[r][c])
        basis.append(v)
    return basis


def reference_pair_kernel(pairs: list, ncols: int, fld) -> list:
    """Dense canonical basis of {sum l_i v_i : sum l_i image_i = 0} for
    ``pairs`` of (v, image) dicts, a pair with an empty v a relation.

    The l come from ``reference_nullspace_basis`` of the dense matrix
    with one column per pair and one row per image key; the sums
    sum l_i v_i span the subspace, and Gauss-Jordan on them with the
    columns reversed gives the vectors that are 1 at their last nonzero
    column and 0 at the others'.  They come back as dense lists, by
    increasing last nonzero column.
    """
    keys = {k: None for _, image in pairs for k in image}
    matrix = [[image.get(k, fld.zero()) for _, image in pairs] for k in keys]
    spanning = []
    for coefficients in reference_nullspace_basis(matrix, len(pairs), fld):
        w = [fld.zero()] * ncols
        for l, (v, _) in zip(coefficients, pairs):
            for c, x in v.items():
                w[c] = fld.add(w[c], fld.mul(l, x))
        spanning.append(w[::-1])
    rows, _ = reference_rref(spanning, ncols, fld)
    return [row[::-1] for row in reversed(rows)]


def rank(rows: list, ncols: int, fld) -> int:
    return len(reference_rref(rows, ncols, fld)[0])


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


def maximal_ideal_power(ring: RingContext, d: int) -> list:
    """All monomials of total degree d, the generators of m^d, in lex
    order: the minimal points of degree >= d, the corners of the walk
    over degree < d."""
    _, corners = walk_order_ideal([d + 1] * ring.nvars, lambda u: sum(u) >= d)
    return [ring.monomial(u) for u in sorted(corners)]


# ---------------------------------------------------------------------
# other monomial orders, elimination and the tag-variable intersection:
# the library's one Buchberger engine run on orders it never uses
# ---------------------------------------------------------------------


@dataclass(frozen=True)
class LexOrder:
    """Lexicographic order, x_1 > x_2 > ...: the exponent tuple is its
    own key.  Hashable, so ``Ideal.groebner_basis`` caches by it."""

    def key(self, u):
        return u


@dataclass(frozen=True)
class EliminationOrder:
    """Block order for eliminating the first ``block`` variables:
    degrevlex on that block, ties broken by degrevlex on the rest, so
    any monomial that uses the block is above every one that does not."""

    block: int

    def __post_init__(self):
        if self.block < 0:
            raise ValueError("block size must be nonnegative")

    def key(self, u):
        head, tail = u[: self.block], u[self.block :]
        return (
            sum(head),
            tuple(-e for e in reversed(head)),
            sum(tail),
            tuple(-e for e in reversed(tail)),
        )


LEX = LexOrder()


def eliminate_variables(I: Ideal, first_k: int) -> Ideal:
    """Generators of the intersection with the subring omitting the
    first ``first_k`` variables, returned over that smaller ring."""
    ring = I.ring
    if first_k > ring.nvars:
        raise ValueError("cannot eliminate more variables than the ring has")
    basis = I.groebner_basis(EliminationOrder(first_k))
    sub = RingContext(ring.field_spec, ring.variables[first_k:])
    kept = []
    for g in basis:
        if all(not any(u[:first_k]) for u in g.terms):
            kept.append(Polynomial(sub, {u[first_k:]: c for u, c in g.terms.items()}))
    return Ideal(sub, kept)


def _fresh_name(base: str, taken) -> str:
    if base not in taken:
        return base
    i = 0
    while f"{base}{i}" in taken:
        i += 1
    return f"{base}{i}"


def reference_intersect_ideals(I: Ideal, J: Ideal) -> Ideal:
    """I ∩ J via a tag variable t on t*I + (1-t)*J and elimination of t."""
    if I.ring != J.ring:
        raise RingMismatchError("intersection requires a common ring")
    ring = I.ring
    if not I.generators or not J.generators:
        return Ideal(ring, [])
    ext = RingContext(ring.field_spec, (_fresh_name("t", set(ring.variables)),) + ring.variables)
    positions = list(range(1, ring.nvars + 1))
    t = ext.variable(0)
    one_minus_t = ext.one() - t
    gens = [t * g.transport(ext, positions) for g in I.generators]
    gens += [one_minus_t * g.transport(ext, positions) for g in J.generators]
    return eliminate_variables(Ideal(ext, gens), 1)


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


def _primary_replacement(P, a, level: int) -> Ideal:
    """a + I + m^(level+1) by generators: those of a and I, and every
    monomial of degree level+1."""
    extra = maximal_ideal_power(P.ring, level + 1)
    return Ideal(P.ring, a.generators + P.modulus.generators + tuple(extra))


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


def reference_universal_jet_image(f: Polynomial, I: Ideal, level: int) -> list:
    """Normal forms of D_0 f, ..., D_level f, each from
    ``reference_hs_derivations``, modulo a Buchberger basis of the full
    fiber ideal of I, x@0 included."""
    basis = fiber_ideal(I, level).groebner_basis()
    return [basis.normal_form(d) for d in reference_hs_derivations(f, level)]


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
        for vec in reference_nullspace_basis(matrix, len(columns), fld)
    ]
    closure = Ideal(ring, aprime.generators + tuple(kernel))
    return kernel, list(closure.groebner_basis(DEGREVLEX))


def reference_radical_member(f: Polynomial, I: Ideal) -> bool:
    """f in the radical of I, by one fresh Buchberger run: 1 lies in
    I + (1 - z*f), z an exponent slot appended to every term, iff the
    reduced basis of I + (1 - z*f) is 1.  The library resumes a run of
    I's basis instead (``groebner._in_radical``)."""
    if f.is_zero():
        return True
    fld = I.ring.field_spec
    gens = [{u + (0,): c for u, c in g.terms.items()} for g in I.groebner_basis(DEGREVLEX)]
    one = (0,) * (I.ring.nvars + 1)
    rabinowitsch = {u + (1,): fld.neg(c) for u, c in f.terms.items()}  # -z*f
    rabinowitsch[one] = fld.one()
    return _buchberger(gens + [rabinowitsch], DEGREVLEX.key, fld) == [{one: fld.one()}]


def reference_jsc_membership(P, a, f: Polynomial, level: int) -> bool:
    """f in the level-``level`` jet support closure, on the reference fiber ideal."""
    J = reference_fiber_ideal(P, a, level)
    return all(reference_radical_member(d, J) for d in reference_hs_derivations(f, level))


def reference_module_standard_basis(MP) -> list:
    """The (component, exponents) basis of M/N off the module Buchberger
    basis of its working relations, over the local base
    ``reference_local_presentation``."""
    local = ModulePresentation(reference_local_presentation(MP.base), MP.rank, MP.relations, MP.submodule)
    return module_standard_monomials(SubmodulePresentation(MP.base.ring, MP.rank, local.working_relations()))


def reference_module_jet_closure(MP, level: int) -> list:
    """Kernel basis of the level-``level`` module jet closure, in the full
    jet ring: the base modulus's fiber ideal, x@0 included, times every
    coordinate, plus the t-shifted jets of each relation; column jets from
    ``reference_hs_derivations``, columns ordered as in ``module_jet_closure``,
    and the kernel from the dense ``reference_nullspace_basis``.  The
    columns are those of the local base (``reference_module_standard_basis``);
    the fiber ideal is that of the input modulus I, which equals that of
    its m-primary component, as jets based at the origin see only the
    local ring (S/I)_m."""
    ring = MP.base.ring
    fld = ring.field_spec
    rank = MP.rank
    sm = reference_module_standard_basis(MP)

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

    columns = sorted(sm, key=block_key, reverse=True)
    images = [image(cu) for cu in columns]
    rows = sorted(set().union(*images))
    matrix = [[img.get(r, fld.zero()) for img in images] for r in rows]
    return [
        FreeModuleElement._from_terms(
            ring, rank, {cu: x for cu, x in zip(columns, vec) if not fld.is_zero(x)}
        )
        for vec in reference_nullspace_basis(matrix, len(columns), fld)
    ]


# ---------------------------------------------------------------------
# reference paths: box scans replaced by walks over order ideals, the
# Fraction LP replaced by integer pivots and cached cuts, and sorts on a
# Python key replaced by poly.degrevlex_sorted
# ---------------------------------------------------------------------


def block_key(cu: tuple):
    """Order (block, exponents) pairs by block, then degrevlex, on the
    Python key ``MonomialOrder.key``."""
    return (cu[0], DEGREVLEX.key(cu[1]))


def _reference_factor_key(name: str):
    if "@" in name:
        prefix, _, idx = name.partition("@")
        if idx.isdigit():
            return (prefix, int(idx))
    return (name, -1)


def reference_format_polynomial(p: Polynomial) -> str:
    """``format_polynomial`` with a Python key sort of the terms and a
    sort of each term's factors: jet variables grouped by base name,
    then jet order (``x@2`` before ``x@10``), others by name."""
    items = sorted(p.terms.items(), key=lambda t: DEGREVLEX.key(t[0]), reverse=True)
    if not items:
        return "0"
    lcm = 1
    if p.ring.field_spec.characteristic == 0:
        lcm = math.lcm(*(Fraction(c).denominator for _, c in items))
    out = ""
    for k, (u, c) in enumerate(items):
        c = int(c * lcm)
        factors = sorted(
            ((name, e) for name, e in zip(p.ring.variables, u) if e),
            key=lambda ne: _reference_factor_key(ne[0]),
        )
        body = ([str(abs(c))] if abs(c) != 1 or not any(u) else [])
        body += [name if e == 1 else f"{name}^{e}" for name, e in factors]
        sign = "-" if c < 0 else "+"
        if k == 0:
            out = "0 - " + "*".join(body) if c < 0 else "*".join(body)
        else:
            out += f" {sign} " + "*".join(body)
    return out


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
        meet = reference_intersect_ideals(I, Ideal(ring, [g]))
        parts.append(Ideal(ring, [_exact_quotient(h, g) for h in meet.generators]))
    return functools.reduce(reference_intersect_ideals, parts)


# ---------------------------------------------------------------------
# reference path: the closure chain as a running intersection of the
# closures, replaced by one step per level on the closures themselves
# ---------------------------------------------------------------------


def reference_closure_chain(P, a, max_level: int) -> list:
    """C_0, ..., C_max_level with C_0 = closure_0 and
    C_l = C_(l-1) ∩ closure_l, one tag-variable intersection per level;
    each closure is ``reference_jet_closure``'s, every weight of the
    kernel matrix reduced modulo the full fiber ideal of a'."""
    chain = []
    for level in range(max_level + 1):
        closure = Ideal(P.ring, reference_jet_closure(P, a, level)[1])
        chain.append(reference_intersect_ideals(chain[-1], closure) if chain else closure)
    return chain


def reference_local_certificate(P, a, max_level: int) -> tuple:
    """(level, chain) of the certificate in the local ring at the origin,
    by its definition: ``level`` is the least l <= ``max_level`` at which
    every generator g of ``reference_closure_chain``'s C_l lies in
    (a + I)S_m, or None, and ``chain`` is C_0, ..., C_level (to
    ``max_level`` when None).  g lies in (a + I)S_m iff s g lies in
    a + I for some s not in m, iff the colon (a + I : g) has a generator
    with a nonzero constant term."""
    target = ideal_sum(a, P.modulus)
    fld = P.ring.field_spec

    def local_member(g):
        colon = reference_colon_ideal(target, Ideal(P.ring, [g]))
        return any(not fld.is_zero(s.constant_term()) for s in colon.generators)

    chain = reference_closure_chain(P, a, max_level)
    for level, closure in enumerate(chain):
        if all(local_member(g) for g in closure.generators):
            return level, chain[: level + 1]
    return None, chain


# ---------------------------------------------------------------------
# reference paths: the local modulus as I + m^N, and the socle, the
# Matlis colon and the walkthrough stages by Buchberger and a fresh
# normal form per product, replaced by the table of monomial normal
# forms, echelons over S/m_N and rank-one updates
# ---------------------------------------------------------------------


def reference_local_modulus(P) -> Ideal:
    """I + m^N with N = dim S/I: the m-primary component of I, so that
    S/(I + m^N) is the local algebra (S/I)_m.  By the Chinese remainder
    theorem: I is the intersection of its primary components, m^N lies
    in the m-primary one (its colength is at most N) and is coprime to
    the others.  NotArtinian when S/I is infinite-dimensional."""
    try:
        n = standard_monomial_basis(P.modulus).colength
    except InfiniteDimensionalError as exc:
        raise NotArtinianError("the modulus is not m-primary") from exc
    return ideal_sum(P.modulus, Ideal(P.ring, maximal_ideal_power(P.ring, n)))


def reference_local_presentation(P) -> LocalAlgebraPresentation:
    """The presentation of (S/I)_m by ``reference_local_modulus``."""
    return LocalAlgebraPresentation(P.ring, reference_local_modulus(P))


def reference_containing_power(P) -> int:
    """Least N with every x_j^N in the m-primary modulus, one normal form
    per pure power; N is at most the colength."""
    basis = P.modulus.groebner_basis(DEGREVLEX)
    bound = standard_monomial_basis(P.modulus).colength
    return next(
        n for n in range(1, bound + 1)
        if all(basis.contains(P.ring.variable(j) ** n) for j in range(P.ring.nvars))
    )


def reference_socle_and_gorenstein(P) -> SocleReport:
    """The socle with one ``normal_form`` of the product x_j * x^u per
    column u and variable j, and its kernel from the dense
    ``reference_nullspace_basis``; columns ordered as in
    ``socle_and_gorenstein``, on ``reference_local_presentation``."""
    P = reference_local_presentation(P)
    ring = P.ring
    fld = ring.field_spec
    sm = standard_monomial_basis(P.modulus)
    basis = P.modulus.groebner_basis(DEGREVLEX)
    columns = sorted(sm.monomials, key=DEGREVLEX.key, reverse=True)
    images = [
        {
            (j, w): c
            for j in range(ring.nvars)
            for w, c in basis.normal_form(ring.variable(j) * ring.monomial(u)).terms.items()
        }
        for u in columns
    ]
    rows = sorted(set().union(*images))
    matrix = [[img.get(r, fld.zero()) for img in images] for r in rows]
    polys = [
        Polynomial(ring, {u: x for x, u in zip(vec, columns) if not fld.is_zero(x)})
        for vec in reference_nullspace_basis(matrix, len(columns), fld)
    ]
    polys.sort(key=lambda p: DEGREVLEX.key(p.leading_term(DEGREVLEX)[0]))
    return SocleReport(basis=polys, gorenstein=len(polys) == 1, colength=sm.colength)


def reference_matlis_embedding(P, power: int) -> MatlisEmbedding:
    """The Matlis embedding with the colon (m_N : I) from ``colon_ideal``,
    its dimension from two staircase counts, the witness found by
    ``ideals_equal`` on each candidate of the colon's reduced basis, and
    the socle from ``reference_socle_and_gorenstein``, on
    ``reference_local_presentation``."""
    P = reference_local_presentation(P)
    ring = P.ring
    I = P.modulus
    soc = reference_socle_and_gorenstein(P)
    if not soc.gorenstein:
        raise NotGorensteinError("the quotient is not Gorenstein")
    I_basis = I.groebner_basis(DEGREVLEX)
    for j, name in enumerate(ring.variables):
        if not I_basis.contains(ring.variable(j) ** power):
            raise PowersNotContainedError(f"{name}^{power} does not lie in the modulus")
    m_n = Ideal(ring, [ring.variable(j) ** power for j in range(ring.nvars)])
    colon = colon_ideal(m_n, I)
    m_n_basis = m_n.groebner_basis(DEGREVLEX)
    candidates = [g for g in colon.groebner_basis(DEGREVLEX) if not m_n_basis.contains(g)]
    witness = next((w for w in candidates if ideals_equal(Ideal(ring, (w,) + m_n.generators), colon)), None)
    if witness is None:
        raise InternalError("no single witness generates the colon ideal modulo the powers")
    colon_dim = standard_monomial_basis(m_n).colength - standard_monomial_basis(colon).colength
    if colon_dim != soc.colength:
        raise InternalError("witness verification failed: dimension mismatch")
    images = [
        (ring.monomial(u), m_n_basis.normal_form(ring.monomial(u) * witness))
        for u in standard_monomial_basis(I).monomials
    ]
    return MatlisEmbedding(power, witness, colon, soc.colength, colon_dim, images)


def reference_gorenstein_walkthrough(P, max_level: int) -> GorensteinWalkthrough:
    """The walkthrough with each next modulus I + (g) generated by I's
    generators and g, its basis left to Buchberger, each socle from
    ``reference_socle_and_gorenstein`` and the embedding from
    ``reference_matlis_embedding``, from ``reference_local_presentation``."""
    ring = P.ring
    stages = []
    current = reference_local_presentation(P)
    while True:
        soc = reference_socle_and_gorenstein(current)
        cert = certify_arc_closed(current, Ideal(ring, []), max_level)
        g = None if soc.gorenstein else soc.basis[0]
        stages.append(WalkthroughStage(current.modulus, soc.colength, soc.basis, soc.gorenstein, g, cert))
        if soc.gorenstein:
            break
        next_modulus = Ideal(ring, current.modulus.generators + (g,))
        current = LocalAlgebraPresentation(ring, next_modulus)
        if standard_monomial_basis(next_modulus).colength != soc.colength - 1:
            raise InternalError("socle quotient did not drop the length by one")
    embedding = reference_matlis_embedding(current, reference_containing_power(current))
    return GorensteinWalkthrough(stages, embedding)
