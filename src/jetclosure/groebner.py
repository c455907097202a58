"""Buchberger-based ideal and submodule arithmetic.

Reduced Groebner bases are the canonical normal-form oracle behind
membership, elimination, intersection, colon ideals, radical membership
(via the extra-variable trick) and standard-monomial counting.  A
position-over-term variant handles submodules of free modules.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from functools import reduce as _fold
from heapq import heappush, heappop
from operator import ge

from .errors import InfiniteDimensionalError, InternalError, RingMismatchError
from .poly import (
    FieldSpec,
    MonomialOrder,
    Polynomial,
    RingContext,
    monomial_divides,
    monomial_lcm,
)

DEGREVLEX = MonomialOrder.degrevlex()


# ---------------------------------------------------------------------
# raw term-dict reduction machinery
# ---------------------------------------------------------------------


def _basis_data(term_dicts: list, key) -> list:
    """Precompute (leading exps, tail items) for monic reducers."""
    data = []
    for terms in term_dicts:
        lt = max(terms, key=key)
        tail = [(v, c) for v, c in terms.items() if v != lt]
        data.append((lt, tail))
    return data


def _nf_terms(terms: dict, data: list, key, fld: FieldSpec) -> dict:
    """Full normal form of a term dict against monic reducers."""
    work = dict(terms)
    result: dict = {}
    while work:
        u = max(work, key=key)
        c = work.pop(u)
        for lt, tail in data:
            # x^lt divides x^u; a reducer at another module position fails
            # within the first two entries of its tag
            if all(map(ge, u, lt)):
                quot = tuple(a - b for a, b in zip(u, lt))
                for v, cv in tail:
                    w = tuple(q + e for q, e in zip(quot, v))
                    s = fld.sub(work.get(w, 0), fld.mul(c, cv))
                    if fld.is_zero(s):
                        work.pop(w, None)
                    else:
                        work[w] = s
                break
        else:
            result[u] = c
    return result


def _monic_terms(terms: dict, key, fld: FieldSpec) -> dict:
    lt = max(terms, key=key)
    lc = terms[lt]
    if lc == fld.one():
        return terms
    inv = fld.inv(lc)
    return {u: fld.mul(c, inv) for u, c in terms.items()}


def _interreduce(term_dicts: list, key, fld: FieldSpec) -> list:
    polys = [_monic_terms(t, key, fld) for t in term_dicts if t]
    changed = True
    while changed:
        changed = False
        out: list = []
        odata: list = []  # _basis_data(out), grown with out
        pdata = _basis_data(polys, key)
        for i, p in enumerate(polys):
            others = odata + pdata[i + 1 :]
            r = _nf_terms(p, others, key, fld) if others else p
            if r != p:
                changed = True
            if r:
                r = _monic_terms(r, key, fld)
                out.append(r)
                odata += _basis_data([r], key)
        polys = out
    return polys


def _buchberger(term_dicts: list, key, fld: FieldSpec, tagged: bool = False) -> list:
    """Reduced Groebner basis of the ideal or submodule generated by ``term_dicts``.

    Normal selection strategy (smallest lcm degree first, ties by
    generator index) with the coprime and chain criteria for pair
    pruning; the returned basis is monic, fully reduced, and sorted by
    increasing ``key`` of the leading term, hence canonical for
    (ideal, order).

    Submodules run through the same code with ``tagged`` set: a term at
    position p carries the exponent prefix (p, -p), p >= 1, and ``key``
    compares position over term.  Only pairs with a common leading
    position are formed; nothing else needs to know about the tag:

    * componentwise ``>=`` on (p, -p) versus (q, -q) holds only for
      p == q, so divisibility (in reduction, in the chain criterion and
      in minimalization) respects positions, and every quotient and
      lcm of same-position terms keeps the tag (p, -p);
    * the tag adds 0 to the degree, so the normal-selection heap order
      is that of the untagged exponents;
    * the coprime test never fires within one position: the tag of a
      sum is (2p, -2p), while the tag of an lcm is (p, -p).
    """
    G = _interreduce(term_dicts, key, fld)
    if not G:
        return []
    lts = [max(g, key=key) for g in G]
    data = _basis_data(G, key)
    pending: set = set()
    heap: list = []

    def push_pairs(t: int) -> None:
        for i in range(t):
            if tagged and lts[i][0] != lts[t][0]:
                continue  # S-pairs require a common leading position
            lcm = monomial_lcm(lts[i], lts[t])
            if lcm == tuple(a + b for a, b in zip(lts[i], lts[t])):
                continue  # coprime leading terms: S-poly always reduces to 0
            pending.add((i, t))
            heappush(heap, (sum(lcm), i, t))

    for t in range(len(G)):
        push_pairs(t)

    while heap:
        _, i, j = heappop(heap)
        if (i, j) not in pending:
            continue
        pending.discard((i, j))
        lcm = monomial_lcm(lts[i], lts[j])
        chained = False
        for t in range(len(G)):
            if t in (i, j):
                continue
            if monomial_divides(lts[t], lcm):
                a = (i, t) if i < t else (t, i)
                b = (j, t) if j < t else (t, j)
                if a not in pending and b not in pending:
                    chained = True
                    break
        if chained:
            continue
        # S-polynomial of monic G[i], G[j]
        qi = tuple(a - b for a, b in zip(lcm, lts[i]))
        qj = tuple(a - b for a, b in zip(lcm, lts[j]))
        s: dict = {}
        for v, c in G[i].items():
            w = tuple(q + e for q, e in zip(qi, v))
            s[w] = c
        for v, c in G[j].items():
            w = tuple(q + e for q, e in zip(qj, v))
            d = fld.sub(s.get(w, 0), c)
            if fld.is_zero(d):
                s.pop(w, None)
            else:
                s[w] = d
        r = _nf_terms(s, data, key, fld)
        if r:
            r = _monic_terms(r, key, fld)
            G.append(r)
            lt = max(r, key=key)
            lts.append(lt)
            data.append((lt, [(v, c) for v, c in r.items() if v != lt]))
            push_pairs(len(G) - 1)

    # minimalize, then tail-reduce against the minimal set
    order_idx = sorted(range(len(G)), key=lambda i: key(lts[i]))
    minimal: list = []
    for i in order_idx:
        if not any(monomial_divides(lts[k], lts[i]) for k in minimal):
            minimal.append(i)
    kept = [data[i] for i in minimal]
    reduced = []
    for i, k in enumerate(minimal):
        others = kept[:i] + kept[i + 1 :]
        r = _nf_terms(G[k], others, key, fld) if others else G[k]
        reduced.append(_monic_terms(r, key, fld))
    reduced.sort(key=lambda t: key(max(t, key=key)))
    return reduced


# ---------------------------------------------------------------------
# ideals
# ---------------------------------------------------------------------


class GroebnerBasis:
    """A reduced Groebner basis, with its normal-form operator."""

    def __init__(self, ring: RingContext, order: MonomialOrder, elements: list):
        self.ring = ring
        self.order = order
        self.elements = list(elements)
        self._data = _basis_data([g.terms for g in self.elements], order.key)

    def leading_exponents(self) -> list:
        return [lt for lt, _ in self._data]

    def normal_form(self, f: Polynomial) -> Polynomial:
        if f.ring != self.ring:
            raise RingMismatchError("polynomial does not live in the basis ring")
        if not self._data:
            return f
        return Polynomial(
            self.ring, _nf_terms(f.terms, self._data, self.order.key, self.ring.field_spec)
        )

    def contains(self, f: Polynomial) -> bool:
        return self.normal_form(f).is_zero()

    def __iter__(self):
        return iter(self.elements)

    def __len__(self):
        return len(self.elements)


class Ideal:
    """An ideal given by generators, with cached reduced bases per order."""

    def __init__(self, ring: RingContext, generators=()):  # generators: iterable of Polynomial
        self.ring = ring
        gens = []
        for g in generators:
            if g.ring != ring:
                raise RingMismatchError("generator lives in a different ring")
            if not g.is_zero():
                gens.append(g)
        self.generators = tuple(gens)
        self._cache: dict = {}
        self._lock = threading.Lock()

    def groebner_basis(self, order: MonomialOrder = DEGREVLEX) -> GroebnerBasis:
        cached = self._cache.get(order)
        if cached is not None:
            return cached
        with self._lock:
            cached = self._cache.get(order)
            if cached is None:
                basis = _buchberger(
                    [g.terms for g in self.generators], order.key, self.ring.field_spec
                )
                cached = GroebnerBasis(
                    self.ring, order, [Polynomial(self.ring, t) for t in basis]
                )
                self._cache[order] = cached
        return cached

    def __repr__(self):
        return f"Ideal({', '.join(str(g) for g in self.generators) or '0'})"


def reduced_groebner_basis(I: Ideal, order: MonomialOrder = DEGREVLEX) -> GroebnerBasis:
    return I.groebner_basis(order)


def normal_form(f: Polynomial, G: GroebnerBasis) -> Polynomial:
    return G.normal_form(f)


def ideal_member(f: Polynomial, I: Ideal) -> bool:
    if f.ring != I.ring:
        raise RingMismatchError("polynomial does not live in the ideal's ring")
    return I.groebner_basis(DEGREVLEX).contains(f)


def ideal_sum(I: Ideal, J: Ideal) -> Ideal:
    if I.ring != J.ring:
        raise RingMismatchError("ideal sum requires a common ring")
    return Ideal(I.ring, I.generators + J.generators)


def ideal_contains(I: Ideal, J: Ideal) -> bool:
    """True when J is a subset of I (checked on generators)."""
    G = I.groebner_basis(DEGREVLEX)
    return all(G.contains(g) for g in J.generators)


def ideals_equal(I: Ideal, J: Ideal) -> bool:
    return ideal_contains(I, J) and ideal_contains(J, I)


def _fresh_name(base: str, taken) -> str:
    if base not in taken:
        return base
    i = 0
    while f"{base}{i}" in taken:
        i += 1
    return f"{base}{i}"


def _extend_ring(ring: RingContext, name: str, first: bool) -> RingContext:
    fresh = _fresh_name(name, set(ring.variables))
    names = (fresh,) + ring.variables if first else ring.variables + (fresh,)
    return RingContext(ring.field_spec, names)


def radical_member(f: Polynomial, I: Ideal) -> bool:
    """Decide f in the radical of I with one extra variable.

    Appends a fresh variable z and tests whether 1 lies in
    I + (1 - z*f); base-ring variables keep their positions.
    """
    if f.ring != I.ring:
        raise RingMismatchError("polynomial does not live in the ideal's ring")
    if f.is_zero():
        return True
    ring = I.ring
    ext = _extend_ring(ring, "zrad", first=False)
    positions = list(range(ring.nvars))
    gens = [g.transport(ext, positions) for g in I.groebner_basis(DEGREVLEX)]
    z = ext.variable(ext.nvars - 1)
    gens.append(ext.one() - z * f.transport(ext, positions))
    return Ideal(ext, gens).groebner_basis(DEGREVLEX).contains(ext.one())


def eliminate_variables(I: Ideal, first_k: int) -> Ideal:
    """Generators of the intersection with the subring omitting the
    first ``first_k`` variables, returned over that smaller ring."""
    ring = I.ring
    if first_k > ring.nvars:
        raise ValueError("cannot eliminate more variables than the ring has")
    order = MonomialOrder.elimination_block(first_k)
    basis = I.groebner_basis(order)
    sub = RingContext(ring.field_spec, ring.variables[first_k:])
    kept = []
    for g in basis:
        if all(not any(u[:first_k]) for u in g.terms):
            kept.append(Polynomial(sub, {u[first_k:]: c for u, c in g.terms.items()}))
    return Ideal(sub, kept)


def intersect_ideals(I: Ideal, J: Ideal) -> Ideal:
    """I ∩ J via a tag variable t on t*I + (1-t)*J and elimination of t."""
    if I.ring != J.ring:
        raise RingMismatchError("intersection requires a common ring")
    ring = I.ring
    if not I.generators or not J.generators:
        return Ideal(ring, [])
    ext = _extend_ring(ring, "t", first=True)
    positions = list(range(1, ring.nvars + 1))
    t = ext.variable(0)
    one_minus_t = ext.one() - t
    gens = [t * g.transport(ext, positions) for g in I.generators]
    gens += [one_minus_t * g.transport(ext, positions) for g in J.generators]
    return eliminate_variables(Ideal(ext, gens), 1)


def _exact_quotient(f: Polynomial, g: Polynomial, order: MonomialOrder = DEGREVLEX) -> Polynomial:
    """f / g when g divides f exactly (single-divisor division)."""
    fld = f.ring.field_spec
    g_lt, g_lc = g.leading_term(order)
    work = dict(f.terms)
    quot: dict = {}
    key = order.key
    while work:
        u = max(work, key=key)
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


def colon_ideal(I: Ideal, J: Ideal) -> Ideal:
    """(I : J) = {f : f*J inside I}, via intersections with principal ideals."""
    if I.ring != J.ring:
        raise RingMismatchError("colon requires a common ring")
    ring = I.ring
    gens = [g for g in J.generators if not g.is_zero()]
    if not gens:
        return Ideal(ring, [ring.one()])  # (I : 0) is the unit ideal
    parts = []
    for g in gens:
        meet = intersect_ideals(I, Ideal(ring, [g]))
        parts.append(Ideal(ring, [_exact_quotient(h, g) for h in meet.generators]))
    return _fold(intersect_ideals, parts)


@dataclass
class StandardMonomialBasis:
    """Monomials outside the leading-term ideal, plus their count."""

    monomials: list  # exponent tuples, sorted by increasing degrevlex
    colength: int


def standard_monomial_basis(I: Ideal, order: MonomialOrder = DEGREVLEX) -> StandardMonomialBasis:
    lts = I.groebner_basis(order).leading_exponents()
    monomials = sorted(_standard_monomials(lts, I.ring.nvars, I.ring.variables), key=DEGREVLEX.key)
    return StandardMonomialBasis(monomials, len(monomials))


def _standard_monomials(lts: list, nvars: int, names) -> list:
    """Exponents that no leading exponent divides, in walk order: none
    for the unit ideal, else raises when a variable has no pure power
    among the leading exponents.

    The pure powers bound every standard exponent (v_j < x_j's least
    pure power), so the walk below is finite.  It is a depth-first walk
    from 0: a node u reached by raising variable j0 gets the children
    u + e_j for j >= j0, and a child is kept only when no leading
    exponent divides it.  It keeps each standard monomial exactly once
    and tests no other point than their children.  Proof: the standard
    monomials form an order ideal (a divisor of a standard monomial is
    standard).  A nonzero standard v has exactly one path from 0 that
    raises variable indices in nondecreasing order (raise x_0 v_0
    times, then x_1 v_1 times, ...), and each point on it divides v, so
    it is standard and the walk follows the whole path to v.  Any other
    path would raise some index after a larger one, which the j >= j0
    rule forbids, so v is reached only once.
    """
    zero = (0,) * nvars
    if zero in lts:
        return []  # the unit ideal
    bounds = [None] * nvars
    for lt in lts:
        support = [j for j, e in enumerate(lt) if e]
        if len(support) == 1:
            j = support[0]
            if bounds[j] is None or lt[j] < bounds[j]:
                bounds[j] = lt[j]
    for j, b in enumerate(bounds):
        if b is None:
            raise InfiniteDimensionalError(
                f"no pure power of '{names[j]}' among the leading terms; the quotient is infinite-dimensional"
            )
    out = [zero]
    stack = [(zero, 0)]
    while stack:
        u, j0 = stack.pop()
        for j in range(j0, nvars):
            v = u[:j] + (u[j] + 1,) + u[j + 1:]
            if not any(all(map(ge, v, lt)) for lt in lts):
                out.append(v)
                stack.append((v, j))
    return out


# ---------------------------------------------------------------------
# free modules and submodules
# ---------------------------------------------------------------------


class FreeModuleElement:
    """An element of a free module: a vector of polynomials over one ring."""

    __slots__ = ("ring", "components")

    def __init__(self, ring: RingContext, components):
        comps = tuple(components)
        for p in comps:
            if p.ring != ring:
                raise RingMismatchError("all components must share the ring")
        self.ring = ring
        self.components = comps

    @property
    def rank(self) -> int:
        return len(self.components)

    def is_zero(self) -> bool:
        return all(p.is_zero() for p in self.components)

    def __eq__(self, other):
        if not isinstance(other, FreeModuleElement):
            return NotImplemented
        return self.ring == other.ring and self.components == other.components

    def __hash__(self):
        return hash(tuple(self.components))

    def __add__(self, other: "FreeModuleElement") -> "FreeModuleElement":
        self._check(other)
        return FreeModuleElement(self.ring, [a + b for a, b in zip(self.components, other.components)])

    def __sub__(self, other: "FreeModuleElement") -> "FreeModuleElement":
        self._check(other)
        return FreeModuleElement(self.ring, [a - b for a, b in zip(self.components, other.components)])

    def scale(self, p: Polynomial) -> "FreeModuleElement":
        return FreeModuleElement(self.ring, [p * a for a in self.components])

    def _check(self, other: "FreeModuleElement") -> None:
        if self.ring != other.ring or self.rank != other.rank:
            raise RingMismatchError("module elements are not compatible")

    def _terms(self) -> dict:
        out = {}
        for c, p in enumerate(self.components):
            for u, coeff in p.terms.items():
                out[(c, u)] = coeff
        return out

    @classmethod
    def _from_terms(cls, ring: RingContext, rank: int, terms: dict) -> "FreeModuleElement":
        comps = [dict() for _ in range(rank)]
        for (c, u), coeff in terms.items():
            comps[c][u] = coeff
        return cls(ring, [Polynomial(ring, t) for t in comps])

    def __repr__(self):
        return f"({', '.join(str(p) for p in self.components)})"


def _pot_key(order: MonomialOrder):
    """Position over term on tagged module terms: a lower position is larger."""
    return lambda t: (-t[0], order.key(t[2:]))


def _tag(v: FreeModuleElement) -> dict:
    """Engine terms of v: a term x^u at position c becomes (c+1, -c-1) + u."""
    return {(c + 1, -c - 1) + u: x for c, p in enumerate(v.components) for u, x in p.terms.items()}


def _untag(ring: RingContext, rank: int, terms: dict) -> FreeModuleElement:
    """The element with engine terms ``terms``; inverse of ``_tag``."""
    return FreeModuleElement._from_terms(ring, rank, {(t[0] - 1, t[2:]): x for t, x in terms.items()})


class ModuleGroebnerBasis:
    """Reduced module basis with normal form and membership."""

    def __init__(self, ring: RingContext, rank: int, order: MonomialOrder, elements: list):
        self.ring = ring
        self.rank = rank
        self.order = order
        self.elements = list(elements)
        self._key = _pot_key(order)
        self._data = _basis_data([_tag(e) for e in self.elements], self._key)

    def normal_form(self, v: FreeModuleElement) -> FreeModuleElement:
        if v.ring != self.ring or v.rank != self.rank:
            raise RingMismatchError("element does not live in this free module")
        if not self._data:
            return v
        terms = _nf_terms(_tag(v), self._data, self._key, self.ring.field_spec)
        return _untag(self.ring, self.rank, terms)

    def contains(self, v: FreeModuleElement) -> bool:
        return self.normal_form(v).is_zero()

    def leading_positions(self) -> list:
        return [(lt[0] - 1, lt[2:]) for lt, _ in self._data]

    def __iter__(self):
        return iter(self.elements)

    def __len__(self):
        return len(self.elements)


class SubmodulePresentation:
    """A submodule of a free module, given by generating vectors."""

    def __init__(self, ring: RingContext, rank: int, generators=()):
        self.ring = ring
        self.rank = rank
        gens = []
        for g in generators:
            if g.ring != ring or g.rank != rank:
                raise RingMismatchError("submodule generators must share rank and ring")
            if not g.is_zero():
                gens.append(g)
        self.generators = tuple(gens)
        self._cache: dict = {}
        self._lock = threading.Lock()

    def groebner_basis(self, order: MonomialOrder = DEGREVLEX) -> ModuleGroebnerBasis:
        cached = self._cache.get(order)
        if cached is not None:
            return cached
        with self._lock:
            cached = self._cache.get(order)
            if cached is None:
                basis = _buchberger(
                    [_tag(g) for g in self.generators], _pot_key(order), self.ring.field_spec, tagged=True
                )
                elems = [_untag(self.ring, self.rank, t) for t in basis]
                cached = ModuleGroebnerBasis(self.ring, self.rank, order, elems)
                self._cache[order] = cached
        return cached


def submodule_groebner_basis(
    S: SubmodulePresentation, order: MonomialOrder = DEGREVLEX
) -> ModuleGroebnerBasis:
    return S.groebner_basis(order)


def module_standard_monomials(
    S: SubmodulePresentation, order: MonomialOrder = DEGREVLEX
) -> list:
    """All (component, exponents) outside the leading-term module.

    Finite exactly when each surviving component has a pure power of
    every variable among its leading terms; raises otherwise.
    """
    lts = S.groebner_basis(order).leading_positions()
    out = []
    for comp in range(S.rank):
        comp_lts = [u for c, u in lts if c == comp]
        out += [(comp, u) for u in _standard_monomials(comp_lts, S.ring.nvars, S.ring.variables)]
    out.sort(key=lambda cu: (cu[0], DEGREVLEX.key(cu[1])))
    return out
