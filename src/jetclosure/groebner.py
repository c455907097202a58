"""Buchberger-based ideal and submodule arithmetic.

One Buchberger engine computes reduced Groebner bases of ideals
(degrevlex) and of submodules of free modules (position over term).
They are the canonical normal-form oracle behind membership, colon
ideals and intersections (both read off one submodule basis), radical
membership (via the extra-variable trick) and standard-monomial
counting.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from heapq import heappush, heappop
from operator import ge

from .errors import InfiniteDimensionalError, RingMismatchError
from .poly import (
    FieldSpec,
    MonomialOrder,
    Polynomial,
    RingContext,
    monomial_divides,
    monomial_lcm,
    walk_order_ideal,
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

    @classmethod
    def with_reduced_basis(cls, ring: RingContext, basis: list) -> "Ideal":
        """The ideal generated by ``basis``, its reduced degrevlex basis
        sorted by increasing leading term, cached as that basis: asking
        for it runs no Buchberger."""
        ideal = cls(ring, basis)
        ideal._cache[DEGREVLEX] = GroebnerBasis(ring, DEGREVLEX, ideal.generators)
        return ideal

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


def _extend_ring(ring: RingContext, name: str) -> RingContext:
    """``ring`` with one fresh variable appended."""
    return RingContext(ring.field_spec, ring.variables + (_fresh_name(name, set(ring.variables)),))


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
    ext = _extend_ring(ring, "zrad")
    positions = list(range(ring.nvars))
    gens = [g.transport(ext, positions) for g in I.groebner_basis(DEGREVLEX)]
    z = ext.variable(ext.nvars - 1)
    gens.append(ext.one() - z * f.transport(ext, positions))
    return Ideal(ext, gens).groebner_basis(DEGREVLEX).contains(ext.one())


def intersect_ideals(I: Ideal, J: Ideal) -> Ideal:
    """I ∩ J, read off one submodule basis.

    Let M in R^2 be generated by (g, g) for every generator g of J and
    by (f, 0) for every generator f of I.  An element of M is
    (i + j, j) with i in I and j in J.  Its first entry vanishes iff
    j = -i, and then its second entry lies in I ∩ J; conversely, h in
    I ∩ J gives (0, h) = (-h, 0) + (h, h) in M.  So the second entries
    of the elements of M with zero first entry are exactly I ∩ J.

    Position over term ranks the first position higher, so the
    elements with zero first entry are those led at the second
    position.  Only basis elements led there can reduce such an
    element, and each of them lies in that set; a Groebner basis
    reduces every element of M to zero, so these basis elements span
    the set, and their second entries generate I ∩ J.  If I or J is 0,
    the only element of M with zero first entry is 0 (i = -j forces
    both to vanish), no basis element is led at the second position,
    and the result is the zero ideal.
    """
    if I.ring != J.ring:
        raise RingMismatchError("intersection requires a common ring")
    ring = I.ring
    zero = ring.zero()
    vectors = [FreeModuleElement(ring, [g, g]) for g in J.generators]
    vectors += [FreeModuleElement(ring, [f, zero]) for f in I.generators]
    basis = SubmodulePresentation(ring, 2, vectors).groebner_basis()
    return Ideal(ring, [b.components[1] for b in basis if b.components[0].is_zero()])


def colon_ideal(I: Ideal, J: Ideal) -> Ideal:
    """(I : J) = {a : a*J inside I}, read off one submodule basis.

    Let g_1, ..., g_s be the generators of J (``Ideal`` drops zeros),
    and let M in R^(s+1) be generated by v = (g_1, ..., g_s, 1) and by
    f*e_k for every generator f of I and every k <= s.  An element of M is
    a*v + sum_k c_k e_k with every c_k in I; its first s entries vanish
    iff c_k = -a*g_k for all k, which some choice of the c_k achieves
    iff a*g_k lies in I for all k.  So the last entries of the elements
    of M with zero in the first s positions are exactly (I : J).

    Position over term ranks a lower position higher, so a vector is
    led at its first nonzero entry, and the elements with zero in the
    first s positions are those led at position s+1.  Only basis
    elements led there can reduce such an element, and each of them
    lies in that set; a Groebner basis reduces every element of M to
    zero, so these basis elements span the set, and their last entries
    generate (I : J).
    """
    if I.ring != J.ring:
        raise RingMismatchError("colon requires a common ring")
    ring = I.ring
    gens = list(J.generators)
    if not gens:
        return Ideal(ring, [ring.one()])  # (I : 0) is the unit ideal
    s = len(gens)
    vectors = [FreeModuleElement(ring, gens + [ring.one()])]
    for k in range(s):
        for f in I.generators:
            vectors.append(FreeModuleElement(ring, [f if c == k else ring.zero() for c in range(s + 1)]))
    basis = SubmodulePresentation(ring, s + 1, vectors).groebner_basis()
    return Ideal(ring, [b.components[s] for b in basis if all(p.is_zero() for p in b.components[:s])])


@dataclass
class StandardMonomialBasis:
    """Monomials outside the leading-term ideal, plus their count."""

    monomials: list  # exponent tuples, sorted by increasing degrevlex
    colength: int


def standard_monomial_basis(I: Ideal) -> StandardMonomialBasis:
    lts = I.groebner_basis(DEGREVLEX).leading_exponents()
    monomials = sorted(_standard_monomials(lts, I.ring.nvars, I.ring.variables), key=DEGREVLEX.key)
    return StandardMonomialBasis(monomials, len(monomials))


def _standard_monomials(lts: list, nvars: int, names) -> list:
    """Exponents that no leading exponent divides, in walk order: none
    for the unit ideal, else raises when a variable has no pure power
    among the leading exponents.

    The pure powers bound every standard exponent (v_j < x_j's least
    pure power), and the standard exponents form an order ideal in that
    box: ``walk_order_ideal`` lists each of them once.  Only the mixed
    leading exponents are tested: a pure power x_j^e with e >= bounds[j]
    divides no point of the box.
    """
    zero = (0,) * nvars
    if zero in lts:
        return []  # the unit ideal
    bounds = [None] * nvars
    mixed = []
    for lt in lts:
        support = [j for j, e in enumerate(lt) if e]
        if len(support) == 1:
            j = support[0]
            if bounds[j] is None or lt[j] < bounds[j]:
                bounds[j] = lt[j]
        else:
            mixed.append(lt)
    for j, b in enumerate(bounds):
        if b is None:
            raise InfiniteDimensionalError(
                f"no pure power of '{names[j]}' among the leading terms; the quotient is infinite-dimensional"
            )
    return walk_order_ideal(bounds, lambda v: any(all(map(ge, v, lt)) for lt in mixed))[0]


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


def _pot_key(t: tuple) -> tuple:
    """Position over term, degrevlex within a position: a lower position is larger."""
    return (-t[0], DEGREVLEX.key(t[2:]))


def _tag(v: FreeModuleElement) -> dict:
    """Engine terms of v: a term x^u at position c becomes (c+1, -c-1) + u."""
    return {(c + 1, -c - 1) + u: x for c, p in enumerate(v.components) for u, x in p.terms.items()}


def _untag(ring: RingContext, rank: int, terms: dict) -> FreeModuleElement:
    """The element with engine terms ``terms``; inverse of ``_tag``."""
    return FreeModuleElement._from_terms(ring, rank, {(t[0] - 1, t[2:]): x for t, x in terms.items()})


class ModuleGroebnerBasis:
    """Reduced module basis with normal form and membership."""

    def __init__(self, ring: RingContext, rank: int, elements: list):
        self.ring = ring
        self.rank = rank
        self.elements = list(elements)
        self._data = _basis_data([_tag(e) for e in self.elements], _pot_key)

    def normal_form(self, v: FreeModuleElement) -> FreeModuleElement:
        if v.ring != self.ring or v.rank != self.rank:
            raise RingMismatchError("element does not live in this free module")
        if not self._data:
            return v
        terms = _nf_terms(_tag(v), self._data, _pot_key, self.ring.field_spec)
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
        self._basis = None
        self._lock = threading.Lock()

    def groebner_basis(self) -> ModuleGroebnerBasis:
        if self._basis is not None:
            return self._basis
        with self._lock:
            if self._basis is None:
                basis = _buchberger([_tag(g) for g in self.generators], _pot_key, self.ring.field_spec, tagged=True)
                elems = [_untag(self.ring, self.rank, t) for t in basis]
                self._basis = ModuleGroebnerBasis(self.ring, self.rank, elems)
        return self._basis


def module_standard_monomials(S: SubmodulePresentation) -> list:
    """All (component, exponents) outside the leading-term module.

    Finite exactly when each surviving component has a pure power of
    every variable among its leading terms; raises otherwise.
    """
    lts = S.groebner_basis().leading_positions()
    out = []
    for comp in range(S.rank):
        comp_lts = [u for c, u in lts if c == comp]
        out += [(comp, u) for u in _standard_monomials(comp_lts, S.ring.nvars, S.ring.variables)]
    out.sort(key=lambda cu: (cu[0], DEGREVLEX.key(cu[1])))
    return out
