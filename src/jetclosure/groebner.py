"""Buchberger-based ideal and submodule arithmetic.

One Buchberger engine, ``BuchbergerRun``, computes reduced Groebner
bases of ideals (degrevlex) and of submodules of free modules (position
over term), run to completion (``_buchberger``) or, for the jet
closures, resumed one weight at a time.
They are the canonical normal-form oracle behind membership, colon
ideals and intersections (both read off one submodule basis), radical
membership (``_in_radical``, which resumes a run with one extra
variable) and standard-monomial counting.
"""

from __future__ import annotations

import copy
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
    degrevlex_sorted,
    minimal_exponents,
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


class BuchbergerRun:
    """The one Buchberger engine: a run that can stop and resume.

    ``add`` takes in generators, ``run`` reduces S-pairs, and
    ``reduced`` reads off the reduced basis of everything taken in so
    far.  Normal selection (least pair ``weight`` first, ties by
    generator index) with the coprime, monomial-pair (see ``_append``)
    and chain criteria prunes pairs; ``weight`` is the total degree
    unless the caller grades the ring otherwise.  ``_buchberger`` is
    the run to completion.

    Stopping early.  ``run(bound)`` leaves every pair whose lcm weighs
    more than ``bound`` on the heap, and a later ``run`` takes it up.
    Let the variables carry positive weights, ``weight`` the weight of
    a monomial, and every generator taken in be homogeneous for them.
    Then the basis after ``run(bound)``, once every generator of weight
    at most ``bound`` is in, is a truncated Groebner basis: every
    homogeneous element of the ideal of weight w <= ``bound`` reduces
    to zero on it, so it gives every element of weight at most
    ``bound`` its normal form, whatever the term order
    (Kreuzer-Robbiano, Computational Commutative Algebra 2, 4.5).
    Buchberger's proof goes through with every degree replaced by a
    weight: the S-polynomial of homogeneous f and g is homogeneous of
    the weight of their lcm, a reduction step keeps a homogeneous
    polynomial homogeneous of its weight, and a representation of a
    weight-w element only ever needs the S-pairs whose lcm divides a
    monomial of weight w, so of weight at most w.  The chain criterion
    looks at pairs (i, t), (j, t) whose lcm divides that of (i, j) and
    so weighs no more; a pair left on the heap stays pending, so no
    pair is skipped on the strength of one that was not reduced.
    Generators taken in after a ``run`` only add pairs, as in the
    incremental pair update of Gebauer and Moeller (1988).

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

    def __init__(self, key, fld: FieldSpec, tagged: bool = False, weight=sum):
        self.key, self.fld, self.tagged, self.weight = key, fld, tagged, weight
        self.G: list = []  # monic elements, in the order found
        self.lts: list = []
        self.data: list = []  # _basis_data(G)
        self.pending: set = set()  # pairs (i, j), i < j, not yet reduced or pruned
        self.heap: list = []

    def add(self, terms: dict) -> None:
        """Take in one generator, reduced on the basis so far."""
        r = _nf_terms(terms, self.data, self.key, self.fld) if self.data else terms
        if r:
            self._append(_monic_terms(r, self.key, self.fld))

    def _append(self, r: dict) -> None:
        """Take in the monic ``r`` as element t and form its pairs (i, t).

        Three kinds of pair never enter ``pending``: pairs at different
        leading positions (no S-pair is formed), pairs with coprime
        leading terms (Buchberger's first criterion) and pairs of two
        monomials.  For monic terms x^a and x^b the S-polynomial is
        (lcm/x^a)*x^a - (lcm/x^b)*x^b = x^lcm - x^lcm = 0, so the pair
        is treated exactly as if it had been reduced to zero.  The chain
        criterion stays sound: Gebauer and Moeller count a pair as
        treated once its S-polynomial has a standard representation,
        which 0 has.  The argument uses nothing but the two terms, so it
        holds for tagged module terms (whose pairs share a position, and
        so a tag) and for a weight-truncated run alike.
        """
        lts = self.lts
        t = len(self.G)
        lt = max(r, key=self.key)
        self.G.append(r)
        lts.append(lt)
        self.data.append((lt, [(v, c) for v, c in r.items() if v != lt]))
        monomial = len(r) == 1
        for i in range(t):
            if self.tagged and lts[i][0] != lt[0]:
                continue  # S-pairs require a common leading position
            if monomial and len(self.G[i]) == 1:
                continue  # two monomials: the S-polynomial is 0
            lcm = monomial_lcm(lts[i], lt)
            if lcm == tuple(a + b for a, b in zip(lts[i], lt)):
                continue  # coprime leading terms: S-poly always reduces to 0
            self.pending.add((i, t))
            heappush(self.heap, (self.weight(lcm), i, t))

    def run(self, bound=None) -> None:
        """Reduce the S-pairs of weight at most ``bound``; all when None."""
        G, lts, pending, heap = self.G, self.lts, self.pending, self.heap
        while heap and (bound is None or heap[0][0] <= bound):
            _, i, j = heappop(heap)
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
            r = _nf_terms(self._s_polynomial(i, j, lcm), self.data, self.key, self.fld)
            if r:
                self._append(_monic_terms(r, self.key, self.fld))

    def _s_polynomial(self, i: int, j: int, lcm: tuple) -> dict:
        """(lcm/lt_i)*G[i] - (lcm/lt_j)*G[j], for monic G[i] and G[j]."""
        fld = self.fld
        qi = tuple(a - b for a, b in zip(lcm, self.lts[i]))
        qj = tuple(a - b for a, b in zip(lcm, self.lts[j]))
        s = {tuple(q + e for q, e in zip(qi, v)): c for v, c in self.G[i].items()}
        for v, c in self.G[j].items():
            w = tuple(q + e for q, e in zip(qj, v))
            d = fld.sub(s.get(w, 0), c)
            if fld.is_zero(d):
                s.pop(w, None)
            else:
                s[w] = d
        return s

    def grow(self, width: int) -> None:
        """Append ``width`` variables to the ring, after the old ones."""
        pad = (0,) * width
        self.G = [{u + pad: c for u, c in g.items()} for g in self.G]
        self.lts = [lt + pad for lt in self.lts]
        self.data = [(lt + pad, [(v + pad, c) for v, c in tail]) for lt, tail in self.data]

    def reduced(self) -> list:
        """The reduced basis of what the run holds: monic, fully reduced,
        sorted by increasing ``key`` of the leading term; after a run to
        completion, canonical for (ideal, order).  It keeps the elements
        led by the ``minimal_exponents`` of the leading exponents, which
        are distinct (each element was reduced on those before it), and
        reduces each on the others; no other kept exponent divides its
        leading term, so that term, and the ``key`` order, stay."""
        key = self.key
        index = {lt: i for i, lt in enumerate(self.lts)}
        minimal = [index[lt] for lt in minimal_exponents(self.lts, key)]
        kept = [self.data[i] for i in minimal]
        reduced = []
        for i, k in enumerate(minimal):
            others = kept[:i] + kept[i + 1 :]
            reduced.append(_nf_terms(self.G[k], others, key, self.fld) if others else self.G[k])
        return reduced


def _in_radical(run: BuchbergerRun, h: dict) -> bool:
    """Whether the nonzero ``h`` lies in the radical of the ideal J that
    ``run`` holds, by resuming the run; ``run`` itself is left as it is.

    Rabinowitsch: h lies in rad J iff 1 lies in J + (1 - z*h), z a new
    variable.  A copy of the run, with its own ``pending`` and ``heap``,
    grows by the slot z (``grow`` builds new ``G``, ``lts`` and ``data``
    lists), takes in 1 - z*h and runs one weight at a time until a
    constant, an element led by 1, enters it or no pair is left.  A
    constant in the copy lies in J + (1 - z*h), so 1 does; a completed
    basis without one proves that 1 does not.

    The copy treats the pairs of what it takes in, and those the run
    left pending, but no pair the run treated.  Such a pair has a
    representation sum q_k g_k of its S-polynomial on the run's
    elements with every q_k lt(g_k) below the pair's lcm: it reduced to
    0 or to an element the run took in, or a criterion pruned it
    (``_append``, and the chain criterion on pairs treated before it).
    Padding with z^0 is a ring map that keeps the order on old
    monomials (z is the last variable, so degrevlex compares two padded
    monomials at an old one), so that representation is one on the
    copy's elements too, and the pair stays treated, as in the
    incremental update of Gebauer and Moeller (1988).  So the copy
    completes a Groebner basis of J + (1 - z*h), in any order of its
    pairs.

    A "no" comes only from a completed copy, so ``weight`` only orders the pairs;
    the level ladder's weight gives z weight 0 (``closures._Ladder``),
    and the truncated-run argument of ``BuchbergerRun``, which needs
    homogeneous generators, is not called on.
    """
    probe = copy.copy(run)
    probe.pending, probe.heap = set(run.pending), list(run.heap)
    probe.grow(1)
    fld = run.fld
    one = (0,) * (len(next(iter(h))) + 1)
    rabinowitsch = {u + (1,): fld.neg(c) for u, c in h.items()}  # -z*h
    rabinowitsch[one] = fld.one()
    probe.add(rabinowitsch)
    while probe.heap and one not in probe.lts:
        probe.run(probe.heap[0][0])
    return one in probe.lts


def _buchberger(term_dicts: list, key, fld: FieldSpec, tagged: bool = False) -> list:
    """Reduced Groebner basis of the ideal or submodule generated by
    ``term_dicts``: a ``BuchbergerRun`` on the interreduced generators,
    run to completion.

    Term generators run no engine: their reduced basis is their minimal
    exponents (``minimal_exponents``), each with coefficient 1, sorted
    by ``key``.  Every S-pair of two terms is 0 (``_append``), so the
    monic terms are a Groebner basis, and dropping each one that
    another divides leaves the minimal, reduced one.  Tagged module
    terms go the same way, as divisibility respects the tag (p, -p).
    """
    if all(len(t) == 1 for t in term_dicts):
        return [{u: fld.one()} for u in minimal_exponents(set().union(*term_dicts), key)]
    engine = BuchbergerRun(key, fld, tagged)
    for g in _interreduce(term_dicts, key, fld):
        engine._append(g)  # monic, and reduced on the others already
    engine.run()
    return engine.reduced()


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
        self._monomial_nfs: dict = {}  # u -> NF(x^u) terms

    def leading_exponents(self) -> list:
        return [lt for lt, _ in self._data]

    def monomial_normal_form(self, u: tuple) -> dict:
        """The terms of NF(x^u), reduced once per basis and kept; the
        caller must not mutate the dict.

        The normal form modulo a fixed reduced basis is unique and
        k-linear, so NF(sum c_t x^t) is sum c_t NF(x^t): the multiplication
        matrices of an Artinian quotient, and the normal form of any
        polynomial, are read off this table.  A basis never changes after
        it is built, so an entry never goes stale.  An entry is stored
        only once it is complete; two threads that fill the same entry
        store equal dicts, and a lost write only costs one more reduction.
        """
        nf = self._monomial_nfs.get(u)
        if nf is None:
            fld = self.ring.field_spec
            nf = self._monomial_nfs[u] = _nf_terms({u: fld.one()}, self._data, self.order.key, fld)
        return nf

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


def ideal_contains(I: Ideal, J: Ideal) -> bool:
    """True when J is a subset of I (checked on generators)."""
    G = I.groebner_basis(DEGREVLEX)
    return all(G.contains(g) for g in J.generators)


def ideals_equal(I: Ideal, J: Ideal) -> bool:
    return ideal_contains(I, J) and ideal_contains(J, I)


def radical_member(f: Polynomial, I: Ideal) -> bool:
    """Decide f in the radical of I: one ``_in_radical`` step on a run of
    I's reduced basis."""
    if f.ring != I.ring:
        raise RingMismatchError("polynomial does not live in the ideal's ring")
    if f.is_zero():
        return True
    run = BuchbergerRun(DEGREVLEX.key, I.ring.field_spec)
    for g in I.groebner_basis(DEGREVLEX):
        run._append(g.terms)  # monic
    return _in_radical(run, f.terms)


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
    monomials = degrevlex_sorted(_standard_monomials(lts, I.ring.nvars, I.ring.variables))
    return StandardMonomialBasis(monomials, len(monomials))


def _standard_monomials(lts: list, nvars: int, names) -> list:
    """Exponents that no leading exponent divides: none for the unit
    ideal, () alone in no variables, else raises when a variable has no
    pure power among the leading exponents.

    The pure powers bound every standard exponent (v_j < x_j's least
    pure power; a pure power x_j^e with e >= bounds[j] divides no point
    of the box).  Above a prefix p = (v_0, ..., v_(n-2)) the standard
    exponents are the column p + (k,), k < h(p), where h(p) is the
    least of the last bound and the last exponents of the mixed lts
    whose prefix divides p.  h falls as p grows, so the prefixes with
    h > 0 form an order ideal in the box of the first n - 1 bounds;
    the walk lists them by ``walk_order_ideal``'s depth-first rule, and
    prunes a prefix once h = 0.

    One bucket per step.  The walk reaches q = p + e_j only from p,
    with j the largest index of q's support (``walk_order_ideal``).  A
    mixed lt whose prefix divides q but not p has lt_j > p_j = q_j - 1,
    so lt_j = q_j; every index of its prefix support lies in q's, so at
    most j, and lt_j > 0: j is the largest index of that support too.
    So h(q) is the least of h(p) and the last exponents of the mixed
    lts in bucket (j, q_j) whose prefix divides q, the mixed exponents
    bucketed once by (largest index of the prefix support, exponent
    there).  A mixed lt has at least two indices in its support, so its
    prefix support is not empty, and no mixed lt lowers h(0).
    """
    zero = (0,) * nvars
    if zero in lts:
        return []  # the unit ideal
    bounds = [None] * nvars
    buckets: dict = {}  # (j, lt_j) -> (prefix, last exponent), j the largest index of the prefix support
    for lt in lts:
        support = [j for j, e in enumerate(lt) if e]
        if len(support) == 1:
            j = support[0]
            if bounds[j] is None or lt[j] < bounds[j]:
                bounds[j] = lt[j]
        else:
            j = support[-2] if lt[-1] else support[-1]
            buckets.setdefault((j, lt[j]), []).append((lt[:-1], lt[-1]))
    for j, b in enumerate(bounds):
        if b is None:
            raise InfiniteDimensionalError(
                f"no pure power of '{names[j]}' among the leading terms; the quotient is infinite-dimensional"
            )
    if not nvars:
        return [zero]
    *box, top = bounds
    out: list = []
    stack = [(zero[:-1], 0, top)]
    while stack:
        p, j0, h = stack.pop()
        out += [p + (k,) for k in range(h)]
        for j in range(j0, nvars - 1):
            e = p[j] + 1
            if e < box[j]:
                q = p[:j] + (e,) + p[j + 1:]
                hq = h
                for prefix, last in buckets.get((j, e), ()):
                    if last < hq and all(map(ge, q, prefix)):
                        hq = last
                if hq:
                    stack.append((q, j, hq))
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
    """All (component, exponents) outside the leading-term module, by
    component, then increasing degrevlex.

    Finite exactly when each surviving component has a pure power of
    every variable among its leading terms; raises otherwise.
    """
    lts = S.groebner_basis().leading_positions()
    out = []
    for comp in range(S.rank):
        comp_lts = [u for c, u in lts if c == comp]
        staircase = _standard_monomials(comp_lts, S.ring.nvars, S.ring.variables)
        out += [(comp, u) for u in degrevlex_sorted(staircase)]
    return out
