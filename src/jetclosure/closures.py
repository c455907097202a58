"""Jet closures of ideals and submodules, arc-closedness certificates,
jet-support membership, and the Gorenstein/Matlis reduction pipeline.

All computations happen at a finite jet level.  An ideal a of the local
algebra S/I is first replaced by a' = a + I + m^(level+1); the closure
at that level is then read off as the kernel of an exact linear system
over the coefficient field, one column per standard monomial of a'.

a' and the closure both contain m^(level+1), so each is a subspace of
S/m^(level+1): a' is the span of the truncated multiples of the
generators of a + I, the closure adds the kernel vectors, and their
standard monomials and reduced degrevlex bases are read off one sparse
exact echelon each (``_echelon_ideal``), with no Buchberger on S; the
echelon names each basis element's leading exponent, and the basis
keeps it (``Ideal.with_reduced_basis``).  Both
echelons are written over one shared table of columns per number of
variables and level (``_columns``).

A column's jets lie in the fiber ideal of a' iff they do after setting
the base point x@0 to 0, so the normal forms are taken in the pointed
jet ring k[x@1, ..., x@level], modulo the image J' of the fiber ideal
of a + I, which is that of a' (see ``jet_closure``).  So the
m^(level+1) generators, most of a' at high levels, never reach
Buchberger, and neither do the n base-point variables; each column jet
is read off its closed form, one term per choice of partitions of the
excess (``jets.Series``).  Module closures and jet-support
membership work in the pointed jet ring too, on the same series and J'
(``_Ladder``).

Jet closures descend with the level, so the closure chain C_l and the
arc-closedness certificate are the level-by-level closures themselves,
with no ideal intersection, and each level is one step from the one
before: C_l is the part of C_(l-1) whose weight-l jet phi(D_l f) lies
in J'_l (proof in ``cumulative_closure_chain``).  A certificate, a
chain or a single closure climbs them on one ``_Ladder``: the truncated
basis of J' and the kernel vectors of level l - 1 are extended to level
l, not rebuilt, so the whole climb runs one J' engine, truncated at
each level's weight, and reduces each weight-l row once, at level l;
only the a' echelon, the weight-l kernel step and the closure echelon
are built per level.  A certificate is about
the local ring at the origin: C_l ⊆ (a + I)S_m, read off the ladder's
a' echelons by one count, the kernel empty and a'_l, a'_(l+1) with as
many standard monomials (proof in ``certify_arc_closed``), so it runs
no Buchberger on S.  ``module_jet_closure``,
``jsc_membership`` and ``universal_jet_image`` climb one fresh ladder
each, and no other code builds a basis of J'.  Every normal form
modulo J', of a closure row, a module relation row or a jet image, has
weight at most the level and goes through ``_Ladder.normal_form``, on
the engine's truncated basis as it stands; module closures run no
module Buchberger.  Only ``jsc_membership`` runs the ladder's engine on
to completion, and each of its radical tests resumes a copy of that
completed run with one more variable (``groebner._in_radical``).

The Artinian side answers for the local algebra (S/I)_m as well.  One
gate, ``LocalAlgebraPresentation._local_modulus``, computed once per
presentation, gives its modulus: the m-primary component of I, which
is I itself when I is m-primary and I + (x_1^N, ..., x_n^N),
N = dim S/I, otherwise; it raises NotArtinian when S/I is
infinite-dimensional.  The socle, the Matlis embedding, the walkthrough
and the module closures read that modulus, written I below, and its
standard monomials off the gate, and no other code decides whether a
modulus is Artinian.  S/I is a finite-dimensional algebra, and the
base-ring side of the Gorenstein pipeline runs on its echelons, with
one Buchberger on S for the input modulus (and one more for the
component when the input has zeros away from the origin): the Matlis
colon (m_N : I) is m_N plus the kernel of f -> (f g_k mod m_N)_k,
read off by the same ``_echelon_ideal`` (``matlis_embedding``); each
walkthrough stage I + (g) is a rank-one update of I's reduced basis
(``gorenstein_walkthrough``); and the standard basis of a module
presentation is the non-pivot set of one echelon of normal forms
(``module_jet_closure``).  The multiplication matrices of the socle and
the module rows NF_I(x^b r) are read off the table of monomial normal
forms that each reduced basis keeps
(``GroebnerBasis.monomial_normal_form``); the Matlis products are
exponent shifts mod m_N.
"""

from __future__ import annotations

import functools
import threading
from dataclasses import dataclass
from itertools import product
from math import comb
from operator import add, mul
from types import MappingProxyType

from .errors import (
    InfiniteDimensionalError,
    InternalError,
    NotArtinianError,
    NotGorensteinError,
    NotProperError,
    PowersNotContainedError,
    RingMismatchError,
)
from .groebner import (
    DEGREVLEX,
    BuchbergerRun,
    FreeModuleElement,
    Ideal,
    _in_radical,
    _nf_terms,
    standard_monomial_basis,
)
from .jets import JetRing, Series
from .linalg import nullspace_basis, rref
from .poly import Polynomial, RingContext, degrevlex_sorted, monomial_divides, walk_order_ideal


class LocalAlgebraPresentation:
    """A local algebra presented as (polynomial ring at the origin)/I.

    Everything here answers for the local ring (S/I)_m, S the polynomial
    ring and m = (x_1, ..., x_n).  The closures and certificates are
    local by construction; the Artinian side (socle, Matlis embedding,
    walkthrough, module closures) reads the modulus of the local algebra
    off ``_local_modulus``, which needs S/I finite-dimensional.
    """

    def __init__(self, ring: RingContext, modulus: Ideal = None):
        if modulus is None:
            modulus = Ideal(ring, [])
        if modulus.ring != ring:
            raise RingMismatchError("modulus does not live in the presentation ring")
        for g in modulus.generators:
            if not ring.field_spec.is_zero(g.constant_term()):
                raise NotProperError("modulus generator has a nonzero constant term")
        self.ring = ring
        self.modulus = modulus
        self._local = None  # (q, standard monomials of q), once computed
        self._lock = threading.Lock()

    def __repr__(self):
        return f"LocalAlgebraPresentation(vars={self.ring.variables}, modulus={self.modulus!r})"

    def _local_modulus(self) -> tuple:
        """(q, the standard monomials of q in increasing degrevlex), q the
        m-primary component of I, so that S/q = (S/I)_m; computed once per
        presentation, under a lock, so threads that share the
        presentation share one answer and one Buchberger run.

        Let N = dim S/I; NotArtinian if S/I is infinite-dimensional.  If
        every x_j^N lies in I (a zero entry of I's table of monomial
        normal forms), q is I itself; otherwise q = I + (x_1^N, ..., x_n^N).

        Proof.  The origin is a zero of I, as no generator has a constant
        term, so I, zero-dimensional, has an m-primary component q_0, and
        I S_m = q_0 S_m.  dim S/q_0 <= dim S/I = N, and the ideals
        (m^k + q_0)/q_0 of the local ring S/q_0 descend strictly until
        they reach 0 (Nakayama), so m^N ⊆ q_0 and q ⊆ q_0.  The pure powers
        give V(q) = {0}, so q is m-primary, and I ⊆ q gives
        q S_m = I S_m = q_0 S_m.  An m-primary ideal is contracted from S_m
        (``certify_arc_closed``), so q = q_0.  I is m-primary iff I = q_0,
        iff every x_j^N lies in I: the pure powers are enough, and m^N is
        never needed.
        """
        with self._lock:
            if self._local is None:
                try:
                    sm = standard_monomial_basis(self.modulus)
                except InfiniteDimensionalError as exc:
                    raise NotArtinianError("the modulus is not m-primary") from exc
                powers = [_pure_power(self.ring.nvars, j, sm.colength) for j in range(self.ring.nvars)]
                q, table = self.modulus, self.modulus.groebner_basis(DEGREVLEX)
                if any(map(table.monomial_normal_form, powers)):
                    q = Ideal(self.ring, q.generators + tuple(map(self.ring.monomial, powers)))
                    sm = standard_monomial_basis(q)
                self._local = (q, sm.monomials)
            return self._local


def _check_level(level: int) -> None:
    if level < 0:
        raise ValueError("jet level must be nonnegative")


def _check_proper(P: LocalAlgebraPresentation, a: Ideal) -> None:
    if a.ring != P.ring:
        raise RingMismatchError("ideal does not live in the presentation ring")
    for g in a.generators:
        if not P.ring.field_spec.is_zero(g.constant_term()):
            raise NotProperError("ideal plus modulus contains a unit")


def _monomials_by_weight(weights: list, top: int) -> list:
    """[the exponents of every monomial of weight s, for s = 0, ..., top],
    over variables of positive ``weights``, each monomial once: variable
    k is taken in after those before it, and x_k m is met only from m."""
    by_weight = [[(0,) * len(weights)]] + [[] for _ in range(top)]
    for k, o in enumerate(weights):
        for s in range(o, top + 1):
            for m in by_weight[s - o]:
                by_weight[s].append(m[:k] + (m[k] + 1,) + m[k + 1:])
    return by_weight


@functools.lru_cache(maxsize=64)
def _columns(nvars: int, level: int) -> tuple:
    """(monomials, index): every monomial in ``nvars`` variables of degree
    <= ``level``, largest first in degrevlex, as a tuple, and the
    read-only mapping {monomial: column}.  These are the columns of every
    a' and closure echelon at ``level``; the degree-<= k ones, k <= level,
    are the last C(nvars + k, nvars), as degrevlex follows the degree.
    One table per (nvars, level) is shared by every caller and thread,
    so neither part can be written."""
    monomials = tuple(degrevlex_sorted(
        (u for by_degree in _monomials_by_weight([1] * nvars, level) for u in by_degree), reverse=True
    ))
    return monomials, MappingProxyType({u: c for c, u in enumerate(monomials)})


def _echelon_ideal(ring: RingContext, monomials, index, box: tuple, echelon: dict):
    """(b, standard monomials of b, largest first) for b = V + M.

    M is the monomial ideal whose standard monomials are ``monomials``,
    the columns, listed largest first in degrevlex, with ``index`` the
    mapping {monomial: column}: x^u lies in M iff u is not a column.  V is
    the span of ``echelon``, a reduced echelon form (``rref``) over the
    columns, so that a row's pivot is its largest monomial.  b carries
    its reduced degrevlex basis, read off the echelon.

    Leading terms.  Let f = v + h lie in b, v in V and h in M.  As M is a
    monomial ideal, every term of h lies in M and no term of v does, so
    the terms of f outside M are exactly the terms of v.  If LT(f) is
    not in M, it is therefore a term of v, the largest one, and the
    leading monomial of a nonzero element of V is a pivot: the echelon
    rows have distinct pivots, and a combination of them is led by the
    largest pivot it uses.  So LT(b) is M together with the pivots, and
    the standard monomials of b are the non-pivot columns.  This uses
    only that degrevlex is a term order, not that it follows the degree.

    Reading off.  A minimal generator u of LT(b) has every u - e_j
    standard, a column, so u_j is at most the largest column exponent
    in x_j plus 1: ``box``, the largest column exponents plus 2, holds
    it.  ``walk_order_ideal`` over that box, with "not a standard
    monomial of b" as the predicate (closed upward, as LT(b) is an
    ideal), returns these minimal generators as its corners.  The
    reduced basis element at u is the monic element of b led by u whose
    other terms are all standard.  For a pivot u it is the echelon row
    at u: monic, in V, and its other entries are at non-pivot columns.
    For u in M, not a column, it is x^u itself.  Either way it is led
    by u, so the sorted corners are the leading exponents that the
    basis keeps, and none is searched for again.
    """
    fld = ring.field_spec
    standard = [u for c, u in enumerate(monomials) if c not in echelon]
    free = set(standard)
    leading = degrevlex_sorted(walk_order_ideal(box, lambda u: u not in free)[1])
    basis = [
        Polynomial(ring, {u: fld.one()}) if u not in index
        else Polynomial(ring, {monomials[c]: x for c, x in echelon[index[u]].items()})
        for u in leading
    ]
    return Ideal.with_reduced_basis(ring, basis, leading), standard


def _replacement(ring: RingContext, generators: list, level: int) -> tuple:
    """(monomials, echelon) of a' = a + I + m^(level+1) below its m^(level+1):
    the columns of ``_columns(nvars, level)``, and the ``rref`` over them
    of the truncated Macaulay rows x^v g mod m^(level+1) of the
    ``generators`` (nonzero term dicts) of a + I, deg v <= level - 1
    (proof in ``jet_closure``).

    Only the rows and terms that survive the truncation are built.  Let
    ord g, at least 1, be the least degree of a term of g.  Every term
    of x^v g has degree at least deg v + ord g, so for
    deg v > level - ord g the whole row lies in m^(level+1) and is zero;
    the shifts kept, deg v <= level - ord g, are the last columns of the
    table.  In a kept row, a term x^(u+v) with deg u > level - deg v lies
    in m^(level+1) and is dropped, and every other one is a column, its
    terms of degree ord g among them.  So the rows built are exactly the
    nonzero truncated Macaulay rows, and their ``rref``, the reduced
    echelon form of their span, which does not depend on the order of
    the rows, is that of all of them.
    """
    n = ring.nvars
    monomials, index = _columns(n, level)
    rows = []
    for g in generators:
        order = min(map(sum, g))
        if order > level:
            continue
        terms = [(sum(u), u, x) for u, x in g.items()]
        for v in monomials[len(monomials) - comb(n + level - order, n):]:
            room = level - sum(v)
            rows.append({index[tuple(map(add, u, v))]: x for d, u, x in terms if d <= room})
    return monomials, rref(rows, ring.field_spec)


class _Ladder:
    """The pointed jets of a + I, and its jet closures, climbed one level
    at a time.

    One ``certify_arc_closed`` or ``cumulative_closure_chain`` run owns
    one ladder and hands it to ``jet_closure`` at every level, and a
    ``closure`` at level l steps a fresh one up from level 0;
    ``module_jet_closure``, ``jsc_membership`` and
    ``universal_jet_image`` each climb a fresh one to their level.  The
    ladder keeps what level l - 1 computed and level l extends:

    * the pointed series (``Series``), raised one t-power per level,
      which every phi(D_i f) is read off in closed form, with no memo;
    * the truncated basis of J'_l, one resumable ``BuchbergerRun`` that
      takes in the generators phi(D_l g) of weight l at level l and
      reduces the S-pairs of weight at most l, leaving the heavier ones
      for later;
    * the kernel vectors of the last level closed, a basis of
      C_(l-1)/a'_(l-1) on the standard monomials of a'_(l-1).
    * the a' echelon of the last level asked (``replacement``), which a
      certificate builds one level ahead for its count and the next
      step reuses.

    Closing level l (``step``) builds the a' echelon and reduces the
    weight-l rows only, on the span of C_(l-1)/a'_l (proof in
    ``cumulative_closure_chain``).  Every normal form modulo J'_l goes
    through ``normal_form``, on the truncated basis ``engine.data`` as
    it stands; the ladder builds no reduced basis of J' and no ring.
    ``jsc_membership`` runs the engine on with no bound and hands it to
    ``groebner._in_radical``, whose copies grow by one variable beyond
    ``weights``: ``weight`` gives it 0, which only orders their pairs.

    J'_l is the fiber ideal without the base point.  Let phi set every
    x@0 to 0, a map of the jet ring R_jet onto k[x@1, ..., x@l] (it
    fixes every x@k, k >= 1), with kernel (x@0).  The level-l fiber ideal
    F_l of a + I is generated by (x@0) and the D_k(g), g a generator of
    a + I and 0 <= k <= l, so J'_l = phi(F_l) is generated by the
    phi(D_k g); phi(D_0 g) = g(0) is zero because a + I is proper, which
    leaves 1 <= k <= l.  The kernel (x@0) lies in F_l, so phi induces
    R_jet/F_l = k[x@1, ..., x@l]/J'_l: D lies in F_l iff phi(D) lies in
    J'_l, and D^m lies in F_l iff phi(D)^m = phi(D^m) lies in J'_l, so
    radicals correspond as well.

    The ring grows by a suffix.  The pointed ring is level-major, so
    k[x@1, ..., x@(l-1)] is a prefix of k[x@1, ..., x@l]: an old monomial
    is a new one padded with zeros (``BuchbergerRun.grow``).  degrevlex
    compares two monomials by degree, then at the last variable where
    they differ, which for two padded monomials is an old one; so the
    order on old monomials, and with it every leading term, S-pair and
    reduction of the run so far, is that of level l.  The run after
    level l - 1 is thus a level-l run that has not yet taken in the
    phi(D_l g), and taking them in resumes it.

    Weights.  Give x@k weight k.  phi(D_k g) is weighted-homogeneous of
    weight k, so J'_l is weighted-homogeneous, and its weight-<=i part
    is that of J'_i for every i <= l (``cumulative_closure_chain``: a
    weight-i element of J'_l is sum_k r_k phi(D_k g) with k <= i and r_k
    in the variables of order <= i - k).  At level l the run holds every
    generator of J'_l, all of weight <= l, and has reduced every pair of
    weight <= l: a truncated basis, which gives every element of weight
    <= l its normal form modulo J'_l (``BuchbergerRun``).  That normal
    form has no term in LT(J'_l), so it is unique: every basis of J'_l
    truncated at weight l, the completed reduced basis among them, gives
    the same one.

    Everything is reduced at the ladder's level.  Every element that
    ``normal_form`` reduces has weight at most the ladder's level l: a
    row phi(D_i x^u) has weight i <= l, a module relation block
    m phi(D_(j-s) v_c) weight j <= l (``module_jet_closure``), and a jet
    image phi(D_i f) weight i <= l.  So the truncated basis of level l
    gives each its unique normal form modulo J'_l (above), and J' is
    never completed for them.  A row is written over the variables of
    level l and kept for that level only: ``row`` reduces it at most
    once per level, and ``climb`` forgets the rows.

    Columns only grow.  a'_l = a + I + m^(l+1) lies in a'_(l-1), so
    LT(a'_l) lies in LT(a'_(l-1)) and std(a'_(l-1)) lies in std(a'_l):
    every level keeps the old columns and adds new ones.  The series of
    x^u starts at t^(deg u), so a new column of degree l has only a
    weight-l row.
    """

    def __init__(self, P: LocalAlgebraPresentation, a: Ideal):
        self.ring, self.n, self.fld = P.ring, P.ring.nvars, P.ring.field_spec
        self.generators = [g.terms for g in a.generators + P.modulus.generators]
        self.series = Series(self.n, 1, self.fld)
        self.weights: list = []  # the weight of each jet variable: k for x@k
        self.engine = BuchbergerRun(DEGREVLEX.key, self.fld, weight=lambda u: sum(map(mul, u, self.weights)))
        self.level = 0  # J'_0 = 0: phi(D_0 g) = g(0) = 0
        self.rows: dict = {}  # (u, i) -> NF(phi(D_i x^u)) modulo J'_level, at this level only
        self.closed = -1  # the last level closed by ``step``
        self.kernel: list = []  # {u: c}: the canonical basis of C_closed/a'_closed
        self._replaced: tuple = (None, None)  # (level, (monomials, echelon)) of the last a' built

    def climb(self, level: int) -> None:
        """Raise the series and extend the truncated basis of J' up to
        ``level``, forgetting the rows of the level before."""
        while self.level < level:
            self.level += 1
            self.series.extend()
            self.weights += [self.level] * self.n
            self.engine.grow(self.n)
            for g in self.generators:
                self.engine.add(self.series.coefficient(g, self.level))
            self.engine.run(self.level)
            self.rows = {}

    def normal_form(self, terms: dict) -> dict:
        """NF modulo J'_level of the element with ``terms``, of weight at
        most the level, over k[x@1, ..., x@level]."""
        return _nf_terms(terms, self.engine.data, self.engine.key, self.fld)

    def row(self, u: tuple, i: int) -> dict:
        """NF(phi(D_i x^u)) modulo J'_level, i <= level."""
        row = self.rows.get((u, i))
        if row is None:
            row = self.rows[u, i] = self._reduce_row(u, i)
        return row

    def _reduce_row(self, u: tuple, i: int) -> dict:
        return self.normal_form(self.series.coefficient({u: self.fld.one()}, i))

    def replacement(self, level: int) -> tuple:
        """(monomials, echelon) of a'_level (``_replacement``), kept for
        the last level asked, so that ``step`` reads the one that
        ``certify_arc_closed`` built ahead of it."""
        if self._replaced[0] != level:
            self._replaced = (level, _replacement(self.ring, self.generators, level))
        return self._replaced[1]

    def step(self) -> dict:
        """Close the next level l and return the echelon of a'_l
        (``_replacement``); ``kernel`` becomes the canonical basis of
        C_l/a'_l.

        C_(l-1)/a'_l is spanned by the kernel of level l - 1 and the
        remainders of the degree-l monomials modulo a'_l, and C_l/a'_l is
        the part of it that the weight-l rows send to zero (proof in
        ``cumulative_closure_chain``).  Each spanning vector v, on the
        columns of ``jet_closure`` (largest first), is paired with its
        image, the sum of v_u NF(phi(D_l x^u)), and ``nullspace_basis``
        reads the canonical basis of the kernel off those pairs.
        """
        level = self.closed + 1
        self.climb(level)
        fld = self.fld
        monomials, index = _columns(self.n, level)
        echelon = self.replacement(level)[1]
        span = [{index[u]: x for u, x in v.items()} for v in self.kernel]
        for c, u in enumerate(monomials):
            if sum(u) < level:
                break  # degrevlex puts every monomial of degree l first
            row = echelon.get(c)
            if row is None:
                span.append({c: fld.one()})
            elif len(row) > 1:
                span.append({k: fld.neg(x) for k, x in row.items() if k != c})
        pairs = []
        for v in span:
            image: dict = {}
            for c, x in v.items():
                for w, y in self.row(monomials[c], level).items():
                    z = fld.add(image.pop(w, fld.zero()), fld.mul(x, y))
                    if not fld.is_zero(z):
                        image[w] = z
            pairs.append((v, image))
        self.kernel = [
            {monomials[c]: x for c, x in vec.items()}
            for vec in nullspace_basis(pairs, len(monomials), fld)
        ]
        self.closed = level
        return echelon


@dataclass
class ClosureReport:
    """The level-``level`` jet closure of ``ideal`` in the presentation."""

    presentation: LocalAlgebraPresentation
    ideal: Ideal
    level: int
    replacement: Ideal  # a' = a + I + m^(level+1), generated by its reduced degrevlex basis
    closure: Ideal  # a' + span(kernel_basis), generated by its reduced degrevlex basis
    closure_generators: list  # reduced degrevlex basis of the closure
    kernel_basis: list  # k-basis of closure/replacement, as polynomials
    dim_quotient: int  # colength of a'
    dim_closure: int  # k-dimension of the closure's image mod a'


def jet_closure(P: LocalAlgebraPresentation, a: Ideal, level: int, ladder: _Ladder = None) -> ClosureReport:
    """Compute the level-``level`` jet closure of a (with the modulus folded in).

    The kernel condition is linear over the coefficient field: f (taken
    modulo a') lies in the closure iff every derivation D_i(f), i up to
    the level, lies in the fiber ideal of a'.

    a' by linear algebra.  Every generator g of a + I lies in m
    (``_check_proper``), so x^v g lies in m^(level+1) once deg v >=
    level.  An element sum h_g g + (m^(level+1)) of a' is therefore
    congruent mod m^(level+1) to a combination of the truncations
    x^v g mod m^(level+1) with deg v <= level-1, and as a' contains
    m^(level+1), a' ∩ S_(<=level) is the span of those truncated
    Macaulay rows.  ``_echelon_ideal``, with M = m^(level+1), reads a',
    its reduced basis and its standard monomials off their echelon form;
    no Buchberger runs on an ideal of S.

    The fiber ideal of a' equals that of a + I.  The fiber ideal of an
    ideal b at level l is generated by x_1@0, ..., x_n@0 and D_i(g) for
    the generators g of b and i <= l, and a' adds the generators x^u,
    deg u = d = l+1, to a + I.  Each term of D_i(x^u) is, up to a
    coefficient, a product of d jet variables x_j@k whose orders k sum
    to i.  As i <= l < d, at least one of those orders is 0, so every
    such D_i(x^u) already lies in (x_1@0, ..., x_n@0).  The membership
    test, and the kernel, are unchanged.  The report keeps a' as
    ``replacement``.

    The test runs without the base point.  Let phi set every x@0 to 0,
    F_l be the fiber ideal of a + I, proper by ``_check_proper``, and
    J'_l = phi(F_l): D lies in F_l iff phi(D) lies in J'_l (proof in
    ``_Ladder``).  The columns are therefore reduced as phi(D_i x^u)
    modulo J'_l.  A combination of columns is in the kernel of the one
    map iff it is in the kernel of the other, so the kernel subspace is
    the same, and the report gives its canonical basis, that of
    ``nullspace_basis`` for the columns largest first: one vector per
    free column c, 1 at c and 0 at the other free columns.

    The kernel comes from ``ladder``, a ``_Ladder`` of (P, a) closed at
    level - 1, which takes one step (``_Ladder.step``); a fresh one,
    made when ``ladder`` is None, steps up from level 0.  Each step
    reduces the weight-l rows only, on the span of C_(l-1)/a'_l (proof
    in ``cumulative_closure_chain``).

    The closure is a' + span(kernel) (``cumulative_closure_chain``), an
    ideal that contains m^(level+1), so it is read off the echelon of
    the a' rows and the kernel vectors in the same way.
    """
    _check_level(level)
    _check_proper(P, a)
    ring = P.ring
    fld = ring.field_spec
    if ladder is None:
        ladder = _Ladder(P, a)
    if ladder.closed >= level:
        raise InternalError("the ladder has closed this level already")
    while ladder.closed < level:
        aprime = ladder.step()
    monomials, index = _columns(ring.nvars, level)
    box = (level + 2,) * ring.nvars
    replacement, columns = _echelon_ideal(ring, monomials, index, box, aprime)
    kernel = ladder.kernel
    closure = replacement
    if kernel:
        kernel_rows = [{index[u]: x for u, x in t.items()} for t in kernel]
        closure = _echelon_ideal(ring, monomials, index, box, rref(list(aprime.values()) + kernel_rows, fld))[0]
    return ClosureReport(
        presentation=P,
        ideal=a,
        level=level,
        replacement=replacement,
        closure=closure,
        closure_generators=list(closure.generators),
        kernel_basis=[Polynomial(ring, t) for t in kernel],
        dim_quotient=len(columns),
        dim_closure=len(kernel),
    )


def cumulative_closure_chain(P: LocalAlgebraPresentation, a: Ideal, max_level: int) -> list:
    """C_0, ..., C_max_level, where C_l = closure_0 ∩ ... ∩ closure_l.

    The jet closures descend with the level, so C_l is the level-l
    closure itself and each level costs one ``jet_closure`` call.

    The closure is T_l.  Let F_l be the level-l fiber ideal of a + I and
    T_l = {f : D_i f in F_l for all i <= l}.  By the Leibniz rule
    D_m(hf) = sum_(i+j=m) D_i(h) D_j(f), T_l is an ideal; it contains
    a + I, and it contains m^(l+1) because each D_i(x^u) with
    deg u > l >= i lies in (x@0) (see ``jet_closure``).  So T_l contains
    a', every f is congruent mod a' to its normal form on the standard
    monomials of a', and T_l = a' + (its part on those monomials).  That
    part is the kernel ``jet_closure`` computes, so its ``closure`` is
    T_l.

    Drop the base point.  Let phi set every x@0 to 0.  D lies in F_l iff
    phi(D) lies in J'_l = phi(F_l), the ideal of k[x@1, ..., x@l]
    generated by phi(D_k g) for the generators g of a + I and
    1 <= k <= l (``_Ladder``).

    Grade and conclude.  Give x@k weight k.  Each term of D_k(x^u) is a
    product of jet variables whose orders sum to k, so phi(D_k g) is
    weighted-homogeneous of weight k and phi(D_i f) of weight i.  Every
    variable of J'_l has positive weight, so a weight-i element of J'_l
    is sum_k r_k phi(D_k g) with each r_k of weight i - k >= 0: then
    k <= i, and r_k uses only variables of order <= i - k.  For
    i <= l - 1 that sum already lies in J'_(l-1).  Hence f in T_l gives
    D_i f in F_(l-1) for all i <= l - 1, that is T_l ⊆ T_(l-1), and
    C_l = T_0 ∩ ... ∩ T_l = T_l.  Nothing here divides by an integer, so
    the argument holds in every characteristic.

    One weight per level.  Let K_l = T_l/a'_l, written on the standard
    monomials std(a'_l) of a'_l = a + I + m^(l+1).  As a'_l ⊆ a'_(l-1)
    ⊆ T_(l-1), T_(l-1)/a'_l is spanned by K_(l-1) and the image of
    a'_(l-1) = a'_l + m^l, which is spanned by the degree-l monomials,
    as m^(l+1) lies in a'_l.  The vectors of K_(l-1) lie on
    std(a'_(l-1)) ⊆ std(a'_l) (``_Ladder``), so each is its own
    remainder modulo a'_l.  The remainder of x^u, deg u = l, is x^u if u
    is standard, and otherwise minus the tail of the row at u of the
    reduced echelon of a'_l (``jet_closure``), whose other entries are
    standard.  Every f in T_(l-1) has D_i f in F_(l-1) ⊆ F_l for
    i <= l - 1, so f lies in T_l iff D_l f lies in F_l, iff phi(D_l f)
    lies in J'_l: K_l is the kernel of the weight-l rows
    NF(phi(D_l x^u)) on that span.  At level 0, T_(-1) is read as S:
    K_(-1) is empty, and the remainder 1 of the one degree-0 monomial
    spans S/a'_0 = S/m.

    The canonical basis.  ``_Ladder.step`` pairs each spanning vector
    v with its image, the sum of v_u NF(phi(D_l x^u)), and
    ``nullspace_basis`` returns the canonical basis of K_l for
    ``jet_closure``'s column order, whatever the spanning set (proof
    there).
    """
    _check_level(max_level)
    ladder = _Ladder(P, a)
    return [jet_closure(P, a, level, ladder).closure for level in range(max_level + 1)]


@dataclass
class CertificateResult:
    """Outcome of the finite-level arc-closedness certificate.

    ``certified`` soundly implies that the arc closure of a in the local
    algebra (S/I)_m at the origin is a itself: some C_l lies in
    (a + I)S_m.  A negative answer implies nothing (an ideal that is not
    m-primary in the local ring never certifies at a finite level).
    """

    certified: bool
    level: int  # least certifying level, or None
    max_level: int
    chain: list  # C_0, ..., C_level: the jet closure at each level computed

    def __bool__(self):
        return self.certified


def certify_arc_closed(P: LocalAlgebraPresentation, a: Ideal, max_level: int) -> CertificateResult:
    """Look for a level l <= ``max_level`` at which C_l comes back down to
    a + I in the local ring at the origin, that is C_l ⊆ (a + I)S_m, S_m
    the polynomial ring localised at m = (x_1, ..., x_n).

    C_l is the level-l jet closure; it is also the intersection of the
    closures up to level l, because the closures descend (proof in
    ``cumulative_closure_chain``).  ``certified`` is True when some C_l
    lies in (a + I)S_m; ``level`` is the least such l, the chain stops
    there, and the answer soundly implies that the arc closure of a in
    the local algebra (S/I)_m is a itself.  A negative answer claims nothing about
    the arc closure: every C_l contains m^(l+1), so an ideal that is not
    m-primary in S_m never certifies at a finite level.

    The test is one count on the ladder's a' echelons.  Let
    a'_l = a + I + m^(l+1), so that C_l = T_l ⊇ a'_l
    (``cumulative_closure_chain``), and let K_l = C_l/a'_l be the
    level's kernel.  Then C_l ⊆ (a + I)S_m iff K_l = 0 and
    a'_l = a'_(l+1).

    (⇐) K_l = 0 gives C_l = a'_l.  a'_l = a'_(l+1) gives
    m^(l+1) ⊆ a + I + m^(l+2), so in S_m the finitely generated module
    M = (m^(l+1) + (a + I))S_m / (a + I)S_m has M = mM, and M = 0 by
    Nakayama: m^(l+1) ⊆ (a + I)S_m.  Hence C_l = a'_l ⊆ (a + I)S_m.

    (⇒) C_l contains m^(l+1), so m^(l+1) ⊆ (a + I)S_m, and a'_l and
    a'_(l+1) both localise to (a + I)S_m.  An m-primary ideal q is
    contracted from S_m: if s f lies in q with s not in m, then s is a
    unit modulo q, S/q being local with maximal ideal m/q, so f lies in
    q.  So a'_l = a'_(l+1) = (a + I)S_m ∩ S, which contains C_l; as C_l
    contains a'_l, C_l = a'_l and K_l = 0.

    One count.  a'_(l+1) ⊆ a'_l, and both contain m^(l+2), so they are
    equal iff S/a'_l and S/a'_(l+1) have the same dimension, the number
    of standard monomials: ``dim_quotient`` of level l, and the columns
    of level l + 1 (every monomial of degree <= l + 1) less the pivots
    of its echelon (``_echelon_ideal``).  That echelon is built only
    when K_l = 0, once: ``_Ladder.replacement`` keeps it for the step
    to level l + 1.  So the certificate runs one engine, the ladder's,
    and no Buchberger on S.
    """
    _check_level(max_level)
    _check_proper(P, a)
    chain = []
    ladder = _Ladder(P, a)
    for level in range(max_level + 1):
        report = jet_closure(P, a, level, ladder)
        chain.append(report.closure)
        if not report.kernel_basis:
            monomials, echelon = ladder.replacement(level + 1)
            if len(monomials) - len(echelon) == report.dim_quotient:
                return CertificateResult(True, level, max_level, chain)
    return CertificateResult(False, None, max_level, chain)


def jsc_membership(P: LocalAlgebraPresentation, a: Ideal, f: Polynomial, level: int) -> bool:
    """Membership of f in the level-``level`` jet support closure of a.

    Decided per element: every derivation of f must lie in the radical
    of the fiber ideal of a + I + m^(level+1).  That ideal is computed
    as the fiber ideal F of a + I, which is the same ideal: for
    deg u > level, every term of D_i(x^u), i <= level, is a product of
    deg u jet variables with orders summing to i, so one of them is
    some x_j@0 (the full argument is in ``jet_closure``).

    The test runs in k[x@1, ..., x@level].  Let phi set every x@0 to 0.
    Its kernel (x@0) lies in F, so phi induces R_jet/F = k[x@1, ...]/J'
    with J' = phi(F), and radicals correspond under that isomorphism:
    D_i f lies in the radical of F iff phi(D_i f) lies in the radical of
    J' (proofs in ``_Ladder``).  One ladder climbed to the level gives
    the phi(D_i f), and its ``BuchbergerRun``, run on with no bound, a
    Groebner basis of J': the one completion of J'.  Each nonzero
    phi(D_i f) is then one Rabinowitsch step that resumes that run on a
    copy with one more variable (``groebner._in_radical``), so no pair
    of J' is treated twice; a zero jet lies in every radical.
    """
    _check_level(level)
    _check_proper(P, a)
    if f.ring != P.ring:
        raise RingMismatchError("element does not live in the presentation ring")
    ladder = _Ladder(P, a)
    ladder.climb(level)
    ladder.engine.run()
    jets = (ladder.series.coefficient(f.terms, i) for i in range(level + 1))
    return all(_in_radical(ladder.engine, h) for h in jets if h)


def universal_jet_image(f: Polynomial, I: Ideal, level: int) -> list:
    """Normal forms of D_0 f, ..., D_level f modulo the fiber ideal F of I,
    in the full jet ring; all vanish exactly when f is killed by the
    universal jet of the quotient by I at this level.

    If a generator g of I has g(0) != 0, F holds g(x@0) and every x@0, so
    it is the unit ideal and every entry is 0; the ladder drops D_0.
    Otherwise F = (x@0) + J' R_jet with J' = phi(F) (``_Ladder``).  The
    x@0 come first, so degrevlex orders the monomials free of them as in
    k[x@1, ..., x@level], and the leading terms of the two parts are
    coprime: the reduced basis of F is the x_j@0 and that of J'.  Hence
    NF_F(D_i f) = NF_J'(phi(D_i f)), of weight i <= level, which the
    ladder's truncated basis reduces exactly (``_Ladder.normal_form``).
    The pointed variables are the last ones of the full jet ring, so
    the normal form moves there by writing a zero exponent for each x@0
    in front.
    """
    if f.ring != I.ring:
        raise RingMismatchError("polynomial does not live in the ideal's ring")
    jets = JetRing(I.ring, level).context
    if any(not I.ring.field_spec.is_zero(g.constant_term()) for g in I.generators):
        return [jets.zero()] * (level + 1)
    ladder = _Ladder(LocalAlgebraPresentation(I.ring), I)
    ladder.climb(level)
    origin = (0,) * I.ring.nvars  # the exponents of x_1@0, ..., x_n@0
    nfs = (ladder.normal_form(ladder.series.coefficient(f.terms, i)) for i in range(level + 1))
    return [Polynomial(jets, {origin + w: c for w, c in nf.items()}) for nf in nfs]


# ---------------------------------------------------------------------
# socle, Gorenstein detection, Matlis embedding
# ---------------------------------------------------------------------


@dataclass
class SocleReport:
    basis: list  # polynomials spanning the socle, smallest leading term first
    gorenstein: bool
    colength: int


def socle_and_gorenstein(P: LocalAlgebraPresentation) -> SocleReport:
    """Socle of the Artinian local algebra S/q and the Gorenstein flag, q
    the modulus of the local algebra (``_local_modulus``).

    The socle is the kernel of v -> (x_1 v, ..., x_n v) on the standard
    monomial basis of q; the quotient is Gorenstein exactly when it is
    one-dimensional.  The column of x^u in the multiplication matrix of
    x_j is NF(x^(u + e_j)), read off the basis's table
    (``GroebnerBasis.monomial_normal_form``).
    """
    ring = P.ring
    fld = ring.field_spec
    q, std = P._local_modulus()
    basis = q.groebner_basis(DEGREVLEX)
    columns = std[::-1]

    def image(u):
        return {
            (j, w): c
            for j in range(ring.nvars)
            for w, c in basis.monomial_normal_form(u[:j] + (u[j] + 1,) + u[j + 1:]).items()
        }

    pairs = [({c: fld.one()}, image(u)) for c, u in enumerate(columns)]
    polys = [
        Polynomial(ring, {columns[c]: x for c, x in vec.items()})
        for vec in nullspace_basis(pairs, len(columns), fld)
    ]
    polys.sort(key=lambda p: DEGREVLEX.key(p.leading_term(DEGREVLEX)[0]))
    return SocleReport(basis=polys, gorenstein=len(polys) == 1, colength=len(std))


def _pure_power(nvars: int, j: int, n: int) -> tuple:
    """The exponent of x_j^n."""
    return (0,) * j + (n,) + (0,) * (nvars - j - 1)


@dataclass
class MatlisEmbedding:
    """A verified module embedding of S/I into S/m_N, 1 -> witness."""

    power: int
    witness: Polynomial
    colon: Ideal  # (m_N : I)
    quotient_colength: int  # length of S/I
    colon_quotient_dim: int  # dim of (m_N : I)/m_N, must match
    images: list  # (standard monomial, its image in S/m_N) pairs


def _generates_colon(w: Polynomial, box: list, times, dim: int) -> bool:
    """Whether (w) + m_N is the colon (m_N : I) = m_N + V, dim V = ``dim``,
    for w in the colon, by one rank test.

    Both ideals contain m_N, and w lies in the colon, so (w) + m_N lies
    in it; they are equal iff their images in S/m_N have the same
    dimension.  The image of (w) + m_N is spanned by the x^v w mod m_N
    for v in the box of S/m_N, as x^v lies in m_N for every other v.
    """
    rows = [times(v, w.terms) for v in box]
    return len(rref(rows, w.ring.field_spec)) == dim


def matlis_embedding(P: LocalAlgebraPresentation, power: int) -> MatlisEmbedding:
    """Embed the Gorenstein quotient S/I into S/(x_1^N, ..., x_n^N), I
    here the modulus of the local algebra (``_local_modulus``).

    The witness w generates (m_N : I) modulo m_N; the embedding sends
    the class of f to the class of f*w.  Injectivity is certified by
    the exact count colength(I) = dim (m_N : I)/m_N.

    The colon by linear algebra.  m_N = (x_1^N, ..., x_n^N) lies in I,
    so (m_N : I) contains m_N and is m_N + V, where V is the set of f on
    the box basis x^u, u_j < N, of S/m_N with f g_k in m_N for every
    generator g_k of I: the kernel of f -> (f g_k mod m_N)_k.  The
    colon and its reduced basis are read off the echelon of V
    (``_echelon_ideal``), and dim (m_N : I)/m_N is dim V.  The witness
    is the first element of that basis, by increasing leading term, that
    is not in m_N (one led by a pivot) and generates the colon modulo
    m_N (``_generates_colon``).  Every product with a monomial here is an
    exponent shift, truncated mod m_N (``times``), and x_j^N lies in I
    iff the table entry NF(x_j^N) is zero.
    """
    return _matlis_embedding(P, power, socle_and_gorenstein(P))


def _matlis_embedding(P: LocalAlgebraPresentation, power: int, soc: SocleReport) -> MatlisEmbedding:
    """``matlis_embedding`` on the socle report ``soc`` of P, which
    ``gorenstein_walkthrough`` has computed at its last stage."""
    ring = P.ring
    fld = ring.field_spec
    if not soc.gorenstein:
        raise NotGorensteinError("the quotient is not Gorenstein")
    I, std = P._local_modulus()
    I_basis = I.groebner_basis(DEGREVLEX)
    for j, name in enumerate(ring.variables):
        if I_basis.monomial_normal_form(_pure_power(ring.nvars, j, power)):
            raise PowersNotContainedError(f"{name}^{power} does not lie in the modulus")

    def powers(u):
        return any(e >= power for e in u)

    def times(v, terms):
        """x^v times the polynomial with terms ``terms``, mod m_N."""
        out = {}
        for u, c in terms.items():
            w = tuple(map(add, u, v))
            if not powers(w):
                out[w] = c
        return out

    box = degrevlex_sorted(product(range(power), repeat=ring.nvars), reverse=True)

    def image(u):
        return {(k, v): c for k, g in enumerate(I.generators) for v, c in times(u, g.terms).items()}

    kernel = nullspace_basis([({c: fld.one()}, image(u)) for c, u in enumerate(box)], len(box), fld)
    index = {u: c for c, u in enumerate(box)}
    colon = _echelon_ideal(ring, box, index, (power + 1,) * ring.nvars, rref(kernel, fld))[0]
    colon_dim = len(kernel)
    witness = next(
        (w for w in colon.generators
         if not powers(w.leading_term(DEGREVLEX)[0]) and _generates_colon(w, box, times, colon_dim)),
        None,
    )
    if witness is None:
        raise InternalError("no single witness generates the colon ideal modulo the powers")
    if colon_dim != soc.colength:
        raise InternalError("witness verification failed: dimension mismatch")
    images = [
        (ring.monomial(u), Polynomial(ring, times(u, witness.terms)))
        for u in std
    ]
    return MatlisEmbedding(
        power=power,
        witness=witness,
        colon=colon,
        quotient_colength=soc.colength,
        colon_quotient_dim=colon_dim,
        images=images,
    )


def smallest_containing_power(P: LocalAlgebraPresentation) -> int:
    """Least N with every pure power x_j^N inside the modulus q of the
    local algebra (``_local_modulus``).

    q is m-primary, of colength L >= 1, so m^L ⊆ q: the ideals
    (m^k + q)/q, k = 0, 1, ..., of the local ring S/q descend strictly
    until they reach 0 (Nakayama), and S/q has length L.  So every x_j^L
    lies in q, and the search ends by N = L.
    """
    q, std = P._local_modulus()
    basis = q.groebner_basis(DEGREVLEX)
    for n in range(1, len(std) + 1):
        if not any(basis.monomial_normal_form(_pure_power(P.ring.nvars, j, n)) for j in range(P.ring.nvars)):
            return n


@dataclass
class WalkthroughStage:
    modulus: Ideal
    colength: int
    socle_basis: list
    gorenstein: bool
    socle_generator_used: Polynomial  # None at the Gorenstein stage
    certificate: CertificateResult


@dataclass
class GorensteinWalkthrough:
    stages: list
    embedding: MatlisEmbedding


def gorenstein_walkthrough(P: LocalAlgebraPresentation, max_level: int) -> GorensteinWalkthrough:
    """Reduce an Artinian local algebra to a Gorenstein one by socle
    quotients.

    The first stage is the local algebra S/q, q the modulus of
    ``_local_modulus``.  Each stage reads its own presentation's gate for
    its printed modulus and its rank-one update, and the next stage's
    gate for the length check, so each stage lists its standard
    monomials once.  Each step quotients by a one-dimensional socle
    ideal (g), dropping
    the length by exactly one, until the socle is one-dimensional; the
    Gorenstein stage gets its Matlis embedding.  Every stage carries an
    arc-closedness certificate for the zero ideal up to ``max_level``.

    A stage by a rank-one update.  g is a socle element, so x_j g lies
    in I for every j, and g is in normal form (a combination of standard
    monomials), so g is not in I: I + (g) = I ⊕ k·g.  Its leading
    monomials are LT(I) and LT(g): x_j LT(g) = LT(x_j g) lies in LT(I),
    so the monomial ideal LT(I) + (LT(g)) leaves out exactly one
    standard monomial of I, LT(g); it lies in LT(I + (g)), whose
    quotient has the same dimension colength(I) - 1, so they are equal.
    Its minimal generators are LT(g), whose proper divisors stay
    standard, and the minimal generators of LT(I) that LT(g) does not
    divide (the others are x^v LT(g), v != 0).  The reduced basis
    holds, at LT(g), the monic g, whose other terms are standard
    monomials of I smaller than LT(g); and at LT(h), for each h of I's
    reduced basis that LT(g) does not divide, h - c·g with c the
    coefficient of LT(g) in h (monic g).  That has the leading term of
    h, which is larger than LT(g) when c is not 0, and its other terms
    are standard monomials of I other than LT(g).  So the next modulus
    comes with its reduced basis, led by LT(g) and the kept LT(h), and
    runs no Buchberger.
    """
    ring = P.ring
    fld = ring.field_spec
    stages = []
    current = P
    while True:
        soc = socle_and_gorenstein(current)
        cert = certify_arc_closed(current, Ideal(ring, []), max_level)
        modulus = current._local_modulus()[0]
        g = None if soc.gorenstein else soc.basis[0]  # smallest leading term: the canonical reduction step
        stages.append(WalkthroughStage(modulus, soc.colength, soc.basis, soc.gorenstein, g, cert))
        if soc.gorenstein:
            break
        lt, lc = g.leading_term(DEGREVLEX)
        monic = g.scale(fld.inv(lc))
        by_leading = {lt: monic}
        I_basis = modulus.groebner_basis(DEGREVLEX)
        for h, u in zip(I_basis, I_basis.leading_exponents()):
            if not monomial_divides(lt, u):
                by_leading[u] = h - monic.scale(h.terms[lt]) if lt in h.terms else h
        leading = degrevlex_sorted(by_leading)
        basis = [by_leading[u] for u in leading]
        current = LocalAlgebraPresentation(ring, Ideal.with_reduced_basis(ring, basis, leading))
        if len(current._local_modulus()[1]) != soc.colength - 1:
            raise InternalError("socle quotient did not drop the length by one")
    embedding = _matlis_embedding(current, smallest_containing_power(current), soc)
    return GorensteinWalkthrough(stages=stages, embedding=embedding)


# ---------------------------------------------------------------------
# module jet closures
# ---------------------------------------------------------------------


class ModulePresentation:
    """A finite module over an Artinian base: B^rank modulo relations.

    Relations are given over the ambient polynomial ring; the base
    modulus automatically annihilates every component.  An optional
    submodule is a list of elements to be closed (the closure of N is
    computed in M/N).
    """

    def __init__(
        self,
        base: LocalAlgebraPresentation,
        rank: int,
        relations=(),
        submodule=None,
    ):
        if rank < 1:
            raise ValueError("module rank must be at least 1")
        self.base = base
        self.rank = rank
        self.relations = tuple(relations)
        self.submodule = tuple(submodule or ())
        for what, elements in (("relation", self.relations), ("submodule element", self.submodule)):
            for v in elements:
                if v.ring != base.ring or v.rank != rank:
                    raise RingMismatchError(f"{what} does not match the module")

    def working_relations(self) -> list:
        """Relations of M/N over the ambient ring, base ideal included.

        The base ideal here is the input modulus I, not the modulus q of
        the local algebra (``LocalAlgebraPresentation._local_modulus``)
        that ``module_jet_closure`` answers for, so these relations
        present a quotient of (S/I)^rank: over (x^2 - x^3, y^2) at rank 1
        they leave 6 standard monomials, where the local module has 4.
        A local build first replaces the base by its local modulus, as
        ``tests/oracles.py::reference_module_standard_basis`` does.
        """
        ring = self.base.ring
        rels = list(self.relations) + list(self.submodule)
        for g in self.base.modulus.generators:
            for c in range(self.rank):
                comps = [ring.zero()] * self.rank
                comps[c] = g
                rels.append(FreeModuleElement(ring, comps))
        return rels


@dataclass
class ModuleClosureReport:
    presentation: ModulePresentation
    level: int
    standard_basis: list  # (component, exponents) k-basis of M/N
    kernel_basis: list  # FreeModuleElements spanning the closure of 0 in M/N
    dim_module: int
    dim_kernel: int


def module_jet_closure(MP: ModulePresentation, level: int) -> ModuleClosureReport:
    """Level-``level`` jet closure of the submodule N inside M.

    Works in M/N: the module is tensored with the level-``level`` jet
    fiber of the base, presented over the jet ring with one block of
    coordinates per t-power, and the kernel of the induced k-linear map
    on a monomial basis of M/N is returned.

    The presentation is taken over the pointed jet ring
    k[x@1, ..., x@level].  Over R_jet its relations are F e_k for every
    coordinate k, F the fiber ideal of the base modulus I, and the
    t-shifted jets of the relations of M/N.  Let phi set every x@0 to 0
    and J' = phi(F).  The ``_Ladder`` of I (proper, by
    ``LocalAlgebraPresentation``), climbed to the level, gives every
    phi(D_i h) below and normal forms modulo J'.  A column combination
    v vanishes in the quotient iff v = f + r with f in F^big and r a
    combination of the relation jets.  Then phi(v) = phi(f) + phi(r)
    with phi(f) in J'^big; conversely, let phi(v) = j + phi(r) with j in
    J'^big.  Each phi(D) differs from D by an element of (x@0), so J'
    lies in F and j in F^big, and phi(v - r - j) = 0: v - r - j lies in
    the kernel (x@0)^big of phi, which lies in F^big.  So v vanishes iff
    phi(v) lies in the submodule K generated by J' e_k and phi of the
    relation jets, and the kernel is unchanged (proof for ideals in
    ``jet_closure``).  D_0 of a relation is kept: phi(D_0 h) = h(0),
    and an entry of a relation may have a nonzero constant term.

    The kernel by weight-graded linear algebra, with no module
    Buchberger.  Let A = k[x@1, ..., x@level], give x@k weight k and the
    coordinate e_(c,j) (component c, t-power j) weight -j.  The
    generators of K are weighted-homogeneous: J' e_(c,j), as J' is
    (``_Ladder``); the shift-s jet R_(v,s) = sum_c sum_(j>=s)
    phi(D_(j-s) v_c) e_(c,j) of a relation v, of weight -s; and so is
    each column image sum_j phi(D_j x^u) e_(c,j), of weight 0.  So K is
    graded, and a column combination, of weight 0, lies in K iff it lies
    in K_0, spanned over k by the h e_(c,j) with h in J' of weight j and
    the m R_(v,s) with m a monomial of weight s.  In weight 0 the block
    of e_(c,j) is A_j e_(c,j), so modulo J' e_(c,j) it is (A/J')_j, and
    every entry met there has weight j <= level: ``_Ladder.normal_form``
    gives its normal form on the truncated basis, and J' is never
    completed.  So a column combination lies in K iff its normal form
    lies in the span of the rows NF(m R_(v,s)).  The block of e_(c,j)
    in m R_(v,s) is m phi(D_(j-s) v_c), reduced whole and written under
    the keys (c, j, w); the blocks of one row have distinct (c, j), so
    their keys never meet, and a column row NF(phi(D_j x^u)) is written
    under the same keys (c, j, w).  So the kernel is that of the column
    pairs modulo the relation pairs ({}, NF(m R_(v,s))), which
    ``nullspace_basis`` reads off one echelon, in its canonical basis
    for the columns largest first.  (The Macaulay matrices of Lazard,
    1983, graded by weight.)

    The standard basis of M/N by linear algebra.  M/N is a module over
    the local algebra: in this paragraph I is the modulus q of
    ``_local_modulus``.  The ladder above is that of the input modulus,
    whose J' is that of q, as jets based at the origin see only the
    local ring.  Let U be generated by the relations of M/N and by
    I e_c, and W be its image in (S/I)^rank, written on the columns
    (c, u), u a standard monomial of I.  W is spanned by the rows
    NF_I(x^b r), b standard and r a relation of M/N, as x^a is
    congruent mod I to a combination of those x^b.
    Order the columns position over term, largest first.  Let f in U be
    led by (c, u), u standard.  The normal form keeps a standard leading
    term, so NF_I(f), which lies in W, is led by (c, u) too, and (c, u)
    is a pivot of the echelon of W; each row lies in U, and (c, u) lies
    in LT(U) whenever u is in LT(I).  So the standard monomials of U
    are the non-pivot columns, the same as those of its module
    Groebner basis (``module_standard_monomials``).
    """
    _check_level(level)
    ring = MP.base.ring
    fld = ring.field_spec
    rank = MP.rank
    I, std = MP.base._local_modulus()
    I_basis = I.groebner_basis(DEGREVLEX)
    module_rels = list(MP.relations) + list(MP.submodule)

    pot = [(c, u) for c in range(rank) for u in reversed(std)]
    pot_index = {cu: k for k, cu in enumerate(pot)}

    def row(b, v):
        """NF_I(x^b v) on the columns, the sum of c NF(x^(b+t)) over the
        terms c x^t of each entry of v."""
        out: dict = {}
        for c, comp in enumerate(v.components):
            for t, x in comp.terms.items():
                for w, y in I_basis.monomial_normal_form(tuple(map(add, b, t))).items():
                    k = pot_index[c, w]
                    s = fld.add(out.pop(k, fld.zero()), fld.mul(x, y))
                    if not fld.is_zero(s):
                        out[k] = s
        return out

    rows = [row(b, v) for v in module_rels for b in std]
    pivots = rref(rows, fld)
    # std is in increasing degrevlex: sm is by component, then increasing degrevlex, with no sort
    sm = [(c, u) for c in range(rank) for u in std if pot_index[c, u] not in pivots]

    ladder = _Ladder(MP.base, Ideal(ring))
    ladder.climb(level)
    multipliers = _monomials_by_weight(ladder.weights, level)
    pairs = []  # the relations ({}, NF(m R_(v,s))), then the columns
    for v in module_rels:
        jets = [
            (c, k, jet)  # phi(D_k v_c), nonzero
            for c, comp in enumerate(v.components)
            for k in range(level + 1)
            if (jet := ladder.series.coefficient(comp.terms, k))
        ]
        for s in range(level + 1):
            for m in multipliers[s]:
                r: dict = {}
                for c, k, jet in jets:
                    if k + s <= level:
                        block = ladder.normal_form({tuple(map(add, m, t)): x for t, x in jet.items()})
                        r.update(((c, k + s, w), x) for w, x in block.items())
                pairs.append(({}, r))
    columns = sm[::-1]
    for i, (c, u) in enumerate(columns):
        image = {(c, j, w): x for j in range(level + 1) for w, x in ladder.row(u, j).items()}
        pairs.append(({i: fld.one()}, image))
    kernel = [
        FreeModuleElement._from_terms(ring, rank, {columns[i]: x for i, x in vec.items()})
        for vec in nullspace_basis(pairs, len(columns), fld)
    ]
    return ModuleClosureReport(
        presentation=MP,
        level=level,
        standard_basis=sm,
        kernel_basis=kernel,
        dim_module=len(sm),
        dim_kernel=len(kernel),
    )
