"""Jet closures of ideals and submodules, arc-closedness certificates,
jet-support membership, and the Gorenstein/Matlis reduction pipeline.

All computations happen at a finite jet level.  An ideal a of the local
algebra S/I is first replaced by a' = a + I + m^(level+1); the closure
at that level is then read off as the kernel of an exact linear system
over the coefficient field, one column per standard monomial of a', with
normal forms taken modulo the fiber ideal of a' in the jet ring.

That fiber ideal equals the fiber ideal of a + I (see ``jet_closure``),
so the m^(level+1) generators, most of a' at high levels, never reach
Buchberger; the column jets grow along the staircase of a', one
truncated series multiplication per monomial (``monomial_jets``).

Jet closures descend with the level, so the closure chain C_l and the
arc-closedness certificate are the level-by-level closures themselves,
with no ideal intersection (proof in ``cumulative_closure_chain``).
"""

from __future__ import annotations

from dataclasses import dataclass

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
    FreeModuleElement,
    Ideal,
    SubmodulePresentation,
    colon_ideal,
    ideal_sum,
    ideals_equal,
    module_standard_monomials,
    radical_member,
    standard_monomial_basis,
)
from .jets import fiber_ideal, hs_derivations, monomial_jets
from .linalg import nullspace_basis
from .poly import Polynomial, RingContext


class LocalAlgebraPresentation:
    """A local algebra presented as (polynomial ring at the origin)/I."""

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

    def __repr__(self):
        return f"LocalAlgebraPresentation(vars={self.ring.variables}, modulus={self.modulus!r})"


def _monomials_of_degree(n: int, d: int):
    if n == 1:
        yield (d,)
        return
    for e in range(d + 1):
        for rest in _monomials_of_degree(n - 1, d - e):
            yield (e,) + rest


def maximal_ideal_power(ring: RingContext, d: int) -> list:
    """All monomials of total degree d, the generators of m^d."""
    return [ring.monomial(u) for u in _monomials_of_degree(ring.nvars, d)]


def _artinian_standard_basis(I: Ideal):
    """Standard monomials of an m-primary ideal; NotArtinian otherwise."""
    try:
        return standard_monomial_basis(I)
    except InfiniteDimensionalError as exc:
        raise NotArtinianError("the modulus is not m-primary") from exc


def _check_proper(P: LocalAlgebraPresentation, a: Ideal) -> None:
    if a.ring != P.ring:
        raise RingMismatchError("ideal does not live in the presentation ring")
    for g in a.generators:
        if not P.ring.field_spec.is_zero(g.constant_term()):
            raise NotProperError("ideal plus modulus contains a unit")


def _primary_replacement(P: LocalAlgebraPresentation, a: Ideal, level: int) -> Ideal:
    """a + I + m^(level+1); jet closure at this level is unchanged."""
    extra = maximal_ideal_power(P.ring, level + 1)
    return Ideal(P.ring, a.generators + P.modulus.generators + tuple(extra))


def _block_key(key: tuple):
    """Order (block, exponents) keys by block, then degrevlex."""
    return (key[0], DEGREVLEX.key(key[1]))


def _kernel(columns: list, image, fld) -> list:
    """A k-basis of the kernel of the linear map column -> ``image(column)``.

    ``image`` sends a column to a dict {(block, exponents): coefficient};
    rows are ordered by block, then degrevlex.  Each kernel vector comes
    back as {column: coefficient} with its zero entries dropped, in the
    canonical order of ``nullspace_basis`` for the given column order.
    """
    images = [image(col) for col in columns]
    rows = sorted(set().union(*images), key=_block_key)
    matrix = [[img.get(r, fld.zero()) for img in images] for r in rows]
    return [
        {col: x for x, col in zip(vec, columns) if not fld.is_zero(x)}
        for vec in nullspace_basis(matrix, len(columns), fld)
    ]


@dataclass
class ClosureReport:
    """The level-``level`` jet closure of ``ideal`` in the presentation."""

    presentation: LocalAlgebraPresentation
    ideal: Ideal
    level: int
    replacement: Ideal  # a' = a + I + m^(level+1)
    closure: Ideal  # generated by replacement plus kernel elements
    closure_generators: list  # reduced degrevlex basis of the closure
    kernel_basis: list  # k-basis of closure/replacement, as polynomials
    dim_quotient: int  # colength of a'
    dim_closure: int  # k-dimension of the closure's image mod a'


def jet_closure(P: LocalAlgebraPresentation, a: Ideal, level: int) -> ClosureReport:
    """Compute the level-``level`` jet closure of a (with the modulus folded in).

    The kernel condition is linear over the coefficient field: f (taken
    modulo a') lies in the closure iff every derivation D_i(f), i up to
    the level, reduces to zero against the fiber ideal of a'.

    The fiber ideal of a' is computed as that of a + I; the two are
    equal.  The fiber ideal of an ideal b at level l is generated by
    x_1@0, ..., x_n@0 and D_i(g) for the generators g of b and i <= l,
    and a' adds the generators x^u, deg u = d = l+1, to a + I.  Each
    term of D_i(x^u) is, up to a coefficient, a product of d jet
    variables x_j@k whose orders k sum to i.  As i <= l < d, at least
    one of those orders is 0, so every such D_i(x^u) already lies in
    (x_1@0, ..., x_n@0).  Equal ideals have the same reduced basis, so
    the normal forms, and the kernel, are unchanged.  The report keeps
    a' as ``replacement`` and in ``closure``.
    """
    _check_proper(P, a)
    ring = P.ring
    fld = ring.field_spec
    aprime = _primary_replacement(P, a, level)
    sm = standard_monomial_basis(aprime)
    basis = fiber_ideal(ideal_sum(a, P.modulus), level).groebner_basis(DEGREVLEX)

    columns = sorted(sm.monomials, key=DEGREVLEX.key, reverse=True)
    jets = monomial_jets(ring, columns, level)

    def image(u):
        return {
            (i, w): c
            for i, d in enumerate(jets[u])
            for w, c in basis.normal_form(d).terms.items()
        }

    kernel_polys = [Polynomial(ring, t) for t in _kernel(columns, image, fld)]

    closure = Ideal(ring, aprime.generators + tuple(kernel_polys))
    return ClosureReport(
        presentation=P,
        ideal=a,
        level=level,
        replacement=aprime,
        closure=closure,
        closure_generators=list(closure.groebner_basis(DEGREVLEX)),
        kernel_basis=kernel_polys,
        dim_quotient=sm.colength,
        dim_closure=len(kernel_polys),
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

    Drop the base point.  Let phi set every x@0 to 0.  F_l contains
    (x@0), so D lies in F_l iff phi(D) lies in J'_l, the ideal of
    k[x@1, ..., x@l] generated by phi(D_k g) for the generators g of
    a + I and 1 <= k <= l; phi(D_0 g) = g(0) = 0 because a + I is proper
    (``_check_proper``).

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
    """
    return [jet_closure(P, a, level).closure for level in range(max_level + 1)]


@dataclass
class CertificateResult:
    """Outcome of the finite-level arc-closedness certificate.

    ``certified`` soundly implies the arc closure equals the ideal; a
    negative answer implies nothing (non-m-primary ideals typically
    never certify at a finite level).
    """

    certified: bool
    level: int  # least certifying level, or None
    max_level: int
    chain: list  # C_0, ..., C_level: the jet closure at each level computed

    def __bool__(self):
        return self.certified


def certify_arc_closed(P: LocalAlgebraPresentation, a: Ideal, max_level: int) -> CertificateResult:
    """Look for a level l <= ``max_level`` at which C_l comes back down to a + I.

    C_l is the level-l jet closure; it is also the intersection of the
    closures up to level l, because the closures descend (proof in
    ``cumulative_closure_chain``).  ``certified`` is True when some C_l
    equals a + I; ``level`` is the least such l, the chain stops there,
    and the answer soundly implies that the arc closure of a is a + I.
    A negative answer claims nothing about the arc closure: every C_l
    contains m^(l+1), so an ideal that is not m-primary never certifies
    at a finite level.
    """
    _check_proper(P, a)
    target = ideal_sum(a, P.modulus)
    chain = []
    for level in range(max_level + 1):
        chain.append(jet_closure(P, a, level).closure)
        if ideals_equal(chain[-1], target):
            return CertificateResult(True, level, max_level, chain)
    return CertificateResult(False, None, max_level, chain)


def jsc_membership(P: LocalAlgebraPresentation, a: Ideal, f: Polynomial, level: int) -> bool:
    """Membership of f in the level-``level`` jet support closure of a.

    Decided per element: every derivation of f must lie in the radical
    of the fiber ideal of a + I + m^(level+1).  That ideal is computed
    as the fiber ideal of a + I, which is the same ideal: for
    deg u > level, every term of D_i(x^u), i <= level, is a product of
    deg u jet variables with orders summing to i, so one of them is
    some x_j@0 (the full argument is in ``jet_closure``).
    """
    _check_proper(P, a)
    if f.ring != P.ring:
        raise RingMismatchError("element does not live in the presentation ring")
    J = fiber_ideal(ideal_sum(a, P.modulus), level)
    return all(radical_member(d, J) for d in hs_derivations(f, level))


# ---------------------------------------------------------------------
# socle, Gorenstein detection, Matlis embedding
# ---------------------------------------------------------------------


@dataclass
class SocleReport:
    basis: list  # polynomials spanning the socle, smallest leading term first
    gorenstein: bool
    colength: int


def socle_and_gorenstein(P: LocalAlgebraPresentation) -> SocleReport:
    """Socle of the Artinian quotient and the Gorenstein flag.

    The socle is the kernel of v -> (x_1 v, ..., x_n v) on the standard
    monomial basis; the quotient is Gorenstein exactly when it is
    one-dimensional.
    """
    ring = P.ring
    fld = ring.field_spec
    sm = _artinian_standard_basis(P.modulus)
    basis = P.modulus.groebner_basis(DEGREVLEX)
    columns = sorted(sm.monomials, key=DEGREVLEX.key, reverse=True)

    def image(u):
        return {
            (j, w): c
            for j in range(ring.nvars)
            for w, c in basis.normal_form(ring.variable(j) * ring.monomial(u)).terms.items()
        }

    polys = [Polynomial(ring, t) for t in _kernel(columns, image, fld)]
    polys.sort(key=lambda p: DEGREVLEX.key(p.leading_term(DEGREVLEX)[0]))
    return SocleReport(basis=polys, gorenstein=len(polys) == 1, colength=sm.colength)


@dataclass
class MatlisEmbedding:
    """A verified module embedding of S/I into S/m_N, 1 -> witness."""

    power: int
    witness: Polynomial
    colon: Ideal  # (m_N : I)
    quotient_colength: int  # length of S/I
    colon_quotient_dim: int  # dim of (m_N : I)/m_N, must match
    images: list  # (standard monomial, its image in S/m_N) pairs


def matlis_embedding(P: LocalAlgebraPresentation, power: int) -> MatlisEmbedding:
    """Embed the Gorenstein quotient S/I into S/(x_1^N, ..., x_n^N).

    The witness w generates (m_N : I) modulo m_N; the embedding sends
    the class of f to the class of f*w.  Injectivity is certified by
    the exact count colength(I) = dim (m_N : I)/m_N.
    """
    ring = P.ring
    I = P.modulus
    soc = socle_and_gorenstein(P)
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
    witness = None
    for w in candidates:
        if ideals_equal(Ideal(ring, (w,) + m_n.generators), colon):
            witness = w
            break
    if witness is None:
        raise InternalError("no single witness generates the colon ideal modulo the powers")
    colon_dim = standard_monomial_basis(m_n).colength - standard_monomial_basis(colon).colength
    if colon_dim != soc.colength:
        raise InternalError("witness verification failed: dimension mismatch")
    images = []
    for u in standard_monomial_basis(I).monomials:
        b = ring.monomial(u)
        images.append((b, m_n_basis.normal_form(b * witness)))
    return MatlisEmbedding(
        power=power,
        witness=witness,
        colon=colon,
        quotient_colength=soc.colength,
        colon_quotient_dim=colon_dim,
        images=images,
    )


def smallest_containing_power(P: LocalAlgebraPresentation) -> int:
    """Least N with every pure power x_j^N inside the modulus."""
    basis = P.modulus.groebner_basis(DEGREVLEX)
    bound = _artinian_standard_basis(P.modulus).colength + 1
    for n in range(1, bound + 1):
        if all(basis.contains(P.ring.variable(j) ** n) for j in range(P.ring.nvars)):
            return n
    raise InternalError("no pure power bound found below the length bound")


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
    """Reduce an Artinian quotient to a Gorenstein one by socle quotients.

    Each step quotients by a one-dimensional socle ideal (g), dropping
    the length by exactly one, until the socle is one-dimensional; the
    Gorenstein stage gets its Matlis embedding.  Every stage carries an
    arc-closedness certificate for the zero ideal up to ``max_level``.
    """
    ring = P.ring
    stages = []
    current = P
    while True:
        soc = socle_and_gorenstein(current)
        cert = certify_arc_closed(current, Ideal(ring, []), max_level)
        if soc.gorenstein:
            stages.append(
                WalkthroughStage(current.modulus, soc.colength, soc.basis, True, None, cert)
            )
            break
        g = soc.basis[0]  # smallest leading term: the canonical reduction step
        stages.append(
            WalkthroughStage(current.modulus, soc.colength, soc.basis, False, g, cert)
        )
        next_modulus = Ideal(ring, current.modulus.generators + (g,))
        next_pres = LocalAlgebraPresentation(ring, next_modulus)
        if standard_monomial_basis(next_modulus).colength != soc.colength - 1:
            raise InternalError("socle quotient did not drop the length by one")
        current = next_pres
    embedding = matlis_embedding(current, smallest_containing_power(current))
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
        rels = []
        for v in relations:
            if v.ring != base.ring or v.rank != rank:
                raise RingMismatchError("relation does not match the module")
            rels.append(v)
        self.relations = tuple(rels)
        subs = []
        for v in submodule or ():
            if v.ring != base.ring or v.rank != rank:
                raise RingMismatchError("submodule element does not match the module")
            subs.append(v)
        self.submodule = tuple(subs)

    def working_relations(self) -> list:
        """Relations of M/N over the ambient ring, base ideal included."""
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
    """
    ring = MP.base.ring
    fld = ring.field_spec
    rank = MP.rank
    _artinian_standard_basis(MP.base.modulus)  # NotArtinian check on the base

    rels = MP.working_relations()
    pres = SubmodulePresentation(ring, rank, rels)
    sm = module_standard_monomials(pres)

    J = fiber_ideal(MP.base.modulus, level)
    jet_ctx = J.ring
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
    module_rels = list(MP.relations) + list(MP.submodule)
    for v in module_rels:
        jets = [hs_derivations(comp, level) for comp in v.components]
        for shift in range(level + 1):
            comps = list(zero_vec)
            for c in range(rank):
                for j in range(shift, level + 1):
                    comps[big_index(c, j)] = comps[big_index(c, j)] + jets[c][j - shift]
            vec = FreeModuleElement(jet_ctx, comps)
            if not vec.is_zero():
                big_rels.append(vec)
    big_gb = SubmodulePresentation(jet_ctx, big_rank, big_rels).groebner_basis(DEGREVLEX)

    columns = sorted(sm, key=_block_key, reverse=True)
    column_jets = monomial_jets(ring, {u for _, u in sm}, level)

    def image(cu):
        comp, u = cu
        comps = list(zero_vec)
        for j, d in enumerate(column_jets[u]):
            comps[big_index(comp, j)] = d
        return big_gb.normal_form(FreeModuleElement(jet_ctx, comps))._terms()

    kernel = [
        FreeModuleElement._from_terms(ring, rank, t) for t in _kernel(columns, image, fld)
    ]
    return ModuleClosureReport(
        presentation=MP,
        level=level,
        standard_basis=sm,
        kernel_basis=kernel,
        dim_module=len(sm),
        dim_kernel=len(kernel),
    )
