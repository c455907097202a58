"""Exact jet-closure and arc-closedness computations for local algebras.

The package computes, at finite jet levels: jet ideals and fiber ideals,
jet closures of ideals and of submodules, one-sided arc-closedness
certificates, jet-support-closure membership, socle/Gorenstein data with
the Matlis-style embedding into a monomial complete intersection, and
Newton-polyhedron integral closures of monomial ideals.  All arithmetic
is exact (rationals or a prime field).
"""

from .closures import (
    CertificateResult,
    ClosureReport,
    GorensteinWalkthrough,
    LocalAlgebraPresentation,
    MatlisEmbedding,
    ModuleClosureReport,
    ModulePresentation,
    SocleReport,
    certify_arc_closed,
    cumulative_closure_chain,
    gorenstein_walkthrough,
    jet_closure,
    jsc_membership,
    matlis_embedding,
    module_jet_closure,
    socle_and_gorenstein,
)
from .errors import (
    DomainError,
    InfiniteDimensionalError,
    InternalError,
    NotArtinianError,
    NotGorensteinError,
    NotProperError,
    ParseError,
    PowersNotContainedError,
    RingMismatchError,
    UnknownVariableError,
)
from .groebner import (
    FreeModuleElement,
    GroebnerBasis,
    Ideal,
    ModuleGroebnerBasis,
    SubmodulePresentation,
    colon_ideal,
    eliminate_variables,
    ideal_member,
    ideals_equal,
    intersect_ideals,
    module_standard_monomials,
    normal_form,
    radical_member,
    reduced_groebner_basis,
    standard_monomial_basis,
    submodule_groebner_basis,
)
from .jets import JetIdeal, JetRing, fiber_ideal, hs_derivations, jet_ideal, universal_jet_image
from .newton import MonomialIdealData, monomial_integral_closure, newton_membership
from .poly import (
    FieldSpec,
    MonomialOrder,
    Polynomial,
    RingContext,
    compare_monomials,
    format_polynomial,
    parse_polynomial,
)

__all__ = [name for name in dir() if not name.startswith("_")]
