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
    universal_jet_image,
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
    ideals_equal,
    intersect_ideals,
    module_standard_monomials,
    radical_member,
    standard_monomial_basis,
)
from .jets import JetIdeal, JetRing, fiber_ideal, hs_derivations, jet_ideal
from .newton import MonomialIdealData, monomial_integral_closure, newton_membership
from .poly import (
    FieldSpec,
    MonomialOrder,
    Polynomial,
    RingContext,
    format_polynomial,
    parse_polynomial,
)

__all__ = [
    "CertificateResult", "ClosureReport", "GorensteinWalkthrough",
    "LocalAlgebraPresentation", "MatlisEmbedding", "ModuleClosureReport",
    "ModulePresentation", "SocleReport", "certify_arc_closed",
    "cumulative_closure_chain", "gorenstein_walkthrough", "jet_closure",
    "jsc_membership", "matlis_embedding", "module_jet_closure", "socle_and_gorenstein",
    "DomainError", "InfiniteDimensionalError", "InternalError", "NotArtinianError",
    "NotGorensteinError", "NotProperError", "ParseError", "PowersNotContainedError",
    "RingMismatchError", "UnknownVariableError",
    "FreeModuleElement", "GroebnerBasis", "Ideal", "ModuleGroebnerBasis",
    "SubmodulePresentation", "colon_ideal", "ideals_equal",
    "intersect_ideals", "module_standard_monomials", "radical_member",
    "standard_monomial_basis",
    "JetIdeal", "JetRing", "fiber_ideal", "hs_derivations", "jet_ideal",
    "universal_jet_image",
    "MonomialIdealData", "monomial_integral_closure", "newton_membership",
    "FieldSpec", "MonomialOrder", "Polynomial", "RingContext",
    "format_polynomial", "parse_polynomial",
]
