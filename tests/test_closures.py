import random

import pytest

from jetclosure.closures import (
    LocalAlgebraPresentation,
    ModulePresentation,
    certify_arc_closed,
    cumulative_closure_chain,
    gorenstein_walkthrough,
    jet_closure,
    jsc_membership,
    matlis_embedding,
    module_jet_closure,
    smallest_containing_power,
    socle_and_gorenstein,
)
from jetclosure.errors import (
    NotArtinianError,
    NotGorensteinError,
    NotProperError,
    PowersNotContainedError,
)
from jetclosure.groebner import (
    FreeModuleElement,
    Ideal,
    SubmodulePresentation,
    ideal_member,
    ideals_equal,
    module_standard_monomials,
    submodule_groebner_basis,
)
from oracles import (
    FIBER_SHORTCUT_CASES,
    in_row_span,
    reference_jet_closure,
    reference_jsc_membership,
)
from jetclosure.poly import FieldSpec, RingContext, parse_polynomial

Q = FieldSpec.rationals()
F2 = FieldSpec.prime_field(2)
F3 = FieldSpec.prime_field(3)


def ring(names, field=Q):
    return RingContext(field, tuple(names))


def pp(text, R):
    return parse_polynomial(text, R)


def ideal(R, *texts):
    return Ideal(R, [pp(t, R) for t in texts])


RX = ring(["x"])
RXY = ring(["x", "y"])


# --- jet closures ------------------------------------------------------


def test_closure_of_square_in_one_variable():
    rep = jet_closure(LocalAlgebraPresentation(RX), ideal(RX, "x^2"), 1)
    assert ideals_equal(rep.closure, ideal(RX, "x^2"))
    assert rep.dim_quotient == 2 and rep.dim_closure == 0


def test_closure_level_zero_is_maximal_ideal():
    for a in (ideal(RXY, "x^2", "y^2"), ideal(RXY, "x*y"), Ideal(RXY, [])):
        rep = jet_closure(LocalAlgebraPresentation(RXY), a, 0)
        assert ideals_equal(rep.closure, ideal(RXY, "x", "y"))


def test_closure_two_squares_level_one_catches_product():
    rep = jet_closure(LocalAlgebraPresentation(RXY), ideal(RXY, "x^2", "y^2"), 1)
    assert ideals_equal(rep.closure, ideal(RXY, "x^2", "y^2", "x*y"))
    assert rep.dim_quotient == 3 and rep.dim_closure == 0


def test_closure_report_invariants():
    P = LocalAlgebraPresentation(RXY, ideal(RXY, "y^3"))
    a = ideal(RXY, "x^2")
    rep = jet_closure(P, a, 2)
    closure_basis = rep.closure.groebner_basis()
    for g in a.generators:
        assert closure_basis.contains(g)
    for g in rep.closure_generators:
        assert RXY.field_spec.is_zero(g.constant_term())
    assert rep.dim_closure <= rep.dim_quotient


def test_closure_rejects_unit_ideal():
    with pytest.raises(NotProperError):
        jet_closure(LocalAlgebraPresentation(RXY), ideal(RXY, "1 + x"), 1)
    with pytest.raises(NotProperError):
        LocalAlgebraPresentation(RXY, ideal(RXY, "1 - y"))


def test_closure_contains_ideal_plus_power_of_maximal():
    P = LocalAlgebraPresentation(RXY)
    a = ideal(RXY, "x^2 - y^2")
    for level in range(4):
        basis = jet_closure(P, a, level).closure.groebner_basis()
        assert basis.contains(pp("x^2 - y^2", RXY))
        # generators of m^(level+1)
        for k in range(level + 2):
            mono = RXY.monomial((k, level + 1 - k))
            assert basis.contains(mono)


def test_closure_monotone_in_the_ideal():
    P = LocalAlgebraPresentation(RXY)
    small = ideal(RXY, "x^2")
    big = ideal(RXY, "x^2", "x*y")
    for level in (1, 2):
        small_closure = jet_closure(P, small, level).closure
        big_basis = jet_closure(P, big, level).closure.groebner_basis()
        for g in small_closure.generators:
            assert big_basis.contains(g)


def test_closure_quotient_heredity():
    # direct computation vs folding the ideal into the modulus
    cases = [
        (ideal(RXY, "y^3"), ideal(RXY, "x^2")),
        (ideal(RXY, "x*y"), ideal(RXY, "x^2", "y^2")),
        (Ideal(RXY, []), ideal(RXY, "x^2 - y^3", "y^4")),
    ]
    for modulus, a in cases:
        for level in (1, 2):
            direct = jet_closure(LocalAlgebraPresentation(RXY, modulus), a, level).closure
            folded = jet_closure(
                LocalAlgebraPresentation(RXY, Ideal(RXY, modulus.generators + a.generators)),
                Ideal(RXY, []),
                level,
            ).closure
            assert ideals_equal(direct, folded)


# --- chains and certificates -------------------------------------------


def test_chain_square_stabilizes():
    chain = cumulative_closure_chain(LocalAlgebraPresentation(RX), ideal(RX, "x^2"), 2)
    expected = [ideal(RX, "x"), ideal(RX, "x^2"), ideal(RX, "x^2")]
    for got, want in zip(chain, expected):
        assert ideals_equal(got, want)


def test_chain_of_line_never_stabilizes():
    chain = cumulative_closure_chain(LocalAlgebraPresentation(RXY), ideal(RXY, "x"), 2)
    expected = [ideal(RXY, "x", "y"), ideal(RXY, "x", "y^2"), ideal(RXY, "x", "y^3")]
    for got, want in zip(chain, expected):
        assert ideals_equal(got, want)


def test_chain_of_maximal_ideal_is_constant():
    chain = cumulative_closure_chain(LocalAlgebraPresentation(RXY), ideal(RXY, "x", "y"), 2)
    for c in chain:
        assert ideals_equal(c, ideal(RXY, "x", "y"))


def test_chain_is_descending_and_contains_ideal():
    P = LocalAlgebraPresentation(RXY)
    a = ideal(RXY, "x^2", "x*y")
    chain = cumulative_closure_chain(P, a, 3)
    for i in range(1, len(chain)):
        upper = chain[i - 1].groebner_basis()
        for g in chain[i].generators:
            assert upper.contains(g)
    for c in chain:
        basis = c.groebner_basis()
        for g in a.generators:
            assert basis.contains(g)


def test_certify_square_in_one_variable():
    cert = certify_arc_closed(LocalAlgebraPresentation(RX), ideal(RX, "x^2"), 6)
    assert cert.certified and cert.level == 1


def test_certify_two_squares():
    cert = certify_arc_closed(LocalAlgebraPresentation(RXY), ideal(RXY, "x^2", "y^2"), 8)
    assert cert.certified and cert.level == 2


def test_certify_line_not_certified():
    cert = certify_arc_closed(LocalAlgebraPresentation(RXY), ideal(RXY, "x"), 5)
    assert not cert.certified and cert.level is None
    assert len(cert.chain) == 6
    for level, c in enumerate(cert.chain):
        assert ideals_equal(c, Ideal(RXY, [pp("x", RXY), pp("y", RXY) ** (level + 1)]))


def test_certificate_soundness_chain():
    P = LocalAlgebraPresentation(RXY, ideal(RXY, "x^2", "x*y", "y^3"))
    a = Ideal(RXY, [])
    cert = certify_arc_closed(P, a, 6)
    assert cert.certified
    target = P.modulus.groebner_basis()
    final = cert.chain[cert.level]
    for g in final.generators:
        assert target.contains(g)
    for g in P.modulus.generators:
        assert final.groebner_basis().contains(g)


# --- jet support closure ------------------------------------------------


def test_jsc_variable_not_member_in_double_point():
    P = LocalAlgebraPresentation(RX, ideal(RX, "x^2"))
    assert not jsc_membership(P, Ideal(RX, []), pp("x", RX), 1)


def test_jsc_members_of_ideal_always_pass():
    P = LocalAlgebraPresentation(RXY)
    a = ideal(RXY, "x^2", "y^2")
    for level in range(3):
        assert jsc_membership(P, a, pp("x^2", RXY), level)
        assert jsc_membership(P, a, pp("x^2 - y^2", RXY), level)


def test_jsc_product_of_square_generators():
    P = LocalAlgebraPresentation(RXY)
    a = ideal(RXY, "x^2", "y^2")
    assert jsc_membership(P, a, pp("x*y", RXY), 2)


def test_jet_closure_inside_jsc():
    P = LocalAlgebraPresentation(RXY, ideal(RXY, "x^2", "y^2"))
    a = Ideal(RXY, [])
    for level in (1, 2):
        kernel = jet_closure(P, a, level).kernel_basis
        for f in kernel:
            assert jsc_membership(P, a, f, level)


def test_replacement_leaves_fiber_ideal_unchanged():
    # derivations of degree-(level+1) monomials land in the origin ideal,
    # so the replacement only shrinks the coefficient quotient, never the fiber
    from jetclosure.closures import _primary_replacement
    from jetclosure.jets import fiber_ideal

    cases = [
        ((), ("x^2", "y^2")),
        ((), ("x",)),
        (("y^3",), ("x^2",)),
        ((), ("x^2 - y^3",)),
    ]
    for mod, gens in cases:
        P = LocalAlgebraPresentation(RXY, ideal(RXY, *mod))
        a = ideal(RXY, *gens)
        plain = Ideal(RXY, a.generators + P.modulus.generators)
        for level in (1, 2, 3):
            aprime = _primary_replacement(P, a, level)
            assert ideals_equal(fiber_ideal(aprime, level), fiber_ideal(plain, level))


def test_kernel_agrees_with_universal_jet_map():
    # membership in the closure of 0 is exactly "all jet-map entries vanish"
    from jetclosure.jets import universal_jet_image

    a = ideal(RXY, "x^2", "y^2")
    P = LocalAlgebraPresentation(RXY)
    for level in (1, 2):
        rep = jet_closure(P, a, level)
        for f in rep.kernel_basis:
            entries = universal_jet_image(f, rep.replacement, level)
            assert all(e.is_zero() for e in entries)
    # at level 2 the product of the two roots is no longer in the kernel
    rep2 = jet_closure(P, a, 2)
    entries = universal_jet_image(pp("x*y", RXY), rep2.replacement, 2)
    assert not all(e.is_zero() for e in entries)


def test_random_monomial_algebras_certify():
    # graded Artinian quotients always certify at some finite level
    rng = random.Random(1234)
    for field in (Q, F2):
        R = ring(["x", "y"], field)
        for _ in range(5):
            exps = {(rng.randrange(1, 4), 0), (0, rng.randrange(1, 4))}
            exps.add((rng.randrange(4), rng.randrange(4)))
            gens = [R.monomial(u) for u in exps if sum(u) > 0]
            P = LocalAlgebraPresentation(R, Ideal(R, gens))
            cert = certify_arc_closed(P, Ideal(R, []), 6)
            assert cert.certified and cert.level <= 6


# --- persistence --------------------------------------------------------


def test_ring_persistence_under_quotients():
    # quotienting by an extra ideal can only enlarge the closure
    P = LocalAlgebraPresentation(RXY, ideal(RXY, "x^3", "y^3"))
    a = ideal(RXY, "x*y")
    for extra in (ideal(RXY, "x^2"), ideal(RXY, "x*y - y^2"), ideal(RXY, "y^2")):
        Pq = LocalAlgebraPresentation(
            RXY, Ideal(RXY, P.modulus.generators + extra.generators)
        )
        for level in (0, 1, 2):
            src = jet_closure(P, a, level).closure
            dst = jet_closure(Pq, a, level).closure.groebner_basis()
            for g in src.generators:
                assert dst.contains(g)


# --- socle and Gorenstein ----------------------------------------------


def test_socle_of_two_squares_is_the_product():
    soc = socle_and_gorenstein(LocalAlgebraPresentation(RXY, ideal(RXY, "x^2", "y^2")))
    assert [str(b) for b in soc.basis] == ["x*y"]
    assert soc.gorenstein


def test_socle_of_fat_point_is_two_dimensional():
    soc = socle_and_gorenstein(
        LocalAlgebraPresentation(RXY, ideal(RXY, "x^2", "x*y", "y^2"))
    )
    assert {str(b) for b in soc.basis} == {"x", "y"}
    assert not soc.gorenstein


def test_socle_of_the_field_is_one():
    soc = socle_and_gorenstein(LocalAlgebraPresentation(RXY, ideal(RXY, "x", "y")))
    assert [str(b) for b in soc.basis] == ["1"]
    assert soc.gorenstein and soc.colength == 1


def test_socle_annihilates_maximal_ideal():
    P = LocalAlgebraPresentation(RXY, ideal(RXY, "x^2 - y^3", "y^4"))
    soc = socle_and_gorenstein(P)
    basis = P.modulus.groebner_basis()
    for b in soc.basis:
        assert basis.contains(pp("x", RXY) * b)
        assert basis.contains(pp("y", RXY) * b)


def test_socle_requires_artinian():
    with pytest.raises(NotArtinianError):
        socle_and_gorenstein(LocalAlgebraPresentation(RXY, ideal(RXY, "x")))


# --- Matlis embedding ----------------------------------------------------


def test_matlis_univariate():
    emb = matlis_embedding(LocalAlgebraPresentation(RX, ideal(RX, "x^2")), 3)
    assert str(emb.witness) == "x"
    assert emb.quotient_colength == 2 and emb.colon_quotient_dim == 2
    images = {str(src): str(dst) for src, dst in emb.images}
    assert images == {"1": "x", "x": "x^2"}


def test_matlis_power_ideal_itself():
    emb = matlis_embedding(LocalAlgebraPresentation(RXY, ideal(RXY, "x^3", "y^3")), 3)
    assert str(emb.witness) == "1"
    assert emb.quotient_colength == emb.colon_quotient_dim == 9


def test_matlis_gorenstein_plane_example():
    emb = matlis_embedding(
        LocalAlgebraPresentation(RXY, ideal(RXY, "x*y", "x^2 - y^2")), 3
    )
    assert str(emb.witness) == "x^2 + y^2"
    assert emb.quotient_colength == 4 and emb.colon_quotient_dim == 4
    # witness really multiplies the modulus into the powers
    powers = ideal(RXY, "x^3", "y^3").groebner_basis()
    for g in ("x*y", "x^2 - y^2"):
        assert powers.contains(emb.witness * pp(g, RXY))


def test_matlis_requires_contained_powers():
    with pytest.raises(PowersNotContainedError):
        matlis_embedding(LocalAlgebraPresentation(RXY, ideal(RXY, "x*y", "x^2 - y^2")), 2)


def test_matlis_requires_gorenstein():
    with pytest.raises(NotGorensteinError):
        matlis_embedding(
            LocalAlgebraPresentation(RXY, ideal(RXY, "x^2", "x*y", "y^2")), 2
        )


def test_matlis_embedding_is_injective_on_standard_basis():
    P = LocalAlgebraPresentation(RXY, ideal(RXY, "x^2 - y^3", "y^4"))
    emb = matlis_embedding(P, smallest_containing_power(P))
    fld = RXY.field_spec
    columns = sorted({u for _, dst in emb.images for u in dst.terms})
    rows = [[dst.terms.get(u, fld.zero()) for u in columns] for _, dst in emb.images]
    from oracles import rank

    assert rank(rows, len(columns), fld) == len(emb.images)


# --- walkthrough ----------------------------------------------------------


def test_walkthrough_one_socle_step():
    walk = gorenstein_walkthrough(
        LocalAlgebraPresentation(RXY, ideal(RXY, "x^2", "x*y", "y^3")), 4
    )
    assert len(walk.stages) == 2
    first, last = walk.stages
    assert not first.gorenstein and str(first.socle_generator_used) == "x"
    assert first.colength == 4 and last.colength == 3
    assert last.gorenstein
    assert ideals_equal(last.modulus, ideal(RXY, "x", "y^3"))
    assert all(st.certificate.certified for st in walk.stages)


def test_walkthrough_already_gorenstein():
    walk = gorenstein_walkthrough(
        LocalAlgebraPresentation(RXY, ideal(RXY, "x^2", "y^2")), 4
    )
    assert len(walk.stages) == 1
    assert walk.stages[0].gorenstein


def test_walkthrough_of_the_field():
    walk = gorenstein_walkthrough(
        LocalAlgebraPresentation(RXY, ideal(RXY, "x", "y")), 2
    )
    assert len(walk.stages) == 1
    stage = walk.stages[0]
    assert stage.colength == 1 and stage.gorenstein
    assert stage.certificate.certified and stage.certificate.level == 0
    assert str(walk.embedding.witness) == "1"


def test_walkthrough_lengths_drop_by_one():
    walk = gorenstein_walkthrough(
        LocalAlgebraPresentation(RXY, ideal(RXY, "x^2", "x*y", "y^4")), 5
    )
    lengths = [st.colength for st in walk.stages]
    for a, b in zip(lengths, lengths[1:]):
        assert b == a - 1


# --- module jet closures ---------------------------------------------------


def _module_coordinates(vector, gb, sm, fld):
    terms = gb.normal_form(vector)._terms()
    return [terms.get(cu, fld.zero()) for cu in sm]


def test_module_closure_matches_ring_closure_for_cyclic():
    # M = B as a module over B: the kernel must match the ideal closure of 0
    modulus = ideal(RXY, "x^2", "y^2")
    B = LocalAlgebraPresentation(RXY, modulus)
    MP = ModulePresentation(B, 1, [])
    for level in (0, 1, 2):
        mrep = module_jet_closure(MP, level)
        ring_closure = jet_closure(B, Ideal(RXY, []), level)
        basis = ring_closure.closure.groebner_basis()
        for v in mrep.kernel_basis:
            assert basis.contains(v.components[0])
        # dimensions agree: closure image in B vs kernel of the module map
        from jetclosure.groebner import standard_monomial_basis

        closure_image_dim = (
            standard_monomial_basis(modulus).colength
            - standard_monomial_basis(ring_closure.closure).colength
        )
        assert mrep.dim_kernel == closure_image_dim


def test_module_closure_cyclic_with_annihilator():
    B = LocalAlgebraPresentation(RX, ideal(RX, "x^3"))
    MP = ModulePresentation(B, 1, [FreeModuleElement(RX, [pp("x^2", RX)])])
    rep = module_jet_closure(MP, 1)
    assert rep.dim_module == 2 and rep.dim_kernel == 0


def test_module_closure_level_zero_is_maximal_ideal_times_module():
    B = LocalAlgebraPresentation(RXY, ideal(RXY, "x^2", "x*y", "y^2"))
    MP = ModulePresentation(B, 2, [])
    rep = module_jet_closure(MP, 0)
    # m*M has one copy of {x, y} per free generator
    assert rep.dim_module == 6 and rep.dim_kernel == 4
    for v in rep.kernel_basis:
        for comp in v.components:
            assert RXY.field_spec.is_zero(comp.constant_term())


def test_module_closure_requires_artinian_base():
    B = LocalAlgebraPresentation(RXY, ideal(RXY, "x"))
    with pytest.raises(NotArtinianError):
        module_jet_closure(ModulePresentation(B, 1, []), 1)


def test_module_persistence_under_quotient_surjection():
    B = LocalAlgebraPresentation(RXY, ideal(RXY, "x^2", "y^3"))
    rel = FreeModuleElement(RXY, [pp("y^2", RXY), pp("x", RXY)])
    extra = FreeModuleElement(RXY, [pp("y", RXY), RXY.zero()])
    M = ModulePresentation(B, 2, [rel])
    Mq = ModulePresentation(B, 2, [rel, extra])
    fld = RXY.field_spec
    for level in (0, 1):
        src = module_jet_closure(M, level)
        dst = module_jet_closure(Mq, level)
        pres = SubmodulePresentation(RXY, 2, Mq.working_relations())
        gb = submodule_groebner_basis(pres)
        sm = module_standard_monomials(pres)
        span = [_module_coordinates(v, gb, sm, fld) for v in dst.kernel_basis]
        for v in src.kernel_basis:
            coords = _module_coordinates(v, gb, sm, fld)
            assert in_row_span(coords, span, len(sm), fld)


def test_module_restriction_of_scalars_comparison():
    # closure over S/(I1+I2) sits inside the closure over S/I1
    I1 = ideal(RXY, "x^3", "y^3")
    I2 = ideal(RXY, "x*y")
    both = Ideal(RXY, I1.generators + I2.generators)
    rel = FreeModuleElement(RXY, [pp("x - y", RXY)])
    over_quotient = ModulePresentation(
        LocalAlgebraPresentation(RXY, both), 1, [rel]
    )
    i2_rows = [FreeModuleElement(RXY, [g]) for g in I2.generators]
    over_base = ModulePresentation(
        LocalAlgebraPresentation(RXY, I1), 1, [rel] + i2_rows
    )
    fld = RXY.field_spec
    pres = SubmodulePresentation(RXY, 1, over_quotient.working_relations())
    gb = submodule_groebner_basis(pres)
    sm = module_standard_monomials(pres)
    for level in (0, 1, 2):
        small = module_jet_closure(over_quotient, level)
        large = module_jet_closure(over_base, level)
        span = [_module_coordinates(v, gb, sm, fld) for v in large.kernel_basis]
        for v in small.kernel_basis:
            coords = _module_coordinates(v, gb, sm, fld)
            assert in_row_span(coords, span, len(sm), fld)


# --- closures on the fiber ideal of a + I --------------------------------

SHORTCUT_FIELDS = (Q, F2, F3)


def _shortcut_cases():
    for field in SHORTCUT_FIELDS:
        for names, mod, gens, levels in FIBER_SHORTCUT_CASES:
            R = ring(names, field)
            P = LocalAlgebraPresentation(R, ideal(R, *mod))
            yield R, P, ideal(R, *gens), levels


def test_jet_closure_matches_reference_fiber_path():
    for _, P, a, levels in _shortcut_cases():
        for level in levels:
            rep = jet_closure(P, a, level)
            kernel, closure = reference_jet_closure(P, a, level)
            assert rep.kernel_basis == kernel
            assert rep.closure_generators == closure
            assert rep.dim_closure == len(kernel)


def test_jsc_membership_matches_reference_fiber_path():
    # each membership runs Buchberger with an extra variable: 3 variables stop at level 3
    elements = ("x", "x*y", "x^2 - y^3", "x + y^2")
    for R, P, a, levels in _shortcut_cases():
        for level in levels if R.nvars == 2 else range(4):
            for text in elements:
                f = pp(text, R)
                assert jsc_membership(P, a, f, level) == reference_jsc_membership(P, a, f, level)
