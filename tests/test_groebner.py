import random

import pytest

from oracles import (
    box_standard_monomials,
    brute_force_colength,
    brute_force_member,
    monomial_ideal_intersection,
    truncated_module_member,
)

from jetclosure.errors import InfiniteDimensionalError, RingMismatchError
from jetclosure.groebner import (
    DEGREVLEX,
    FreeModuleElement,
    Ideal,
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
from jetclosure.poly import FieldSpec, MonomialOrder, RingContext, parse_polynomial

Q = FieldSpec.rationals()
LEX = MonomialOrder.lex()


def ring(names, field=Q):
    return RingContext(field, tuple(names))


def ideal(R, *texts):
    return Ideal(R, [parse_polynomial(t, R) for t in texts])


def pp(text, R):
    return parse_polynomial(text, R)


# --- reduced bases ----------------------------------------------------


def test_basis_monomial_pair_is_already_reduced():
    R = ring(["x", "y"])
    G = reduced_groebner_basis(ideal(R, "x^2", "x*y"))
    assert {str(g) for g in G} == {"x^2", "x*y"}


def test_basis_lex_reduction_example():
    R = ring(["x", "y"])
    G = reduced_groebner_basis(ideal(R, "x^2 - y", "y - 1"), LEX)
    assert {str(g) for g in G} == {"x^2 - 1", "y - 1"}


def test_basis_of_zero_ideal_is_empty():
    R = ring(["x", "y"])
    assert len(reduced_groebner_basis(Ideal(R, []))) == 0


def test_basis_canonical_under_generator_permutation_and_mixing():
    rng = random.Random(17)
    R = ring(["x", "y", "z"])
    gens = [pp("x^2 - y*z", R), pp("x*y - z", R), pp("y^3 - x", R)]
    reference = [g.terms for g in reduced_groebner_basis(Ideal(R, gens))]
    for _ in range(6):
        shuffled = gens[:]
        rng.shuffle(shuffled)
        # invertible mixing: add a random multiple of another generator
        i, j = rng.sample(range(3), 2)
        mixer = R.monomial((rng.randrange(2), rng.randrange(2), 0), rng.randrange(1, 4))
        shuffled[i] = shuffled[i] + mixer * shuffled[j]
        again = [g.terms for g in reduced_groebner_basis(Ideal(R, shuffled))]
        assert again == reference


# --- normal forms -----------------------------------------------------


def test_normal_form_single_division():
    R = ring(["x", "y"])
    G = reduced_groebner_basis(ideal(R, "x^2 - y"), LEX)
    assert normal_form(pp("x^2 + y", R), G) == pp("2*y", R)


def test_normal_form_of_member_is_zero():
    R = ring(["x", "y"])
    I = ideal(R, "x^2 - y", "y^2")
    G = reduced_groebner_basis(I)
    assert normal_form(pp("x^2 - y", R) * pp("x + y", R), G).is_zero()


def test_normal_form_no_divisible_leading_term():
    R = ring(["x", "y"])
    G = reduced_groebner_basis(ideal(R, "x^2"))
    assert normal_form(pp("y", R), G) == pp("y", R)


def test_normal_form_is_linear_and_idempotent():
    rng = random.Random(23)
    R = ring(["x", "y"])
    I = ideal(R, "x^2 - y", "y^3")
    G = reduced_groebner_basis(I)

    def rand_poly():
        p = R.zero()
        for _ in range(4):
            u = (rng.randrange(4), rng.randrange(4))
            p = p + R.monomial(u, rng.randrange(-5, 6))
        return p

    for _ in range(40):
        f, g = rand_poly(), rand_poly()
        nf_f, nf_g = normal_form(f, G), normal_form(g, G)
        assert normal_form(f + g, G) == nf_f + nf_g
        assert normal_form(nf_f, G) == nf_f
        assert (normal_form(f - g, G).is_zero()) == ideal_member(f - g, I)


# --- membership -------------------------------------------------------


def test_member_multiple_of_generator():
    R = ring(["x", "y"])
    assert ideal_member(pp("x*y", R), ideal(R, "x"))


def test_member_degree_one_not_in_degree_two_ideal():
    R = ring(["x", "y"])
    assert not ideal_member(pp("x", R), ideal(R, "x^2", "x*y"))


def test_member_against_brute_force_oracle():
    # The quotient by (x^2 - y, y^2) is k[x]/(x^4): x^3 survives, x^4 dies.
    R = ring(["x", "y"])
    gens = [pp("x^2 - y", R), pp("y^2", R)]
    I = Ideal(R, gens)
    assert brute_force_member(pp("x^4", R), gens, 8)
    assert ideal_member(pp("x^4", R), I)
    assert not brute_force_member(pp("x^3", R), gens, 8)
    assert not ideal_member(pp("x^3", R), I)


def test_member_ring_mismatch():
    with pytest.raises(RingMismatchError):
        ideal_member(pp("x", ring(["x"])), ideal(ring(["x", "y"]), "x"))


# --- radical membership ----------------------------------------------


def test_radical_square_root_of_generator():
    R = ring(["x", "y"])
    assert radical_member(pp("x", R), ideal(R, "x^2"))


def test_radical_distinct_variables():
    R = ring(["x", "y"])
    assert not radical_member(pp("x", R), ideal(R, "y"))


def test_radical_sum_of_square_generators():
    R = ring(["x", "y"])
    # (x+y)^3 = x^3 + 3x^2y + 3xy^2 + y^3: every term divisible by x^2 or y^2
    assert radical_member(pp("x + y", R), ideal(R, "x^2", "y^2"))


def test_radical_consistent_with_small_powers():
    rng = random.Random(31)
    R = ring(["x", "y"])
    I = ideal(R, "x^2", "x*y^2", "y^4")
    for _ in range(25):
        f = R.zero()
        for _ in range(3):
            f = f + R.monomial((rng.randrange(3), rng.randrange(3)), rng.randrange(-3, 4))
        if any(ideal_member(f ** n, I) for n in range(1, 7)):
            assert radical_member(f, I)


# --- elimination, intersection, colon ---------------------------------


def test_eliminate_twisted_cubic():
    R = ring(["x", "y", "z"])
    E = eliminate_variables(ideal(R, "y - x^2", "z - x^3"), 1)
    assert E.ring.variables == ("y", "z")
    assert {str(g) for g in E.generators} == {"y^3 - z^2"}
    # oracle: y^3 - z^2 vanishes identically under (y, z) = (t^2, t^3)
    Rt = ring(["t"])
    t2, t3 = pp("t^2", Rt), pp("t^3", Rt)
    assert (t2 ** 3 - t3 ** 2).is_zero()


def test_eliminate_zero_variables_gives_reduced_basis():
    R = ring(["x", "y"])
    I = ideal(R, "y - x^2", "x^2")
    E = eliminate_variables(I, 0)
    assert [g.terms for g in E.generators] == [
        g.terms for g in reduced_groebner_basis(I)
    ]


def test_eliminate_everything_from_principal():
    R = ring(["x"])
    E = eliminate_variables(ideal(R, "x"), 1)
    assert E.generators == ()


def test_eliminate_rejects_too_many():
    R = ring(["x"])
    with pytest.raises(ValueError):
        eliminate_variables(ideal(R, "x"), 2)


def test_intersection_of_coordinate_ideals():
    R = ring(["x", "y"])
    got = intersect_ideals(ideal(R, "x"), ideal(R, "y"))
    assert ideals_equal(got, ideal(R, "x*y"))
    assert monomial_ideal_intersection([(1, 0)], [(0, 1)]) == [(1, 1)]


def test_intersection_idempotent_and_zero():
    R = ring(["x", "y"])
    I = ideal(R, "x^2 - y", "y^2")
    assert ideals_equal(intersect_ideals(I, I), I)
    assert intersect_ideals(I, Ideal(R, [])).generators == ()


def test_intersection_contained_in_both():
    R = ring(["x", "y"])
    I, J = ideal(R, "x^2", "y^3"), ideal(R, "x*y - y^2")
    meet = intersect_ideals(I, J)
    for g in meet.generators:
        assert ideal_member(g, I) and ideal_member(g, J)


def test_colon_univariate_degree_count():
    R = ring(["x"])
    got = colon_ideal(ideal(R, "x^3"), ideal(R, "x^2"))
    assert ideals_equal(got, ideal(R, "x"))


def test_colon_by_unit_ideal():
    R = ring(["x", "y"])
    I = ideal(R, "x^2", "y^2")
    assert ideals_equal(colon_ideal(I, ideal(R, "1")), I)


def test_colon_of_squares_by_product():
    R = ring(["x", "y"])
    got = colon_ideal(ideal(R, "x^2", "y^2"), ideal(R, "x*y"))
    assert ideals_equal(got, ideal(R, "x", "y"))
    # oracle on low degree: x*xy and y*xy land in (x^2, y^2), 1*xy does not
    gens = [pp("x^2", R), pp("y^2", R)]
    assert brute_force_member(pp("x^2*y", R), gens, 4)
    assert brute_force_member(pp("x*y^2", R), gens, 4)
    assert not brute_force_member(pp("x*y", R), gens, 4)


def test_colon_times_divisor_lands_in_ideal():
    R = ring(["x", "y"])
    I, J = ideal(R, "x^3", "x*y^2", "y^3"), ideal(R, "x*y", "y^2")
    C = colon_ideal(I, J)
    for c in C.generators:
        for j in J.generators:
            assert ideal_member(c * j, I)


# --- standard monomials -----------------------------------------------


def test_standard_monomials_square_corner():
    R = ring(["x", "y"])
    sm = standard_monomial_basis(ideal(R, "x^2", "x*y", "y^2"))
    assert sm.monomials == [(0, 0), (0, 1), (1, 0)]
    assert sm.colength == 3


def test_standard_monomials_two_squares():
    R = ring(["x", "y"])
    sm = standard_monomial_basis(ideal(R, "x^2", "y^2"))
    assert sm.colength == 4
    assert set(sm.monomials) == {(0, 0), (1, 0), (0, 1), (1, 1)}


def test_standard_monomials_infinite_dimensional():
    R = ring(["x", "y"])
    with pytest.raises(InfiniteDimensionalError):
        standard_monomial_basis(ideal(R, "x"))


def test_colength_matches_brute_force_on_small_instances():
    R = ring(["x", "y"])
    for gens in (["x^2", "y^2"], ["x^2 - y", "y^2"], ["x^3", "x*y", "y^2"], ["x*y", "x^2 - y^2"]):
        polys = [pp(t, R) for t in gens]
        sm = standard_monomial_basis(Ideal(R, polys))
        assert sm.colength == brute_force_colength(polys, R, 6)


def test_unit_ideal_has_no_standard_monomials():
    R = ring(["x"])
    sm = standard_monomial_basis(ideal(R, "1 - x", "x"))
    assert sm.colength == 0 and sm.monomials == []


def test_standard_monomial_basis_matches_box_scan_of_leading_terms():
    rng = random.Random(71)
    for field in (Q, FieldSpec.prime_field(3)):
        for names in (["x"], ["x", "y"], ["x", "y", "z"]):
            R = ring(names, field)
            for _ in range(8):
                I = _random_primary_ideal(rng, R, max_exp=4)
                lts = I.groebner_basis().leading_exponents()
                sm = standard_monomial_basis(I)
                expected = box_standard_monomials(lts, R.nvars)
                assert sm.monomials == sorted(expected, key=DEGREVLEX.key)
                assert sm.colength == len(expected)


def test_module_standard_monomials_match_box_scan_of_leading_terms():
    rng = random.Random(73)
    for field in (Q, FieldSpec.prime_field(3)):
        R = ring(["x", "y"], field)

        def rand_poly():
            p = R.zero()
            for _ in range(rng.randrange(1, 3)):
                u = (rng.randrange(3), rng.randrange(3))
                p = p + R.monomial(u, rng.randrange(-3, 4))
            return p

        for rank in (1, 2, 3):
            for _ in range(6):
                gens = []
                for c in range(rank):
                    for u in ((rng.randrange(1, 5), 0), (0, rng.randrange(1, 5))):
                        comps = [R.zero()] * rank
                        comps[c] = R.monomial(u)
                        gens.append(FreeModuleElement(R, comps))
                gens += [
                    FreeModuleElement(R, [rand_poly() for _ in range(rank)])
                    for _ in range(rng.randrange(3))
                ]
                S = SubmodulePresentation(R, rank, gens)
                lts = submodule_groebner_basis(S).leading_positions()
                expected = []
                for c in range(rank):
                    comp_lts = [u for d, u in lts if d == c]
                    if (0, 0) not in comp_lts:
                        expected += [(c, u) for u in box_standard_monomials(comp_lts, 2)]
                expected.sort(key=lambda cu: (cu[0], DEGREVLEX.key(cu[1])))
                assert module_standard_monomials(S) == expected


def test_standard_monomial_walk_keeps_infinite_dimension_message():
    message = "no pure power of 'y' among the leading terms; the quotient is infinite-dimensional"
    R = ring(["x", "y"])
    with pytest.raises(InfiniteDimensionalError) as caught:
        standard_monomial_basis(ideal(R, "x^2", "x*y^3"))
    assert str(caught.value) == message
    rels = [
        FreeModuleElement(R, [pp("x", R), R.zero()]),
        FreeModuleElement(R, [pp("y", R), R.zero()]),
        FreeModuleElement(R, [R.zero(), pp("x^2", R)]),
    ]
    with pytest.raises(InfiniteDimensionalError) as caught:
        module_standard_monomials(SubmodulePresentation(R, 2, rels))
    assert str(caught.value) == message


# --- submodules --------------------------------------------------------


def test_submodule_membership_multiples():
    R = ring(["x", "y"])
    gen = FreeModuleElement(R, [pp("x", R), pp("y", R)])
    S = SubmodulePresentation(R, 2, [gen])
    gb = submodule_groebner_basis(S)
    assert gb.contains(FreeModuleElement(R, [pp("x^2", R), pp("x*y", R)]))
    assert not gb.contains(FreeModuleElement(R, [pp("y", R), pp("x", R)]))


def test_submodule_rank_one_matches_ideal_membership():
    R = ring(["x", "y"])
    S = SubmodulePresentation(R, 1, [FreeModuleElement(R, [pp("x", R)])])
    gb = submodule_groebner_basis(S)
    assert gb.contains(FreeModuleElement(R, [pp("x^2", R)]))
    assert not gb.contains(FreeModuleElement(R, [pp("y", R)]))


def test_submodule_normal_form_linear():
    rng = random.Random(41)
    R = ring(["x", "y"])
    gens = [
        FreeModuleElement(R, [pp("x", R), pp("y", R)]),
        FreeModuleElement(R, [pp("y^2", R), R.zero()]),
    ]
    gb = submodule_groebner_basis(SubmodulePresentation(R, 2, gens))

    def rand_vec():
        return FreeModuleElement(
            R,
            [
                R.monomial((rng.randrange(3), rng.randrange(3)), rng.randrange(-3, 4))
                for _ in range(2)
            ],
        )

    for _ in range(25):
        v, w = rand_vec(), rand_vec()
        assert gb.normal_form(v + w) == gb.normal_form(v) + gb.normal_form(w)


def test_submodule_membership_matches_truncated_oracle():
    # N = (random vectors) + m^3 * free module; membership is decided
    # without Groebner code by linear algebra modulo m^3
    rng = random.Random(43)
    degree = 3
    seen = set()
    for field in (Q, FieldSpec.prime_field(3)):
        R = ring(["x", "y"], field)

        def rand_poly(max_deg):
            p = R.zero()
            for _ in range(rng.randrange(1, 4)):
                u = (rng.randrange(max_deg + 1), rng.randrange(max_deg + 1))
                p = p + R.monomial(u, rng.randrange(-3, 4))
            return p

        for rank in (2, 3):
            for _ in range(8):
                gens = [
                    FreeModuleElement(R, [rand_poly(2) for _ in range(rank)])
                    for _ in range(rng.randrange(1, 4))
                ]
                powers = []
                for c in range(rank):
                    for e in range(degree + 1):
                        comps = [R.zero()] * rank
                        comps[c] = R.monomial((e, degree - e))
                        powers.append(FreeModuleElement(R, comps))
                gb = submodule_groebner_basis(SubmodulePresentation(R, rank, gens + powers))
                for _ in range(10):
                    v = FreeModuleElement(R, [rand_poly(3) for _ in range(rank)])
                    if rng.randrange(2):
                        v = FreeModuleElement(R, [R.zero()] * rank)
                        for g in gens:
                            v = v + g.scale(rand_poly(2))
                        v = v + powers[rng.randrange(len(powers))].scale(rand_poly(1))
                    expected = truncated_module_member(v, gens, degree)
                    seen.add(expected)
                    assert gb.contains(v) == expected
                    assert gb.normal_form(v).is_zero() == expected
    assert seen == {True, False}


def test_submodule_rank_mismatch():
    R = ring(["x"])
    with pytest.raises(RingMismatchError):
        SubmodulePresentation(R, 2, [FreeModuleElement(R, [pp("x", R)])])


def test_module_standard_monomials_per_component():
    R = ring(["x"])
    rels = [
        FreeModuleElement(R, [pp("x^2", R), R.zero()]),
        FreeModuleElement(R, [R.zero(), pp("x", R)]),
    ]
    sm = module_standard_monomials(SubmodulePresentation(R, 2, rels))
    assert sm == [(0, (0,)), (0, (1,)), (1, (0,))]


def _random_primary_ideal(rng, R, max_exp=3):
    """A random m-primary ideal: pure powers of every variable plus noise."""
    gens = [R.variable(j) ** rng.randrange(1, max_exp + 1) for j in range(R.nvars)]
    for _ in range(rng.randrange(3)):
        p = R.zero()
        for _ in range(2):
            u = tuple(rng.randrange(max_exp) for _ in range(R.nvars))
            if sum(u):
                p = p + R.monomial(u, R.field_spec.of_int(rng.randrange(-3, 4)))
        if not p.is_zero():
            gens.append(p)
    return Ideal(R, gens)


def test_intersection_dimension_inclusion_exclusion():
    # dim S/(I meet J) = dim S/I + dim S/J - dim S/(I + J), exactly
    rng = random.Random(61)
    for field in (Q, FieldSpec.prime_field(5)):
        R = ring(["x", "y"], field)
        for _ in range(10):
            I = _random_primary_ideal(rng, R)
            J = _random_primary_ideal(rng, R)
            meet = intersect_ideals(I, J)
            total = Ideal(R, I.generators + J.generators)
            lhs = standard_monomial_basis(meet).colength
            rhs = (
                standard_monomial_basis(I).colength
                + standard_monomial_basis(J).colength
                - standard_monomial_basis(total).colength
            )
            assert lhs == rhs


def test_colon_dimension_from_multiplication_sequence():
    # multiplication by g gives dim S/(I : g) = dim S/I - dim S/(I + (g))
    rng = random.Random(67)
    R = ring(["x", "y"])
    for _ in range(10):
        I = _random_primary_ideal(rng, R)
        g = R.zero()
        while g.is_zero():
            u = (rng.randrange(3), rng.randrange(3))
            g = R.monomial(u, rng.randrange(-2, 3)) + R.monomial(
                (rng.randrange(3), rng.randrange(3)), rng.randrange(-2, 3)
            )
        quot = colon_ideal(I, Ideal(R, [g]))
        lhs = standard_monomial_basis(quot).colength
        rhs = (
            standard_monomial_basis(I).colength
            - standard_monomial_basis(Ideal(R, I.generators + (g,))).colength
        )
        assert lhs == rhs


def _monomial_radical_oracle(u, gens):
    # x^u lies in the radical of a monomial ideal iff the support of u
    # contains the support of some generator
    support = {i for i, e in enumerate(u) if e}
    return any(all(i in support for i, e in enumerate(g) if e) for g in gens)


def test_radical_membership_matches_monomial_oracle():
    rng = random.Random(71)
    R = ring(["x", "y", "z"])
    for _ in range(15):
        gen_exps = []
        for _ in range(rng.randrange(1, 4)):
            u = tuple(rng.randrange(3) for _ in range(3))
            if sum(u):
                gen_exps.append(u)
        if not gen_exps:
            continue
        I = Ideal(R, [R.monomial(u) for u in gen_exps])
        for _ in range(6):
            u = tuple(rng.randrange(3) for _ in range(3))
            if not sum(u):
                continue
            assert radical_member(R.monomial(u), I) == _monomial_radical_oracle(u, gen_exps)


def test_rank_one_normal_forms_match_ideal_normal_forms():
    rng = random.Random(73)
    R = ring(["x", "y"])
    gens = [pp("x^2 - y", R), pp("y^3", R)]
    I = Ideal(R, gens)
    G = reduced_groebner_basis(I)
    S = SubmodulePresentation(R, 1, [FreeModuleElement(R, [g]) for g in gens])
    gb = submodule_groebner_basis(S)
    for _ in range(20):
        f = R.zero()
        for _ in range(4):
            f = f + R.monomial((rng.randrange(4), rng.randrange(4)), rng.randrange(-3, 4))
        assert gb.normal_form(FreeModuleElement(R, [f])).components[0] == normal_form(f, G)


def test_basis_cache_is_shared_across_threads():
    import threading

    R = ring(["x", "y", "z"])
    I = ideal(R, "x^2 - y*z", "x*y - z", "y^3 - x")
    results = [None] * 8

    def fetch(slot):
        results[slot] = reduced_groebner_basis(I)

    threads = [threading.Thread(target=fetch, args=(k,)) for k in range(8)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert all(r is results[0] for r in results)


def test_inexact_division_is_an_internal_error():
    from jetclosure.errors import InternalError
    from jetclosure.groebner import _exact_quotient

    R = RingContext(FieldSpec.rationals(), ("x", "y"))
    x2y = parse_polynomial("x^2*y + x", R)
    assert _exact_quotient(x2y, parse_polynomial("x", R)) == parse_polynomial("x*y + 1", R)
    with pytest.raises(InternalError, match="not exact"):
        _exact_quotient(x2y, parse_polynomial("y", R))
