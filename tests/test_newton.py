from fractions import Fraction

import pytest

from oracles import power_test_closure, reference_integral_closure

from jetclosure.newton import (
    MonomialIdealData,
    monomial_integral_closure,
    newton_membership,
)


def test_midpoint_of_two_generators():
    M = MonomialIdealData([(2, 0), (0, 2)])
    # oracle: (1,1) = (1/2)(2,0) + (1/2)(0,2) exactly
    lam = Fraction(1, 2)
    combo = tuple(lam * a + lam * b for a, b in zip((2, 0), (0, 2)))
    assert combo == (1, 1)
    assert newton_membership((1, 1), M)


def test_point_below_the_degree_line():
    M = MonomialIdealData([(2, 0), (0, 2)])
    # oracle: any convex combination has coordinate sum exactly 2 > 1
    assert not newton_membership((1, 0), M)


def test_generators_belong():
    M = MonomialIdealData([(3, 1), (1, 4)])
    for u in M.exponents:
        assert newton_membership(u, M)


def test_orthant_translates_belong():
    M = MonomialIdealData([(2, 0), (0, 2)])
    assert newton_membership((2, 5), M)
    assert newton_membership((1, 2), M)


def test_dimension_mismatch():
    with pytest.raises(ValueError):
        newton_membership((1, 1, 1), MonomialIdealData([(2, 0), (0, 2)]))


def test_closure_of_two_squares():
    got = monomial_integral_closure(MonomialIdealData([(2, 0), (0, 2)]))
    assert got.exponents == ((0, 2), (1, 1), (2, 0))


def test_closure_of_two_cubes():
    got = monomial_integral_closure(MonomialIdealData([(3, 0), (0, 3)]))
    assert got.exponents == ((0, 3), (1, 2), (2, 1), (3, 0))


def test_principal_ideal_is_closed():
    M = MonomialIdealData([(3, 2)])
    assert monomial_integral_closure(M) == M


def test_generating_set_is_reduced():
    M = MonomialIdealData([(2, 0), (0, 2), (3, 1), (2, 2)])
    assert M.exponents == ((0, 2), (2, 0))


def test_closure_contains_ideal_and_is_idempotent():
    for gens in ([(2, 0), (0, 2)], [(3, 0), (1, 1), (0, 4)], [(2, 1, 0), (0, 0, 2)]):
        M = MonomialIdealData(gens)
        closed = monomial_integral_closure(M)
        for u in M.exponents:
            assert newton_membership(u, closed)
        assert monomial_integral_closure(closed) == closed


def test_closure_matches_power_test_oracle():
    for gens in ([(2, 0), (0, 2)], [(3, 0), (0, 3)], [(4, 0), (1, 2), (0, 4)]):
        got = monomial_integral_closure(MonomialIdealData(gens))
        assert sorted(got.exponents) == sorted(power_test_closure(gens, max_power=6))


def _segment_oracle(u, e1, e2):
    """Exact membership for a 2-generator polyhedron: intersect the
    per-coordinate constraints lam*e1 + (1-lam)*e2 <= u over lam in [0,1]."""
    low, high = Fraction(0), Fraction(1)
    for a, b, bound in zip(e1, e2, u):
        coef, rhs = a - b, bound - b
        if coef > 0:
            high = min(high, Fraction(rhs, coef))
        elif coef < 0:
            low = max(low, Fraction(rhs, coef))
        elif rhs < 0:
            return False
    return low <= high


def test_membership_matches_segment_oracle():
    import random

    rng = random.Random(77)
    for _ in range(200):
        e1 = (rng.randrange(5), rng.randrange(5))
        e2 = (rng.randrange(5), rng.randrange(5))
        u = (rng.randrange(6), rng.randrange(6))
        if e1 == e2:
            continue
        M = MonomialIdealData([e1, e2])
        if len(M.exponents) < 2:
            # one generator dominated the other: plain divisibility
            gen = M.exponents[0]
            assert newton_membership(u, M) == all(a >= b for a, b in zip(u, gen))
            continue
        assert newton_membership(u, M) == _segment_oracle(u, e1, e2)


def test_random_closures_match_power_test():
    import random

    rng = random.Random(79)
    for _ in range(12):
        gens = set()
        for _ in range(rng.randrange(2, 5)):
            u = (rng.randrange(5), rng.randrange(5))
            if sum(u):
                gens.add(u)
        if not gens:
            continue
        got = monomial_integral_closure(MonomialIdealData(sorted(gens)))
        assert sorted(got.exponents) == sorted(power_test_closure(sorted(gens), max_power=8))


def test_closure_walk_matches_full_box_scan_on_edge_cases():
    # random ideals are checked in test_shortcut_properties.py
    fixed = (
        [(0, 0)],  # unit ideal
        [(0, 0, 0), (1, 2, 0)],
        [(1, 1)],  # not m-primary
        [(2, 0), (1, 1)],
        [(2, 1, 0), (0, 0, 2)],
        [(3, 2)],
        [(5,)],
        [(1, 0, 2, 1)],
        [(4, 0), (1, 2), (0, 4)],
    )
    for gens in fixed:
        M = MonomialIdealData(gens)
        assert monomial_integral_closure(M) == reference_integral_closure(M)
