import itertools
import random
from fractions import Fraction

import pytest

from oracles import (
    power_test_closure,
    reference_feasible,
    reference_integral_closure,
    reference_newton_membership,
)

from jetclosure.newton import (
    MonomialIdealData,
    _phase_one,
    monomial_integral_closure,
    newton_membership,
)


def _dot(a, b):
    return sum(x * y for x, y in zip(a, b))


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


def test_non_integer_exponents_are_rejected_not_truncated():
    for gens in ([(1.7, 0), (0, 2)], [(2.0, 0), (0, 2)], [(Fraction(1, 2), 1)]):
        with pytest.raises(ValueError):
            MonomialIdealData(gens)
    M = MonomialIdealData([(2, 0), (0, 2)])
    for u in ((0.9, 1.9), (1, 1.0)):
        with pytest.raises(ValueError):
            newton_membership(u, M)
    assert M._cuts == []


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


def test_segment_shortcut_leaves_only_non_members_to_the_lp(monkeypatch):
    """Random 3- to 5-generator ideals: answers equal the fresh-LP
    reference at every point of the box, and in two variables (two or
    more generators) every LP that still runs is asked about a
    non-member."""
    asked = []

    def counted(columns, rhs):
        asked.append(tuple(rhs[:-1]))
        return _phase_one(columns, rhs)

    monkeypatch.setattr("jetclosure.newton._phase_one", counted)
    rng = random.Random(89)
    solved = {2: 0, 3: 0}
    for _ in range(20):
        for n, top in ((2, 6), (3, 3)):
            gens = [tuple(rng.randrange(top + 1) for _ in range(n)) for _ in range(rng.randint(3, 5))]
            M = MonomialIdealData(gens)
            asked.clear()
            for u in itertools.product(range(top + 2), repeat=n):
                assert newton_membership(u, M) == reference_newton_membership(u, M)
            solved[n] += len(asked)
            if n == 2 and len(M.exponents) >= 2:
                assert not any(reference_newton_membership(u, M) for u in asked)
    assert solved[2] > 0 and solved[3] > 0  # the LP still runs: on non-members, and in 3 variables


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


def test_phase_one_matches_fraction_simplex_and_certifies():
    rng = random.Random(83)
    infeasible = 0
    for _ in range(1500):
        m, n = rng.randint(1, 4), rng.randint(1, 5)
        columns = [[rng.randint(-3, 3) for _ in range(m)] for _ in range(n)]
        rhs = [rng.randint(0, 4) for _ in range(m)]
        z = _phase_one(columns, rhs)
        assert (z is None) == reference_feasible(columns, rhs)
        if z is not None:
            infeasible += 1
            # Farkas: z certifies that no lam >= 0 solves columns * lam = rhs
            assert all(_dot(z, col) >= 0 for col in columns)
            assert _dot(z, rhs) < 0
    assert 300 < infeasible < 1200


def test_negative_points_are_not_members_and_leave_no_cut():
    M = MonomialIdealData([(2, 0), (0, 2)])
    for u in ((-1, 5), (5, -1), (-3, -3)):
        assert not newton_membership(u, M)
        assert not reference_newton_membership(u, M)
    assert M._cuts == []


def test_cut_is_cached_and_separates_later_points():
    M = MonomialIdealData([(2, 0), (0, 2)])
    assert not newton_membership((1, 0), M)
    [(w, c)] = M._cuts
    assert all(x >= 0 for x in w)
    assert all(_dot(w, e) >= c for e in M.exponents)
    assert _dot(w, (1, 0)) < c
    # (0, 1) lies below the same face x + y = 2: answered by the cut
    assert not newton_membership((0, 1), M)
    assert len(M._cuts) == 1
    assert newton_membership((1, 1), M)
