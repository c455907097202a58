import itertools
import random

from oracles import FIBER_SHORTCUT_CASES, drop_base_point, ideal_sum, reference_fiber_ideal, reference_hs_derivations

from jetclosure.closures import LocalAlgebraPresentation, _Ladder, universal_jet_image
from jetclosure.groebner import Ideal, ideals_equal
from jetclosure.jets import JetRing, Series, fiber_ideal, hs_derivations, jet_ideal
from jetclosure.poly import FieldSpec, Polynomial, RingContext, parse_polynomial

Q = FieldSpec.rationals()
F5 = FieldSpec.prime_field(5)


def ring(names, field=Q):
    return RingContext(field, tuple(names))


def pp(text, R):
    return parse_polynomial(text, R)


def test_jet_ring_variable_layout():
    jr = JetRing(ring(["x", "y"]), 2)
    assert jr.context.variables == ("x@0", "y@0", "x@1", "y@1", "x@2", "y@2")
    assert jr.variable_index(1, 2) == 5


def test_jet_ring_prefix_coherence():
    base = ring(["x", "y"])
    big, small = JetRing(base, 3), JetRing(base, 1)
    assert big.context.variables[: small.context.nvars] == small.context.variables


def test_derivations_of_a_variable_are_jet_variables():
    R = ring(["x", "y"])
    jr = JetRing(R, 3)
    ds = hs_derivations(pp("x", R), 3)
    assert ds == [jr.variable(0, i) for i in range(4)]


def test_derivation_of_product_reads_t_squared_coefficient():
    R = ring(["x", "y"])
    ds = hs_derivations(pp("x*y", R), 2)
    J = JetRing(R, 2)
    x = lambda i: J.variable(0, i)
    y = lambda i: J.variable(1, i)
    assert ds[2] == x(0) * y(2) + x(1) * y(1) + x(2) * y(0)


def test_derivations_of_a_square():
    R = ring(["x"])
    ds = hs_derivations(pp("x^2", R), 2)
    J = JetRing(R, 2)
    x = lambda i: J.variable(0, i)
    assert ds[1] == x(0) * x(1) + x(0) * x(1)  # 2 x@0 x@1
    assert ds[2] == x(0) * x(2) + x(0) * x(2) + x(1) * x(1)


def test_jet_ideal_of_a_square_freezes_generators():
    R = ring(["x"])
    ji = jet_ideal(Ideal(R, [pp("x^2", R)]), 2)
    ctx = ji.jet_ring.context
    expected = [
        pp("x@0^2", ctx),
        pp("2*x@0*x@1", ctx),
        pp("2*x@0*x@2 + x@1^2", ctx),
    ]
    assert ji.generators == expected


def test_jet_ideal_of_zero_is_empty():
    R = ring(["x", "y"])
    assert jet_ideal(Ideal(R, []), 3).generators == []


def test_jet_ideal_level_zero_is_renaming():
    R = ring(["x", "y"])
    ji = jet_ideal(Ideal(R, [pp("x^2 - y", R)]), 0)
    assert [str(g) for g in ji.generators] == ["x@0^2 - y@0"]


def test_jet_ideal_generator_count():
    R = ring(["x", "y"])
    I = Ideal(R, [pp("x^2", R), pp("x*y - y^2", R), pp("y^3", R)])
    for level in range(4):
        assert len(jet_ideal(I, level).generators) == (level + 1) * 3


def test_fiber_ideal_square_level_one():
    R = ring(["x"])
    fi = fiber_ideal(Ideal(R, [pp("x^2", R)]), 1)
    ctx = fi.ring
    assert ideals_equal(fi, Ideal(ctx, [pp("x@0", ctx)]))


def test_fiber_ideal_of_zero_is_origin():
    R = ring(["x", "y"])
    fi = fiber_ideal(Ideal(R, []), 2)
    assert {str(g) for g in fi.generators} == {"x@0", "y@0"}


def test_fiber_ideal_square_level_two_reduces():
    R = ring(["x"])
    fi = fiber_ideal(Ideal(R, [pp("x^2", R)]), 2)
    basis = fi.groebner_basis()
    assert [str(g) for g in basis] == ["x@0", "x@1^2"]


def test_universal_jet_image_of_variable():
    R = ring(["x"])
    I = Ideal(R, [pp("x^2", R)])
    entries = universal_jet_image(pp("x", R), I, 2)
    assert [str(e) for e in entries] == ["0", "x@1", "x@2"]


def test_universal_jet_image_of_member_is_zero():
    R = ring(["x"])
    I = Ideal(R, [pp("x^2", R)])
    assert all(e.is_zero() for e in universal_jet_image(pp("x^2", R), I, 2))


def test_universal_jet_image_of_constant():
    R = ring(["x", "y"])
    I = Ideal(R, [pp("x^2", R)])
    entries = universal_jet_image(pp("1", R), I, 3)
    assert str(entries[0]) == "1"
    assert all(e.is_zero() for e in entries[1:])


# --- structural invariants --------------------------------------------


def _random_poly(rng, R, max_deg=4, terms=4):
    p = R.zero()
    for _ in range(terms):
        u = tuple(rng.randrange(max_deg + 1) for _ in range(R.nvars))
        if sum(u) <= max_deg:
            p = p + R.monomial(u, R.field_spec.of_int(rng.randrange(-4, 5)))
    return p


def test_leibniz_rule_over_both_fields():
    rng = random.Random(2024)
    for field in (Q, F5):
        R = ring(["x", "y", "z"], field)
        for _ in range(30):
            f, g = _random_poly(rng, R), _random_poly(rng, R)
            level = rng.randrange(5)
            df, dg = hs_derivations(f, level), hs_derivations(g, level)
            dfg = hs_derivations(f * g, level)
            ctx = df[0].ring
            for m in range(level + 1):
                total = ctx.zero()
                for i in range(m + 1):
                    total = total + df[i] * dg[m - i]
                assert dfg[m] == total


def test_derivations_are_linear():
    rng = random.Random(99)
    R = ring(["x", "y"])
    for _ in range(25):
        f, g = _random_poly(rng, R), _random_poly(rng, R)
        a, b = rng.randrange(-3, 4), rng.randrange(-3, 4)
        combo = f.scale(a) + g.scale(b)
        dc = hs_derivations(combo, 3)
        df, dg = hs_derivations(f, 3), hs_derivations(g, 3)
        for i in range(4):
            assert dc[i] == df[i].scale(a) + dg[i].scale(b)


def test_truncation_coherence():
    rng = random.Random(123)
    R = ring(["x", "y"])
    for _ in range(15):
        f = _random_poly(rng, R)
        big, small = hs_derivations(f, 4), hs_derivations(f, 2)
        small_ctx = small[0].ring
        for i in range(3):
            # reinterpret the level-4 entry inside the level-2 context
            moved = big[i].transport(small_ctx, range(small_ctx.nvars))
            assert moved == small[i]


def test_power_derivations_match_expansion():
    rng = random.Random(7)
    R = ring(["x", "y"])
    for _ in range(10):
        f = _random_poly(rng, R, max_deg=2, terms=3)
        k = rng.randrange(2, 4)
        direct = hs_derivations(f ** k, 3)
        expanded = hs_derivations(f ** k + R.zero(), 3)
        assert direct == expanded


def _eval_at_point(p, values, fld):
    total = fld.zero()
    for exps, c in p.terms.items():
        term = c
        for e, v in zip(exps, values):
            for _ in range(e):
                term = fld.mul(term, v)
        total = fld.add(total, term)
    return total


def test_derivations_match_numeric_series_substitution():
    # independent oracle: plug concrete scalar jets into f via univariate
    # truncated-series arithmetic and compare coefficient by coefficient
    rng = random.Random(404)
    for field in (Q, F5):
        R = ring(["x", "y"], field)
        fld = R.field_spec
        for _ in range(15):
            f = _random_poly(rng, R)
            level = rng.randrange(4)
            point = [
                [fld.of_int(rng.randrange(-3, 4)) for _ in range(level + 1)]
                for _ in range(R.nvars)
            ]

            def series_mul(a, b):
                out = [fld.zero()] * (level + 1)
                for i, ai in enumerate(a):
                    for j in range(level + 1 - i):
                        out[i + j] = fld.add(out[i + j], fld.mul(ai, b[j]))
                return out

            expected = [fld.zero()] * (level + 1)
            for exps, c in f.terms.items():
                term = [c] + [fld.zero()] * level
                for var, e in enumerate(exps):
                    for _ in range(e):
                        term = series_mul(term, point[var])
                expected = [fld.add(a, b) for a, b in zip(expected, term)]

            flat_point = [point[j][i] for i in range(level + 1) for j in range(R.nvars)]
            got = [
                _eval_at_point(d, flat_point, fld)
                for d in hs_derivations(f, level)
            ]
            assert got == expected


def test_jet_ideal_independent_of_generating_set():
    # derivations of h*g stay inside the ideal spanned by derivations of g,
    # so jets built from any generating set present the same jet ideal
    rng = random.Random(31)
    R = ring(["x", "y"])
    for _ in range(8):
        g1, g2 = _random_poly(rng, R, max_deg=2), _random_poly(rng, R, max_deg=2)
        h = _random_poly(rng, R, max_deg=2)
        I = Ideal(R, [g1, g2])
        redundant = Ideal(R, [g1, g2, g1 + h * g2, g2 * g2])
        level = 2
        A = jet_ideal(I, level).ideal()
        B = jet_ideal(redundant, level).ideal()
        assert ideals_equal(A, B)


def test_derivations_of_multiples_stay_in_jet_ideal():
    rng = random.Random(37)
    R = ring(["x", "y"])
    for _ in range(8):
        g = _random_poly(rng, R, max_deg=2)
        h = _random_poly(rng, R, max_deg=2)
        if g.is_zero():
            continue
        level = 3
        span = jet_ideal(Ideal(R, [g]), level).ideal()
        for d in hs_derivations(h * g, level):
            assert span.groebner_basis().contains(d)


def test_high_order_vanishing_into_origin_ideal():
    # every derivation of order <= level of an element of m^(level+1)
    # lands in the ideal of the @0 variables
    rng = random.Random(55)
    R = ring(["x", "y"])
    level = 3
    for _ in range(10):
        f = R.zero()
        for _ in range(3):
            u = (rng.randrange(5), rng.randrange(5))
            if sum(u) >= level + 1:
                f = f + R.monomial(u, rng.randrange(1, 4))
        if f.is_zero():
            continue
        ds = hs_derivations(f, level)
        jr = JetRing(R, level)
        origin = Ideal(jr.context, jr.origin_fiber_generators())
        for d in ds:
            assert origin.groebner_basis().contains(d)


# --- column jets along a staircase, fiber ideal of a + I ------------------

SHORTCUT_FIELDS = (Q, FieldSpec.prime_field(2), FieldSpec.prime_field(3))


def pointed_ring(R, level):
    """k[x@1, ..., x@level]: the jet ring's variables after the base point."""
    return RingContext(R.field_spec, JetRing(R, level).context.variables[R.nvars:])


def pointed_series(R, monomials, level):
    """{u: [phi(D_0 x^u), ..., phi(D_level x^u)]} in the pointed jet ring,
    walked in increasing degree on one pointed ``Series`` extended to ``level``."""
    series = Series(R.nvars, 1, R.field_spec)
    for _ in range(level):
        series.extend()
    ctx = pointed_ring(R, level)
    one = R.field_spec.one()
    return {
        u: [Polynomial(ctx, series.coefficient({u: one}, i)) for i in range(level + 1)]
        for u in sorted(monomials, key=sum)
    }


def test_pointed_jets_match_the_per_term_reference_on_a_box():
    # the boxes hold monomials of degree above the level, whose series
    # the walk returns as zeros without walking
    for field in SHORTCUT_FIELDS:
        for names, side in ((("x", "y"), 6), (("x", "y", "z"), 4)):
            R = ring(names, field)
            box = list(itertools.product(range(side), repeat=len(names)))
            for level in range(6):
                jets = pointed_series(R, box, level)
                assert sorted(jets) == sorted(box)
                for u in box:
                    full = reference_hs_derivations(R.monomial(u), level)
                    assert jets[u] == [drop_base_point(d, level) for d in full]


def test_pointed_jets_fill_in_missing_divisors():
    # both monomials have degree 5: zero at level 4, walked at 5 and 6
    R = ring(["x", "y", "z"], FieldSpec.prime_field(3))
    for level in (4, 5, 6):
        jets = pointed_series(R, [(3, 0, 2), (0, 4, 1)], level)
        assert sorted(jets) == [(0, 4, 1), (3, 0, 2)]
        for u, ds in jets.items():
            full = reference_hs_derivations(R.monomial(u), level)
            assert ds == [drop_base_point(d, level) for d in full]


def test_hs_derivations_match_the_per_term_reference():
    rng = random.Random(11)
    for field in SHORTCUT_FIELDS:
        for names in (("x",), ("x", "y"), ("x", "y", "z")):
            R = ring(names, field)
            for _ in range(40):
                f = R.zero()
                for _ in range(rng.randrange(1, 5)):
                    u = tuple(rng.randrange(4) for _ in names)
                    f = f + R.monomial(u, rng.randrange(-3, 4))
                level = rng.randrange(5)
                assert hs_derivations(f, level) == reference_hs_derivations(f, level)


def test_fiber_ideal_of_a_plus_modulus_has_the_reference_basis():
    # the m^(level+1) generators of a' only add jets inside (x@0)
    for field in SHORTCUT_FIELDS:
        for names, mod, gens, levels in FIBER_SHORTCUT_CASES:
            R = ring(names, field)
            P = LocalAlgebraPresentation(R, Ideal(R, [pp(t, R) for t in mod]))
            a = Ideal(R, [pp(t, R) for t in gens])
            for level in levels:
                new = fiber_ideal(ideal_sum(a, P.modulus), level)
                old = reference_fiber_ideal(P, a, level)
                assert len(new.generators) < len(old.generators)
                assert new.groebner_basis().elements == old.groebner_basis().elements


# --- pointed jets: the base point set to 0 ------------------------------


def test_pointed_jet_ring_variable_layout():
    R = ring(["x", "y"])
    assert pointed_ring(R, 2).variables == ("x@1", "y@1", "x@2", "y@2")
    point = pointed_ring(R, 0)
    assert point.variables == ()
    assert pointed_series(R, [(0, 0), (1, 0)], 0) == {(0, 0): [point.one()], (1, 0): [point.zero()]}


def test_pointed_jets_drop_the_base_point_from_the_reference():
    for field in SHORTCUT_FIELDS:
        for names, side in ((("x",), 8), (("x", "y"), 5), (("x", "y", "z"), 3)):
            R = ring(names, field)
            box = list(itertools.product(range(side), repeat=len(names)))
            for level in range(6):
                jets = pointed_series(R, box, level)
                assert sorted(jets) == sorted(box)
                for u in box:
                    full = reference_hs_derivations(R.monomial(u), level)
                    assert jets[u] == [drop_base_point(d, level) for d in full]


def test_pointed_derivations_and_fiber_ideal_drop_the_base_point():
    # the ladder of a proper ideal: its jets of any polynomial, constant
    # term included, and its basis of J', completed, against the reference
    rng = random.Random(17)
    for field in SHORTCUT_FIELDS:
        for names in (("x",), ("x", "y"), ("x", "y", "z")):
            R = ring(names, field)
            for _ in range(15):
                gens = [_random_poly(rng, R, max_deg=3, terms=3) for _ in range(2)]
                level = rng.randrange(6)
                proper = [Polynomial(R, {u: c for u, c in g.terms.items() if any(u)}) for g in gens]
                ladder = _Ladder(LocalAlgebraPresentation(R), Ideal(R, proper))
                ladder.climb(level)
                ctx = pointed_ring(R, level)
                expected = [[drop_base_point(d, level) for d in reference_hs_derivations(g, level)] for g in gens]
                derived = [
                    [Polynomial(ctx, ladder.series.coefficient(g.terms, i)) for i in range(level + 1)] for g in gens
                ]
                assert derived == expected
                jets = [drop_base_point(d, level) for g in proper for d in reference_hs_derivations(g, level)]
                completed = Ideal(ctx, [Polynomial(ctx, t) for t in ladder.engine.reduced()]).groebner_basis()
                assert completed.elements == Ideal(ctx, jets).groebner_basis().elements


def test_pointed_series_vanishes_above_the_level():
    for field in SHORTCUT_FIELDS:
        R = ring(["x", "y", "z"], field)
        for level in range(5):
            high = [u for u in itertools.product(range(level + 2), repeat=3) if sum(u) > level]
            for u, series in pointed_series(R, high, level).items():
                assert len(series) == level + 1
                assert all(d.is_zero() for d in series)
            low = [u for u in itertools.product(range(level + 1), repeat=3) if sum(u) <= level]
            for u, series in pointed_series(R, low, level).items():
                # x^u starts at t^(deg u): x_j@1^(u_j) is its lowest term
                assert all(d.is_zero() for d in series[: sum(u)])
                assert not series[sum(u)].is_zero()
