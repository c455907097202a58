import random

import pytest

from oracles import LEX, EliminationOrder

from jetclosure.errors import ParseError, RingMismatchError, UnknownVariableError
from jetclosure.poly import (
    FieldSpec,
    MonomialOrder,
    RingContext,
    compare_monomials,
    format_polynomial,
    parse_polynomial,
)

Q = FieldSpec.rationals()
F2 = FieldSpec.prime_field(2)
F5 = FieldSpec.prime_field(5)


def ring(names, field=Q):
    return RingContext(field, tuple(names))


def test_field_spec_rejects_nonprime():
    with pytest.raises(ValueError):
        FieldSpec.prime_field(4)
    with pytest.raises(ValueError):
        FieldSpec.prime_field(1)


def test_prime_field_zero_is_not_the_rationals():
    with pytest.raises(ValueError):
        FieldSpec.prime_field(0)
    assert FieldSpec(0) == FieldSpec.rationals()
    assert FieldSpec(0).label == "Q"


def test_parse_basic():
    R = ring(["x", "y"])
    p = parse_polynomial("x^2 - y", R)
    assert p.terms == {(2, 0): 1, (0, 1): -1}


def test_parse_zero():
    R = ring(["x", "y"])
    assert parse_polynomial("0", R).terms == {}


def test_parse_collects_like_terms():
    R = ring(["x", "y"])
    p = parse_polynomial("2*x*y + x*y", R)
    assert p.terms == {(1, 1): 3}


def test_parse_errors_carry_position():
    R = ring(["x", "y"])
    with pytest.raises(UnknownVariableError) as err:
        parse_polynomial("x + z^2", R)
    assert err.value.name == "z"
    with pytest.raises(ParseError):
        parse_polynomial("x + ", R)
    with pytest.raises(ParseError):
        parse_polynomial("x ^ y", R)


def test_multiply_binomials():
    R = ring(["x", "y"])
    f = parse_polynomial("x + y", R)
    g = parse_polynomial("x - y", R)
    assert f * g == parse_polynomial("x^2 - y^2", R)


def test_multiply_by_zero():
    R = ring(["x", "y"])
    f = parse_polynomial("x + y", R)
    assert (f * R.zero()).is_zero()


def test_frobenius_in_characteristic_two():
    R = ring(["x", "y"], F2)
    f = parse_polynomial("x + y", R)
    assert f * f == parse_polynomial("x^2 + y^2", R)


def test_ring_mismatch_raises():
    a = parse_polynomial("x", ring(["x"]))
    b = parse_polynomial("x", ring(["x", "y"]))
    with pytest.raises(RingMismatchError):
        a * b


def test_compare_lex_ignores_degree():
    order = LEX
    assert compare_monomials(order, (1, 0), (0, 2)) == 1


def test_compare_degrevlex_degree_dominates():
    order = MonomialOrder.degrevlex()
    assert compare_monomials(order, (1, 0), (0, 2)) == -1


def test_compare_reflexive():
    for order in (LEX, MonomialOrder.degrevlex(), EliminationOrder(1)):
        assert compare_monomials(order, (2, 1), (2, 1)) == 0


def test_compare_length_mismatch():
    with pytest.raises(ValueError):
        compare_monomials(LEX, (1,), (1, 0))


def test_elimination_block_ranks_head_variables_first():
    order = EliminationOrder(1)
    # any monomial touching the first variable beats any monomial avoiding it
    assert compare_monomials(order, (1, 0, 0), (0, 5, 5)) == 1


def _random_monomial(rng, nvars, max_exp=4):
    return tuple(rng.randrange(max_exp + 1) for _ in range(nvars))


def test_orders_are_multiplicative():
    rng = random.Random(7)
    orders = [LEX, MonomialOrder.degrevlex(), EliminationOrder(2)]
    for _ in range(300):
        u, v, w = (_random_monomial(rng, 3) for _ in range(3))
        for order in orders:
            if compare_monomials(order, u, v) == -1:
                uu = tuple(a + b for a, b in zip(u, w))
                vv = tuple(a + b for a, b in zip(v, w))
                assert compare_monomials(order, uu, vv) == -1


def test_degrevlex_key_is_degree_then_negated_reversed_exponents():
    rng = random.Random(5)
    order = MonomialOrder.degrevlex()
    for n in range(5):
        for _ in range(60):
            u = _random_monomial(rng, n)
            assert order.key(u) == (sum(u), tuple(-e for e in reversed(u)))


def test_unit_monomial_is_minimal():
    rng = random.Random(11)
    one = (0, 0, 0)
    for order in (LEX, MonomialOrder.degrevlex(), EliminationOrder(1)):
        for _ in range(100):
            u = _random_monomial(rng, 3)
            if u != one:
                assert compare_monomials(order, one, u) == -1


def _random_poly(rng, R, max_deg=3, max_terms=5):
    fld = R.field_spec
    p = R.zero()
    for _ in range(rng.randrange(max_terms + 1)):
        u = tuple(rng.randrange(max_deg + 1) for _ in range(R.nvars))
        if sum(u) > max_deg:
            continue
        c = rng.randrange(-6, 7)
        p = p + R.monomial(u, fld.of_int(c)) if c else p
    return p


def test_canonical_form_add_sub_roundtrip():
    rng = random.Random(3)
    R = ring(["x", "y", "z"])
    for _ in range(100):
        f, g = _random_poly(rng, R), _random_poly(rng, R)
        assert (f + g) - g == f


def test_multiplication_commutative_associative():
    rng = random.Random(5)
    for field in (Q, F5):
        R = ring(["x", "y"], field)
        for _ in range(50):
            f, g, h = (_random_poly(rng, R) for _ in range(3))
            assert f * g == g * f
            assert (f * g) * h == f * (g * h)


def test_prime_field_matches_integer_arithmetic_mod_p():
    rng = random.Random(9)
    RQ = ring(["x", "y"])
    R5 = ring(["x", "y"], F5)

    def project(p):
        out = R5.zero()
        for u, c in p.terms.items():
            assert c.denominator == 1
            out = out + R5.monomial(u, int(c.numerator) % 5)
        return out

    for _ in range(60):
        f, g = _random_poly(rng, RQ), _random_poly(rng, RQ)
        assert project(f * g) == project(f) * project(g)
        assert project(f + g) == project(f) + project(g)


def test_print_parse_print_is_stable():
    R = ring(["x", "y"])
    for text in ["x^2 - y", "3*x*y + 2", "x*y^3 - 4*x + 1", "0", "x^2 + x*y + y^2"]:
        p = parse_polynomial(text, R)
        s = format_polynomial(p)
        assert format_polynomial(parse_polynomial(s, R)) == s


def test_print_leading_negative_uses_zero_prefix():
    R = ring(["x", "y"])
    p = R.zero() - parse_polynomial("x", R) + parse_polynomial("1", R)
    s = format_polynomial(p)
    assert s == "0 - x + 1"
    assert parse_polynomial(s, R) == p


def test_print_clears_denominators():
    from fractions import Fraction

    R = ring(["x", "y"])
    p = R.monomial((2, 0)) + R.monomial((0, 1), Fraction(-1, 2))
    assert format_polynomial(p) == "2*x^2 - y"


def test_print_terms_in_decreasing_degrevlex():
    R = ring(["x", "y"])
    p = parse_polynomial("1 + y + x + y^2", R)
    assert format_polynomial(p) == "y^2 + x + y + 1"


def test_power_matches_repeated_product():
    R = ring(["x", "y"])
    f = parse_polynomial("x + y + 1", R)
    assert f ** 3 == f * f * f
    assert f ** 0 == R.one()


def test_grammar_edge_cases():
    R = ring(["x", "y"])
    # leading coefficient with optional star, parenthesized factors, x^0
    assert parse_polynomial("2x", R) == parse_polynomial("2*x", R)
    assert parse_polynomial("2*3", R) == R.constant(6)
    assert parse_polynomial("x*2*y", R) == parse_polynomial("2*x*y", R)
    assert parse_polynomial("(x + y)*(x - y)", R) == parse_polynomial("x^2 - y^2", R)
    assert parse_polynomial("x^0", R) == R.one()
    assert parse_polynomial("x # trailing comment", R) == R.variable(0)


def test_parsed_pure_power_is_one_term():
    # x_j^e is read as one monomial, not by square-and-multiply
    for field in (Q, F2, F5):
        R = ring(["x", "y", "z"], field)
        for j, name in enumerate(R.variables):
            for e in (0, 1, 2, 5, 13):
                assert parse_polynomial(f"{name}^{e}", R) == R.variable(j) ** e
        assert parse_polynomial("3*y^4*x^2*y", R) == R.constant(3) * R.variable(0) ** 2 * R.variable(1) ** 5
        assert parse_polynomial("x^99999999", R).terms == {(99999999, 0, 0): field.one()}


# --- primality of the characteristic ------------------------------------


def _trial_division_is_prime(n):
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


def test_is_prime_matches_trial_division_below_1e5():
    from jetclosure.poly import _is_prime

    assert [n for n in range(10**5) if _is_prime(n)] == [
        n for n in range(10**5) if _trial_division_is_prime(n)
    ]


def test_is_prime_rejects_carmichael_numbers_and_strong_pseudoprimes():
    from jetclosure.poly import _is_prime

    carmichael = [561, 1105, 1729, 2465, 2821, 6601, 8911, 41041, 825265, 321197185, 5394826801]
    for n in carmichael:
        assert not _is_prime(n)
    # strong probable primes to every prime base up to 23, and up to 37
    assert not _is_prime(3825123056546413051)
    psi12 = 318665857834031151167461
    assert psi12 == 399165290221 * 798330580441
    assert not _is_prime(psi12)


def test_is_prime_on_mersenne_numbers():
    from jetclosure.poly import _is_prime

    assert _is_prime(2**61 - 1)
    assert not _is_prime(2**67 - 1)  # 193707721 * 761838257287
    assert FieldSpec.prime_field(2**61 - 1).characteristic == 2**61 - 1
    # above the proven bound of the fixed bases: no "probably prime" answer
    with pytest.raises(ValueError, match="cannot decide"):
        _is_prime(2**89 - 1)
    with pytest.raises(ValueError, match="cannot decide"):
        FieldSpec.prime_field(2**89 - 1)
    with pytest.raises(ValueError, match="cannot decide"):
        _is_prime(3317044064679887385961981)  # the bound itself, a composite
