import random
from fractions import Fraction

import pytest

from oracles import LEX, EliminationOrder

from jetclosure.errors import ParseError, RingMismatchError, UnknownVariableError
from jetclosure.poly import (
    FieldSpec,
    MonomialOrder,
    RingContext,
    format_polynomial,
    parse_polynomial,
)

Q = FieldSpec.rationals()
F2 = FieldSpec.prime_field(2)
F3 = FieldSpec.prime_field(3)
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
    assert order.key((1, 0)) > order.key((0, 2))


def test_compare_degrevlex_degree_dominates():
    order = MonomialOrder.degrevlex()
    assert order.key((1, 0)) < order.key((0, 2))


def test_compare_reflexive():
    # equal keys exactly for equal exponents: a total order, not a preorder
    box = [(a, b) for a in range(4) for b in range(4)]
    for order in (LEX, MonomialOrder.degrevlex(), EliminationOrder(1)):
        for u in box:
            for v in box:
                assert (order.key(u) == order.key(v)) == (u == v)


def test_elimination_block_ranks_head_variables_first():
    order = EliminationOrder(1)
    # any monomial touching the first variable beats any monomial avoiding it
    assert order.key((1, 0, 0)) > order.key((0, 5, 5))


def _random_monomial(rng, nvars, max_exp=4):
    return tuple(rng.randrange(max_exp + 1) for _ in range(nvars))


def test_orders_are_multiplicative():
    rng = random.Random(7)
    orders = [LEX, MonomialOrder.degrevlex(), EliminationOrder(2)]
    for _ in range(300):
        u, v, w = (_random_monomial(rng, 3) for _ in range(3))
        for order in orders:
            if order.key(u) < order.key(v):
                uu = tuple(a + b for a, b in zip(u, w))
                vv = tuple(a + b for a, b in zip(v, w))
                assert order.key(uu) < order.key(vv)


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
                assert order.key(one) < order.key(u)


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


# --- scalars over Q and their coercion -----------------------------------


def _canonical(x, value):
    """x equals ``value`` and is an int exactly when the value is integral;
    otherwise a Fraction with denominator greater than 1."""
    assert x == value
    if value.denominator == 1:
        assert type(x) is int
    else:
        assert type(x) is Fraction and x.denominator > 1


def test_rational_arithmetic_agrees_with_fraction_and_keeps_integers_as_ints():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    value = st.one_of(
        st.integers(-10**30, 10**30),
        st.fractions(min_value=-1000, max_value=1000, max_denominator=60),
    )

    @hypothesis.given(value, value)
    @hypothesis.settings(max_examples=400, deadline=None)
    def check(a, b):
        # ints, integral Fractions and true fractions all go in; every
        # operation gives the canonical scalar of the Fraction result
        fa, fb = Fraction(a), Fraction(b)
        _canonical(Q.add(a, b), fa + fb)
        _canonical(Q.sub(a, b), fa - fb)
        _canonical(Q.mul(a, b), fa * fb)
        ca = Q.scalar(a)
        _canonical(ca, fa)
        _canonical(Q.neg(ca), -fa)
        if fa:
            _canonical(Q.inv(a), 1 / fa)
            _canonical(Q.div(b, a), fb / fa)
        else:
            with pytest.raises(ZeroDivisionError):
                Q.inv(a)

    check()


CONSTRUCTORS = {
    "constant": lambda R, c: R.constant(c),
    "monomial": lambda R, c: R.monomial((1, 0), c),
    "scale": lambda R, c: R.variable(0).scale(c),
}


@pytest.mark.parametrize("make", CONSTRUCTORS.values(), ids=CONSTRUCTORS.keys())
def test_constructors_store_canonical_scalars(make):
    RQ, R3 = ring(["x", "y"]), ring(["x", "y"], F3)
    # over F_3, 1/2 is 2 and Fraction(3) is 0
    half = make(R3, Fraction(1, 2))
    assert half == make(R3, 2) and [type(c) for c in half.terms.values()] == [int]
    assert format_polynomial(half) == format_polynomial(make(R3, 2))
    assert make(R3, Fraction(3)).is_zero()
    assert make(R3, Fraction(-7, 4)) == make(R3, 2)  # -7 * 4^(-1) = -7 = 2 mod 3
    # over Q, Fraction(4, 2) is the int 2 and 1/2 stays a Fraction
    two = list(make(RQ, Fraction(4, 2)).terms.values())
    assert two == [2] and type(two[0]) is int
    assert [type(c) for c in make(RQ, Fraction(1, 2)).terms.values()] == [Fraction]
    assert make(RQ, True) == make(RQ, 1)
    # 1/3 has no value in F_3; a float is no exact scalar in any field
    with pytest.raises(ValueError):
        make(R3, Fraction(1, 3))
    for R in (RQ, R3):
        for bad in (2.5, 2.0, "2", None):
            with pytest.raises(ValueError):
                make(R, bad)


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


# psi_k (OEIS A014233): the least odd composite that is a strong probable
# prime to each of the first k prime bases, k = 1, ..., 12 (psi_7 = psi_8,
# psi_9 = psi_10 = psi_11), and the largest prime below each.
PSI = (2047, 1373653, 25326001, 3215031751, 2152302898747, 3474749660383,
       341550071728321, 3825123056546413051, 318665857834031151167461)
PRIME_BELOW_PSI = (2039, 1373639, 25325981, 3215031749, 2152302898729, 3474749660329,
                   341550071728289, 3825123056546412979, 318665857834031151167441)


def test_is_prime_on_each_psi_k_and_the_prime_below_it():
    """Each n is tested with the first k bases for the least k with
    n < psi_k: psi_k itself, which fools the first k, needs one base
    more, and the prime below it passes the k it gets."""
    from jetclosure.poly import _is_prime

    for n, p in zip(PSI, PRIME_BELOW_PSI):
        assert not _is_prime(n), n
        assert _is_prime(p), p
        assert FieldSpec.prime_field(p).characteristic == p
        with pytest.raises(ValueError, match="not prime"):
            FieldSpec.prime_field(n)
    assert _is_prime(3317044064679887385961813)  # the largest prime below psi_13
    with pytest.raises(ValueError, match="cannot decide"):
        _is_prime(3317044064679887385961981)  # psi_13, the bound


def test_inverse_is_exact_in_every_field():
    for fld in (F2, F3, F5, FieldSpec.prime_field(32003), FieldSpec.prime_field(2**31 - 1)):
        p = fld.characteristic
        for a in (1, 2, p - 1, p + 2, -3, 12345678901234567):
            if a % p:
                assert fld.mul(fld.inv(a), a) == 1 and 0 <= fld.inv(a) < p
        with pytest.raises(ZeroDivisionError):
            fld.inv(p)


def test_a_long_sum_parses_in_linear_time():
    """32,000 terms: each term is added into one dict as it is read.
    Adding whole polynomials, which copies the sum at every term, took
    7.5 s here on a 2-vCPU Xeon; the term parser takes under 1 s."""
    import time

    R = ring("xyz")
    text = " + ".join(f"{k % 7 + 1}*x^{k % 40}*y^{k // 40 % 40}*z^{k // 1600}" for k in range(32000))
    start = time.perf_counter()
    p = parse_polynomial(text, R)
    assert time.perf_counter() - start < 4.0
    assert len(p.terms) == 32000 and p.terms[(39, 39, 19)] == 31999 % 7 + 1
