"""Property tests, derandomized: each shortcut path agrees with its
reference path in ``oracles``, and reduced Groebner bases are canonical.

* jet closures on the fiber ideal of a + I against the fiber ideal of
  a + I + m^(level+1);
* jet closures in the pointed jet ring, without the base point, against
  the full jet ring, in one or two variables at levels 0 to 5;
* the order-ideal walk against a scan of its box, asking each point
  at most once, its corners the minimal outside points;
* the one-pass minimal exponents against an all-pairs minimal set;
* the staircase walk of standard monomials against the box scan;
* the two-pass degrevlex sort against the sort on ``MonomialOrder.key``,
  and the orders of standard monomials, ideal and module, against it;
* printed terms against a sort of each term's factors;
* the walk of integral closure against one LP at every box point;
* Newton membership with integer pivots and cached cuts against a
  fresh ``Fraction`` LP per point, and every cached cut valid;
* reduced bases of permuted and rescaled generators, and of generator
  lists shuffled, reversed or repeated with zeros mixed in, ideal and
  module terms alike;
* colon ideals from one submodule basis against intersections with
  principal ideals;
* each jet closure contains a' and the cumulative chain descends;
* a' read off its truncated echelon against Buchberger on its
  generators, in 0 to 3 variables at levels 0 to 6;
* the pruned Macaulay rows of a' against every truncated row, in 1 to 3
  variables at levels 0 to 8, and the shared column table against a
  sort of every monomial of bounded degree;
* the closed form of the jets D_i(x^u), full and pointed, against the
  series multiplied out term by term, in 1 to 3 variables at levels 0
  to 6, and D_1 to D_3 of a huge power against its falling factorials;
* one level ladder climbed through every level against fresh closures,
  the running-intersection chain and normal forms modulo the untruncated
  fiber ideal;
* certificates, one count on the ladder's a' echelons, against their
  definition in the local ring at the origin by colon ideals, units and
  zeros away from the origin included, with no basis on S and each a'
  echelon built once;
* the socle read off the table of monomial normal forms against a
  normal form per product and a dense kernel;
* the Matlis embedding and the walkthrough, read off echelons, against
  the colon, witness and stage bases of Buchberger on S, and a
  walkthrough running Buchberger on S for its input modulus only;
* the module standard basis, one echelon of normal forms, against the
  module Buchberger, units and zeros away from the origin included;
* the module closure kernel, one weight-0 echelon over the truncated
  basis of J', against a module Buchberger in the full jet ring, at
  levels 1 to 3;
* print -> parse -> print is a fixed point;
* the term parser against the factor-by-factor parser, term dicts and
  errors alike, over Q, F_2, F_3, F_32003 and F_(2^31 - 1);
* the leading terms that the read-off bases hand over (closures,
  chains, certificates, Matlis colons, walkthrough stages) against a
  search with ``MonomialOrder.key``.
"""

import itertools
from collections import Counter
from fractions import Fraction
from operator import ge, mul

import pytest

pytest.importorskip("hypothesis")

from hypothesis import example, given, settings, strategies as st
from oracles import (
    LEX,
    _primary_replacement,
    block_key,
    box_standard_monomials,
    drop_base_point,
    ideal_sum,
    reference_closure_chain,
    reference_colon_ideal,
    reference_fiber_ideal,
    reference_gorenstein_walkthrough,
    reference_hs_derivations,
    reference_integral_closure,
    reference_jet_closure,
    reference_local_certificate,
    reference_matlis_embedding,
    reference_module_jet_closure,
    reference_module_standard_basis,
    reference_format_polynomial,
    reference_newton_membership,
    reference_parse_polynomial,
    reference_socle_and_gorenstein,
)

from jetclosure import closures, newton
from jetclosure.closures import (
    LocalAlgebraPresentation,
    ModulePresentation,
    certify_arc_closed,
    cumulative_closure_chain,
    gorenstein_walkthrough,
    jet_closure,
    matlis_embedding,
    module_jet_closure,
    socle_and_gorenstein,
)
from jetclosure.errors import (
    DomainError,
    NotArtinianError,
    NotGorensteinError,
    ParseError,
    PowersNotContainedError,
)
from jetclosure.groebner import (
    DEGREVLEX,
    BuchbergerRun,
    FreeModuleElement,
    Ideal,
    _buchberger,
    _pot_key,
    SubmodulePresentation,
    _standard_monomials,
    colon_ideal,
    ideal_contains,
    module_standard_monomials,
    standard_monomial_basis,
)
from jetclosure.jets import Series, fiber_ideal
from jetclosure.linalg import rref
from jetclosure.newton import (
    MonomialIdealData,
    monomial_integral_closure,
    newton_membership,
)
from jetclosure.poly import (
    FieldSpec,
    MonomialOrder,
    Polynomial,
    RingContext,
    degrevlex_sorted,
    format_polynomial,
    minimal_exponents,
    parse_polynomial,
    walk_order_ideal,
)

FIELDS = (FieldSpec.rationals(), FieldSpec.prime_field(2), FieldSpec.prime_field(3))


def cusps(R):
    """x^p + c*y^q: in a, at levels 3 to 5, these often leave a nonzero
    kernel, which random dense generators almost never do."""
    exps, coeffs = st.integers(2, 4), st.sampled_from((1, -1, 2))
    return st.builds(
        lambda p, q, c: R.monomial((p, 0)) + R.monomial((0, q), R.field_spec.of_int(c)),
        exps, exps, coeffs,
    )


def germs(R):
    """A cusp or a monomial of degree 2 to 4."""
    exps = st.tuples(st.integers(0, 4), st.integers(0, 4)).filter(lambda u: 2 <= sum(u) <= 4)
    return st.one_of(cusps(R), exps.map(R.monomial))


@st.composite
def closure_inputs(draw):
    R = RingContext(draw(st.sampled_from(FIELDS)), ("x", "y"))
    a = Ideal(R, [draw(cusps(R))] + draw(st.lists(germs(R), max_size=1)))
    modulus = Ideal(R, draw(st.lists(germs(R), max_size=1)))
    return LocalAlgebraPresentation(R, modulus), a, draw(st.integers(3, 5))


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(closure_inputs())
def test_fiber_ideal_shortcut_matches_reference(inputs):
    P, a, level = inputs
    new = fiber_ideal(ideal_sum(a, P.modulus), level).groebner_basis()
    assert new.elements == reference_fiber_ideal(P, a, level).groebner_basis().elements
    rep = jet_closure(P, a, level)
    kernel, closure = reference_jet_closure(P, a, level)
    assert rep.kernel_basis == kernel
    assert rep.closure_generators == closure


@st.composite
def pointed_inputs(draw):
    """(presentation, a, level) over Q, F_2 or F_3, levels 0 to 5.  In
    one variable a is (x^p) and the modulus (x^q) or zero; in two, as in
    ``closure_inputs``."""
    field = draw(st.sampled_from(FIELDS))
    level = draw(st.integers(0, 5))
    if draw(st.booleans()):
        R = RingContext(field, ("x",))
        powers = st.integers(1, 6).map(lambda e: R.monomial((e,)))
        a = Ideal(R, [draw(powers)])
        modulus = Ideal(R, draw(st.lists(powers, max_size=1)))
        return LocalAlgebraPresentation(R, modulus), a, level
    R = RingContext(field, ("x", "y"))
    a = Ideal(R, [draw(cusps(R))] + draw(st.lists(germs(R), max_size=1)))
    modulus = Ideal(R, draw(st.lists(germs(R), max_size=1)))
    return LocalAlgebraPresentation(R, modulus), a, level


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(pointed_inputs())
def test_pointed_jet_closure_matches_reference(inputs):
    P, a, level = inputs
    rep = jet_closure(P, a, level)
    kernel, closure = reference_jet_closure(P, a, level)
    assert rep.kernel_basis == kernel
    assert rep.closure_generators == closure


def sparse_polys(R):
    """One to three terms of degree 1 to 3 in k[x,y]; zero if every
    coefficient vanishes in the field."""
    terms = st.dictionaries(
        st.tuples(st.integers(0, 3), st.integers(0, 3)).filter(lambda u: 1 <= sum(u) <= 3),
        st.integers(-2, 3), min_size=1, max_size=3,
    )
    return terms.map(lambda t: sum((R.monomial(u, R.field_spec.of_int(c)) for u, c in t.items()), R.zero()))


@st.composite
def colon_inputs(draw):
    R = RingContext(draw(st.sampled_from((FieldSpec.rationals(), FieldSpec.prime_field(3)))), ("x", "y"))
    I = Ideal(R, draw(st.lists(sparse_polys(R), min_size=1, max_size=3)))
    J = Ideal(R, draw(st.lists(sparse_polys(R), min_size=1, max_size=3)))
    return I, J


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(colon_inputs())
def test_colon_ideal_matches_reference(inputs):
    I, J = inputs
    assert colon_ideal(I, J).groebner_basis().elements == reference_colon_ideal(I, J).groebner_basis().elements


@st.composite
def walk_inputs(draw):
    """A box of 1 to 4 coordinates with bounds 1 to 6, and a predicate
    closed upward: divisible by one of at most five exponents, or total
    degree at least d."""
    n = draw(st.integers(1, 4))
    bounds = draw(st.lists(st.integers(1, 6), min_size=n, max_size=n))
    if draw(st.booleans()):
        gens = draw(st.lists(st.tuples(*[st.integers(0, 6)] * n), max_size=5))
        return bounds, lambda u: any(all(map(ge, u, g)) for g in gens)
    d = draw(st.integers(0, 5 * n))
    return bounds, lambda u: sum(u) >= d


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(walk_inputs())
def test_order_ideal_walk_matches_box_scan(case):
    bounds, outside = case
    asked = Counter()

    def counted(u):
        asked[u] += 1
        return outside(u)

    inside, corners = walk_order_ideal(bounds, counted)
    assert max(asked.values()) == 1
    # the calling guarantee: v != 0 is asked from v - e_j, j the largest
    # index of v's support, and v - e_j was found inside
    found_inside = set(inside)
    for v in asked:
        if any(v):
            j = max(k for k, e in enumerate(v) if e)
            assert v[:j] + (v[j] - 1,) + v[j + 1:] in found_inside
    box = list(itertools.product(*map(range, bounds)))  # in lex order
    assert sorted(inside) == [u for u in box if not outside(u)]
    lower = [[u[:k] + (u[k] - 1,) + u[k + 1:] for k in range(len(u)) if u[k]] for u in box]
    minimal = [u for u, below in zip(box, lower) if outside(u) and not any(map(outside, below))]
    assert sorted(corners) == minimal


@st.composite
def exponent_lists(draw):
    """(exponents, key): up to eight exponents in 0 to 3 variables, drawn
    from a pool of at most four so that repeats and divisors are common,
    the zero exponent drawn in one time in four; in degrevlex, in lex
    (key None), or tagged at positions 1 to 3 in position over term."""
    n = draw(st.integers(0, 3))
    exps = st.tuples(*[st.integers(0, 3)] * n)
    if draw(st.integers(0, 3)) == 0:
        exps = st.one_of(st.just((0,) * n), exps)
    key = draw(st.sampled_from((DEGREVLEX.key, None, _pot_key)))
    if key is _pot_key:
        exps = st.tuples(st.integers(1, 3), exps).map(lambda pu: (pu[0], -pu[0]) + pu[1])
    pool = draw(st.lists(exps, min_size=1, max_size=4))
    return draw(st.lists(st.sampled_from(pool), max_size=8)), key


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(exponent_lists())
@example(([(), ()], None))
@example(([(1, -1), (2, -2), (1, -1)], _pot_key))
@example(([(1, 2), (0, 0), (1, 2), (0, 0)], DEGREVLEX.key))
def test_minimal_exponents_match_all_pairs(case):
    exponents, key = case
    minimal = {u for u in exponents if not any(v != u and all(map(ge, u, v)) for v in exponents)}
    assert minimal_exponents(exponents, key) == sorted(minimal, key=key)


@st.composite
def staircases(draw):
    """Leading exponents in 0 to 4 variables: a pure power of each
    variable plus up to eight arbitrary exponents and up to two whose
    last exponent is 0."""
    n = draw(st.integers(0, 4))
    powers = draw(st.lists(st.integers(1, 5), min_size=n, max_size=n))
    lts = [tuple(p if k == j else 0 for k in range(n)) for j, p in enumerate(powers)]
    lts += draw(st.lists(st.tuples(*[st.integers(0, 4)] * n), max_size=8))
    if n:
        lts += draw(st.lists(st.tuples(*[st.integers(0, 4)] * (n - 1), st.just(0)), max_size=2))
    return draw(st.permutations(lts)), n


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(staircases())
def test_standard_monomial_walk_matches_box_scan(case):
    lts, n = case
    walk = _standard_monomials(lts, n, ("w", "x", "y", "z")[:n])
    assert sorted(walk) == box_standard_monomials(lts, n)


@st.composite
def degree_ties(draw):
    """Up to 40 exponents in 0 to 6 variables, entries 0 to 3, drawn
    from a pool of at most eight so that repeats are common; half the
    time the pool is permutations of one exponent, all of one degree."""
    n = draw(st.integers(0, 6))
    exps = st.tuples(*[st.integers(0, 3)] * n)
    if draw(st.booleans()):
        exps = st.permutations(draw(exps)).map(tuple)
    pool = draw(st.lists(exps, min_size=1, max_size=8))
    return draw(st.lists(st.sampled_from(pool), max_size=40))


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(degree_ties(), st.booleans())
@example([], False)
@example([], True)
@example([(), ()], True)
@example([(1, 0, 2), (0, 2, 1), (2, 1, 0), (1, 0, 2), (0, 0, 3)], True)
def test_degrevlex_sorted_matches_the_key_sort(exponents, reverse):
    expected = sorted(exponents, key=DEGREVLEX.key, reverse=reverse)
    assert degrevlex_sorted(exponents, reverse) == expected
    assert degrevlex_sorted(iter(exponents), reverse=reverse) == expected


def test_degrevlex_sorted_takes_a_product_iterator():
    for n in range(5):
        box = list(itertools.product(range(3), repeat=n))
        for reverse in (False, True):
            got = degrevlex_sorted(itertools.product(range(3), repeat=n), reverse)
            assert got == sorted(box, key=DEGREVLEX.key, reverse=reverse)


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(staircases())
def test_standard_monomial_orders_match_the_key_sort(case):
    """Monomial ideals and a rank-2 monomial module: the staircase at
    component 0, and the pure powers with every other exponent at 1."""
    lts, n = case
    R = RingContext(FieldSpec.rationals(), ("w", "x", "y", "z")[:n])
    expected = sorted(box_standard_monomials(lts, n), key=DEGREVLEX.key)
    assert standard_monomial_basis(Ideal(R, [R.monomial(u) for u in lts])).monomials == expected
    second = [u for u in lts if sum(map(bool, u)) == 1] + lts[::2]
    vectors = [FreeModuleElement(R, [R.monomial(u), R.zero()]) for u in lts]
    vectors += [FreeModuleElement(R, [R.zero(), R.monomial(u)]) for u in second]
    blocks = [(c, u) for c, gens in enumerate((lts, second)) for u in box_standard_monomials(gens, n)]
    module = module_standard_monomials(SubmodulePresentation(R, 2, vectors))
    assert module == sorted(blocks, key=block_key)


PRINT_NAMES = ("x@10", "x@2", "y", "x", "x@0", "y@1", "b", "a@3")


@st.composite
def printed_polynomials(draw):
    """Polynomials over Q or F_3 in 1 to 6 variables named from jet names
    (x@2 and x@10 among them) and plain ones, declared in any order (so
    y before x, too); up to six terms, exponents 0 to 2, coefficients
    with and without denominators and of either sign."""
    fld = draw(st.sampled_from((FieldSpec.rationals(), FieldSpec.prime_field(3))))
    names = draw(st.lists(st.sampled_from(PRINT_NAMES), min_size=1, max_size=6, unique=True))
    R = RingContext(fld, names)
    exps = st.tuples(*[st.integers(0, 2)] * len(names))
    coeffs = st.sampled_from((1, -1, 2, -7, Fraction(1, 2), Fraction(-5, 4)))
    terms = draw(st.lists(st.tuples(exps, coeffs), max_size=6))
    return sum((R.monomial(u, c) for u, c in terms), R.zero())


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(printed_polynomials())
def test_format_polynomial_matches_the_factor_sort(p):
    assert format_polynomial(p) == reference_format_polynomial(p)


def test_format_polynomial_prints_jet_order_and_declared_names():
    Q = FieldSpec.rationals()
    R = RingContext(Q, ("x@10", "x@2", "y@0"))
    assert format_polynomial(parse_polynomial("x@10*x@2 - y@0*x@10", R)) == "x@2*x@10 - x@10*y@0"
    R = RingContext(Q, ("y", "x"))
    p = parse_polynomial("x*y^2 + 3*y - x^2", R)
    assert format_polynomial(p) == reference_format_polynomial(p) == "x*y^2 - x^2 + 3*y"


@st.composite
def term_generators(draw):
    """(terms, key, field, tagged): single-term generators in 1 to 3
    variables over Q, F_2 or F_3 with nonzero coefficients, as ideal
    terms or as module terms tagged at positions 1 to 3.  Exponents come
    from a pool of at most four, so repeats and a generator that another
    divides are common; the constant is drawn in one time in four."""
    fld = draw(st.sampled_from(FIELDS))
    n = draw(st.integers(1, 3))
    tagged = draw(st.booleans())
    exps = st.tuples(*[st.integers(0, 3)] * n)
    if draw(st.integers(0, 3)) == 0:
        exps = st.one_of(st.just((0,) * n), exps)
    if tagged:
        exps = st.tuples(st.integers(1, 3), exps).map(lambda pu: (pu[0], -pu[0]) + pu[1])
    pool = draw(st.lists(exps, min_size=1, max_size=4))
    nonzero = st.integers(1, 6).filter(lambda c: c % (fld.characteristic or 7))
    coeff = st.tuples(nonzero, nonzero).map(lambda ab: fld.div(fld.of_int(ab[0]), fld.of_int(ab[1])))
    terms = draw(st.lists(st.builds(lambda u, c: {u: c}, st.sampled_from(pool), coeff), max_size=8))
    return terms, (_pot_key if tagged else DEGREVLEX.key), fld, tagged


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(term_generators())
def test_term_basis_matches_the_engine(case):
    terms, key, fld, tagged = case
    engine = BuchbergerRun(key, fld, tagged)
    for g in terms:  # input order, unsorted
        engine.add(g)
    engine.run()
    assert repr(_buchberger(terms, key, fld, tagged)) == repr(engine.reduced())  # coefficient types too


@st.composite
def monomial_ideals(draw):
    """1 to 4 generators in 1 to 4 variables; the box has at most 625 points."""
    n = draw(st.integers(1, 4))
    top = (6, 4, 3, 2)[n - 1]
    gens = draw(st.lists(st.tuples(*[st.integers(0, top)] * n), min_size=1, max_size=4))
    return MonomialIdealData(gens)


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(monomial_ideals())
def test_integral_closure_walk_matches_box_scan(M):
    assert monomial_integral_closure(M) == reference_integral_closure(M)


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(monomial_ideals())
def test_integral_closure_keeps_only_minimal_points(M):
    """The closure is built once, from the walk's corners, with no
    second minimal pass: the corners must be minimal and distinct."""
    handed, checked = [], []
    of_minimal = MonomialIdealData._of_minimal.__func__
    init = MonomialIdealData.__init__

    def recording(cls, exponents):
        handed.append(list(exponents))
        return of_minimal(cls, handed[-1])

    def recording_init(self, exponents):
        checked.append(exponents)
        init(self, exponents)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(MonomialIdealData, "_of_minimal", classmethod(recording))
        mp.setattr(MonomialIdealData, "__init__", recording_init)
        closure = monomial_integral_closure(M)
    unit = (0,) * M.nvars in M.exponents  # closed as it is
    assert len(handed) == (not unit)
    assert not checked
    for points in handed:
        assert sorted(points) == list(closure.exponents)
        assert minimal_exponents(points) == sorted(points)


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(monomial_ideals())
def test_integral_closure_asks_newton_only_what_no_generator_divides(M):
    asked = []

    def recording(u, data):
        asked.append(u)
        return newton_membership(u, data)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(newton, "newton_membership", recording)
        monomial_integral_closure(M)
    assert not any(all(map(ge, u, e)) for u in asked for e in M.exponents)


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(monomial_ideals())
def test_cached_cuts_are_valid(M):
    monomial_integral_closure(M)
    for w, c in M._cuts:
        assert all(x >= 0 for x in w)
        assert all(sum(a * b for a, b in zip(w, e)) >= c for e in M.exponents)


@st.composite
def shuffled_queries(draw):
    """A monomial ideal and points around its box, shuffled, with the
    points that have a negative coordinate asked first."""
    M = draw(monomial_ideals())
    box = [max(e[i] for e in M.exponents) for i in range(M.nvars)]
    coords = st.tuples(*[st.integers(-2, b + 1) for b in box])
    points = draw(st.lists(coords, min_size=1, max_size=60, unique=True))
    return M, sorted(points, key=lambda u: min(u) >= 0)


@settings(max_examples=120, deadline=None, derandomize=True, database=None)
@given(shuffled_queries())
def test_newton_membership_with_cuts_matches_fraction_lp(case):
    M, points = case
    for u in points:
        assert newton_membership(u, M) == reference_newton_membership(u, M)


@st.composite
def m_primary_inputs(draw):
    """(presentation, a) in k[x,y] over Q or F_3: a holds pure powers of
    x and y, so it is m-primary, plus at most one germ; the modulus is
    zero or one germ."""
    R = RingContext(draw(st.sampled_from((FieldSpec.rationals(), FieldSpec.prime_field(3)))), ("x", "y"))
    p, q = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    a = Ideal(R, [R.monomial((p, 0)), R.monomial((0, q))] + draw(st.lists(germs(R), max_size=1)))
    modulus = Ideal(R, draw(st.lists(germs(R), max_size=1)))
    return LocalAlgebraPresentation(R, modulus), a


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(m_primary_inputs())
def test_closures_contain_replacement_and_chain_descends(inputs):
    P, a = inputs
    for level in range(4):
        rep = jet_closure(P, a, level)
        assert ideal_contains(rep.closure, rep.replacement)
    chain = cumulative_closure_chain(P, a, 3)
    base = ideal_sum(a, P.modulus)
    for upper, lower in zip(chain, chain[1:]):
        assert ideal_contains(upper, lower)
        assert ideal_contains(lower, base)
    assert ideal_contains(chain[0], base)


@st.composite
def local_inputs(draw):
    """(presentation, a) in k[x,y] over Q, F_2 or F_3: a holds one or two
    pure powers x^p, y^q (1 <= p, q <= 3) and at most one germ, the
    modulus zero or one germ, and each generator is multiplied by a unit
    at the origin: 1, 1 + x, 1 - y or 2 + xy (not over F_2, where it is
    xy).  The units other than 1 vanish away from the origin, so a + I
    often has zeros there too, and C_l lies in (a + I)S_m but not in
    a + I."""
    R = RingContext(draw(st.sampled_from(FIELDS)), ("x", "y"))
    units = [parse_polynomial(t, R) for t in ("1", "1 + x", "1 - y", "2 + x*y")]
    unit = st.sampled_from([u for u in units if not R.field_spec.is_zero(u.constant_term())])
    power = st.sampled_from([R.monomial(u) for e in (1, 2, 3) for u in ((e, 0), (0, e))])
    powers, germ = st.builds(mul, power, unit), st.builds(mul, germs(R), unit)
    a = Ideal(R, draw(st.lists(powers, min_size=1, max_size=2)) + draw(st.lists(germ, max_size=1)))
    modulus = Ideal(R, draw(st.lists(germ, max_size=1)))
    return LocalAlgebraPresentation(R, modulus), a


@settings(max_examples=120, deadline=None, derandomize=True, database=None)
@given(local_inputs())
def test_certificate_matches_the_local_oracle(inputs):
    """The certified level and the chain, read off the ladder's a'
    echelons by one count, match the definition: the least level at
    which every generator of C_l has a colon into a + I that is not
    inside m."""
    P, a = inputs
    level, chain = reference_local_certificate(P, a, 4)
    cert = certify_arc_closed(P, a, 4)
    assert cert.certified == (level is not None) and cert.level == level
    assert [c.groebner_basis().elements for c in cert.chain] == [c.groebner_basis().elements for c in chain]


@st.composite
def reordered_generators(draw):
    """(ring, order, generators, the generators permuted and each scaled
    by a nonzero constant).  Buchberger has no work budget, so inputs
    stay small: at most 3 generators of at most 3 terms, of degree at
    most 3 in 2 variables and at most 2 in 3 variables."""
    fld = draw(st.sampled_from((FieldSpec.rationals(), FieldSpec.prime_field(3))))
    n = draw(st.integers(2, 3))
    R = RingContext(fld, ("x", "y", "z")[:n])
    top = 3 if n == 2 else 2
    exps = st.tuples(*[st.integers(0, top)] * n).filter(lambda u: 1 <= sum(u) <= top)
    nonzero = st.integers(-4, 4).filter(lambda c: not fld.is_zero(fld.of_int(c)))
    term = st.builds(R.monomial, exps, nonzero)
    poly = st.lists(term, min_size=2, max_size=3).map(lambda ts: sum(ts, R.zero()))
    gens = draw(st.lists(poly, min_size=2, max_size=3))
    scales = [fld.mul(fld.of_int(draw(nonzero)), fld.inv(fld.of_int(draw(nonzero)))) for _ in gens]
    moved = [g.scale(c) for g, c in zip(draw(st.permutations(gens)), scales)]
    order = draw(st.sampled_from((MonomialOrder.degrevlex(), LEX)))
    return R, order, gens, moved


@settings(max_examples=120, deadline=None, derandomize=True, database=None)
@given(reordered_generators())
def test_reduced_basis_ignores_generator_order_and_scaling(case):
    R, order, gens, moved = case
    assert Ideal(R, gens).groebner_basis(order).elements == Ideal(R, moved).groebner_basis(order).elements


ALL_FIELDS = FIELDS + (FieldSpec.prime_field(32003),)


@st.composite
def engine_inputs(draw):
    """(generators, variant, key, field, tagged): two to four generators
    of one to three terms over Q, F_2, F_3 or F_32003, of degree 1 to 3
    in 1 or 2 variables and 1 to 2 in 3, as ideal terms or as module
    terms tagged at positions 1 and 2, with a zero generator among them;
    the variant is the list shuffled, reversed or with some generators
    repeated, and up to two more zeros.  Buchberger has no work budget,
    so inputs stay small."""
    fld = draw(st.sampled_from(ALL_FIELDS))
    n = draw(st.integers(1, 3))
    tagged = draw(st.booleans())
    top = 3 if n < 3 else 2
    exps = st.tuples(*[st.integers(0, top)] * n).filter(lambda u: 1 <= sum(u) <= top)
    if tagged:
        exps = st.tuples(st.integers(1, 2), exps).map(lambda pu: (pu[0], -pu[0]) + pu[1])
    nonzero = st.integers(-4, 4).filter(lambda c: c % (fld.characteristic or 5))
    coeff = st.tuples(nonzero, nonzero).map(lambda ab: fld.div(fld.of_int(ab[0]), fld.of_int(ab[1])))
    gens = draw(st.lists(st.dictionaries(exps, coeff, min_size=1, max_size=3), min_size=2, max_size=4))
    gens.insert(draw(st.integers(0, len(gens))), {})
    how = draw(st.sampled_from(("shuffled", "reversed", "repeated")))
    if how == "shuffled":
        variant = draw(st.permutations(gens))
    elif how == "reversed":
        variant = gens[::-1]
    else:
        variant = gens + draw(st.lists(st.sampled_from(gens), min_size=1, max_size=3))
    variant = variant + [{}] * draw(st.integers(0, 2))
    return gens, variant, (_pot_key if tagged else DEGREVLEX.key), fld, tagged


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(engine_inputs())
def test_buchberger_ignores_generator_order(case):
    gens, variant, key, fld, tagged = case
    want = repr(_buchberger(gens, key, fld, tagged))
    assert repr(_buchberger(variant, key, fld, tagged)) == want  # coefficient types too


@st.composite
def truncation_inputs(draw):
    """(presentation, a, level) in 0 to 3 variables over Q, F_2, F_3 or
    F_32003, levels 0 to 6 (0 to 4 in three variables).  a and the
    modulus have up to two and one generators of one to three terms of
    degree 1 to 3, so neither needs to be m-primary and the modulus is
    rarely monomial."""
    fld = draw(st.sampled_from(ALL_FIELDS))
    n = draw(st.integers(0, 3))
    R = RingContext(fld, ("x", "y", "z")[:n])
    level = draw(st.integers(0, 4 if n == 3 else 6))
    if n == 0:  # Spec k: every proper ideal is (0)
        return LocalAlgebraPresentation(R), Ideal(R, []), level
    exps = st.tuples(*[st.integers(0, 3)] * n).filter(lambda u: 1 <= sum(u) <= 3)
    term = st.builds(lambda u, c: R.monomial(u, fld.of_int(c)), exps, st.integers(-3, 3))
    poly = st.lists(term, min_size=1, max_size=3).map(lambda ts: sum(ts, R.zero()))
    a = Ideal(R, draw(st.lists(poly, max_size=2)))
    modulus = Ideal(R, draw(st.lists(poly, max_size=1)))
    return LocalAlgebraPresentation(R, modulus), a, level


@settings(max_examples=120, deadline=None, derandomize=True, database=None)
@given(truncation_inputs())
def test_truncated_replacement_matches_buchberger(inputs):
    P, a, level = inputs
    rep = jet_closure(P, a, level)
    reference = _primary_replacement(P, a, level)
    assert rep.replacement.groebner_basis().elements == reference.groebner_basis().elements
    standard = standard_monomial_basis(reference)
    assert standard_monomial_basis(rep.replacement) == standard
    assert rep.dim_quotient == standard.colength
    closure = Ideal(rep.closure.ring, reference.generators + tuple(rep.kernel_basis))
    assert rep.closure_generators == closure.groebner_basis().elements


def _degree_exponents(draw, n: int, d: int) -> tuple:
    """An exponent of degree ``d`` in ``n`` >= 1 variables."""
    u = []
    for _ in range(n - 1):
        u.append(draw(st.integers(0, d - sum(u))))
    return tuple(u) + (d - sum(u),)


@st.composite
def macaulay_inputs(draw):
    """(ring, generators as term dicts, level) in 1 to 3 variables over
    Q, F_2, F_3 or F_32003, levels 0 to 8: up to three nonzero
    generators, each drawn as a term of degree 1 to 4, coefficient 1, and
    up to three more terms of that degree up to four above it, which may
    cancel, so the order is 1 to 4 or more."""
    fld = draw(st.sampled_from(ALL_FIELDS))
    n = draw(st.integers(1, 3))
    R = RingContext(fld, ("x", "y", "z")[:n])
    generators = []
    for _ in range(draw(st.integers(1, 3))):
        order = draw(st.integers(1, 4))
        g = R.monomial(_degree_exponents(draw, n, order))
        for _ in range(draw(st.integers(0, 3))):
            u = _degree_exponents(draw, n, draw(st.integers(order, order + 4)))
            g = g + R.monomial(u, fld.of_int(draw(st.integers(-3, 3))))
        if not g.is_zero():
            generators.append(g.terms)
    return R, generators, draw(st.integers(0, 8))


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(macaulay_inputs())
def test_pruned_replacement_matches_every_macaulay_row(inputs):
    """``_replacement`` builds only the shifts x^v with
    deg v <= level - ord g and only the terms of degree <= level; its
    echelon equals that of every x^v g mod m^(level+1), deg v <= level - 1,
    built here with no pruning over a box scan of the shifts."""
    R, generators, level = inputs
    monomials = degrevlex_sorted(
        (u for u in itertools.product(range(level + 1), repeat=R.nvars) if sum(u) <= level), reverse=True
    )
    index = {u: c for c, u in enumerate(monomials)}
    rows = []
    for v in itertools.product(range(level), repeat=R.nvars):
        if sum(v) <= level - 1:
            for g in generators:
                shifted = {tuple(map(sum, zip(u, v))): x for u, x in g.items()}
                rows.append({index[w]: x for w, x in shifted.items() if sum(w) <= level})
    columns, echelon = closures._replacement(R, generators, level)
    assert columns == tuple(monomials)
    assert echelon == rref(rows, R.field_spec)


@pytest.mark.parametrize("nvars", range(5))
def test_column_table_is_every_monomial_largest_first(nvars):
    """``_columns(n, l)`` is every monomial of degree <= l, largest first in
    degrevlex, as a tuple, with its {monomial: column} index; one table
    per (n, l), handed out again on every call, whose index refuses
    writes."""
    for level in range(9 if nvars < 4 else 6):
        everything = (u for u in itertools.product(range(level + 1), repeat=nvars) if sum(u) <= level)
        expected = degrevlex_sorted(everything, reverse=True)
        monomials, index = closures._columns(nvars, level)
        assert monomials == tuple(expected)
        assert index == {u: c for c, u in enumerate(expected)}
        assert closures._columns(nvars, level)[1] is index
        with pytest.raises(TypeError):
            index[monomials[0]] = -1


@st.composite
def series_inputs(draw):
    """(f, level, first): a polynomial of one to four terms in 1 to 3
    variables over Q, F_2, F_3 or F_32003, each exponent at most the
    level plus 2, so at, below and above it, at levels 0 to 6; first is
    0 (the full jet ring) or 1 (the pointed one).  Over F_p many of the
    multinomial coefficients of the closed form vanish."""
    fld = draw(st.sampled_from(ALL_FIELDS))
    n = draw(st.integers(1, 3))
    R = RingContext(fld, ("x", "y", "z")[:n])
    level = draw(st.integers(0, 6))
    exps = st.tuples(*[st.integers(0, level + 2)] * n)
    coeff = st.integers(-5, 5).map(fld.of_int).filter(lambda c: not fld.is_zero(c))
    terms = draw(st.dictionaries(exps, coeff, min_size=1, max_size=4))
    return Polynomial(R, terms), level, draw(st.integers(0, 1))


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(series_inputs())
@example((Polynomial(RingContext(FieldSpec.rationals(), ("x",)), {(0,): 1}), 0, 1))
@example((Polynomial(RingContext(FieldSpec.prime_field(2), ("x", "y")), {(0, 0): 1, (2, 1): 1}), 0, 1))
@example((Polynomial(RingContext(FieldSpec.prime_field(3), ("x", "y", "z")), {(0, 0, 0): 2, (3, 0, 3): 1}), 6, 0))
def test_series_closed_form_matches_the_reference(case):
    """``Series.coefficient`` against the series multiplied out term by
    term, with every x@0 set to 0 in the pointed ring; the constant
    monomial at level 0 of the pointed ring, whose D_0 is 1 over no
    variables, included."""
    f, level, first = case
    R = f.ring
    series = Series(R.nvars, first, R.field_spec)
    for _ in range(level):
        series.extend()
    for i, d in enumerate(reference_hs_derivations(f, level)):
        want = drop_base_point(d, level).terms if first else d.terms
        assert series.coefficient(f.terms, i) == want


@pytest.mark.parametrize("fld", ALL_FIELDS)
def test_series_of_a_huge_power_is_the_falling_factorial(fld):
    """D_1, D_2, D_3 of x^N, N = 99999999, in the full jet ring k[x@0, ..., x@3]:
    N x@0^(N-1) x@1; N(N-1)/2 x@0^(N-2) x@1^2 + N x@0^(N-1) x@2; and
    N(N-1)(N-2)/6 x@0^(N-3) x@1^3 + N(N-1) x@0^(N-2) x@1 x@2 + N x@0^(N-1) x@3."""
    N = 99999999
    series = Series(1, 0, fld)
    for _ in range(3):
        series.extend()
    expected = {
        1: {(N - 1, 1, 0, 0): N},
        2: {(N - 2, 2, 0, 0): N * (N - 1) // 2, (N - 1, 0, 1, 0): N},
        3: {(N - 3, 3, 0, 0): N * (N - 1) * (N - 2) // 6, (N - 2, 1, 1, 0): N * (N - 1), (N - 1, 0, 0, 1): N},
    }
    for i, terms in expected.items():
        want = {u: fld.of_int(c) for u, c in terms.items() if not fld.is_zero(fld.of_int(c))}
        assert series.coefficient({(N,): fld.one()}, i) == want


def _computed_bases(monkeypatch) -> list:
    """The rings of the ideals whose degrevlex basis Buchberger computes
    from now on (a basis not yet in the ideal's cache)."""
    computed = []
    raw = Ideal.groebner_basis

    def recording(ideal, order=MonomialOrder.degrevlex()):
        if order not in ideal._cache:
            computed.append(ideal.ring)
        return raw(ideal, order)

    monkeypatch.setattr(Ideal, "groebner_basis", recording)
    return computed


def _engine_runs(monkeypatch) -> list:
    """Every ``BuchbergerRun`` started from now on: each is one run of
    the Buchberger engine, whether run to completion or resumed."""
    runs = []
    raw = BuchbergerRun.__init__

    def recording(run, *args, **kwargs):
        runs.append(run)
        raw(run, *args, **kwargs)

    monkeypatch.setattr(BuchbergerRun, "__init__", recording)
    return runs


def test_jet_closure_runs_no_buchberger_on_the_base_ring(monkeypatch):
    """Each ``jet_closure`` call runs one engine, its J' ladder's, and
    no ideal basis: a' and the closure come with their bases."""
    computed = _computed_bases(monkeypatch)
    runs = _engine_runs(monkeypatch)
    R = RingContext(FieldSpec.rationals(), ("x", "y"))
    P = LocalAlgebraPresentation(R, Ideal(R, [R.monomial((0, 2)) - R.monomial((3, 0))]))
    for level in range(6):
        rep = jet_closure(P, Ideal(R, [R.monomial((1, 1))]), level)
        rep.closure.groebner_basis()
        rep.replacement.groebner_basis()
    assert computed == [] and len(runs) == 6


def _certify_engines(monkeypatch, a: Ideal) -> int:
    """The engines one certificate of ``a`` at level 2 runs, after
    checking that it computes no base-ring basis: its test is a count on
    the ladder's a' echelons."""
    computed = _computed_bases(monkeypatch)
    runs = _engine_runs(monkeypatch)
    cert = certify_arc_closed(LocalAlgebraPresentation(a.ring), a, 6)
    assert cert.certified and cert.level == 2
    assert computed == []
    return len(runs)


def test_certify_runs_buchberger_on_the_base_ring_once(monkeypatch):
    """A certificate of a monomial a runs one engine, the J' engine
    climbed through every level."""
    R = RingContext(FieldSpec.prime_field(3), ("x", "y"))
    a = Ideal(R, [R.monomial((2, 0)), R.monomial((0, 2))])
    assert _certify_engines(monkeypatch, a) == 1


def test_certify_of_a_non_monomial_ideal_runs_one_engine(monkeypatch):
    """The same ideal given as (x^2 + y^3, y^2) runs the one J' engine
    too: no basis of a + I is needed."""
    R = RingContext(FieldSpec.prime_field(3), ("x", "y"))
    a = Ideal(R, [R.monomial((2, 0)) + R.monomial((0, 3)), R.monomial((0, 2))])
    assert _certify_engines(monkeypatch, a) == 1


def test_walkthrough_runs_buchberger_on_the_base_ring_once(monkeypatch):
    """A walkthrough runs Buchberger on S for the input modulus only:
    each next modulus, each certificate target and the Matlis colon come
    with their bases, and no module (tagged) run starts."""
    computed = _computed_bases(monkeypatch)
    runs = _engine_runs(monkeypatch)
    R = RingContext(FieldSpec.rationals(), ("x", "y"))
    P = LocalAlgebraPresentation(R, Ideal(R, [R.monomial((3, 0)), R.monomial((1, 1)), R.monomial((0, 4))]))
    walk = gorenstein_walkthrough(P, 1)
    assert len(walk.stages) == 3 and walk.embedding.colon_quotient_dim == 4
    assert computed == [R]
    assert runs and not any(run.tagged for run in runs)


def test_walkthrough_computes_each_socle_once(monkeypatch):
    """One socle per stage: the Matlis embedding of the Gorenstein stage
    takes the socle report its stage computed."""
    calls = []
    socle = closures.socle_and_gorenstein
    monkeypatch.setattr(closures, "socle_and_gorenstein", lambda P: calls.append(P) or socle(P))
    R = RingContext(FieldSpec.rationals(), ("x", "y"))
    P = LocalAlgebraPresentation(R, Ideal(R, [R.monomial((3, 0)), R.monomial((1, 1)), R.monomial((0, 4))]))
    walk = gorenstein_walkthrough(P, 1)
    assert len(calls) == len(walk.stages) == 3
    assert _embedding(walk.embedding) == _embedding(matlis_embedding(calls[-1], walk.embedding.power))


@st.composite
def artinian_moduli(draw, low=1, top=4, corners=0):
    """An ideal of k[x, y] over Q, F_2 or F_3: x^a + p and y^b + q with
    ``low`` <= a, b <= ``top``, and ``corners`` to two more generators
    x^i y^j + r with i, j in {1, 2}, which make the socle larger; p, q
    and r are zero (two times in three) or sparse with no constant term.
    Some have zeros away from the origin, and a few are not of finite
    colength at all."""
    R = RingContext(draw(st.sampled_from(FIELDS)), ("x", "y"))
    tail = st.sampled_from((0, 0, 1)).flatmap(lambda k: sparse_polys(R) if k else st.just(R.zero()))
    a, b = draw(st.integers(low, top)), draw(st.integers(low, top))
    gens = [R.monomial((a, 0)) + draw(tail), R.monomial((0, b)) + draw(tail)]
    corner = st.builds(lambda i, j, r: R.monomial((i, j)) + r, st.integers(1, 2), st.integers(1, 2), tail)
    return LocalAlgebraPresentation(R, Ideal(R, gens + draw(st.lists(corner, min_size=corners, max_size=2))))


def _outcome(run):
    """``run()``, or the type and text of the domain error it raises."""
    try:
        return run()
    except DomainError as exc:
        return type(exc), str(exc)


def _embedding(emb) -> tuple:
    return (emb.power, emb.witness, emb.colon.groebner_basis().elements,
            emb.quotient_colength, emb.colon_quotient_dim, emb.images)


def _walkthrough(walk) -> tuple:
    stages = [
        (stage.modulus.groebner_basis().elements, stage.colength, stage.socle_basis, stage.gorenstein,
         stage.socle_generator_used, stage.certificate.level,
         [c.groebner_basis().elements for c in stage.certificate.chain])
        for stage in walk.stages
    ]
    return stages, _embedding(walk.embedding)


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(artinian_moduli(corners=1))
def test_socle_matches_reference(P):
    new = _outcome(lambda: socle_and_gorenstein(P))
    assert new == _outcome(lambda: reference_socle_and_gorenstein(P))


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(artinian_moduli(), st.integers(1, 5))
def test_matlis_embedding_matches_reference(P, power):
    new = _outcome(lambda: _embedding(matlis_embedding(P, power)))
    assert new == _outcome(lambda: _embedding(reference_matlis_embedding(P, power)))


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(artinian_moduli(low=2, top=3, corners=1), st.integers(0, 1))
def test_walkthrough_matches_reference(P, max_level):
    new = _outcome(lambda: _walkthrough(gorenstein_walkthrough(P, max_level)))
    assert new == _outcome(lambda: _walkthrough(reference_gorenstein_walkthrough(P, max_level)))


def test_named_matlis_and_walkthrough_cases_match_reference():
    """Each error the two paths can raise; two walkthroughs whose socle
    generator g has LT(g) in a tail of the modulus basis (x*y + y^2 with
    g = y^2, x^2*y + y^3 with g = y^3), so that the rank-one update
    subtracts a multiple of g; and two colons whose first witness
    candidates fail the rank test, one of them with two later candidates
    that pass; and two moduli with zeros away from the origin, which both
    paths answer for the local ring."""
    R = RingContext(FieldSpec.prime_field(3), ("x", "y"))
    x, y = R.variable(0), R.variable(1)
    cases = [
        ((x**3, x**2 * y + y**2), 5, None),
        ((x**4, x**2 * y - x * y + y**2), 6, None),
        ((x**3, y**3, x * y + y**2), None, None),
        ((x**3, x**2 * y + y**3, x**2 * y**2), None, None),
        ((x**2, x * y, y**2), 3, NotGorensteinError),
        ((x**2, y**3), 2, PowersNotContainedError),
        ((x**2, y**3), 3, None),
        ((x**2 - x, y), 2, None),
        ((x**3 - x**2, y**2, x * y), None, None),
        ((x * y,), 2, NotArtinianError),
    ]
    for gens, power, error in cases:
        P = LocalAlgebraPresentation(R, Ideal(R, gens))
        if power is None:
            new = _outcome(lambda: _walkthrough(gorenstein_walkthrough(P, 1)))
            assert new == _outcome(lambda: _walkthrough(reference_gorenstein_walkthrough(P, 1)))
        else:
            new = _outcome(lambda: _embedding(matlis_embedding(P, power)))
            assert new == _outcome(lambda: _embedding(reference_matlis_embedding(P, power)))
        raised = new[0] if isinstance(new[0], type) else None
        assert raised is error


@st.composite
def module_inputs(draw):
    """A module over S/I, I from ``artinian_moduli`` or (x^2 - x, y), of
    rank 1 to 3, with up to two relations and two submodule elements
    whose entries may have a constant term, so may be units."""
    P = draw(st.one_of(artinian_moduli(), st.sampled_from(FIELDS).map(_two_points)))
    R = P.ring
    rank = draw(st.integers(1, 3))
    terms = st.dictionaries(st.tuples(st.integers(0, 2), st.integers(0, 2)), st.integers(-2, 3), max_size=3)
    entry = terms.map(lambda t: sum((R.monomial(u, R.field_spec.of_int(c)) for u, c in t.items()), R.zero()))
    vector = st.lists(entry, min_size=rank, max_size=rank).map(lambda cs: FreeModuleElement(R, cs))
    vectors = st.lists(vector, max_size=2)
    return ModulePresentation(P, rank, draw(vectors), draw(vectors))


def _two_points(fld):
    R = RingContext(fld, ("x", "y"))
    return LocalAlgebraPresentation(R, Ideal(R, [R.monomial((2, 0)) - R.monomial((1, 0)), R.monomial((0, 1))]))


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(module_inputs())
def test_module_standard_basis_matches_module_buchberger(MP):
    new = _outcome(lambda: module_jet_closure(MP, 0).standard_basis)
    assert new == _outcome(lambda: reference_module_standard_basis(MP))


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(module_inputs(), st.integers(1, 3))
def test_module_kernel_matches_the_full_jet_ring(MP, level):
    new = _outcome(lambda: module_jet_closure(MP, level).kernel_basis)
    assert new == _outcome(lambda: reference_module_jet_closure(MP, level))


def _support(terms: dict) -> frozenset:
    """A term dict with each exponent tuple written as its nonzero
    (index, exponent) pairs, so that padding a ring with new variables
    does not change it."""
    return frozenset((tuple((k, e) for k, e in enumerate(u) if e), c) for u, c in terms.items())


def test_certify_reduces_each_row_and_s_pair_once(monkeypatch):
    """A certificate that never certifies climbs every level, and its
    ladder reduces each row NF(phi(D_i x^u)) and each S-pair of its J'
    engine once over the whole climb."""
    ladders, rows, pairs = [], Counter(), Counter()
    raw_init, raw_row = closures._Ladder.__init__, closures._Ladder._reduce_row
    raw_pair = BuchbergerRun._s_polynomial

    def init(ladder, *args):
        raw_init(ladder, *args)
        ladders.append(ladder)

    def row(ladder, u, i):
        rows[u, i] += 1
        return raw_row(ladder, u, i)

    def pair(run, i, j, lcm):
        if any(run is ladder.engine for ladder in ladders):
            pairs[_support(run.G[i]), _support(run.G[j])] += 1
        return raw_pair(run, i, j, lcm)

    monkeypatch.setattr(closures._Ladder, "__init__", init)
    monkeypatch.setattr(closures._Ladder, "_reduce_row", row)
    monkeypatch.setattr(BuchbergerRun, "_s_polynomial", pair)
    for fld in FIELDS:
        rows.clear()
        pairs.clear()
        R = RingContext(fld, ("x", "y", "z"))
        a = Ideal(R, [parse_polynomial(t, R) for t in ("x*y", "z^3", "x^2 + 2*x*z")])
        cert = certify_arc_closed(LocalAlgebraPresentation(R), a, 5)
        assert not cert.certified and len(cert.chain) == 6
        assert rows and max(rows.values()) == 1
        assert pairs and max(pairs.values()) == 1


def test_each_replacement_echelon_is_built_once(monkeypatch):
    """A chain to level L builds the a' echelon of each level once, L + 1
    in all; a certificate to max-level L builds each of the levels
    0, ..., L + 1 at most once, the level after a step with an empty
    kernel read ahead for its count and kept for the next step."""
    built = []
    raw = closures._replacement

    def replacement(ring, generators, level):
        built.append(level)
        return raw(ring, generators, level)

    monkeypatch.setattr(closures, "_replacement", replacement)
    R = RingContext(FieldSpec.rationals(), ("x", "y"))
    for mod, gens in (((), ("x^2", "y^3")), ((), ("x^2 - x^3", "y^2 - y^3")), (("x^2",), ("x*y", "y^4")), ((), ("x*y",))):
        P = LocalAlgebraPresentation(R, Ideal(R, [parse_polynomial(t, R) for t in mod]))
        a = Ideal(R, [parse_polynomial(t, R) for t in gens])
        built.clear()
        cumulative_closure_chain(P, a, 4)
        assert built == [0, 1, 2, 3, 4]
        built.clear()
        cert = certify_arc_closed(P, a, 4)
        assert max(Counter(built).values()) == 1 and set(built) <= set(range(6))
        assert built[: len(cert.chain)] == list(range(len(cert.chain)))


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(pointed_inputs())
def test_ladder_matches_fresh_levels_and_reference_chain(inputs):
    """One ladder climbed through every level gives each level the report
    of a fresh ``jet_closure``, and the chain of the running
    intersections; each row a level reduced is the normal form of the
    reference jet modulo the untruncated fiber ideal in the full jet ring
    at that level, which has no x@0 term, with the x@0 positions
    stripped."""
    P, a, top = inputs
    ladder = closures._Ladder(P, a)
    reports, rows = [], []
    for level in range(top + 1):
        reports.append(jet_closure(P, a, level, ladder))
        rows.append(dict(ladder.rows))  # the next climb forgets them
    for level, rep in enumerate(reports):
        fresh = jet_closure(P, a, level)
        assert rep.kernel_basis == fresh.kernel_basis
        assert (rep.dim_quotient, rep.dim_closure) == (fresh.dim_quotient, fresh.dim_closure)
        assert rep.replacement.generators == fresh.replacement.generators
        assert rep.closure_generators == fresh.closure_generators
    chain = [c.groebner_basis().elements for c in cumulative_closure_chain(P, a, top)]
    assert chain == [c.groebner_basis().elements for c in reference_closure_chain(P, a, top)]
    assert [rep.closure_generators for rep in reports] == chain
    n = P.ring.nvars
    for level, level_rows in enumerate(rows):
        full = fiber_ideal(ideal_sum(a, P.modulus), level).groebner_basis()
        for (u, i), row in level_rows.items():
            assert i == level
            expected = full.normal_form(reference_hs_derivations(P.ring.monomial(u), level)[i]).terms
            assert all(not any(w[:n]) for w in expected)
            assert row == {w[n:]: c for w, c in expected.items()}


def jet_names(n):
    """n distinct variable names, plain or jet names such as x@1."""
    name = st.builds(lambda b, k: b if k is None else f"{b}@{k}",
                     st.sampled_from(("x", "y", "z", "w1", "t_2")), st.none() | st.integers(0, 12))
    return st.lists(name, min_size=n, max_size=n, unique=True)


@st.composite
def printable_polys(draw):
    """A polynomial over Q (non-integral coefficients included), F_2, F_3
    or F_32003 in 0 to 3 variables with up to five terms."""
    fld = draw(st.sampled_from(ALL_FIELDS))
    n = draw(st.integers(0, 3))
    R = RingContext(fld, tuple(draw(jet_names(n))))
    if fld.characteristic == 0:
        coeff = st.fractions(min_value=-50, max_value=50, max_denominator=12)
    else:
        coeff = st.integers(0, fld.characteristic - 1)
    terms = draw(st.dictionaries(st.tuples(*[st.integers(0, 4)] * n), coeff, max_size=5))
    return R, sum((R.monomial(u, c) for u, c in terms.items()), R.zero())


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(printable_polys())
def test_print_parse_print_is_a_fixed_point(case):
    R, p = case
    text = format_polynomial(p)
    assert format_polynomial(parse_polynomial(text, R)) == text


# --- the term parser ---------------------------------------------------------

PARSE_FIELDS = (
    FieldSpec.rationals(), FieldSpec.prime_field(2), FieldSpec.prime_field(3),
    FieldSpec.prime_field(32003), FieldSpec.prime_field(2**31 - 1),
)
PARSE_NATS = st.one_of(
    st.integers(0, 9),
    st.sampled_from((32003, 64006, 2**31 - 1, 2**31, 2**62, 10**40 + 1, 3**90)),
)


def _factor_text(draw, depth: int) -> str:
    kind = draw(st.integers(0, 4 if depth else 3))
    if kind == 0:
        return str(draw(PARSE_NATS))
    name = draw(st.sampled_from(("x", "y", "z")))
    if kind == 1:
        return name
    if kind <= 3:
        return f"{name}^{draw(st.integers(0, 3))}"
    return "(" + _sum_text(draw, depth - 1) + ")"


def _product_text(draw, depth: int) -> str:
    factors = [_factor_text(draw, depth) for _ in range(draw(st.integers(1, 3)))]
    text = draw(st.sampled_from(("*", " * "))).join(factors)
    if draw(st.booleans()):  # a leading coefficient, juxtaposed or not: 2x, 2 x, 2(x), 2*x
        text = str(draw(PARSE_NATS)) + draw(st.sampled_from(("", " ", "*"))) + text
    return text


def _sum_text(draw, depth: int) -> str:
    terms = [_product_text(draw, depth) for _ in range(draw(st.integers(1, 3)))]
    text = terms[0]
    for term in terms[1:]:
        text += draw(st.sampled_from((" + ", " - ", "+", "-"))) + term
    if draw(st.booleans()):  # a term that cancels one before it
        text += " - " + draw(st.sampled_from(terms))
    return text


@st.composite
def expressions(draw):
    """Session-grammar text in x, y, z: sums of products, parentheses
    nested up to three deep, leading coefficients juxtaposed or not,
    repeated variables, x^0, zero, coefficients around and above the
    field sizes, and terms that cancel."""
    return _sum_text(draw, 3)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(st.sampled_from(PARSE_FIELDS), expressions())
@example(FieldSpec.prime_field(2), "2x*y - 0 + 3(x + y)*(x - y) - 3x^2 + 3y^2 + x*x^0")
@example(FieldSpec.prime_field(2**31 - 1), "2147483648*x - x + (2147483647 + 1)*y*y^2 - y^3")
def test_term_parser_matches_the_factor_by_factor_parser(fld, text):
    """The same terms, in the same insertion order, as parsing every
    factor into a ``Polynomial`` and adding whole polynomials."""
    R = RingContext(fld, ("x", "y", "z"))
    new, old = parse_polynomial(text, R), reference_parse_polynomial(text, R)
    assert list(new.terms.items()) == list(old.terms.items())


def _parse_outcome(parse, text: str, R):
    """The term list of ``parse(text, R)``, or its error: type, text,
    line and column."""
    try:
        return list(parse(text, R).terms.items())
    except ParseError as exc:
        return type(exc), str(exc), exc.line, exc.column


MUTATIONS = ("+", "-", "*", "^", "(", ")", ",", " ", "2", "w", "x@1", "$", "\n", "x^", "2(", ")(")


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(st.sampled_from(PARSE_FIELDS), expressions(), st.data())
@example(FieldSpec.rationals(), "(" * 101 + "x" + ")" * 101, None)
@example(FieldSpec.rationals(), "2 x y", None)
@example(FieldSpec.rationals(), "x^y", None)
@example(FieldSpec.rationals(), "", None)
def test_term_parser_errors_match_the_factor_by_factor_parser(fld, text, data):
    """One edit, an insertion, a replacement, a deletion or a cut, of a
    valid expression: the two parsers give the same terms, or raise the
    same exception with the same message, line and column."""
    if data is not None:
        i = data.draw(st.integers(0, len(text)))
        edit = data.draw(st.sampled_from(("insert", "replace", "delete", "cut")))
        piece = data.draw(st.sampled_from(MUTATIONS))
        if edit == "insert":
            text = text[:i] + piece + text[i:]
        elif edit == "replace":
            text = text[:i] + piece + text[i + 1:]
        elif edit == "delete":
            text = text[:i] + text[i + 1:]
        else:
            text = text[:i]
    R = RingContext(fld, ("x", "y", "z"))
    assert _parse_outcome(parse_polynomial, text, R) == _parse_outcome(reference_parse_polynomial, text, R)


# --- read-off bases ------------------------------------------------------------


def _assert_read_off(ideal: Ideal) -> None:
    """The basis data of ``ideal``'s cached degrevlex basis, built from
    the leading exponents its builder handed over, against a search for
    each leading term with ``MonomialOrder.key``; and the basis sorted by
    increasing leading term."""
    basis = ideal.groebner_basis()
    expected = []
    for g in basis:
        lt = max(g.terms, key=DEGREVLEX.key)
        expected.append((lt, [(v, c) for v, c in g.terms.items() if v != lt]))
    assert basis._data == expected
    leading = [lt for lt, _ in expected]
    assert leading == sorted(leading, key=DEGREVLEX.key)
    assert list(ideal.generators) == basis.elements
    searched = Ideal.with_reduced_basis(ideal.ring, basis.elements).groebner_basis()
    assert searched._data == basis._data


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(closure_inputs())
def test_closures_and_chains_hand_over_their_leading_terms(inputs):
    P, a, level = inputs
    rep = jet_closure(P, a, level)
    _assert_read_off(rep.replacement)
    _assert_read_off(rep.closure)
    for C in cumulative_closure_chain(P, a, level):
        _assert_read_off(C)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(local_inputs())
def test_certificates_hand_over_their_leading_terms(inputs):
    P, a = inputs
    for C in certify_arc_closed(P, a, 4).chain:
        _assert_read_off(C)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(artinian_moduli(), st.integers(1, 5))
def test_matlis_colons_hand_over_their_leading_terms(P, power):
    try:
        emb = matlis_embedding(P, power)
    except DomainError:
        return
    _assert_read_off(emb.colon)


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(artinian_moduli(low=2, top=3, corners=1), st.integers(0, 1))
def test_walkthrough_stages_hand_over_their_leading_terms(P, max_level):
    try:
        walk = gorenstein_walkthrough(P, max_level)
    except DomainError:
        return
    for stage in walk.stages[1:]:  # the first stage is the input modulus, basis by Buchberger
        _assert_read_off(stage.modulus)
    for stage in walk.stages:
        for C in stage.certificate.chain:
            _assert_read_off(C)
    _assert_read_off(walk.embedding.colon)
