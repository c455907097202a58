"""Property tests, derandomized: each shortcut path agrees with its
reference path in ``oracles``, and reduced Groebner bases are canonical.

* jet closures on the fiber ideal of a + I against the fiber ideal of
  a + I + m^(level+1);
* the staircase walk of standard monomials against the box scan;
* the walk of integral closure against one LP at every box point;
* reduced bases of permuted and rescaled generators.
"""

import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings, strategies as st
from oracles import (
    box_standard_monomials,
    reference_fiber_ideal,
    reference_integral_closure,
    reference_jet_closure,
)

from jetclosure.closures import LocalAlgebraPresentation, jet_closure
from jetclosure.groebner import Ideal, _standard_monomials, ideal_sum
from jetclosure.jets import fiber_ideal
from jetclosure.newton import MonomialIdealData, monomial_integral_closure
from jetclosure.poly import FieldSpec, MonomialOrder, RingContext

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
def staircases(draw):
    """Leading exponents in 1 to 4 variables: a pure power of each
    variable plus up to five arbitrary exponents."""
    n = draw(st.integers(1, 4))
    powers = draw(st.lists(st.integers(1, 5), min_size=n, max_size=n))
    lts = [tuple(p if k == j else 0 for k in range(n)) for j, p in enumerate(powers)]
    lts += draw(st.lists(st.tuples(*[st.integers(0, 4)] * n), max_size=5))
    return draw(st.permutations(lts)), n


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(staircases())
def test_standard_monomial_walk_matches_box_scan(case):
    lts, n = case
    walk = _standard_monomials(lts, n, ("w", "x", "y", "z")[:n])
    assert sorted(walk) == box_standard_monomials(lts, n)


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
    order = draw(st.sampled_from((MonomialOrder.degrevlex(), MonomialOrder.lex())))
    return R, order, gens, moved


@settings(max_examples=120, deadline=None, derandomize=True, database=None)
@given(reordered_generators())
def test_reduced_basis_ignores_generator_order_and_scaling(case):
    R, order, gens, moved = case
    assert Ideal(R, gens).groebner_basis(order).elements == Ideal(R, moved).groebner_basis(order).elements
