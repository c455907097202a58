"""Property tests: jet closures on the fiber ideal of a + I agree with the
reference path on the fiber ideal of a + I + m^(level+1)."""

import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings, strategies as st
from oracles import reference_fiber_ideal, reference_jet_closure

from jetclosure.closures import LocalAlgebraPresentation, jet_closure
from jetclosure.groebner import Ideal, ideal_sum
from jetclosure.jets import fiber_ideal
from jetclosure.poly import FieldSpec, RingContext

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
