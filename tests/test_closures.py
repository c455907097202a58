import itertools
import random
import time
from fractions import Fraction

import pytest

from jetclosure import closures, groebner, jets
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
    universal_jet_image,
)
from jetclosure.errors import (
    InternalError,
    NotArtinianError,
    NotGorensteinError,
    NotProperError,
    PowersNotContainedError,
)
from jetclosure.groebner import (
    FreeModuleElement,
    Ideal,
    SubmodulePresentation,
    ideal_contains,
    ideal_member,
    ideals_equal,
    module_standard_monomials,
)
from oracles import (
    FIBER_SHORTCUT_CASES,
    ideal_sum,
    in_row_span,
    maximal_ideal_power,
    rank,
    reference_closure_chain,
    reference_jet_closure,
    reference_jsc_membership,
    reference_local_certificate,
    reference_module_jet_closure,
    reference_socle_and_gorenstein,
    reference_universal_jet_image,
)
from jetclosure.poly import FieldSpec, Polynomial, RingContext, parse_polynomial

Q = FieldSpec.rationals()
F2 = FieldSpec.prime_field(2)
F3 = FieldSpec.prime_field(3)
F5 = FieldSpec.prime_field(5)


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


def test_point_germ_spec_k():
    """k itself, the local ring with no variables: (0) is its own
    closure at every level, with no kernel, certified at level 0."""
    R = RingContext(Q, ())
    P, zero = LocalAlgebraPresentation(R), Ideal(R, [])
    for level in range(3):
        rep = jet_closure(P, zero, level)
        assert rep.closure_generators == [] and rep.kernel_basis == []
        assert rep.dim_quotient == 1
    assert [c.generators for c in cumulative_closure_chain(P, zero, 2)] == [(), (), ()]
    cert = certify_arc_closed(P, zero, 2)
    assert cert.certified and cert.level == 0


def test_maximal_ideal_power_is_every_degree_d_monomial_in_lex_order():
    for n in range(5):
        R = ring(["w", "x", "y", "z"][:n])
        for d in range(7):
            lex = [u for u in itertools.product(range(d + 1), repeat=n) if sum(u) == d]
            assert maximal_ideal_power(R, d) == [R.monomial(u) for u in lex]


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


# (variables, modulus, ideal, [(field, levels <= CHAIN_LEVEL at which the
# closure is larger than a + I + m^(l+1))]).  Random ideals almost never
# have such a level; at one, a chain of replacements differs from the
# chain of closures.
CHAIN_CASES = [
    (("x", "y"), (), ("x^4", "y^4", "x^2 + 2*y^3"), [(Q, {4}), (F5, {4}), (F3, {4, 5, 6})]),
    (("x", "y"), (), ("x^4", "y^4", "x^2*y + y^2"), [(F2, {3, 4})]),
    (("x", "y"), (), ("x^4", "y^4", "x*y^2 + x^2"), [(F2, {3, 4})]),
    (("x", "y"), (), ("x",), [(Q, set())]),
    (("x", "y", "z"), ("x*y - z^2",), ("x", "z"), [(Q, set())]),
]
CHAIN_LEVEL = 6


def _chain_cases():
    for names, mod, gens, fields in CHAIN_CASES:
        for field, kernel_levels in fields:
            R = ring(names, field)
            yield LocalAlgebraPresentation(R, ideal(R, *mod)), ideal(R, *gens), kernel_levels


def test_jet_closures_descend():
    for P, a, kernel_levels in _chain_cases():
        reports = [jet_closure(P, a, level) for level in range(CHAIN_LEVEL + 1)]
        assert {r.level for r in reports if r.dim_closure} == kernel_levels
        for upper, lower in zip(reports, reports[1:]):
            assert ideal_contains(upper.closure, lower.closure)


def test_chain_and_certificate_match_reference_intersections():
    for P, a, _ in _chain_cases():
        reference = reference_closure_chain(P, a, CHAIN_LEVEL)
        chain = cumulative_closure_chain(P, a, CHAIN_LEVEL)
        assert len(chain) == len(reference)
        assert all(ideals_equal(c, r) for c, r in zip(chain, reference))
        target = ideal_sum(a, P.modulus)
        level = next((i for i, r in enumerate(reference) if ideals_equal(r, target)), None)
        cert = certify_arc_closed(P, a, CHAIN_LEVEL)
        assert cert.certified == (level is not None) and cert.level == level
        assert len(cert.chain) == (CHAIN_LEVEL + 1 if level is None else level + 1)
        assert all(ideals_equal(c, r) for c, r in zip(cert.chain, reference))


# (modulus, ideal, certifying level) over Q in k[x, y]: each a + I has
# zeros away from the origin, and C_l lies in (a + I)S_m, not in a + I.
LOCAL_CERTIFICATES = [
    ((), ("x - x^2", "y"), 0),
    ((), ("x^2 - x^3", "y^2 - y^3"), 2),
    (("x^2 - x^3", "y^2"), (), 2),
]


def test_certificates_answer_for_the_local_ring():
    """Certificates that hold in the local ring at the origin, where
    1 - x and 1 - y are units, though no C_l lies in a + I: the level
    and the chain match the oracle's test by the definition."""
    R = ring("xy")
    for mod, gens, level in LOCAL_CERTIFICATES:
        P, a = LocalAlgebraPresentation(R, ideal(R, *mod)), ideal(R, *gens)
        cert = certify_arc_closed(P, a, 4)
        assert cert.certified and cert.level == level
        expected_level, chain = reference_local_certificate(P, a, 4)
        assert expected_level == level and len(cert.chain) == level + 1
        assert all(ideals_equal(c, r) for c, r in zip(cert.chain, chain))
        assert not any(ideal_contains(ideal_sum(a, P.modulus), c) for c in cert.chain)


# (variables, modulus, ideal, field, kernel dimension at each level).
# The chain of (x^2, yz) modulo xz - y^2 has no kernel at any level (0 to
# 12); the others have kernels at consecutive levels, with vectors of two
# and three terms.
STEP_CASES = [
    ("xyz", ("x*z - y^2",), ("x^2", "y*z"), Q, [0] * 6),
    ("xyz", ("x*z - y^2",), ("x^2", "y*z"), F2, [0] * 6),
    ("xyz", ("x*z - y^2",), ("x^2", "y*z"), F3, [0] * 6),
    ("xy", (), ("x^2 + x^3 + x*y^2",), F2, [0, 0, 0, 1, 1, 1, 1, 1, 1]),
    ("xy", (), ("x^5 + 2*x^3*y + y^3", "x^5 + x*y^3"), F3, [0, 0, 0, 0, 1, 3, 3, 2, 2]),
    ("xyz", (), ("z^2 + y^3",), F2, [0, 0, 0, 1, 3, 6]),
    ("xyz", (), ("y^2 + z^3", "2*x*y + 2*y^3 + 2*z^3"), F3, [0, 0, 0, 0, 1, 2]),
]


def _step_cases():
    for names, mod, gens, field, dims in STEP_CASES:
        R = ring(names, field)
        yield LocalAlgebraPresentation(R, ideal(R, *mod)), ideal(R, *gens), dims


def test_closure_steps_match_the_reference_closure():
    """Each level's kernel, from a fresh ladder stepped up from level 0
    and from a ladder that closed the level before, is the reference
    kernel, every weight reduced modulo the full fiber ideal of a'.  A
    ladder does not close a level twice."""
    for P, a, dims in _step_cases():
        ladder = closures._Ladder(P, a)
        for level, dim in enumerate(dims):
            expected = reference_jet_closure(P, a, level)[0]
            assert len(expected) == dim
            assert jet_closure(P, a, level).kernel_basis == expected
            assert jet_closure(P, a, level, ladder).kernel_basis == expected
        with pytest.raises(InternalError):
            jet_closure(P, a, len(dims) - 1, ladder)


def test_closures_reduce_weight_l_rows_and_build_no_basis_of_j(monkeypatch):
    """Closing level l reduces only the rows NF(phi(D_l x^u)) of weight
    l, and no closure, chain, certificate, module closure or jet image
    reads the reduced basis of J' off a ladder's engine."""
    ladders, _ = _record_ladders(monkeypatch)
    reduced = []
    raw_row, raw_reduced = closures._Ladder._reduce_row, groebner.BuchbergerRun.reduced

    def row(ladder, u, i):
        reduced.append((i, ladder.level))
        return raw_row(ladder, u, i)

    def refuse(run):
        if any(run is ladder.engine for ladder in ladders):
            raise AssertionError("the reduced basis of J' was built")
        return raw_reduced(run)

    monkeypatch.setattr(closures._Ladder, "_reduce_row", row)
    monkeypatch.setattr(groebner.BuchbergerRun, "reduced", refuse)
    for P, a, dims in _step_cases():
        top = len(dims) - 1
        reduced.clear()
        cumulative_closure_chain(P, a, top)
        certify_arc_closed(P, a, top)
        jet_closure(P, a, top)
        assert reduced and all(i == level for i, level in reduced)
        assert {level for _, level in reduced} == set(range(top + 1))
        universal_jet_image(pp("x*y", P.ring), ideal_sum(a, P.modulus), top)
    for field in SHORTCUT_FIELDS:
        for MP, levels in _graded_module_cases(field):
            module_jet_closure(MP, levels[-1])
    assert ladders


def test_negative_levels_raise_value_error():
    P = LocalAlgebraPresentation(RXY, ideal(RXY, "x^2", "y^3"))
    a = ideal(RXY, "x*y")
    runs = [
        lambda: jet_closure(P, a, -1),
        lambda: module_jet_closure(ModulePresentation(P, 1, [], [_vec(RXY, "x")]), -1),
        lambda: jsc_membership(P, a, pp("x", RXY), -1),
        lambda: universal_jet_image(pp("x", RXY), a, -1),
        lambda: cumulative_closure_chain(P, a, -1),
        lambda: certify_arc_closed(P, a, -1),
        lambda: gorenstein_walkthrough(P, -1),
    ]
    for run in runs:
        with pytest.raises(ValueError, match="^jet level must be nonnegative$"):
            run()


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
    from oracles import _primary_replacement
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
    # membership in the closure of 0 is exactly "all jet-map entries vanish",
    # the entries read off a basis of the full fiber ideal, not off the ladder
    a = ideal(RXY, "x^2", "y^2")
    P = LocalAlgebraPresentation(RXY)
    for level in (1, 2):
        rep = jet_closure(P, a, level)
        for f in rep.kernel_basis:
            entries = reference_universal_jet_image(f, rep.replacement, level)
            assert all(e.is_zero() for e in entries)
    # at level 2 the product of the two roots is no longer in the kernel
    rep2 = jet_closure(P, a, 2)
    entries = reference_universal_jet_image(pp("x*y", RXY), rep2.replacement, 2)
    assert not all(e.is_zero() for e in entries)


def _random_poly(rng, R, low: int, terms: int) -> Polynomial:
    """Up to ``terms`` terms of degree ``low`` to 3, coefficients 1-6."""
    p = R.zero()
    for _ in range(terms):
        u = tuple(rng.randrange(4) for _ in range(R.nvars))
        if low <= sum(u) <= 3:
            p = p + R.monomial(u, R.field_spec.of_int(rng.randrange(1, 7)))
    return p


def _jet_image_corpus():
    """(f, I, level), 1050 cases: Q, F_2 and F_3, one to three variables,
    levels 0-4 (0-3 in three variables); I is the zero ideal or has one or
    two random generators of order >= 1 or >= 2, and one in seven also
    holds 1 + x, a unit at the origin."""
    rng = random.Random(17)
    for field in SHORTCUT_FIELDS:
        for names in (("x",), ("x", "y"), ("x", "y", "z")):
            R = ring(names, field)
            for k in range(25):
                gens = [_random_poly(rng, R, 1 + k % 2, 3) for _ in range(k % 3)]
                if k % 7 == 6:
                    gens.append(R.one() + R.variable(0))
                f = _random_poly(rng, R, 0, 4)
                for level in range(5 if len(names) < 3 else 4):
                    yield f, Ideal(R, gens), level


def test_universal_jet_image_matches_the_full_fiber_ideal():
    for f, I, level in _jet_image_corpus():
        entries = universal_jet_image(f, I, level)
        expected = reference_universal_jet_image(f, I, level)
        assert [str(e) for e in entries] == [str(e) for e in expected]
        assert [e.ring for e in entries] == [e.ring for e in expected]


def test_universal_jet_image_builds_no_ideal_basis(monkeypatch):
    def refuse(ideal, order=None):
        raise AssertionError("a Buchberger run on an ideal started")

    monkeypatch.setattr(Ideal, "groebner_basis", refuse)
    for f, I, level in _jet_image_corpus():
        universal_jet_image(f, I, level)


def test_universal_jet_image_at_level_seven_answers_at_once():
    # on a Buchberger basis of the full fiber ideal this took about 28 s
    R = ring(["x", "y", "z"])
    I = ideal(R, "x^2", "y*z", "x*z - y^2")
    start = time.perf_counter()
    entries = universal_jet_image(pp("x*y", R), I, 7)
    assert time.perf_counter() - start < 0.25
    # D_i f has weight i, so its entry does not change with the level
    jets = entries[0].ring
    low = [e.transport(jets, range(e.ring.nvars)) for e in reference_universal_jet_image(pp("x*y", R), I, 3)]
    assert entries[:4] == low


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


SOCLE_CASES = (
    ("xy", ("x^2", "y^2")),
    ("xy", ("x^2", "x*y", "y^2")),
    ("xy", ("x^2 - y^3", "y^4")),
    ("xy", ("x^3", "x^2*y + y^2")),
    ("xy", ("x^2 - x", "y")),  # zeros at the origin and at (1, 0)
    ("xy", ("x^2 - x^3", "y^2")),  # the same two zeros, with multiplicity
    ("xyz", ("x^2 - y*z", "y^2", "z^2", "x*y")),
)


def test_socle_matches_reference_socle():
    """The socle read off the table of monomial normal forms equals the
    one from a normal form per product and a dense kernel, over Q, F_2
    and F_3, zeros away from the origin included; both reject a modulus
    that is not of finite colength."""
    for field in (Q, F2, F3):
        for names, gens in SOCLE_CASES:
            R = ring(names, field)
            P = LocalAlgebraPresentation(R, ideal(R, *gens))
            assert socle_and_gorenstein(P) == reference_socle_and_gorenstein(P)
        R = ring("xy", field)
        P = LocalAlgebraPresentation(R, ideal(R, "x*y", "y^2"))
        for socle in (socle_and_gorenstein, reference_socle_and_gorenstein):
            with pytest.raises(NotArtinianError):
                socle(P)


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


def test_smallest_containing_power_is_that_of_the_local_modulus():
    # finite colength, but not m-primary: no pure power of x lies in the
    # modulus, and the power is that of its m-primary component, (x, y)
    # and (x^2, x*y, y^2); the walkthrough reaches its embedding
    for texts, power in ((("x^2 - x", "y"), 1), (("x^3 - x^2", "y^2", "x*y"), 2)):
        P = LocalAlgebraPresentation(RXY, ideal(RXY, *texts))
        assert smallest_containing_power(P) == power
        assert gorenstein_walkthrough(P, 1).embedding.power == power
    P = LocalAlgebraPresentation(RXY, ideal(RXY, "x^2 - y^3", "y^4"))
    assert smallest_containing_power(P) == 4


def test_walkthrough_walks_each_stage_staircase_once(monkeypatch):
    """Each stage reads its modulus, its colength and the next stage's
    length check off one local modulus per presentation, so a 3-stage
    walkthrough lists standard monomials 3 times, once per stage."""
    walks = []
    staircase = closures.standard_monomial_basis
    monkeypatch.setattr(closures, "standard_monomial_basis", lambda I: walks.append(I) or staircase(I))
    P = LocalAlgebraPresentation(RXY, ideal(RXY, "x^4", "y^4", "x^2*y^2 + 2*x^3*y", "x*y^3"))
    walk = gorenstein_walkthrough(P, 1)
    assert [stage.colength for stage in walk.stages] == [11, 10, 9]
    assert len(walks) == 3


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


def _coefficients(objects):
    for obj in objects:
        if isinstance(obj, Polynomial):
            yield from obj.terms.values()
        elif isinstance(obj, FreeModuleElement):
            yield from _coefficients(obj.components)
        elif isinstance(obj, Ideal):
            yield from _coefficients(obj.generators)
            yield from _coefficients(obj.groebner_basis())


def test_q_pipeline_stores_no_integral_fraction():
    # FieldSpec's invariant over Q: a scalar is an int, or a Fraction with
    # a denominator > 1.  The non-monic modulus puts true fractions into
    # the monic bases, and into each output below.
    P = LocalAlgebraPresentation(
        RXY, ideal(RXY, "3*x*y^2 + 5*x^3", "5*y^3 + 3*x*y", "2*x^3 + 2*x^2 + 3*x^2*y", "x^5", "y^5")
    )
    rep = jet_closure(P, ideal(RXY, "2*x + 3*y"), 1)
    soc = socle_and_gorenstein(P)
    rel = FreeModuleElement(RXY, [pp("3*x^2 + 2*y^2", RXY), pp("3*x + 2*y", RXY)])
    mod = module_jet_closure(ModulePresentation(P, 2, [rel]), 1)
    outputs = {
        "jet_closure": [rep.replacement, rep.closure, *rep.closure_generators, *rep.kernel_basis],
        "socle_and_gorenstein": soc.basis,
        "module_jet_closure": mod.kernel_basis,
    }
    for name, objects in outputs.items():
        coefficients = list(_coefficients(objects))
        assert all(type(c) is int or (type(c) is Fraction and c.denominator > 1) for c in coefficients), name
        assert any(type(c) is Fraction for c in coefficients), name


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
        gb = pres.groebner_basis()
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
    gb = pres.groebner_basis()
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


# --- module closures in the pointed jet ring ------------------------------


def _vec(R, *texts):
    return FreeModuleElement(R, [pp(t, R) for t in texts])


def _module_cases(field):
    """Module presentations of ranks 1-3 over k[x]/(x^3), k[x]/(x^4),
    k[x,y]/(x^2, y^2), k[x,y]/(x^2 - y^3, xy), k[x,y]/(x^4, y^4),
    k[x,y]/(x^3, y^2) and k[x,y]/(x^3, xy, y^3): relations with nonzero
    constant entries, and non-empty submodules.  Over (x^4, y^4) the
    kernel is nonzero up to level 3; the last two have a level-1 kernel
    vector with two terms (``test_module_kernel_vectors_with_two_terms``)."""
    RX1, RXY1 = ring(["x"], field), ring(["x", "y"], field)
    cube = LocalAlgebraPresentation(RX1, ideal(RX1, "x^3"))
    quartic = LocalAlgebraPresentation(RX1, ideal(RX1, "x^4"))
    square = LocalAlgebraPresentation(RXY1, ideal(RXY1, "x^2", "y^2"))
    plane = LocalAlgebraPresentation(RXY1, ideal(RXY1, "x^2 - y^3", "x*y"))
    box = LocalAlgebraPresentation(RXY1, ideal(RXY1, "x^4", "y^4"))
    yield ModulePresentation(cube, 1, [], [_vec(RX1, "x^2")])
    yield ModulePresentation(quartic, 2, [_vec(RX1, "1 + x", "x^2")], [_vec(RX1, "x", "x^3")])
    yield ModulePresentation(cube, 3, [_vec(RX1, "x", "1", "x^2")], [_vec(RX1, "0", "x^2", "x + 2")])
    yield ModulePresentation(square, 1, [_vec(RXY1, "x*y")], [_vec(RXY1, "x + y")])
    yield ModulePresentation(square, 2, [_vec(RXY1, "1 + y", "x")], [_vec(RXY1, "y", "0")])
    yield ModulePresentation(plane, 2, [], [_vec(RXY1, "x", "y")])
    yield ModulePresentation(
        square, 3, [_vec(RXY1, "y", "1", "x"), _vec(RXY1, "1", "0", "x + y")], [_vec(RXY1, "0", "x", "y")]
    )
    yield ModulePresentation(box, 1, [], [_vec(RXY1, "x^2 + 2*y^3")])
    yield ModulePresentation(box, 2, [_vec(RXY1, "y", "1")], [_vec(RXY1, "x^2 + 2*y^3", "0")])
    yield ModulePresentation(box, 2, [_vec(RXY1, "x^2*y + y^2", "0")], [_vec(RXY1, "0", "x*y^2 + x^2")])
    yield from _two_term_kernel_cases(RXY1)


def _two_term_kernel_cases(R):
    cusp = LocalAlgebraPresentation(R, ideal(R, "x^3", "y^2"))
    cube = LocalAlgebraPresentation(R, ideal(R, "x^3", "x*y", "y^3"))
    yield ModulePresentation(cusp, 2, [], [_vec(R, "x^2 + y", "y^2 + x")])
    yield ModulePresentation(cube, 2, [_vec(R, "x^2", "x - y")], [_vec(R, "y^2", "x - y")])


def _record_ladders(monkeypatch) -> tuple:
    """(ladders, series): every ``_Ladder`` and every ``Series`` built from now on."""
    ladders, series = [], []
    raw_ladder, raw_series = closures._Ladder.__init__, jets.Series.__init__

    def ladder(self, *args):
        raw_ladder(self, *args)
        ladders.append(self)

    def walk(self, *args):
        raw_series(self, *args)
        series.append(self)

    monkeypatch.setattr(closures._Ladder, "__init__", ladder)
    monkeypatch.setattr(jets.Series, "__init__", walk)
    return ladders, series


def _graded_module_cases(field):
    """(module, levels): rank 1-2 modules over Artinian moduli of
    k[x,y,z], relations with a constant term among them, at levels 0-3,
    and over k[x,y]/(x^2 + y^2, xy) at levels 3-4.  Over (x^3, y^2, z^2)
    the kernel is nonzero up to level 2."""
    R, RXY1 = ring("xyz", field), ring("xy", field)
    quadric = LocalAlgebraPresentation(R, ideal(R, "x*z - y^2", "x^2", "y*z", "z^3"))
    squares = LocalAlgebraPresentation(R, ideal(R, "x^2", "y^2", "z^2"))
    cube = LocalAlgebraPresentation(R, ideal(R, "x^3", "y^2", "z^2"))
    sum_of_squares = LocalAlgebraPresentation(RXY1, ideal(RXY1, "x^2 + y^2", "x*y"))
    spatial, planar = range(4), (3, 4)
    yield ModulePresentation(quadric, 1, [], [_vec(R, "y + z")]), spatial
    yield ModulePresentation(quadric, 2, [_vec(R, "y", "1")], [_vec(R, "x", "0")]), spatial
    yield ModulePresentation(squares, 2, [_vec(R, "x", "1 + z")], [_vec(R, "y*z", "x")]), spatial
    yield ModulePresentation(cube, 2, [_vec(R, "1 + x", "y")], [_vec(R, "z", "x*y")]), spatial
    yield ModulePresentation(sum_of_squares, 1, [], [_vec(RXY1, "x + y")]), planar
    yield ModulePresentation(sum_of_squares, 2, [_vec(RXY1, "y", "1 - x")], [_vec(RXY1, "x", "0")]), planar


def test_module_jet_closure_matches_reference(monkeypatch):
    for field in SHORTCUT_FIELDS:
        cases = [(MP, range(5)) for MP in _module_cases(field)] + list(_graded_module_cases(field))
        for MP, levels in cases:
            for level in levels:
                rep = module_jet_closure(MP, level)
                assert rep.kernel_basis == reference_module_jet_closure(MP, level)
                assert rep.dim_kernel == len(rep.kernel_basis)
    # the plane modulus at level 3: the reduced basis of the ladder's
    # truncated run is strictly smaller than its completion, and module
    # closures reduce on the truncated basis as it stands
    # (``test_module_rows_are_completed_normal_forms``)
    ladders, _ = _record_ladders(monkeypatch)
    plane = LocalAlgebraPresentation(RXY, ideal(RXY, "x^2 - y^3", "x*y"))
    module_jet_closure(ModulePresentation(plane, 2, [], [_vec(RXY, "x", "y")]), 3)
    (ladder,) = ladders
    truncated = _pointed_polys(ladder, ladder.engine.reduced())
    completed = Ideal(truncated[0].ring, truncated).groebner_basis()
    assert len(truncated) < len(completed)


def _pointed_polys(ladder, term_dicts) -> list:
    """The term dicts as polynomials of k[x@1, ..., x@level] of the ladder."""
    R = ladder.ring
    ctx = RingContext(R.field_spec, jets.JetRing(R, ladder.level).context.variables[R.nvars:])
    return [Polynomial(ctx, t) for t in term_dicts]


def test_module_rows_are_completed_normal_forms(monkeypatch):
    """A module closure reduces on the ladder's truncated basis of J', with
    no completion: every normal form it takes (``_Ladder.normal_form``),
    of each relation block and each column row, equals the normal form
    modulo the completed basis.  At level 3, over (x^2 + y^2, xy) and
    (xz - y^2, x^2, yz, z^3), a basis truncated one weight short has
    other leading terms of weight <= 3."""
    ladders, _ = _record_ladders(monkeypatch)
    taken = []
    raw_nf = closures._Ladder.normal_form

    def normal_form(ladder, terms):
        nf = raw_nf(ladder, terms)
        taken.append((terms, nf))
        return nf

    monkeypatch.setattr(closures._Ladder, "normal_form", normal_form)
    for field in SHORTCUT_FIELDS:
        for MP, _ in _graded_module_cases(field):
            ladders.clear()
            taken.clear()
            module_jet_closure(MP, 3)
            (ladder,) = ladders
            truncated = _pointed_polys(ladder, ladder.engine.reduced())
            ctx = truncated[0].ring
            completed = Ideal(ctx, truncated).groebner_basis()
            assert ladder.rows and len(taken) > len(ladder.rows)
            assert any(nf for _, nf in taken)
            for terms, nf in taken:
                assert nf == completed.normal_form(Polynomial(ctx, terms)).terms
            for (u, i), row in ladder.rows.items():
                jet = Polynomial(ctx, ladder.series.coefficient({u: field.one()}, i))
                assert row == completed.normal_form(jet).terms


def test_module_closures_run_no_module_buchberger(monkeypatch):
    def refuse(presentation):
        raise AssertionError("a module Buchberger run started")

    monkeypatch.setattr(SubmodulePresentation, "groebner_basis", refuse)
    for field in SHORTCUT_FIELDS:
        for MP in list(_module_cases(field)) + [MP for MP, _ in _graded_module_cases(field)]:
            for level in range(5):
                module_jet_closure(MP, level)


def test_module_closure_at_level_five_answers_at_once():
    # a module Buchberger over k[x@1, ..., x@5] takes about a second here
    P = LocalAlgebraPresentation(RXY, ideal(RXY, "x^3", "y^3", "y^2 - 3*x^2*y"))
    MP = ModulePresentation(P, 2, [], [_vec(RXY, "0", "y")])
    start = time.perf_counter()
    rep = module_jet_closure(MP, 5)
    assert time.perf_counter() - start < 0.25
    assert (rep.dim_module, rep.kernel_basis) == (9, [])
    assert module_jet_closure(MP, 2).kernel_basis == [_vec(RXY, "y^2", "0")]


def test_module_closure_and_jsc_climb_one_ladder(monkeypatch):
    # every pointed jet and the generators of J' come off one ladder
    ladders, series = _record_ladders(monkeypatch)
    runs = [lambda MP=MP, level=level: module_jet_closure(MP, level)
            for MP in _module_cases(Q) for level in (0, 2)]
    runs += [lambda P=P, a=a, R=R: jsc_membership(P, a, pp("x*y", R), 2) for R, P, a, _ in _shortcut_cases()]
    runs += [lambda P=P, a=a, R=R: universal_jet_image(pp("x*y", R), ideal_sum(a, P.modulus), 3)
             for R, P, a, _ in _shortcut_cases()]
    for run in runs:
        ladders.clear()
        series.clear()
        run()
        assert len(ladders) == 1 and series == [ladders[0].series]


def test_jsc_membership_finishes_the_ladders_engine(monkeypatch):
    # J' is completed once, by the ladder's own run, the only run built;
    # each nonzero jet is one ``_in_radical`` probe of that completed run,
    # in order up to the first that fails, and no probe changes the run
    ladders, _ = _record_ladders(monkeypatch)
    runs, probes = [], []
    raw_run, raw_probe = groebner.BuchbergerRun.__init__, closures._in_radical

    def run(self, *args, **kwargs):
        raw_run(self, *args, **kwargs)
        runs.append(self)

    def snapshot(engine):
        return [dict(g) for g in engine.G], list(engine.lts), set(engine.pending), list(engine.heap)

    def probe(engine, h):
        assert not engine.pending and not engine.heap
        before = snapshot(engine)
        answer = raw_probe(engine, h)
        assert snapshot(engine) == before
        probes.append((engine, h, answer))
        return answer

    monkeypatch.setattr(groebner.BuchbergerRun, "__init__", run)
    monkeypatch.setattr(closures, "_in_radical", probe)
    for R, P, a, _ in _shortcut_cases():
        for text in ("x*y", "x"):
            f = pp(text, R)
            for level in (0, 2, 3):
                ladders.clear()
                runs.clear()
                probes.clear()
                member = jsc_membership(P, a, f, level)
                (ladder,) = ladders
                assert runs == [ladder.engine]
                jets = [ladder.series.coefficient(f.terms, i) for i in range(level + 1)]
                nonzero = [h for h in jets if h]
                answers = [answer for _, _, answer in probes]
                assert all(engine is ladder.engine for engine, _, _ in probes)
                assert [h for _, h, _ in probes] == nonzero[: len(probes)]
                assert all(answers[:-1]) and member == all(answers)
                assert len(probes) == len(nonzero) if member else not answers[-1]


def test_module_kernel_vectors_with_two_terms():
    # a kernel vector shows the sign of its entries only when it has two
    # or more terms; the reference reads its kernel off the dense oracle
    for field in SHORTCUT_FIELDS:
        R = ring(["x", "y"], field)
        cusp, cube = _two_term_kernel_cases(R)
        expected = (
            (cusp, [_vec(R, "0", "x^2"), _vec(R, "y", "x")]),
            (cube, [_vec(R, "0", "y - x")]),
        )
        for MP, kernel in expected:
            assert module_jet_closure(MP, 1).kernel_basis == kernel
            assert reference_module_jet_closure(MP, 1) == kernel


def test_level_zero_runs_in_the_pointed_ring_with_no_variables():
    # k[x@1, ..., x@0] is the field itself: the level-0 closure of a proper
    # ideal is m, f passes jsc iff f(0) = 0, and a module's closure is
    # m*M + N, of codimension rank minus the rank of the constant terms
    for R, P, a, _ in _shortcut_cases():
        rep = jet_closure(P, a, 0)
        assert ideals_equal(rep.closure, Ideal(R, [R.variable(j) for j in range(R.nvars)]))
        for text in ("x", "x*y", "1 + x"):
            assert jsc_membership(P, a, pp(text, R), 0) == (text != "1 + x")
    for field in SHORTCUT_FIELDS:
        for MP in _module_cases(field):
            rep = module_jet_closure(MP, 0)
            zero = (0,) * MP.base.ring.nvars
            constants = [
                [c.terms.get(zero, field.zero()) for c in v.components]
                for v in MP.relations + MP.submodule
            ]
            assert rep.dim_module - rep.dim_kernel == MP.rank - rank(constants, MP.rank, field)


# --- the table of monomial normal forms ----------------------------------


def _module_over(P):
    """A rank-2 module over k[x, y]/I with one relation and one submodule
    element."""
    R = P.ring
    x, y = R.variable(0), R.variable(1)
    return ModulePresentation(P, 2, [FreeModuleElement(R, [x * y, y + x * x])], [FreeModuleElement(R, [y, x])])


def test_table_reduces_each_monomial_once_and_keeps_its_dicts(monkeypatch):
    """One walkthrough and one module closure reduce each monomial at most
    once per basis through ``monomial_normal_form``, and the socle,
    Matlis and module-closure runs leave every dict the table handed out
    as it was."""
    from collections import Counter

    from jetclosure import groebner

    raw_nf, raw_table = groebner._nf_terms, groebner.GroebnerBasis.monomial_normal_form
    filling, reductions, handed = [], Counter(), []

    def table(basis, u):
        filling.append(basis)
        try:
            nf = raw_table(basis, u)
        finally:
            filling.pop()
        handed.append((nf, dict(nf)))
        return nf

    def nf_terms(terms, data, key, fld):
        if filling:
            reductions[filling[-1], tuple(terms)] += 1
        return raw_nf(terms, data, key, fld)

    monkeypatch.setattr(groebner, "_nf_terms", nf_terms)
    monkeypatch.setattr(groebner.GroebnerBasis, "monomial_normal_form", table)
    R = ring("xy", F3)
    P = LocalAlgebraPresentation(R, ideal(R, "x^3", "y^3", "x*y + y^2"))
    walk = gorenstein_walkthrough(P, 1)
    assert len(walk.stages) > 1 and walk.embedding.colon_quotient_dim == walk.stages[-1].colength
    assert module_jet_closure(_module_over(P), 1).dim_module > 0
    assert reductions and max(reductions.values()) == 1
    assert handed and all(nf == copy for nf, copy in handed)


def _table_runs(P, level):
    """Socle, Matlis embedding and module closure of one modulus, as
    plain values that compare equal across runs."""
    soc = socle_and_gorenstein(P)
    emb = matlis_embedding(P, smallest_containing_power(P))
    mod = module_jet_closure(_module_over(P), level)
    return (soc, emb.witness, emb.colon.generators, emb.colon_quotient_dim, emb.images,
            mod.standard_basis, mod.kernel_basis)


def _ladder_runs(P, a, level):
    """A certificate and a closure chain of a to ``level``, as plain
    values that compare equal across runs."""
    cert = certify_arc_closed(P, a, level)
    chain = cumulative_closure_chain(P, a, level)
    return cert.certified, cert.level, [c.generators for c in cert.chain], [c.generators for c in chain]


def test_shared_modulus_tables_under_thread_stress(monkeypatch):
    """More threads than cores share one presentation, so one local
    modulus, one reduced basis and its table, and every column table of
    the a' and closure echelons (``closures._columns``), with a switch
    interval of a microsecond: in each of five rounds on a fresh
    presentation and an emptied table cache, every run, the certificates
    and closure chains included, equals a single-thread run, every table
    entry equals its normal form, every column table is still every
    monomial of bounded degree with its index unwritten, and the local
    modulus is computed once (``LocalAlgebraPresentation._local_modulus``):
    one staircase for an m-primary modulus, and two, I's and that of its
    one Buchberger run, for (x^2 - x^3, y^2), which has a zero away from
    the origin."""
    import os
    import sys
    import threading

    R = ring("xy", F3)
    a, top = ideal(R, "x^2 + y^3"), 5
    walks = []
    staircase = closures.standard_monomial_basis
    monkeypatch.setattr(closures, "standard_monomial_basis", lambda I: walks.append(I) or staircase(I))
    workers = 2 * (os.cpu_count() or 1) + 2
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for gens, gate_walks in ((("x^2 - y^3", "y^4"), 1), (("x^2 - x^3", "y^2"), 2)):
            P = LocalAlgebraPresentation(R, ideal(R, *gens))
            expected = _table_runs(P, 1), _ladder_runs(P, a, top)
            for _ in range(5):
                shared = LocalAlgebraPresentation(R, ideal(R, *gens))
                walks.clear()
                closures._columns.cache_clear()
                results = [None] * workers
                start = threading.Barrier(workers)

                def work(slot):
                    start.wait(timeout=60)
                    results[slot] = _table_runs(shared, 1), _ladder_runs(shared, a, top)

                threads = [threading.Thread(target=work, args=(k,)) for k in range(workers)]
                for t in threads:
                    t.start()
                for t in threads:
                    t.join(timeout=120)
                    assert not t.is_alive()
                assert all(r == expected for r in results)
                assert len(walks) == gate_walks
                basis = shared._local_modulus()[0].groebner_basis()
                assert basis._monomial_nfs
                for u, nf in basis._monomial_nfs.items():
                    assert nf == basis.normal_form(R.monomial(u)).terms
                for level in range(top + 2):
                    monomials, index = closures._columns(2, level)
                    assert sorted(monomials) == [u for u in itertools.product(range(level + 1), repeat=2)
                                                 if sum(u) <= level]
                    assert index == {u: c for c, u in enumerate(monomials)}
    finally:
        sys.setswitchinterval(interval)
