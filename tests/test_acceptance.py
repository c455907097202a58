"""Acceptance suite: one test per criterion, exact arithmetic throughout.

Every test prints a single ``ACCEPTANCE n PASS/FAIL`` line (visible with
``pytest -s``); all tolerances are zero, every comparison is an exact
equality or an exact ideal-membership check.
"""

import json
import random
import subprocess
import sys

from oracles import in_row_span, power_test_closure

from jetclosure.closures import (
    LocalAlgebraPresentation,
    ModulePresentation,
    certify_arc_closed,
    gorenstein_walkthrough,
    jet_closure,
    jsc_membership,
    matlis_embedding,
    module_jet_closure,
)
from jetclosure.groebner import (
    FreeModuleElement,
    Ideal,
    SubmodulePresentation,
    ideals_equal,
    module_standard_monomials,
    reduced_groebner_basis,
    submodule_groebner_basis,
)
from jetclosure.jets import hs_derivations, jet_ideal
from jetclosure.newton import MonomialIdealData, monomial_integral_closure
from jetclosure.poly import FieldSpec, RingContext, parse_polynomial

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


def _report(number, description, check):
    try:
        check()
    except BaseException:
        print(f"ACCEPTANCE {number:2d} FAIL  {description}")
        raise
    print(f"ACCEPTANCE {number:2d} PASS  {description}")


def _random_poly(rng, R, max_deg=4, terms=4):
    p = R.zero()
    for _ in range(terms):
        u = tuple(rng.randrange(max_deg + 1) for _ in range(R.nvars))
        if sum(u) <= max_deg:
            p = p + R.monomial(u, R.field_spec.of_int(rng.randrange(-4, 5)))
    return p


def test_criterion_01_leibniz_suite():
    def check():
        rng = random.Random(20240801)
        cases = 0
        for field in (Q, F5):
            while cases < (100 if field is Q else 200):
                nvars = rng.randrange(1, 4)
                R = ring([f"x{i}" for i in range(nvars)], field)
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
                cases += 1
        assert cases == 200

    _report(1, "Leibniz rule on 200 random cases over Q and F_5", check)


def test_criterion_02_jet_ideal_regression():
    def check():
        ji = jet_ideal(ideal(RX, "x^2"), 2)
        ctx = ji.jet_ring.context
        assert ji.generators == [
            pp("x@0^2", ctx),
            pp("2*x@0*x@1", ctx),
            pp("2*x@0*x@2 + x@1^2", ctx),
        ]

    _report(2, "jet ideal of (x^2) at level 2 matches the frozen generators", check)


CLOSURE_CORPUS = [
    (RX, (), ("x^2",)),
    (RX, ("x^3",), ("x^2",)),
    (RXY, (), ("x^2", "y^2")),
    (RXY, (), ("x*y", "x^2 - y^2")),
    (RXY, ("y^3",), ("x^2",)),
    (RXY, (), ("x",)),
    (RXY, (), ("x^2 - y^3",)),
    (ring(["x", "y"], F2), (), ("x^2", "x*y", "y^3")),
    (ring(["x"], F3), ("x^4",), ("x^2",)),
    (ring(["x", "y", "z"]), (), ("x^2", "y^2", "z^2")),
]


def test_criterion_03_closure_basics():
    def check():
        assert len(CLOSURE_CORPUS) == 10
        for R, mod, gens in CLOSURE_CORPUS:
            P = LocalAlgebraPresentation(R, ideal(R, *mod))
            a = ideal(R, *gens)
            level0 = jet_closure(P, a, 0).closure
            m = Ideal(R, [R.variable(j) for j in range(R.nvars)])
            assert ideals_equal(level0, m)
            for level in range(1, 5):
                basis = jet_closure(P, a, level).closure.groebner_basis()
                for g in a.generators:
                    assert basis.contains(g)
                for k_exps in _degree_monomials(R.nvars, level + 1):
                    assert basis.contains(R.monomial(k_exps))

    _report(3, "jc_0 = m and a + m^(l+1) inside the closure for 10 ideals, l <= 4", check)


def _degree_monomials(n, d):
    if n == 1:
        return [(d,)]
    out = []
    for e in range(d + 1):
        for rest in _degree_monomials(n - 1, d - e):
            out.append((e,) + rest)
    return out


HEREDITY_PAIRS = [
    (RXY, ("y^3",), ("x^2",), 1),
    (RXY, ("y^3",), ("x^2",), 2),
    (RXY, ("x*y",), ("x^2", "y^2"), 1),
    (RXY, ("x*y",), ("x^2", "y^2"), 2),
    (RXY, (), ("x^2 - y^3", "y^4"), 2),
    (RX, ("x^4",), ("x^2",), 2),
    (RXY, ("x^2", "y^2"), ("x*y",), 1),
    (ring(["x", "y"], F2), ("y^2",), ("x^2",), 2),
    (ring(["x", "y"], F3), ("x^2", "x*y", "y^2"), ("x*y",), 1),
    (RXY, ("x^3", "y^3"), ("x*y",), 2),
]


def test_criterion_04_heredity():
    def check():
        assert len(HEREDITY_PAIRS) == 10
        for R, mod, gens, level in HEREDITY_PAIRS:
            modulus = ideal(R, *mod)
            a = ideal(R, *gens)
            direct = jet_closure(LocalAlgebraPresentation(R, modulus), a, level).closure
            folded = jet_closure(
                LocalAlgebraPresentation(R, Ideal(R, modulus.generators + a.generators)),
                Ideal(R, []),
                level,
            ).closure
            assert ideals_equal(direct, folded)

    _report(4, "direct vs quotient closures agree on 10 pairs", check)


ARC_CLOSED_CORPUS = [
    (ring(["x"]), ("x^2",), 1),
    (RXY, ("x^2", "y^2"), 2),
    (RXY, ("x*y", "x^2 - y^2"), None),
    (RXY, ("x^2", "x*y", "y^3"), None),  # non-Gorenstein
    (RXY, ("x^2 - y^3", "y^4"), None),  # non-graded
    (ring(["x", "y"], F2), ("x^2", "y^2"), None),
    (ring(["x", "y"], F3), ("x^2", "x*y", "y^2"), None),  # non-Gorenstein
    (ring(["x"], F2), ("x^3",), None),
    (ring(["x", "y", "z"]), ("x^2", "y^2", "z^2"), None),
]


def test_criterion_05_artinian_corpus_certifies():
    def check():
        assert len(ARC_CLOSED_CORPUS) >= 8
        for R, mod, expected_level in ARC_CLOSED_CORPUS:
            P = LocalAlgebraPresentation(R, ideal(R, *mod))
            cert = certify_arc_closed(P, Ideal(R, []), 6)
            assert cert.certified, f"{mod} over {R.field_spec.label} not certified"
            assert cert.level <= 6
            if expected_level is not None:
                assert cert.level == expected_level

    _report(5, "zero ideal certified arc-closed for the Artinian corpus (l* <= 6)", check)


def test_criterion_06_non_certification():
    def check():
        cert = certify_arc_closed(LocalAlgebraPresentation(RXY), ideal(RXY, "x"), 5)
        assert not cert.certified
        assert len(cert.chain) == 6
        for level, entry in enumerate(cert.chain):
            got = [g.terms for g in reduced_groebner_basis(entry)]
            want_ideal = Ideal(RXY, [pp("x", RXY), pp("y", RXY) ** (level + 1)])
            want = [g.terms for g in reduced_groebner_basis(want_ideal)]
            assert got == want

    _report(6, "a = (x) stays uncertified with chain (x, y^(l+1)) for l <= 5", check)


def test_criterion_07_jsc_example():
    def check():
        P = LocalAlgebraPresentation(RX, ideal(RX, "x^2"))
        zero = Ideal(RX, [])
        for level in range(1, 5):
            assert not jsc_membership(P, zero, pp("x", RX), level)
        rep = jet_closure(P, zero, 1)
        assert ideals_equal(rep.closure, P.modulus)
        assert rep.dim_closure == 0

    _report(7, "x stays outside jsc_l of 0 in k[x]/(x^2), and jc_1(0) = 0", check)


def test_criterion_08_jsc_integral_closure_consistency():
    def check():
        P = LocalAlgebraPresentation(RXY)
        for gens in ([(2, 0), (0, 2)], [(3, 0), (0, 3)]):
            closure = monomial_integral_closure(MonomialIdealData(gens))
            assert sorted(closure.exponents) == sorted(power_test_closure(gens, 6))
            a = Ideal(RXY, [RXY.monomial(u) for u in gens])
            for u in closure.exponents:
                f = RXY.monomial(u)
                for level in range(5):
                    assert jsc_membership(P, a, f, level)

    _report(8, "integral closures match the power test and pass jsc at l <= 4", check)


MODULE_BASES = [
    (ring(["x"]), ("x^3",)),
    (RXY, ("x^2", "x*y", "y^2")),
    (ring(["x", "y"], F2), ("x^2", "y^2")),
    (ring(["x"], F3), ("x^4",)),
    (RXY, ("x^2", "y^3")),
]


def _random_vector(rng, R, rank):
    comps = []
    for _ in range(rank):
        p = R.zero()
        for _ in range(2):
            u = tuple(rng.randrange(3) for _ in range(R.nvars))
            if 0 < sum(u) <= 3:
                p = p + R.monomial(u, R.field_spec.of_int(rng.randrange(-2, 3)))
        comps.append(p)
    return FreeModuleElement(R, comps)


def _coords(vector, gb, sm, fld):
    terms = gb.normal_form(vector)._terms()
    return [terms.get(cu, fld.zero()) for cu in sm]


def test_criterion_09_module_persistence_and_restriction():
    def check():
        rng = random.Random(909)
        surjection_cases = 0
        while surjection_cases < 20:
            R, mod = MODULE_BASES[rng.randrange(len(MODULE_BASES))]
            base = LocalAlgebraPresentation(R, ideal(R, *mod))
            rank = rng.randrange(1, 3)
            rels = [_random_vector(rng, R, rank) for _ in range(rng.randrange(2))]
            extra = [_random_vector(rng, R, rank) for _ in range(rng.randrange(1, 3))]
            if all(v.is_zero() for v in extra):
                continue
            M = ModulePresentation(base, rank, rels)
            Mq = ModulePresentation(base, rank, rels + extra)
            level = rng.randrange(2)
            src = module_jet_closure(M, level)
            dst = module_jet_closure(Mq, level)
            pres = SubmodulePresentation(R, rank, Mq.working_relations())
            gb = submodule_groebner_basis(pres)
            sm = module_standard_monomials(pres)
            fld = R.field_spec
            span = [_coords(v, gb, sm, fld) for v in dst.kernel_basis]
            for v in src.kernel_basis:
                assert in_row_span(_coords(v, gb, sm, fld), span, len(sm), fld)
            surjection_cases += 1
        assert surjection_cases == 20

        comparison_pairs = [
            (RXY, ("x^3", "y^3"), ("x*y",), 1),
            (RXY, ("x^2", "y^2"), ("x*y",), 1),
            (ring(["x"]), ("x^4",), ("x^2",), 1),
            (ring(["x", "y"], F2), ("x^2", "y^2"), ("x*y",), 1),
            (ring(["x"], F3), ("x^3",), ("x^2",), 2),
        ]
        for R, i1, i2, rank in comparison_pairs:
            I1, I2 = ideal(R, *i1), ideal(R, *i2)
            both = Ideal(R, I1.generators + I2.generators)
            rels = [_random_vector(random.Random(5), R, rank)]
            i2_rows = [
                FreeModuleElement(R, [g if c == k else R.zero() for k in range(rank)])
                for g in I2.generators
                for c in range(rank)
            ]
            over_quotient = ModulePresentation(LocalAlgebraPresentation(R, both), rank, rels)
            over_base = ModulePresentation(
                LocalAlgebraPresentation(R, I1), rank, rels + i2_rows
            )
            pres = SubmodulePresentation(R, rank, over_quotient.working_relations())
            gb = submodule_groebner_basis(pres)
            sm = module_standard_monomials(pres)
            fld = R.field_spec
            for level in (0, 1, 2):
                small = module_jet_closure(over_quotient, level)
                large = module_jet_closure(over_base, level)
                span = [_coords(v, gb, sm, fld) for v in large.kernel_basis]
                for v in small.kernel_basis:
                    assert in_row_span(_coords(v, gb, sm, fld), span, len(sm), fld)

    _report(9, "module persistence (20 surjections) and restriction-of-scalars inclusion", check)


def test_criterion_10_gorenstein_pipeline():
    def check():
        walk = gorenstein_walkthrough(
            LocalAlgebraPresentation(RXY, ideal(RXY, "x^2", "x*y", "y^3")), 4
        )
        assert len(walk.stages) == 2
        assert str(walk.stages[0].socle_generator_used) == "x"
        assert walk.stages[0].colength == 4 and walk.stages[1].colength == 3
        assert ideals_equal(walk.stages[1].modulus, ideal(RXY, "x", "y^3"))
        assert walk.stages[1].gorenstein

        emb = matlis_embedding(
            LocalAlgebraPresentation(RXY, ideal(RXY, "x*y", "x^2 - y^2")), 3
        )
        assert emb.quotient_colength == 4 and emb.colon_quotient_dim == 4
        powers = ideal(RXY, "x^3", "y^3").groebner_basis()
        for text in ("x*y", "x^2 - y^2"):
            assert powers.contains(emb.witness * pp(text, RXY))
        assert ideals_equal(
            Ideal(RXY, (emb.witness,) + ideal(RXY, "x^3", "y^3").generators), emb.colon
        )

    _report(10, "walkthrough does one socle step to k[y]/(y^3); Matlis witness verified 4 = 4", check)


DETERMINISM_SESSION = """field Q
vars x y
ideal a: x^2, y^2
ideal b: x*y, x^2 - y^2
ideal m2: x^2, x*y, y^2
ideal cusp: x^2 - y^3, y^4
ideal line: x
"""

DETERMINISM_COMMANDS = [
    ["derive", "--poly", "x*y", "--level", "3"],
    ["jet-ideal", "--ideal", "a", "--level", "2"],
    ["fiber-ideal", "--ideal", "a", "--level", "2"],
    ["lambda", "--poly", "x", "--ideal", "a", "--level", "2"],
    ["closure", "--ideal", "a", "--level", "1"],
    ["chain", "--ideal", "line", "--max-level", "3"],
    ["certify", "--ideal", "b", "--max-level", "6"],
    ["certify", "--ideal", "cusp", "--max-level", "6"],
    ["jsc-member", "--ideal", "a", "--element", "x*y", "--level", "2"],
    ["socle", "--modulus", "m2"],
    ["matlis", "--modulus", "b", "--power", "3"],
    ["walkthrough", "--modulus", "m2", "--max-level", "2"],
    ["icl", "--ideal", "a"],
]


def test_criterion_11_determinism(tmp_path):
    def check():
        path = tmp_path / "corpus.session"
        path.write_text(DETERMINISM_SESSION, encoding="utf-8")

        def run_all():
            outputs = []
            for command in DETERMINISM_COMMANDS:
                argv = [
                    sys.executable,
                    "-m",
                    "jetclosure.cli",
                    command[0],
                    "--session",
                    str(path),
                    *command[1:],
                    "--json",
                ]
                proc = subprocess.run(argv, capture_output=True, text=True)
                assert proc.returncode == 0, proc.stderr
                outputs.append(proc.stdout)
            return outputs

        first, second = run_all(), run_all()
        assert first == second
        for blob in first:
            payload = json.loads(blob)
            assert payload["millis"] == 0

    _report(11, "machine-format reports are byte-identical across repeated runs", check)
