"""The package's public names, the library names that the span tracer
of ``perfbench/spans.py`` looks up, and the README's library tour.

The tracer wraps functions and methods by name when a benchmark pass
runs with ``--trace 1``; a renamed or deleted entry point breaks that
pass.  These tests read the tracer's tables from the file (they do not
import or change it) and check each entry against the loaded modules.
"""

import ast
import contextlib
import importlib
import io
import re
from pathlib import Path

import jetclosure
from jetclosure.groebner import DEGREVLEX, Ideal
from jetclosure.poly import FieldSpec, RingContext, parse_polynomial

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"
README = Path(__file__).resolve().parents[1] / "README.md"

PUBLIC = [
    "CertificateResult", "ClosureReport", "GorensteinWalkthrough",
    "LocalAlgebraPresentation", "MatlisEmbedding", "ModuleClosureReport",
    "ModulePresentation", "SocleReport", "certify_arc_closed",
    "cumulative_closure_chain", "gorenstein_walkthrough", "jet_closure",
    "jsc_membership", "matlis_embedding", "module_jet_closure", "socle_and_gorenstein",
    "DomainError", "InfiniteDimensionalError", "InternalError", "NotArtinianError",
    "NotGorensteinError", "NotProperError", "ParseError", "PowersNotContainedError",
    "RingMismatchError", "UnknownVariableError",
    "FreeModuleElement", "GroebnerBasis", "Ideal", "ModuleGroebnerBasis",
    "SubmodulePresentation", "colon_ideal", "ideals_equal",
    "intersect_ideals", "module_standard_monomials", "radical_member",
    "standard_monomial_basis",
    "JetIdeal", "JetRing", "fiber_ideal", "hs_derivations", "jet_ideal",
    "universal_jet_image",
    "MonomialIdealData", "monomial_integral_closure", "newton_membership",
    "FieldSpec", "MonomialOrder", "Polynomial", "RingContext",
    "format_polynomial", "parse_polynomial",
]


def _tracer_tables():
    """(FUNCTIONS, METHODS) as literals parsed from the tracer's source."""
    tables = {}
    for node in ast.parse(SPANS.read_text(encoding="utf-8")).body:
        if isinstance(node, ast.Assign) and len(node.targets) == 1:
            target = node.targets[0]
            if isinstance(target, ast.Name) and target.id in ("FUNCTIONS", "METHODS"):
                tables[target.id] = ast.literal_eval(node.value)
    return tables["FUNCTIONS"], tables["METHODS"]


def test_public_names_are_pinned():
    assert jetclosure.__all__ == PUBLIC
    for name in PUBLIC:
        assert getattr(jetclosure, name) is not None


def test_every_traced_name_resolves():
    functions, methods = _tracer_tables()
    assert len(functions) >= 10 and len(methods) >= 5
    for module, name, span in functions:
        assert callable(getattr(importlib.import_module(f"jetclosure.{module}"), name)), span
    for module, cls, attr, span in methods:
        owner = getattr(importlib.import_module(f"jetclosure.{module}"), cls)
        assert callable(owner.__dict__[attr]), span


def test_groebner_basis_takes_the_order_positionally():
    # the tracer's wrapper calls the unbound method as original(ideal, order)
    R = RingContext(FieldSpec.rationals(), ("x", "y"))
    I = Ideal(R, [parse_polynomial("x^2 - y", R), parse_polynomial("y^2", R)])
    basis = Ideal.groebner_basis(I, DEGREVLEX)
    assert basis is I.groebner_basis()
    assert [str(g) for g in basis] == ["y^2", "x^2 - y"]


def test_readme_tour_prints_what_its_comments_say():
    # the one python block of the README; each print line ends in a
    # comment with the line it prints
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(encoding="utf-8"), re.M | re.S)
    assert len(blocks) == 1
    expected = [
        line.split("#", 1)[1].strip() for line in blocks[0].splitlines() if line.startswith("print(")
    ]
    assert expected
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(blocks[0], str(README), "exec"), {})
    assert out.getvalue().splitlines() == expected
