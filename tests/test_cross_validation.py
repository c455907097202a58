"""Cross-validation of the Buchberger engine, and of the socle, against
sympy.

sympy is a [test] extra, installed in CI; the module is skipped where
sympy is missing, and the packaged library itself never depends on it.
Reduced bases are canonical for (ideal, order), so the two
implementations must agree term by term.  The lex order and the
elimination come from ``oracles``: the library computes only degrevlex
bases, and these run its engine on the oracle orders.  The socle is
checked against the common nullspace of multiplication matrices that
sympy alone builds.
"""

import itertools
import random

import pytest

sympy = pytest.importorskip("sympy")

from fractions import Fraction

from sympy.polys.domains import GF, QQ
from sympy.polys.orderings import grevlex
from sympy.polys.rings import ring as sympy_ring

from oracles import LEX, eliminate_variables

from jetclosure.groebner import Ideal
from jetclosure.poly import FieldSpec, RingContext

Q = FieldSpec.rationals()
F5 = FieldSpec.prime_field(5)


def _to_sympy(p, sring):
    return sring.from_dict({u: sring.domain.convert(c) for u, c in p.terms.items()})


def _from_sympy(sp, R):
    fld = R.field_spec
    out = R.zero()
    for exps, coeff in sp.terms():
        if fld.characteristic == 0:
            c = Fraction(int(coeff.numerator), int(coeff.denominator))
        else:
            c = int(coeff) % fld.characteristic
        out = out + R.monomial(exps, c)
    return out


def _random_poly(rng, R, max_deg=3, terms=3):
    p = R.zero()
    for _ in range(terms):
        u = tuple(rng.randrange(max_deg + 1) for _ in range(R.nvars))
        if sum(u) <= max_deg:
            p = p + R.monomial(u, R.field_spec.of_int(rng.randrange(-4, 5)))
    return p


def _canon(polys):
    return sorted(tuple(sorted(g.terms.items())) for g in polys)


@pytest.mark.parametrize("field,domain", [(Q, QQ), (F5, GF(5))])
def test_reduced_bases_match_sympy(field, domain):
    """Dense random generators, then monomial-heavy sets (single terms
    mixed with binomials): there the engine forms no pair of two
    monomials, and the chain criterion meets the pairs it left out."""
    rng = random.Random(4242)
    R = RingContext(field, ("x", "y", "z"))
    sring, *_ = sympy_ring("x,y,z", domain, grevlex)

    def dense():
        return [_random_poly(rng, R) for _ in range(rng.randrange(1, 4))]

    def term():
        u = (0, 0, 0)
        while not 2 <= sum(u) <= 4:
            u = tuple(rng.randrange(5) for _ in range(3))
        return R.monomial(u, field.of_int(rng.choice((1, 2, 3, -1, -2))))

    def monomial_heavy():
        return [term() + term() if rng.random() < 0.3 else term() for _ in range(rng.randrange(3, 7))]

    for draw in (dense, monomial_heavy):
        checked = 0
        while checked < 25:
            gens = [g for g in draw() if not g.is_zero()]
            if not gens:
                continue
            ours = Ideal(R, gens).groebner_basis()
            theirs = sympy.polys.groebnertools.groebner(
                [_to_sympy(g, sring) for g in gens], sring
            )
            converted = [_from_sympy(sp, R) for sp in theirs]
            assert _canon(ours) == _canon(converted)
            checked += 1


def test_lex_bases_match_sympy():
    from sympy.polys.orderings import lex as sympy_lex

    rng = random.Random(777)
    R = RingContext(Q, ("x", "y"))
    sring, *_ = sympy_ring("x,y", QQ, sympy_lex)
    checked = 0
    while checked < 20:
        gens = [_random_poly(rng, R, max_deg=2) for _ in range(2)]
        gens = [g for g in gens if not g.is_zero()]
        if not gens:
            continue
        ours = Ideal(R, gens).groebner_basis(LEX)
        theirs = sympy.polys.groebnertools.groebner(
            [_to_sympy(g, sring) for g in gens], sring
        )
        assert _canon(ours) == _canon([_from_sympy(sp, R) for sp in theirs])
        checked += 1


def test_elimination_matches_sympy_lex_filter():
    # eliminating the first variable must produce the ideal of lex-basis
    # elements that avoid it
    from sympy.polys.orderings import lex as sympy_lex

    from jetclosure.groebner import ideals_equal
    from jetclosure.poly import Polynomial

    rng = random.Random(888)
    R = RingContext(Q, ("x", "y", "z"))
    sub = RingContext(Q, ("y", "z"))
    sring, *_ = sympy_ring("x,y,z", QQ, sympy_lex)
    checked = 0
    while checked < 10:
        gens = [_random_poly(rng, R, max_deg=2) for _ in range(2)]
        gens = [g for g in gens if not g.is_zero()]
        if not gens:
            continue
        ours = eliminate_variables(Ideal(R, gens), 1)
        theirs = sympy.polys.groebnertools.groebner(
            [_to_sympy(g, sring) for g in gens], sring
        )
        kept = []
        for sp in theirs:
            poly = _from_sympy(sp, R)
            if all(u[0] == 0 for u in poly.terms):
                kept.append(Polynomial(sub, {u[1:]: c for u, c in poly.terms.items()}))
        assert ideals_equal(ours, Ideal(sub, kept))
        checked += 1


@pytest.mark.parametrize("field,domain", [(Q, QQ), (F5, GF(5))])
def test_socle_is_the_common_nullspace_of_sympy_multiplication_matrices(field, domain):
    """The socle of the local algebra (S/I)_m is the common kernel of the
    multiplication maps by x and y on S/q, q = I + (x^N, y^N) the
    m-primary component of I (N = dim S/I), here built from sympy's own
    basis of q and ``reduced`` on the standard monomials that its
    leading monomials leave."""
    from sympy.polys.matrices import DomainMatrix

    from jetclosure.closures import LocalAlgebraPresentation, socle_and_gorenstein

    rng = random.Random(5150)
    R = RingContext(field, ("x", "y"))
    xs = sympy.symbols("x y")

    def staircase(exprs):
        """sympy's grevlex basis of ``exprs`` and its standard monomials,
        None when the quotient is infinite-dimensional or zero."""
        G = sympy.groebner(exprs, *xs, order="grevlex", domain=domain)
        lms = [sympy.Poly(g, *xs, domain=domain).monoms(order="grevlex")[0] for g in G.exprs]
        bounds = [min((u[j] for u in lms if u[1 - j] == 0), default=None) for j in range(2)]
        if None in bounds or (0, 0) in lms:
            return G, None
        return G, [
            u for u in itertools.product(range(bounds[0]), range(bounds[1]))
            if not any(u[0] >= v[0] and u[1] >= v[1] for v in lms)
        ]

    checked = 0
    while checked < 16:
        corners = [(rng.randrange(1, 3), rng.randrange(1, 3)) for _ in range(rng.randrange(3))]
        gens = [R.monomial(u) for u in [(rng.randrange(2, 5), 0), (0, rng.randrange(2, 5))] + corners]
        tails = [_random_poly(rng, R, terms=rng.randrange(2)) for _ in gens]
        gens = [g + R.constant(-t.constant_term()) + t for g, t in zip(gens, tails)]
        exprs = [sum(sympy.Rational(str(c)) * xs[0] ** u[0] * xs[1] ** u[1] for u, c in g.terms.items()) for g in gens]
        G, standard = staircase([e for e in exprs if e != 0])
        if standard is None:
            continue
        G, standard = staircase(list(G.exprs) + [xs[0] ** len(standard), xs[1] ** len(standard)])
        index = {u: k for k, u in enumerate(standard)}
        n = len(standard)
        rows = [[domain.zero] * n for _ in range(2 * n)]
        for k, u in enumerate(standard):
            for j in range(2):
                _, rem = sympy.reduced(xs[j] * xs[0] ** u[0] * xs[1] ** u[1], list(G.exprs), *xs, order="grevlex", domain=domain)
                for w, c in sympy.Poly(rem, *xs, domain=domain).as_dict(native=True).items():
                    rows[j * n + index[w]][k] = c
        matrix = DomainMatrix(rows, (2 * n, n), domain)
        soc = socle_and_gorenstein(LocalAlgebraPresentation(R, Ideal(R, gens)))
        assert soc.colength == n
        assert matrix.nullspace().shape[0] == len(soc.basis)
        vectors = [[domain.convert(sympy.Rational(str(p.terms.get(u, 0)))) for u in standard] for p in soc.basis]
        for v in vectors:
            assert (matrix * DomainMatrix([[c] for c in v], (n, 1), domain)).is_zero_matrix
        if vectors:
            assert DomainMatrix(vectors, (len(vectors), n), domain).rank() == len(vectors)
        checked += 1
