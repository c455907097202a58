"""Seeded case generators for the three benchmark workloads.

A case is plain data: a field, variable names, named generator lists and
the arguments of one command.  Nothing here imports jetclosure, so the
generators can run (and be timed as set-up) before the library is
imported.  ``cases.Runner`` turns a case into a library call.

Every generator takes the workload seed and is deterministic in it: the
same seed gives the same list of cases, in the same order.  Within a
workload the mix is stratified, not drawn freely: the strata (field,
number of variables, level, box size, ...) come in fixed counts.

Each generator draws from two random streams.  ``shapes`` is the same
for every seed: it picks the exponents of the extra generators, which
set how much work a case is.  ``rng`` is the seeded stream: it renames
the variables of each case (so a seed changes which variable carries
which exponent; socle-module renames from the shape stream instead, see
there) and picks every coefficient.  A seed therefore changes
the inputs the library sees, but not the amount of work in a pass, up to
the tie-breaks of the monomial order and the size of the coefficients.
Letting the seed pick the exponents too made the median case time swing
by +-25% from seed to seed, more than the benchmark's bounds allow.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

P31 = 2**31 - 1
FIELDS = ("Q", "F 2", "F 3", "F 32003", f"F {P31}")


@dataclass
class Case:
    """One unit of work: a CLI command or a library call, and its facts.

    ``ideals`` maps session names to generator strings.  ``args`` holds
    the command options (CLI) or call parameters (library).  ``expect``
    is ``"ok"`` or the code of the typed domain error that is the right
    answer.  ``facts`` records what the generator knows by construction
    and the checker relies on, such as a power N with m^N inside an ideal.
    """

    cid: str
    op: str
    field: str
    variables: tuple
    ideals: dict
    args: dict = field(default_factory=dict)
    expect: str = "ok"
    facts: dict = field(default_factory=dict)
    cli: bool = True

    def session_text(self) -> str:
        lines = [f"field {self.field}", "vars " + " ".join(self.variables)]
        for name, gens in self.ideals.items():
            lines.append(f"ideal {name}: " + ", ".join(gens))
        return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------
# text helpers
# ---------------------------------------------------------------------


def monomial_text(variables, exps) -> str:
    parts = []
    for name, e in zip(variables, exps):
        if e == 1:
            parts.append(name)
        elif e > 1:
            parts.append(f"{name}^{e}")
    return "*".join(parts) if parts else "1"


def _coefficient(rng: random.Random, fld: str) -> int:
    """A nonzero coefficient, as a signed integer the session grammar takes."""
    if fld == "Q":
        return rng.choice((-5, -4, -3, -2, -1, 1, 2, 3, 4, 5))
    p = int(fld.split()[1])
    return rng.randrange(1, p)


def binomial_text(variables, u, v, c: int) -> str:
    """x^u + c*x^v in the session grammar (no unary minus)."""
    head = monomial_text(variables, u)
    tail = monomial_text(variables, v)
    sign = "-" if c < 0 else "+"
    return f"{head} {sign} {abs(c)}*{tail}" if abs(c) != 1 else f"{head} {sign} {tail}"


def _exponents(nvars: int, degree: int, rng: random.Random, below=None) -> tuple:
    """A random exponent tuple of the given total degree, optionally
    with every entry strictly below ``below``; None when impossible."""
    for _ in range(200):
        cuts = sorted(rng.randrange(degree + 1) for _ in range(nvars - 1))
        u = tuple(b - a for a, b in zip([0] + cuts, cuts + [degree]))
        if below is None or all(e < b for e, b in zip(u, below)):
            return u
    return None


def _renaming(rng: random.Random, variables: tuple) -> tuple:
    """The variables in a seeded order.  Generators are written through
    this renaming; the session still declares ``variables`` in order."""
    names = list(variables)
    rng.shuffle(names)
    return tuple(names)


def _nil_power(pure_powers) -> int:
    """N with m^N inside (x_1^e_1, ..., x_n^e_n): sum(e_j - 1) + 1."""
    return sum(e - 1 for e in pure_powers) + 1


# ---------------------------------------------------------------------
# certify-mix
# ---------------------------------------------------------------------

XY = ("x", "y")
XYZ = ("x", "y", "z")

# The four certify cases timed in ROADMAP item 1, identical for every
# seed.  They carry most of the wall time of a pass, so they dominate
# cases_per_s, while the many small seeded cases set case_ms_p50.
CERTIFY_FIXED = (
    Case("fixed:x5y5-L8", "certify", "Q", XY, {"a": ["x^5", "y^5"]},
         {"ideal": "a", "max-level": 8}, facts={"nil": _nil_power((5, 5))}),
    Case("fixed:x3y3z3-L6", "certify", "Q", XYZ, {"a": ["x^3", "y^3", "z^3"]},
         {"ideal": "a", "max-level": 6}, facts={"nil": _nil_power((3, 3, 3))}),
    Case("fixed:xz-mod-xy-z2-L5", "certify", "Q", XYZ,
         {"a": ["x", "z"], "i": ["x*y - z^2"]},
         {"ideal": "a", "modulus": "i", "max-level": 5}, facts={"nil": None}),
    Case("fixed:x2-L6", "certify", "Q", XY, {"a": ["x^2"]},
         {"ideal": "a", "max-level": 6}, facts={"nil": None}),
)


# pure-power exponents cycled through the m-primary strata; the binomial's
# monomials come from the fixed shape stream, its coefficient and the
# renaming of the variables from the seed
POWERS_2 = ((2, 3), (3, 3), (3, 4), (4, 4), (2, 5), (3, 5), (4, 5), (5, 5))
POWERS_3 = ((2, 2, 2), (2, 2, 3), (2, 3, 3), (3, 3, 3))


def _m_primary_certify(shapes: random.Random, rng: random.Random, cid: str, fld: str,
                       powers: tuple, level: int) -> Case:
    """Pure powers plus one binomial x^u + c*x^v under the staircase,
    deg u = 2 and deg v = max(powers) - 1 (at least 2)."""
    nvars = len(powers)
    variables = XY if nvars == 2 else XYZ
    while True:
        u = _exponents(nvars, 2, shapes, below=powers)
        v = _exponents(nvars, max(2, max(powers) - 1), shapes, below=powers)
        if u is not None and v is not None and u != v:
            break
    names = _renaming(rng, variables)
    gens = [monomial_text(names, tuple(e if k == j else 0 for k in range(nvars)))
            for j, e in enumerate(powers)]
    gens.append(binomial_text(names, u, v, _coefficient(rng, fld)))
    return Case(cid, "certify", fld, variables, {"a": gens},
                {"ideal": "a", "max-level": level}, facts={"nil": _nil_power(powers)})


def _non_m_primary_certify(rng: random.Random, cid: str, fld: str, nvars: int, a: int, level: int) -> Case:
    """Ideals with a curve in their zero set: they never certify, so every
    level runs and the chain intersections grow with the closures."""
    variables = XY if nvars == 2 else XYZ
    names = _renaming(rng, variables)
    c = _coefficient(rng, fld)
    if nvars == 2:
        # x^a, plus x*y^a + c*x^(a-1): the y-axis stays in V(a)
        gens = [monomial_text(names, (a, 0)), binomial_text(names, (1, a), (a - 1, 0), c)]
    else:
        # x*y and a power of z, plus a binomial in x, z: the y-axis stays
        gens = [monomial_text(names, (1, 1, 0)), monomial_text(names, (0, 0, a)),
                binomial_text(names, (2, 0, 0), (1, 0, 1), c)]
    return Case(cid, "certify", fld, variables, {"a": gens},
                {"ideal": "a", "max-level": level}, facts={"nil": None})


def certify_mix(seed: int) -> list:
    """~3/4 m-primary certify cases, ~1/4 non-certifying, plus the fixed four.

    Strata: every field appears equally often; 2-variable cases take
    levels 2..6 and 3-variable cases levels 2..4, and the pure powers
    cycle through POWERS_2 and POWERS_3, so each stratum has the same
    count in every seed.  The fixed shape stream picks the binomials'
    monomials (of fixed degrees); the seed renames the variables and
    picks the coefficients.
    """
    shapes = random.Random("certify-mix:shapes")
    rng = random.Random(f"certify-mix:{seed}")
    cases = []
    for k in range(80):
        fld = FIELDS[k % len(FIELDS)]
        if (k // len(FIELDS)) % 3:
            powers, level = POWERS_2[k % len(POWERS_2)], 2 + k % 5
        else:
            powers, level = POWERS_3[k % len(POWERS_3)], 2 + k % 3
        cases.append(_m_primary_certify(shapes, rng, f"m{k:03d}", fld, powers, level))
    for k in range(22):
        fld = FIELDS[k % len(FIELDS)]
        nvars = 2 if k % 2 else 3
        level = (4 + k % 3) if nvars == 2 else (3 + k % 2)
        cases.append(_non_m_primary_certify(rng, f"n{k:03d}", fld, nvars, 2 + k // 2 % 2, level))
    cases.extend(CERTIFY_FIXED)
    return cases


# ---------------------------------------------------------------------
# socle-module
# ---------------------------------------------------------------------

SOCLE_FIELDS = ("Q", "F 3")


# pure-power exponents cycled through the Artinian moduli; the fixed shape
# stream picks the extra terms under the staircase, the seed the
# coefficients
ARTIN_POWERS = ((3, 3), (3, 4), (4, 3), (4, 4), (3, 5), (5, 3), (4, 5), (5, 4), (5, 5))


def _artinian_modulus(shapes: random.Random, rng: random.Random, fld: str, names: tuple,
                      powers: tuple, extras: int) -> tuple:
    """(generators, N with m^N in the ideal): x^a, y^b and ``extras``
    terms of degree max(a, b) - 1 or max(a, b) under the staircase.
    High degrees keep the colength, and so the walkthrough length, close
    to a*b."""
    gens = [monomial_text(names, (powers[0], 0)), monomial_text(names, (0, powers[1]))]
    while len(gens) < 2 + extras:
        d = shapes.randint(max(powers) - 1, max(powers))
        u = _exponents(2, d, shapes, below=powers)
        v = _exponents(2, max(powers), shapes, below=powers)
        if u is None or v is None or u == v:
            continue
        if len(gens) % 2:
            gens.append(monomial_text(names, u))
        else:
            gens.append(binomial_text(names, u, v, _coefficient(rng, fld)))
    return gens, _nil_power(powers)


def _gorenstein_modulus(rng: random.Random, fld: str, names: tuple, a: int, b: int,
                        binomial: bool) -> tuple:
    """A complete intersection in k[x,y] (hence Gorenstein), with a power
    N of every variable inside it and the nilpotency bound."""
    if not binomial:
        return [monomial_text(names, (a, 0)), monomial_text(names, (0, b))], max(a, b), _nil_power((a, b))
    # (x^a - c*y^b, x*y): x^(a+1) and y^(b+1) lie in it
    c = _coefficient(rng, fld)
    return [binomial_text(names, (a, 0), (0, b), -c), monomial_text(names, (1, 1))], max(a, b) + 1, a + b + 1


def _random_vector(shapes: random.Random, rng: random.Random, fld: str, names: tuple,
                   rank: int) -> list:
    comps = []
    for _ in range(rank):
        if shapes.random() < 0.4:
            comps.append("0")
            continue
        # no constant terms: a unit in a relation makes the module
        # Buchberger over Q blow up (minutes for one case)
        u = _exponents(2, shapes.randint(1, 2), shapes)
        v = _exponents(2, shapes.randint(1, 2), shapes)
        if u == v or shapes.random() < 0.5:
            comps.append(monomial_text(names, u))
        else:
            comps.append(binomial_text(names, u, v, _coefficient(rng, fld)))
    if all(c == "0" for c in comps):
        comps[shapes.randrange(rank)] = names[shapes.randrange(2)]
    return comps


def socle_module(seed: int) -> list:
    """Artinian quotients of k[x,y] over Q and F_3.

    Per block of 12: 2 socle, 2 walkthrough (max level 1 or 2), 2 matlis
    on complete intersections, 5 module_jet_closure (rank 2-3, level
    1-2) and 1 non-Artinian modulus whose right answer is NotArtinian.
    Walkthroughs are the heaviest cases; the many module cases give the
    module Buchberger a share of the time that an engine change shows in.
    Pure powers, extra-term counts, ranks and levels cycle; the fixed
    shape stream picks the extra terms, the shapes of the module vectors
    and the renaming, the seed every coefficient.
    """
    shapes = random.Random("socle-module:shapes")
    rng = random.Random(f"socle-module:{seed}")
    cases = []
    for blk in range(9):
        for k in range(12):
            fld = SOCLE_FIELDS[(blk + k) % 2]
            cid = f"b{blk:02d}k{k:02d}"
            powers = ARTIN_POWERS[(blk + k) % len(ARTIN_POWERS)]
            extras = 1 + (blk + k) % 2
            # renamed by the shape stream, not the seed: in two variables the
            # swap changes the cost of a walkthrough by up to 1.8x
            names = _renaming(shapes, XY)
            if k < 2:
                gens, nil = _artinian_modulus(shapes, rng, fld, names, powers, extras)
                cases.append(Case(cid, "socle", fld, XY, {"i": gens}, {"modulus": "i"},
                                  facts={"nil": nil}))
            elif k < 4:
                gens, nil = _artinian_modulus(shapes, rng, fld, names, powers, extras)
                cases.append(Case(cid, "walkthrough", fld, XY, {"i": gens},
                                  {"modulus": "i", "max-level": 1 + k % 2}, facts={"nil": nil}))
            elif k < 6:
                gens, power, nil = _gorenstein_modulus(rng, fld, names, 2 + blk % 3, 2 + k % 3, bool((blk + k) % 2))
                cases.append(Case(cid, "matlis", fld, XY, {"i": gens},
                                  {"modulus": "i", "power": power}, facts={"nil": nil}))
            elif k < 11:
                gens, nil = _artinian_modulus(shapes, rng, fld, names, powers, extras)
                rank = 2 + k % 2
                cases.append(Case(
                    cid, "module_jet_closure", fld, XY, {"i": gens},
                    {"rank": rank, "level": 1 + (blk + k // 2) % 2,
                     "relations": [_random_vector(shapes, rng, fld, names, rank) for _ in range(blk % 2)],
                     "submodule": [_random_vector(shapes, rng, fld, names, rank) for _ in range(1 + k % 2)]},
                    facts={"nil": nil}, cli=False))
            else:
                # every generator is divisible by x: the y-axis is in the zero set
                gens = [monomial_text(names, (2 + blk % 2, 0)), monomial_text(names, (1, 1 + blk % 3))]
                op = ("socle", "walkthrough")[blk % 2]
                args = {"modulus": "i"} if op == "socle" else {"modulus": "i", "max-level": 1}
                cases.append(Case(cid, op, fld, XY, {"i": gens}, args, expect="NotArtinian"))
    return cases


# ---------------------------------------------------------------------
# staircase-newton
# ---------------------------------------------------------------------

WXYZ = ("w", "x", "y", "z")

# ROADMAP item 1: the box scan tests 40^4 = 2.56M points to find 157
# standard monomials; and icl of (x^8, y^8, z^8), 729 exact LPs.
_ROADMAP_STAIRCASE = ["w^40", "x^40", "y^40", "z^40"] + [
    f"{a}*{b}" for i, a in enumerate(WXYZ) for b in WXYZ[i + 1:]
]
STAIRCASE_FIXED = (
    Case("fixed:pure40-pairs", "standard_monomial_basis", "Q", WXYZ,
         {"a": _ROADMAP_STAIRCASE}, cli=False),
    Case("fixed:icl-x8y8z8", "icl", "Q", XYZ, {"a": ["x^8", "y^8", "z^8"]}, {"ideal": "a"}),
)

# box sizes of the seeded staircases, log-spaced over two orders of
# magnitude (the box is the product of the pure-power exponents)
_BOX_TARGETS = (500, 1200, 3000, 7000, 18000, 45000)


def _staircase(shapes: random.Random, nvars: int, box: int) -> list:
    """Exponent tuples: pure powers whose product is near ``box`` and
    one small mixed monomial x_i^a*x_j^b per pair of variables.  As in
    the ROADMAP case, the mixed terms cut the staircase down to thin
    arms along the axes, so the box scan tests far more points than
    there are standard monomials.  The box is fixed by ``box``; the fixed
    shape stream picks the mixed exponents."""
    side = round(box ** (1.0 / nvars))
    powers = [side + (j % 3) - 1 for j in range(nvars)]
    gens = [tuple(p if k == j else 0 for k in range(nvars)) for j, p in enumerate(powers)]
    for i in range(nvars):
        for j in range(i + 1, nvars):
            gens.append(tuple(shapes.randint(1, 3) if k in (i, j) else 0 for k in range(nvars)))
    return gens


# pure powers of the icl ideals, cycled; each box point costs one exact LP
ICL_POWERS = {2: ((6, 8), (8, 7), (7, 7), (8, 8)), 3: ((4, 5, 5), (5, 4, 5), (5, 5, 4), (4, 4, 5))}


def _monomial_ideal_2_3(shapes: random.Random, powers: tuple) -> list:
    """Pure powers and two mixed generators inside their box, so the box
    of the Newton scan is fixed by ``powers``; the fixed shape stream
    picks the mixed generators."""
    nvars = len(powers)
    gens = [tuple(p if k == j else 0 for k in range(nvars)) for j, p in enumerate(powers)]
    while len(gens) < nvars + 2:
        u = tuple(shapes.randint(0, p - 1) for p in powers)
        if sum(1 for e in u if e) >= 2 and u not in gens:
            gens.append(u)
    return gens


def staircase_newton(seed: int) -> list:
    """Monomial ideals: box scans, module box scans and Newton LPs.

    Per block of 12: 6 standard_monomial_basis (3 and 4 variables
    alternating, one per box target), 1 module_standard_monomials and 5
    icl (2 variables, 3 variables alternating), plus the two fixed
    ROADMAP cases once per pass.  The fixed shape stream picks the mixed
    generators; the seed renames the variables of every case, which is
    all a seed can change in a monomial ideal without changing its cost.
    """
    shapes = random.Random("staircase-newton:shapes")
    rng = random.Random(f"staircase-newton:{seed}")
    cases = []
    blocks = 9
    for blk in range(blocks):
        for k in range(12):
            cid = f"b{blk:02d}k{k:02d}"
            if k < 6:
                nvars = 3 + (blk + k) % 2
                variables = WXYZ[-nvars:]
                box = _BOX_TARGETS[k]
                names = _renaming(rng, variables)
                gens = [monomial_text(names, u) for u in _staircase(shapes, nvars, box)]
                cases.append(Case(cid, "standard_monomial_basis", FIELDS[blk % 5], variables,
                                  {"a": gens}, cli=False))
            elif k == 6:
                rank = 2 + blk % 2
                nvars = 3
                variables = WXYZ[-nvars:]
                names = _renaming(rng, variables)
                gens = []
                for comp in range(rank):
                    for u in _staircase(shapes, nvars, 1000):
                        gens.append([comp, monomial_text(names, u)])
                cases.append(Case(cid, "module_standard_monomials", "Q", variables, {},
                                  {"rank": rank, "generators": gens}, cli=False))
            else:
                nvars = 2 + (blk + k) % 2
                variables = XY if nvars == 2 else XYZ
                powers = ICL_POWERS[nvars][(blk + k) % 4]
                names = _renaming(rng, variables)
                gens = [monomial_text(names, u) for u in _monomial_ideal_2_3(shapes, powers)]
                cases.append(Case(cid, "icl", "Q", variables, {"a": gens}, {"ideal": "a"}))
    cases.extend(STAIRCASE_FIXED)
    return cases


GENERATORS = {
    "certify-mix": certify_mix,
    "socle-module": socle_module,
    "staircase-newton": staircase_newton,
}
