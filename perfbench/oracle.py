"""Answer checks that do not use the library's Groebner code.

Membership is decided by exact linear algebra on spans of monomial
multiples, the way ``tests/oracles.py`` does it, with a small sparse
echelon form of our own; monomial questions by walking the staircase;
Newton-polyhedron membership by the support-function test.  Polynomials
printed by the CLI are read back with the library's parser (the
``poly`` layer only).  Each ``check_*`` function returns a list of
problems; an empty list means the answer passed.

Two exact membership tests are used:

* ``graded_span``: f lies in the ideal of a degrevlex Groebner basis G
  iff f is a combination of x^a*g with deg(x^a*g) <= deg(f), because a
  degree-compatible order gives standard representations.  A "yes" is
  sound for any generating set; a "no" relies on G being the reduced
  basis the report claims it is.
* ``truncated_span``: when m^N lies in an ideal J, f lies in J iff the
  truncation of f below degree N lies in the image of J in S/m^N, which
  is spanned by the truncations of x^a*g with |a| < N.  The power N is
  known by construction for every m-primary input the generators make.
"""

from __future__ import annotations

import itertools
import json
from fractions import Fraction


class Field:
    def __init__(self, label: str):
        self.p = 0 if label == "Q" else int(label.split()[1])

    def norm(self, c):
        return Fraction(c) if self.p == 0 else int(c) % self.p

    def inv(self, c):
        return 1 / c if self.p == 0 else pow(c, self.p - 2, self.p)

    def mul(self, a, b):
        return a * b if self.p == 0 else a * b % self.p

    def sub(self, a, b):
        return a - b if self.p == 0 else (a - b) % self.p


class Span:
    """Row echelon form of sparse vectors (dict column -> scalar)."""

    def __init__(self, fld: Field):
        self.fld = fld
        self.rows = {}  # pivot column -> row with coefficient 1 there

    def reduce(self, vec: dict) -> dict:
        """The unique element of vec + span whose pivot entries are 0."""
        fld = self.fld
        work = dict(vec)
        out = {}
        while work:
            col = max(work)
            a = work.pop(col)
            row = self.rows.get(col)
            if row is None:
                out[col] = a
                continue
            for k, b in row.items():
                if k != col:
                    v = fld.sub(work.get(k, 0), fld.mul(a, b))
                    if v:
                        work[k] = v
                    else:
                        work.pop(k, None)
        return out

    def add(self, vec: dict) -> bool:
        """Insert vec; True when it was independent of the span."""
        r = self.reduce(vec)
        if not r:
            return False
        col = max(r)
        inv = self.fld.inv(r[col])
        self.rows[col] = {k: self.fld.mul(v, inv) for k, v in r.items()}
        return True

    def contains(self, vec: dict) -> bool:
        return not self.reduce(vec)

    @property
    def rank(self) -> int:
        return len(self.rows)


# ---------------------------------------------------------------------
# polynomials as dicts exponent tuple -> scalar
# ---------------------------------------------------------------------


def monomials_below(nvars: int, degree: int) -> list:
    """All exponent tuples of total degree < degree."""
    return [u for d in range(degree) for u in _of_degree(nvars, d)]


def _of_degree(n: int, d: int):
    if n == 1:
        yield (d,)
        return
    for e in range(d, -1, -1):
        for rest in _of_degree(n - 1, d - e):
            yield (e,) + rest


def shift(poly: dict, a: tuple, below=None) -> dict:
    """x^a * poly, dropping terms of degree >= below when given."""
    out = {}
    for u, c in poly.items():
        w = tuple(x + y for x, y in zip(u, a))
        if below is None or sum(w) < below:
            out[w] = c
    return out


def degree(poly: dict) -> int:
    return max((sum(u) for u in poly), default=-1)


def order(poly: dict) -> int:
    return min((sum(u) for u in poly), default=-1)


class Reader:
    """Reads printed polynomials into oracle dicts over one ring."""

    def __init__(self, jc, field_label: str, variables):
        poly = jc.poly
        spec = (poly.FieldSpec.rationals() if field_label == "Q"
                else poly.FieldSpec.prime_field(int(field_label.split()[1])))
        self.ring = poly.RingContext(spec, tuple(variables))
        self.parse = poly.parse_polynomial
        self.fld = Field(field_label)
        self.nvars = len(variables)

    def __call__(self, text: str) -> dict:
        return {u: self.fld.norm(c) for u, c in self.parse(text, self.ring).terms.items()}

    def many(self, texts) -> list:
        return [self(t) for t in texts]


def graded_span(gens: list, nvars: int, fld: Field, top: int) -> Span:
    """Span of x^a*g with deg(x^a*g) <= top (see the module docstring)."""
    span = Span(fld)
    for g in gens:
        d = degree(g)
        if d < 0 or d > top:
            continue
        for a in monomials_below(nvars, top - d + 1):
            span.add(shift(g, a))
    return span


def truncated_span(gens: list, nvars: int, fld: Field, nil: int) -> Span:
    """Image of the ideal (gens) in S/m^nil, assuming m^nil inside it."""
    span = Span(fld)
    for g in gens:
        low = order(g)
        if low < 0 or low >= nil:
            continue
        for a in monomials_below(nvars, nil - low):
            span.add(shift(g, a, nil))
    return span


def truncate(f: dict, nil: int) -> dict:
    return {u: c for u, c in f.items() if sum(u) < nil}


# ---------------------------------------------------------------------
# certify-mix
# ---------------------------------------------------------------------


def check_chain(read: Reader, target: list, chain_texts: list, nil, cert: dict) -> list:
    """Chain invariants of one certificate.

    Every C_l contains a + I, C_(l+1) lies in C_l, and when a + I is
    m-primary (``nil`` known) the certificate is certified exactly at
    the first level where C_l lies in a + I.
    """
    problems = []
    fld, n = read.fld, read.nvars
    chain = [read.many(c) for c in chain_texts]
    expected = cert["level"] + 1 if cert["certified"] else cert["maxLevel"] + 1
    if len(chain) != expected:
        return [f"chain has {len(chain)} entries, expected {expected}"]
    for level, entry in enumerate(chain):
        tests = list(target) + (chain[level + 1] if level + 1 < len(chain) else [])
        fs = [f for f in tests if f]
        if not fs:
            continue
        span = graded_span(entry, n, fld, max(degree(f) for f in fs))
        if not all(span.contains(f) for f in target if f):
            problems.append(f"C_{level} does not contain a + I")
        if level + 1 < len(chain) and not all(span.contains(f) for f in chain[level + 1] if f):
            problems.append(f"C_{level + 1} is not inside C_{level}")
    if nil is None:
        if cert["certified"]:
            problems.append("a non-m-primary ideal was certified")
        return problems
    ideal_span = truncated_span(target, n, fld, nil)

    def inside_target(entry):
        return all(ideal_span.contains(truncate(f, nil)) for f in entry)

    last = inside_target(chain[-1])
    if cert["certified"] != last:
        problems.append(f"certified={cert['certified']} but C_last inside a + I is {last}")
    if cert["certified"] and len(chain) > 1 and inside_target(chain[-2]):
        problems.append("certified later than the first equal level")
    return problems


def check_certify(case, payload: str, jc) -> list:
    report = json.loads(payload)
    read = Reader(jc, case.field, case.variables)
    modulus = case.ideals[case.args["modulus"]] if "modulus" in case.args else []
    target = read.many(case.ideals[case.args["ideal"]] + modulus)
    cert = report["certificate"]
    problems = []
    if report["outputs"] != {"certified": cert["certified"], "level": cert["level"]}:
        problems.append("outputs disagree with the certificate")
    if report["generators"] != cert["chain"][-1]:
        problems.append("generators differ from the last chain entry")
    return problems + check_chain(read, target, cert["chain"], case.facts["nil"], cert)


# ---------------------------------------------------------------------
# socle-module
# ---------------------------------------------------------------------


def quotient_data(gens: list, nvars: int, fld: Field, nil: int) -> tuple:
    """(span of the ideal in S/m^nil, colength, socle dimension)."""
    ideal = truncated_span(gens, nvars, fld, nil)
    basis = monomials_below(nvars, nil)
    colength = len(basis) - ideal.rank
    images = Span(fld)
    for u in basis:
        row = {}
        for j in range(nvars):
            e = tuple(x + (k == j) for k, x in enumerate(u))
            if sum(e) < nil:
                for col, c in ideal.reduce({e: 1}).items():
                    row[(j, col)] = c
        images.add(row)
    socle_dim = len(basis) - images.rank - ideal.rank
    return ideal, colength, socle_dim


def _socle_problems(read: Reader, ideal: Span, nil: int, socle: list, prefix: str) -> list:
    problems = []
    vecs = read.many(socle)
    for s in vecs:
        for j in range(read.nvars):
            e = tuple(int(k == j) for k in range(read.nvars))
            if not ideal.contains(shift(s, e, nil)):
                problems.append(f"{prefix}: a socle element times a variable is not in the modulus")
                return problems
    probe = Span(read.fld)
    probe.rows = dict(ideal.rows)
    if not all(probe.add(truncate(s, nil)) for s in vecs):
        problems.append(f"{prefix}: socle elements are dependent modulo the modulus")
    return problems


def check_socle(case, payload: str, jc) -> list:
    report = json.loads(payload)
    read = Reader(jc, case.field, case.variables)
    nil = case.facts["nil"]
    ideal, colength, socle_dim = quotient_data(read.many(case.ideals["i"]), read.nvars, read.fld, nil)
    problems = []
    if report["dims"]["colength"] != colength:
        problems.append(f"colength {report['dims']['colength']} != {colength}")
    if report["dims"]["socleDimension"] != socle_dim or len(report["generators"]) != socle_dim:
        problems.append(f"socle dimension != {socle_dim}")
    if report["outputs"]["gorenstein"] != (socle_dim == 1):
        problems.append("Gorenstein flag is wrong")
    return problems + _socle_problems(read, ideal, nil, report["generators"], "socle")


def _embedding_problems(read: Reader, modulus: list, power: int, witness: str, images) -> list:
    """The witness multiplies the modulus into m_N = (x_j^N), and the
    images b*w reduced by m_N are the printed ones, up to a nonzero
    scalar (printing clears denominators), and independent."""
    def reduce_mn(f):
        return {u: c for u, c in f.items() if all(e < power for e in u)}

    fld = read.fld
    w = read(witness)
    problems = []
    for g in modulus:
        if reduce_mn(_multiply(g, w, fld)):
            problems.append("the witness does not multiply the modulus into m_N")
            break
    span = Span(fld)
    for src, dst in images:
        expected = reduce_mn(_multiply(read(src), w, fld))
        got = read(dst)
        if not _proportional(expected, got, fld):
            problems.append(f"image of {src} is wrong")
            break
        if not span.add(got):
            problems.append("the embedding images are dependent: not injective")
            break
    return problems


def _multiply(f: dict, g: dict, fld: Field) -> dict:
    out = {}
    for u, a in f.items():
        for v, b in g.items():
            w = tuple(x + y for x, y in zip(u, v))
            c = (out.get(w, 0) + fld.mul(a, b))
            c = c if fld.p == 0 else c % fld.p
            if c:
                out[w] = c
            else:
                out.pop(w, None)
    return out


def _proportional(f: dict, g: dict, fld: Field) -> bool:
    if f.keys() != g.keys():
        return False
    if not f:
        return True
    u = next(iter(f))
    ratio = fld.mul(g[u], fld.inv(f[u]))
    return all(fld.mul(f[k], ratio) == g[k] for k in f)


def check_matlis(case, payload: str, jc) -> list:
    report = json.loads(payload)
    read = Reader(jc, case.field, case.variables)
    nil = case.facts["nil"]
    modulus = read.many(case.ideals["i"])
    _, colength, socle_dim = quotient_data(modulus, read.nvars, read.fld, nil)
    problems = []
    dims = report["dims"]
    if socle_dim != 1:
        problems.append("matlis case modulus is not Gorenstein")
    if dims["colength"] != colength or dims["colonQuotientDim"] != colength:
        problems.append(f"dims {dims} != colength {colength}")
    if len(report["outputs"]["images"]) != colength:
        problems.append("one image per standard monomial expected")
    return problems + _embedding_problems(
        read, modulus, case.args["power"], report["outputs"]["witness"], report["outputs"]["images"])


def check_walkthrough(case, payload: str, jc) -> list:
    """Stages drop the length by exactly one, end at the first Gorenstein
    stage, and each stage's socle, certificate and embedding check out."""
    report = json.loads(payload)
    read = Reader(jc, case.field, case.variables)
    nil = case.facts["nil"]
    fld, n = read.fld, read.nvars
    stages = report["outputs"]["stages"]
    _, colength, _ = quotient_data(read.many(case.ideals["i"]), n, fld, nil)
    problems = []
    if not stages or stages[0]["colength"] != colength:
        return [f"first stage colength is not {colength}"]
    for k, st in enumerate(stages):
        prefix = f"stage {k}"
        modulus = read.many(st["modulus"])
        ideal, col, socle_dim = quotient_data(modulus, n, fld, nil)
        if st["colength"] != col or col != colength - k:
            problems.append(f"{prefix}: colength {st['colength']} != {colength - k}")
        if st["gorenstein"] != (k == len(stages) - 1) or st["gorenstein"] != (socle_dim == 1):
            problems.append(f"{prefix}: Gorenstein flag is wrong")
        problems += _socle_problems(read, ideal, nil, st["socle"], prefix)
        if k + 1 < len(stages):
            nxt = truncated_span(read.many(stages[k + 1]["modulus"]), n, fld, nil)
            used = st["socleGeneratorUsed"]
            if used is None or not all(nxt.contains(truncate(f, nil)) for f in modulus + [read(used)]):
                problems.append(f"{prefix}: the next stage does not contain this modulus and (g)")
        problems += [f"{prefix}: {p}" for p in
                     check_chain(read, modulus, st["certificate"]["chain"], nil, st["certificate"])]
    emb = report["outputs"]["embedding"]
    if emb["colength"] != colength - len(stages) + 1 or emb["colonQuotientDim"] != emb["colength"]:
        problems.append("embedding dimensions disagree with the Gorenstein stage")
    return problems


def check_module_closure(case, payload: str, jc) -> list:
    """dim M/N by linear algebra in (S/m^nil)^rank, and the kernel basis
    independent modulo the relations."""
    result = json.loads(payload)
    read = Reader(jc, case.field, case.variables)
    nil = case.facts["nil"]
    fld, n, rank = read.fld, read.nvars, case.args["rank"]
    vectors = [read.many(v) for v in case.args["relations"] + case.args["submodule"]]
    for g in read.many(case.ideals["i"]):
        for c in range(rank):
            vectors.append([g if k == c else {} for k in range(rank)])
    span = Span(fld)
    for vec in vectors:
        low = min((order(p) for p in vec if p), default=nil)
        for a in monomials_below(n, max(nil - low, 0)):
            row = {}
            for c, p in enumerate(vec):
                for u, x in shift(p, a, nil).items():
                    row[(c, u)] = x
            span.add(row)
    dim = rank * len(monomials_below(n, nil)) - span.rank
    problems = []
    if result["dim_module"] != dim or len(result["standard_basis"]) != dim:
        problems.append(f"dim M/N {result['dim_module']} != {dim}")
    if result["dim_kernel"] != len(result["kernel"]) or result["dim_kernel"] > dim:
        problems.append("kernel dimension is inconsistent")
    for v in result["kernel"]:
        row = {}
        for c, text in enumerate(v):
            for u, x in truncate(read(text), nil).items():
                row[(c, u)] = x
        if not span.add(row):
            problems.append("kernel basis is dependent modulo the relations")
            break
    return problems


# ---------------------------------------------------------------------
# staircase-newton
# ---------------------------------------------------------------------


def staircase(gens: list) -> set:
    """Standard monomials of a monomial ideal by a walk from 1 upward.

    The complement of a monomial ideal is closed under division, so a
    search through x^u -> x^u * x_j meets every standard monomial and
    touches only them and their immediate successors.
    """
    n = len(gens[0])
    for j in range(n):
        if not any(g[j] and not any(g[k] for k in range(n) if k != j) for g in gens):
            raise ValueError("no pure power of a variable: the staircase is infinite")

    def divisible(u):
        return any(all(a >= b for a, b in zip(u, g)) for g in gens)

    start = (0,) * n
    if divisible(start):
        return set()
    seen = {start}
    stack = [start]
    while stack:
        u = stack.pop()
        for j in range(n):
            v = u[:j] + (u[j] + 1,) + u[j + 1:]
            if v not in seen and not divisible(v):
                seen.add(v)
                stack.append(v)
    return seen


def _degrevlex_key(u):
    return (sum(u), tuple(-e for e in reversed(u)))


def _exponent_list(read: Reader, texts) -> list:
    out = []
    for t in texts:
        terms = read(t)
        if len(terms) != 1:
            raise ValueError(f"{t!r} is not a monomial")
        out.append(next(iter(terms)))
    return out


def check_standard_basis(case, payload: str, jc) -> list:
    result = json.loads(payload)
    read = Reader(jc, case.field, case.variables)
    expected = sorted(staircase(_exponent_list(read, case.ideals["a"])), key=_degrevlex_key)
    got = [tuple(u) for u in result["monomials"]]
    problems = []
    if result["colength"] != len(expected):
        problems.append(f"colength {result['colength']} != {len(expected)}")
    if got != expected:
        problems.append("standard monomials differ from the staircase walk")
    return problems


def check_module_standard(case, payload: str, jc) -> list:
    read = Reader(jc, case.field, case.variables)
    expected = []
    for comp in range(case.args["rank"]):
        gens = _exponent_list(read, [t for c, t in case.args["generators"] if c == comp])
        expected += [(comp, u) for u in sorted(staircase(gens), key=_degrevlex_key)]
    got = [(c, tuple(u)) for c, u in json.loads(payload)]
    return [] if got == expected else ["module standard monomials differ from the staircase walk"]


def newton_normals(gens: list) -> list:
    """Candidate facet normals of the Newton polyhedron (2 or 3 variables).

    A facet of conv(gens) + R^n_>=0 is spanned by differences of
    generators and coordinate directions, so its normal is a
    perpendicular (n = 2) or a cross product (n = 3) of such vectors.
    Extra candidates are harmless: every w >= 0 gives a valid inequality.
    """
    n = len(gens[0])
    dirs = [tuple(a - b for a, b in zip(g, h)) for g, h in itertools.combinations(gens, 2)]
    dirs += [tuple(int(k == j) for k in range(n)) for j in range(n)]
    cands = set()
    if n == 2:
        raw = [(-d[1], d[0]) for d in dirs]
    elif n == 3:
        raw = [(a[1] * b[2] - a[2] * b[1], a[2] * b[0] - a[0] * b[2], a[0] * b[1] - a[1] * b[0])
               for a, b in itertools.combinations(dirs, 2)]
    else:
        raise ValueError("the Newton oracle handles 2 or 3 variables")
    for w in raw:
        if all(x <= 0 for x in w):
            w = tuple(-x for x in w)
        if any(w) and all(x >= 0 for x in w):
            cands.add(w)
    return sorted(cands)


def newton_closure(gens: list) -> list:
    """Minimal generators of the integral closure: box points u with
    w.u >= min over gens of w.g for every candidate normal w."""
    normals = [(w, min(sum(a * b for a, b in zip(w, g)) for g in gens)) for w in newton_normals(gens)]
    box = [max(g[i] for g in gens) for i in range(len(gens[0]))]
    members = [
        u for u in itertools.product(*(range(b + 1) for b in box))
        if all(sum(a * b for a, b in zip(w, u)) >= h for w, h in normals)
    ]
    return sorted(u for u in members
                  if not any(v != u and all(a >= b for a, b in zip(u, v)) for v in members))


def check_icl(case, payload: str, jc) -> list:
    report = json.loads(payload)
    read = Reader(jc, case.field, case.variables)
    expected = newton_closure(_exponent_list(read, case.ideals["a"]))
    got = sorted(_exponent_list(read, report["generators"]))
    return [] if got == expected else [f"icl generators {got} != {expected}"]


CHECKS = {
    "certify": check_certify,
    "socle": check_socle,
    "walkthrough": check_walkthrough,
    "matlis": check_matlis,
    "module_jet_closure": check_module_closure,
    "standard_monomial_basis": check_standard_basis,
    "module_standard_monomials": check_module_standard,
    "icl": check_icl,
}


def check(case, status: int, payload: str, jc) -> list:
    """Problems with one answer: the expected error, or the invariants."""
    if case.expect != "ok":
        if status == 1 and payload == case.expect:
            return []
        return [f"expected {case.expect}, got status {status}: {payload[:80]}"]
    if status != 0:
        return [f"status {status}: {payload[:200]}"]
    try:
        return CHECKS[case.op](case, payload, jc)
    except (ValueError, KeyError, TypeError, IndexError, jc.errors.ParseError) as exc:
        return [f"unreadable answer: {type(exc).__name__}: {exc}"]
