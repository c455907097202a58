"""Exact multivariate polynomial arithmetic over Q or a prime field.

Monomials are plain exponent tuples (one entry per ring variable);
polynomials are immutable term maps from exponent tuple to a nonzero
scalar.  Over Q a scalar is an ``int`` when its value is an integer and
a ``fractions.Fraction`` only when a division leaves a denominator; over
F_p it is a canonical residue in ``[0, p)``.  Every operation is exact
(see ``FieldSpec``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from operator import ge, index, itemgetter, neg
from typing import Iterable, Union

from .errors import ParseError, RingMismatchError, UnknownVariableError

Exponents = tuple  # exponent tuple, one nonnegative int per variable
Scalar = Union[int, Fraction]  # a Fraction only over Q, with denominator > 1


# Miller-Rabin with the first 13 prime bases answers exactly below this
# bound, the least composite that is a strong probable prime to all of
# them (Sorenson and Webster 2017); the first 12 stop at 3.18e23.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_EXACT_BELOW = 3317044064679887385961981


def _is_prime(n: int) -> bool:
    """Exact primality of n by deterministic Miller-Rabin.

    Exact for every n below ``_MR_EXACT_BELOW`` (about 3.3e24).  Above
    it no fixed base set is proven exact, so the test raises
    ``ValueError`` rather than answer "probably prime".
    """
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    if n >= _MR_EXACT_BELOW:
        raise ValueError(
            f"cannot decide whether {n} is prime: only n below {_MR_EXACT_BELOW} is supported"
        )
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


@dataclass(frozen=True)
class FieldSpec:
    """The coefficient field: Q when ``characteristic`` is 0, else F_p.

    Over F_p a scalar is an ``int`` in [0, p).  Over Q every scalar the
    library makes is an ``int``, or a ``Fraction`` whose denominator is
    greater than 1: a ``Fraction`` appears only where a division leaves
    a denominator, and the arithmetic of integral values runs on
    ``int``, at a small fraction of the cost of a ``Fraction`` operator.

    Why the invariant holds.  The library makes Q scalars in these
    places only, and each keeps it when its operands do:

    * ``of_int``, ``zero`` and ``one`` return ints, and ``scalar``, the
      one coercion of the public constructors, returns an int for an
      integral value and a ``Fraction`` in lowest terms otherwise.
    * ``add``, ``sub`` and ``mul`` return ``s.numerator`` when their
      result s has denominator 1; ``int`` has both attributes, with
      ``n.numerator == n``.  ``inv`` returns ``Fraction(d, n)`` for n/d,
      normalised the same way, so +-1 gives back an int, and ``div`` is
      ``mul`` by ``inv``.
    * ``neg`` negates: -n is an int and -(n/d) keeps its denominator.
    * ``linalg._subtract``, the one Q arithmetic outside this class,
      normalises its result in the same way.

    Every other scalar is one of these passed on unchanged, or an int
    literal such as the 1 of a unit column.

    Why no output changes.  Where the invariant puts an int, the code
    before it held a ``Fraction`` of the same value, and an ``int`` and
    a ``Fraction`` of equal value compare equal and hash equal
    (``hash(Fraction(n)) == hash(n)``).  So everything that reads
    scalars sees the same thing: dict values and term maps, ``is_zero``,
    the monic tests ``!= 1`` of ``linalg.rref`` and ``lc == one()`` of
    the Groebner engine, sorting, and ``Polynomial.__eq__`` and
    ``__hash__``.  Mixed arithmetic gives the same values.  All text
    goes through ``format_polynomial``, whose ``_integerized`` reads
    ``c.denominator`` and computes ``int(c * lcm)``; both give the same
    result on an int.
    """

    characteristic: int = 0

    def __post_init__(self):
        p = self.characteristic
        if p != 0 and not _is_prime(p):
            raise ValueError(f"characteristic {p} is not prime")

    @classmethod
    def rationals(cls) -> "FieldSpec":
        return cls(0)

    @classmethod
    def prime_field(cls, p: int) -> "FieldSpec":
        if p == 0:  # FieldSpec(0) is Q
            raise ValueError("characteristic 0 is not prime")
        return cls(p)

    @property
    def label(self) -> str:
        return "Q" if self.characteristic == 0 else f"F {self.characteristic}"

    # scalar arithmetic -------------------------------------------------

    def of_int(self, n: int) -> Scalar:
        if self.characteristic == 0:
            return n
        return n % self.characteristic

    def scalar(self, c) -> Scalar:
        """The canonical scalar of ``c``, an int or a ``Fraction``.

        Over Q, an int for an integral value, else the ``Fraction`` in
        lowest terms; over F_p, n/d becomes n * d^(-1) mod p, and
        ``ValueError`` when p divides d.  Anything else, a float
        included, raises ``ValueError``: the rule that
        ``newton.MonomialIdealData`` applies to exponents.
        """
        if isinstance(c, Fraction):
            n, d = c.numerator, c.denominator
        else:
            try:
                n, d = index(c), 1
            except TypeError:
                raise ValueError(f"a coefficient must be an int or a Fraction, got {c!r}") from None
        p = self.characteristic
        if p == 0:
            return n if d == 1 else Fraction(n, d)
        if d % p == 0:
            raise ValueError(f"{c!r} has no value in F_{p}: its denominator is divisible by {p}")
        return n * pow(d, -1, p) % p

    def zero(self) -> Scalar:
        return 0

    def one(self) -> Scalar:
        return 1

    def add(self, a: Scalar, b: Scalar) -> Scalar:
        if self.characteristic == 0:
            s = a + b
            return s.numerator if s.denominator == 1 else s
        return (a + b) % self.characteristic

    def sub(self, a: Scalar, b: Scalar) -> Scalar:
        if self.characteristic == 0:
            s = a - b
            return s.numerator if s.denominator == 1 else s
        return (a - b) % self.characteristic

    def mul(self, a: Scalar, b: Scalar) -> Scalar:
        if self.characteristic == 0:
            s = a * b
            return s.numerator if s.denominator == 1 else s
        return (a * b) % self.characteristic

    def neg(self, a: Scalar) -> Scalar:
        if self.characteristic == 0:
            return -a
        return (-a) % self.characteristic

    def inv(self, a: Scalar) -> Scalar:
        if self.characteristic == 0:
            if a == 0:
                raise ZeroDivisionError("inverse of zero")
            s = Fraction(a.denominator, a.numerator)
            return s.numerator if s.denominator == 1 else s
        if a % self.characteristic == 0:
            raise ZeroDivisionError("inverse of zero")
        return pow(a, self.characteristic - 2, self.characteristic)

    def div(self, a: Scalar, b: Scalar) -> Scalar:
        return self.mul(a, self.inv(b))

    def is_zero(self, a: Scalar) -> bool:
        return a == 0


@dataclass(frozen=True)
class RingContext:
    """A polynomial ring: a coefficient field and an ordered variable list.

    ``_print_order`` lists the variable indices in the order a printed
    term writes its factors: a stable sort by ``_factor_sort_key`` of
    the names, so ties keep the declared order.  A term's factors are
    those of its support, and the indices of any subset keep, in a
    stable sort of all of them, the order a stable sort of that subset
    gives; so printing sorts nothing per term.
    """

    field_spec: FieldSpec
    variables: tuple
    _index: dict = field(default=None, compare=False, repr=False)
    _print_order: tuple = field(default=None, compare=False, repr=False)

    def __post_init__(self):
        names = tuple(self.variables)
        object.__setattr__(self, "variables", names)
        if len(set(names)) != len(names):
            raise ValueError("variable names must be distinct")
        object.__setattr__(self, "_index", {v: i for i, v in enumerate(names)})
        object.__setattr__(
            self, "_print_order", tuple(sorted(range(len(names)), key=lambda j: _factor_sort_key(names[j])))
        )

    @property
    def nvars(self) -> int:
        return len(self.variables)

    def var_index(self, name: str) -> int:
        try:
            return self._index[name]
        except KeyError:
            raise KeyError(f"'{name}' is not a variable of this ring") from None

    # element constructors ----------------------------------------------

    def zero(self) -> "Polynomial":
        return Polynomial(self, {})

    def one(self) -> "Polynomial":
        return self.constant(1)

    def constant(self, c) -> "Polynomial":
        c = self.field_spec.scalar(c)
        if self.field_spec.is_zero(c):
            return Polynomial(self, {})
        return Polynomial(self, {(0,) * self.nvars: c})

    def variable(self, which) -> "Polynomial":
        j = which if isinstance(which, int) else self.var_index(which)
        exps = [0] * self.nvars
        exps[j] = 1
        return Polynomial(self, {tuple(exps): self.field_spec.one()})

    def monomial(self, exps: Iterable[int], coeff=1) -> "Polynomial":
        exps = tuple(exps)
        if len(exps) != self.nvars:
            raise ValueError("exponent length does not match ring")
        c = self.field_spec.scalar(coeff)
        if self.field_spec.is_zero(c):
            return Polynomial(self, {})
        return Polynomial(self, {exps: c})


# monomial helpers -------------------------------------------------------


def monomial_divides(u: Exponents, v: Exponents) -> bool:
    """True when x^u divides x^v."""
    return all(a <= b for a, b in zip(u, v))


def monomial_lcm(u: Exponents, v: Exponents) -> Exponents:
    return tuple(max(a, b) for a, b in zip(u, v))


def minimal_exponents(exponents, key=None) -> list:
    """The exponents that no other one divides, each once, in ``key``
    order (lex when None): one pass in that order keeps an exponent iff
    no kept one divides it.  In a term order, and in lex, a proper
    divisor sorts before its multiples, so the first copy of a minimal
    exponent is kept, and any other u meets the kept first copy of a
    minimal divisor before it.  Tagged module exponents (p, -p) + u in
    position over term go the same way: >= on the tags holds only at
    one position, where the order is a term order.
    """
    kept: list = []
    for u in sorted(exponents, key=key):
        if not any(all(map(ge, u, v)) for v in kept):
            kept.append(u)
    return kept


def walk_order_ideal(bounds, outside) -> tuple:
    """(inside, corners) for the box u_j < bounds[j], every bound >= 1,
    and a predicate ``outside`` closed upward in the box: if it holds at
    u, it holds at every box point v >= u.

    The walk is depth-first from 0.  At a point u reached by raising
    coordinate j0 (j0 = 0 at 0) it asks ``outside`` at u + e_j for each
    j >= j0 that stays in the box; a point found inside goes to
    ``inside`` and is walked on, one found outside goes to the border.
    If 0 is outside, the result is ([], [0]).

    Calling guarantee: ``outside`` is asked at 0 and otherwise only at
    v = u + e_j with u in ``inside`` and j the largest index of v's
    support, once per point.  A predicate may rely on it (see
    ``newton.monomial_integral_closure``).

    * No point is asked twice.  By induction the walk reaches an inside
      u != 0 by raising the largest index of u's support, so it asks
      v = u + e_j only when u's support lies in indices <= j, that is
      when j is the largest index of v's support: v has one parent.
    * ``inside`` is every box point that is not outside.  For such a v,
      the path from 0 that raises coordinate 0 v_0 times, then
      coordinate 1 v_1 times, and so on, raises indices in
      nondecreasing order, and each of its points divides v, so it is
      inside; the walk follows the path to v.
    * The corners, the border points v whose every v - e_i is inside,
      are the minimal outside points, as the border holds each of them.
      For v != 0, let j be the largest index of v's support: v - e_j is
      inside, the walk reaches it by raising an index <= j, and so asks
      v from it.
    """
    zero = (0,) * len(bounds)
    if outside(zero):
        return [], [zero]
    inside, border = [zero], []
    stack = [(zero, 0)]
    while stack:
        u, j0 = stack.pop()
        for j in range(j0, len(bounds)):
            if u[j] + 1 < bounds[j]:
                v = u[:j] + (u[j] + 1,) + u[j + 1:]
                if outside(v):
                    border.append(v)
                else:
                    inside.append(v)
                    stack.append((v, j))
    found = set(inside)
    corners = [
        v for v in border
        if all(v[:i] + (e - 1,) + v[i + 1:] in found for i, e in enumerate(v) if e)
    ]
    return inside, corners


_REVERSED = itemgetter(slice(None, None, -1))


def degrevlex_sorted(exponents, reverse=False) -> list:
    """The exponent tuples ``exponents`` (any iterable of tuples of one
    length) as a new list in increasing degrevlex order, decreasing when
    ``reverse``: the order of ``sorted(exponents, key=MonomialOrder.key,
    reverse=reverse)``, in two stable sorts whose keys, the reversed
    tuple and ``sum``, are computed in C, with no Python call per
    element.

    Why this is the order.  In degrevlex u < v iff deg u < deg v, or the
    degrees are equal and u is larger at the last index where u and v
    differ (``MonomialOrder.key`` negates the reversed tuple).  That
    index is the first one where u[::-1] and v[::-1] differ, so at equal
    degree u < v iff u[::-1] > v[::-1] in lex order.

    * The first pass sorts by the reversed tuple, descending (ascending
      when ``reverse``), so each degree's tuples are in increasing
      (decreasing) degrevlex order.  Reversing is one-to-one, so equal
      keys mean equal tuples, and the order among them is immaterial.
    * The second pass sorts by the degree, ascending (descending when
      ``reverse``).  Python's sort is stable, with ``reverse=True`` as
      well, so it keeps the first pass's order inside each degree.

    Equal tuples are indistinguishable, so the descending list is the
    exact reverse of the ascending one.
    """
    out = sorted(exponents, key=_REVERSED, reverse=not reverse)
    out.sort(key=sum, reverse=reverse)
    return out


@dataclass(frozen=True)
class MonomialOrder:
    """The degree reverse lexicographic order, the one order the library uses.

    ``key`` maps an exponent tuple to a tuple of integers whose
    lexicographic comparison realizes the order; keys add componentwise
    under monomial multiplication, which makes the order
    multiplicative, and the key of 1 is minimal among exponent tuples.
    Any hashable object with such a ``key`` can stand in for it where a
    basis is asked for (``Ideal.groebner_basis``).  A list of exponent
    tuples is sorted by ``degrevlex_sorted``, which gives the order of
    this ``key`` without a Python call per element.
    """

    @classmethod
    def degrevlex(cls) -> "MonomialOrder":
        return cls()

    def key(self, u: Exponents):
        return (sum(u), tuple(map(neg, reversed(u))))


def compare_monomials(order: MonomialOrder, u: Exponents, v: Exponents) -> int:
    """Return -1, 0, or 1 as x^u is below, equal to, or above x^v."""
    if len(u) != len(v):
        raise ValueError("exponent tuples have different lengths")
    ku, kv = order.key(u), order.key(v)
    if ku < kv:
        return -1
    if ku > kv:
        return 1
    return 0


class Polynomial:
    """A polynomial in canonical form: no zero coefficients are stored.

    Instances are treated as immutable; all arithmetic returns fresh
    objects and raises ``RingMismatchError`` across distinct rings.
    """

    __slots__ = ("ring", "terms")

    def __init__(self, ring: RingContext, terms: dict):
        self.ring = ring
        self.terms = terms

    def _check(self, other: "Polynomial") -> None:
        if self.ring != other.ring:
            raise RingMismatchError("operands live in different rings")

    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self.ring == other.ring and self.terms == other.terms

    def __hash__(self):
        return hash((self.ring.variables, tuple(sorted(self.terms.items()))))

    def __add__(self, other: "Polynomial") -> "Polynomial":
        self._check(other)
        fld = self.ring.field_spec
        out = dict(self.terms)
        for u, c in other.terms.items():
            s = fld.add(out.get(u, 0), c)
            if fld.is_zero(s):
                out.pop(u, None)
            else:
                out[u] = s
        return Polynomial(self.ring, out)

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        self._check(other)
        fld = self.ring.field_spec
        out = dict(self.terms)
        for u, c in other.terms.items():
            s = fld.sub(out.get(u, 0), c)
            if fld.is_zero(s):
                out.pop(u, None)
            else:
                out[u] = s
        return Polynomial(self.ring, out)

    def __neg__(self) -> "Polynomial":
        fld = self.ring.field_spec
        return Polynomial(self.ring, {u: fld.neg(c) for u, c in self.terms.items()})

    def __mul__(self, other: "Polynomial") -> "Polynomial":
        self._check(other)
        fld = self.ring.field_spec
        out: dict = {}
        for u, cu in self.terms.items():
            for v, cv in other.terms.items():
                w = tuple(a + b for a, b in zip(u, v))
                s = fld.add(out.get(w, 0), fld.mul(cu, cv))
                if fld.is_zero(s):
                    out.pop(w, None)
                else:
                    out[w] = s
        return Polynomial(self.ring, out)

    def __pow__(self, n: int) -> "Polynomial":
        if n < 0:
            raise ValueError("negative power")
        result = self.ring.one()
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base if n > 1 else base
            n >>= 1
        return result

    def scale(self, c) -> "Polynomial":
        fld = self.ring.field_spec
        c = fld.scalar(c)
        if fld.is_zero(c):
            return self.ring.zero()
        return Polynomial(self.ring, {u: fld.mul(cv, c) for u, cv in self.terms.items()})

    def total_degree(self) -> int:
        """Total degree; -1 for the zero polynomial."""
        if not self.terms:
            return -1
        return max(sum(u) for u in self.terms)

    def constant_term(self) -> Scalar:
        return self.terms.get((0,) * self.ring.nvars, self.ring.field_spec.zero())

    def leading_term(self, order: MonomialOrder):
        """(exponents, coefficient) of the largest term under ``order``."""
        if not self.terms:
            raise ValueError("zero polynomial has no leading term")
        u = max(self.terms, key=order.key)
        return u, self.terms[u]

    def sorted_terms(self) -> list:
        """Terms in decreasing degrevlex order."""
        terms = self.terms
        return [(u, terms[u]) for u in degrevlex_sorted(terms, reverse=True)]

    def transport(self, target: RingContext, positions: Iterable[int]) -> "Polynomial":
        """Reinterpret in ``target``, sending variable j to ``positions[j]``.

        The coefficient field must match; exponents are just reindexed,
        so the map is the obvious ring inclusion/renaming.
        """
        positions = list(positions)
        if target.field_spec != self.ring.field_spec:
            raise RingMismatchError("transport requires the same coefficient field")
        out = {}
        for u, c in self.terms.items():
            w = [0] * target.nvars
            for j, e in enumerate(u):
                if e:
                    w[positions[j]] = e
            out[tuple(w)] = c
        return Polynomial(target, out)

    def __repr__(self) -> str:
        return f"Polynomial({format_polynomial(self)!r})"

    def __str__(self) -> str:
        return format_polynomial(self)


# parsing ----------------------------------------------------------------

_SYMBOLS = "+-*^(),:"


class Token:
    __slots__ = ("kind", "text", "line", "column")

    def __init__(self, kind: str, text: str, line: int, column: int):
        self.kind = kind  # "nat" | "ident" | one of _SYMBOLS | "end"
        self.text = text
        self.line = line
        self.column = column


def tokenize(text: str, line: int = 1) -> list:
    """Split ``text`` into tokens, tracking 1-based line/column positions.

    Identifiers start with a letter and may contain letters, digits,
    underscores and '@' (the latter only ever appears in jet-variable
    names produced by this library).
    """
    tokens = []
    col = 1
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch == "\n":
            line += 1
            col = 1
            i += 1
            continue
        if ch in " \t\r":
            i += 1
            col += 1
            continue
        if ch == "#":
            while i < n and text[i] != "\n":
                i += 1
        elif ch.isdigit():
            start = i
            while i < n and text[i].isdigit():
                i += 1
            tokens.append(Token("nat", text[start:i], line, col))
            col += i - start
        elif ch.isalpha():
            start = i
            while i < n and (text[i].isalnum() or text[i] in "_@"):
                i += 1
            tokens.append(Token("ident", text[start:i], line, col))
            col += i - start
        elif ch in _SYMBOLS:
            tokens.append(Token(ch, ch, line, col))
            i += 1
            col += 1
        else:
            raise ParseError(f"unexpected character {ch!r}", line, col)
    tokens.append(Token("end", "", line, col))
    return tokens


MAX_NESTING = 100  # parenthesis depth; deeper input would exhaust the Python stack


class _TokenStream:
    def __init__(self, tokens: list):
        self.tokens = tokens
        self.pos = 0
        self.depth = 0  # open parentheses around the current position

    def peek(self) -> Token:
        return self.tokens[self.pos]

    def next(self) -> Token:
        tok = self.tokens[self.pos]
        if tok.kind != "end":
            self.pos += 1
        return tok

    def expect(self, kind: str) -> Token:
        tok = self.peek()
        if tok.kind != kind:
            raise ParseError(f"expected {kind!r}, found {tok.text or 'end of input'!r}", tok.line, tok.column)
        return self.next()


def _parse_factor(ts: _TokenStream, ring: RingContext) -> Polynomial:
    tok = ts.peek()
    if tok.kind == "ident":
        ts.next()
        try:
            j = ring.var_index(tok.text)
        except KeyError:
            raise UnknownVariableError(tok.text, tok.line, tok.column) from None
        exps = [0] * ring.nvars
        exps[j] = 1
        if ts.peek().kind == "^":
            ts.next()
            exps[j] = int(ts.expect("nat").text)
        return Polynomial(ring, {tuple(exps): ring.field_spec.one()})  # x_j^e is one term
    if tok.kind == "(":
        if ts.depth == MAX_NESTING:
            raise ParseError(f"parentheses nested deeper than {MAX_NESTING}", tok.line, tok.column)
        ts.next()
        ts.depth += 1
        p = _parse_poly(ts, ring)
        ts.expect(")")
        ts.depth -= 1
        return p
    if tok.kind == "nat":
        ts.next()
        return ring.constant(int(tok.text))
    raise ParseError(f"expected a factor, found {tok.text or 'end of input'!r}", tok.line, tok.column)


_FACTOR_START = ("ident", "(", "nat")


def _parse_term(ts: _TokenStream, ring: RingContext) -> Polynomial:
    tok = ts.peek()
    p = None
    if tok.kind == "nat":
        ts.next()
        p = ring.constant(int(tok.text))
        if ts.peek().kind == "*":
            ts.next()
            p = p * _parse_factor(ts, ring)
        elif ts.peek().kind in _FACTOR_START:
            p = p * _parse_factor(ts, ring)
        else:
            return p
    else:
        p = _parse_factor(ts, ring)
    while ts.peek().kind == "*":
        ts.next()
        p = p * _parse_factor(ts, ring)
    return p


def _parse_poly(ts: _TokenStream, ring: RingContext) -> Polynomial:
    p = _parse_term(ts, ring)
    while ts.peek().kind in "+-":
        op = ts.next().kind
        q = _parse_term(ts, ring)
        p = p + q if op == "+" else p - q
    return p


def parse_polynomial(text: str, ring: RingContext) -> Polynomial:
    """Parse ``text`` as a polynomial of ``ring`` (canonical form)."""
    ts = _TokenStream(tokenize(text))
    p = _parse_poly(ts, ring)
    tok = ts.peek()
    if tok.kind != "end":
        raise ParseError(f"unexpected trailing input {tok.text!r}", tok.line, tok.column)
    return p


# printing ---------------------------------------------------------------


def _integerized(p: Polynomial) -> list:
    """Terms of ``p`` with denominators cleared, sorted degrevlex-descending.

    Over Q the polynomial is scaled by the (positive) lcm of coefficient
    denominators so that the printed text stays inside the integer
    grammar; integer-coefficient input is emitted verbatim.
    """
    items = p.sorted_terms()
    if p.ring.field_spec.characteristic != 0:
        return [(u, int(c)) for u, c in items]
    lcm = math.lcm(*(c.denominator for _, c in items))
    return [(u, int(c * lcm)) for u, c in items]


def _factor_sort_key(name: str):
    # group jet variables by base name, then jet order: x@0*y@2 not y@2*x@0
    if "@" in name:
        prefix, _, idx = name.partition("@")
        if idx.isdigit():
            return (prefix, int(idx))
    return (name, -1)


def _format_term_body(ring: RingContext, u: Exponents, c: int) -> str:
    parts = []
    if c != 1 or not any(u):
        parts.append(str(c))
    names = ring.variables
    for j in ring._print_order:
        e = u[j]
        if e == 1:
            parts.append(names[j])
        elif e:
            parts.append(f"{names[j]}^{e}")
    return "*".join(parts)


def format_polynomial(p: Polynomial) -> str:
    """Render ``p`` in the session grammar, terms degrevlex-descending.

    The output always re-parses (in ``p.ring``) to a polynomial equal to
    ``p`` up to the positive denominator-clearing factor; for polynomials
    with integer coefficients the round trip is exact.  A leading
    negative term is emitted as ``0 - ...`` since the grammar has no
    unary minus.
    """
    items = _integerized(p)
    if not items:
        return "0"
    pieces = []
    first = True
    for u, c in items:
        if first:
            if c < 0:
                pieces.append("0")
                pieces.append(f" - {_format_term_body(p.ring, u, -c)}")
            else:
                pieces.append(_format_term_body(p.ring, u, c))
            first = False
        elif c < 0:
            pieces.append(f" - {_format_term_body(p.ring, u, -c)}")
        else:
            pieces.append(f" + {_format_term_body(p.ring, u, c)}")
    return "".join(pieces)
