"""Session-file parser, command dispatch, and report rendering.

A session file declares the coefficient field, the variables, and named
ideals::

    field Q          # or: field F 5
    vars x y
    ideal a: x^2, y^2

Commands operate on those names and print either human-readable lines
or, with --json, one machine-readable object with the fixed key set
{command, field, vars, inputs, outputs, generators, dims, certificate,
millis}.  Machine output is byte-deterministic: the millis field is
pinned to 0 and wall-clock timing goes to stderr instead.  Text lines
wrap a list nested in a list or a mapping in parentheses, as in
``chain: (y, x), (x, y^2)``, and print a missing value as ``null``.
Each command is one ``COMMANDS`` entry: a handler that returns only the
report fields it sets.

Exit codes: 0 on success, 1 on a domain error, 2 on a parse or usage
error, 3 on an internal error (a failed invariant of the library).  A
reader that closes stdout before the report is written, as
``| head -1`` or ``| grep -q`` do, still gets 0 and no traceback: the
command ran, and the rest of the report is dropped.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
import time
from dataclasses import dataclass, field

from .closures import (
    LocalAlgebraPresentation,
    certify_arc_closed,
    cumulative_closure_chain,
    gorenstein_walkthrough,
    jet_closure,
    jsc_membership,
    matlis_embedding,
    socle_and_gorenstein,
    universal_jet_image,
)
from .errors import DomainError, InternalError, ParseError
from .groebner import DEGREVLEX, Ideal
from .jets import fiber_ideal, hs_derivations, jet_ideal
from .newton import MonomialIdealData, monomial_integral_closure
from .poly import FieldSpec, Polynomial, RingContext, format_polynomial, parse_polynomial, tokenize, _TokenStream, _parse_poly


class UsageError(Exception):
    """Bad command usage: unknown names, malformed inputs (exit code 2)."""


@dataclass
class Session:
    field_spec: FieldSpec
    ring: RingContext
    ideals: dict

    def ideal(self, name: str) -> Ideal:
        if name is None:
            raise UsageError("an --ideal name is required for this command")
        return self.modulus(name)

    def modulus(self, name: str) -> Ideal:
        if name is None:
            return Ideal(self.ring, [])
        if name not in self.ideals:
            raise UsageError(f"unknown ideal '{name}'")
        return self.ideals[name]


def _valid_variable_name(name: str) -> bool:
    if not name or not name[0].isalpha():
        return False
    return all(ch.isalnum() or ch == "_" for ch in name)


def parse_session(text: str) -> Session:
    """Parse a session file; field and vars must precede any ideal."""
    field_spec = None
    variables = None
    ring = None
    ideals: dict = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        tokens = tokenize(raw, line=lineno)
        ts = _TokenStream(tokens)
        head = ts.peek()
        if head.kind == "end":
            continue
        if head.kind != "ident":
            raise ParseError("expected a statement keyword", head.line, head.column)
        keyword = ts.next().text
        if keyword == "field":
            if field_spec is not None:
                raise ParseError("duplicate field declaration", head.line, head.column)
            tok = ts.next()
            if tok.kind == "ident" and tok.text == "Q":
                field_spec = FieldSpec.rationals()
            elif tok.kind == "ident" and tok.text == "F":
                p_tok = ts.expect("nat")
                try:
                    field_spec = FieldSpec.prime_field(int(p_tok.text))
                except ValueError as exc:
                    raise ParseError(str(exc), p_tok.line, p_tok.column) from None
            else:
                raise ParseError("field kind must be Q or F <prime>", tok.line, tok.column)
        elif keyword == "vars":
            if variables is not None:
                raise ParseError("duplicate vars declaration", head.line, head.column)
            names = []
            while ts.peek().kind == "ident":
                tok = ts.next()
                if not _valid_variable_name(tok.text):
                    raise ParseError(f"invalid variable name '{tok.text}'", tok.line, tok.column)
                if tok.text in names:
                    raise ParseError(f"duplicate variable '{tok.text}'", tok.line, tok.column)
                names.append(tok.text)
            if not names:
                raise ParseError("vars needs at least one name", head.line, head.column)
            variables = tuple(names)
        elif keyword == "ideal":
            if field_spec is None or variables is None:
                raise ParseError("field and vars must be declared before ideals", head.line, head.column)
            if ring is None:
                ring = RingContext(field_spec, variables)
            name_tok = ts.expect("ident")
            if name_tok.text in ideals:
                raise ParseError(f"duplicate ideal name '{name_tok.text}'", name_tok.line, name_tok.column)
            ts.expect(":")
            gens = [_parse_poly(ts, ring)]
            while ts.peek().kind == ",":
                ts.next()
                gens.append(_parse_poly(ts, ring))
            ideals[name_tok.text] = Ideal(ring, gens)
        else:
            raise ParseError(f"unknown statement '{keyword}'", head.line, head.column)
        tail = ts.peek()
        if tail.kind != "end":
            raise ParseError(f"unexpected trailing input {tail.text!r}", tail.line, tail.column)
    if field_spec is None or variables is None:
        raise ParseError("a session needs one field and one vars declaration", 1, 1)
    if ring is None:
        ring = RingContext(field_spec, variables)
    return Session(field_spec=field_spec, ring=ring, ideals=ideals)


@dataclass
class Report:
    command: str
    field_label: str
    variables: tuple
    inputs: dict
    outputs: dict = field(default_factory=dict)
    generators: list = field(default_factory=list)
    dims: dict = field(default_factory=dict)
    certificate: dict = None

    def to_json(self) -> str:
        payload = {
            "command": self.command,
            "field": self.field_label,
            "vars": list(self.variables),
            "inputs": self.inputs,
            "outputs": self.outputs,
            "generators": self.generators,
            "dims": self.dims,
            "certificate": self.certificate,
            "millis": 0,
        }
        return json.dumps(payload)

    def to_text(self) -> str:
        lines = [f"command: {self.command}", f"field: {self.field_label}", f"vars: {' '.join(self.variables)}"]
        for key, value in [*self.inputs.items(), *self.outputs.items()]:
            lines.append(f"{key}: {_render(value)}")
        if self.generators:
            lines.append("generators: " + ", ".join(self.generators))
        for key, value in self.dims.items():
            lines.append(f"{key}: {value}")
        if self.certificate is not None:
            cert = self.certificate
            if cert["certified"]:
                lines.append(f"certificate: Certified at level {cert['level']}")
            else:
                lines.append(f"certificate: NotCertified up to level {cert['maxLevel']}")
            for level, gens in enumerate(cert["chain"]):
                lines.append(f"C_{level}: " + ", ".join(gens))
        return "\n".join(lines)


def _render(value, nested: bool = False) -> str:
    """One text value; lists inside a list or a mapping get parentheses."""
    if value is None:
        return "null"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, list):
        text = ", ".join(_render(v, True) for v in value) if value else "0"
        return f"({text})" if nested else text
    if isinstance(value, dict):
        return "{" + ", ".join(f"{k}: {_render(v, True)}" for k, v in value.items()) + "}"
    return str(value)


def _strs(polys) -> list:
    return [format_polynomial(p) for p in polys]


def _canonical_gens(I: Ideal) -> list:
    return _strs(I.groebner_basis(DEGREVLEX))


def _certificate_dict(cert) -> dict:
    return {
        "certified": cert.certified,
        "level": cert.level,
        "maxLevel": cert.max_level,
        "chain": [_canonical_gens(c) for c in cert.chain],
    }


def _parse_user_poly(session: Session, text: str) -> Polynomial:
    if text is None:
        raise UsageError("a --poly/--element string is required for this command")
    return parse_polynomial(text, session.ring)


def _presentation(session: Session, args) -> LocalAlgebraPresentation:
    return LocalAlgebraPresentation(session.ring, session.modulus(args.modulus))


def _derive(session, args):
    f = _parse_user_poly(session, args.poly)
    inputs = {"poly": format_polynomial(f), "level": args.level}
    return dict(inputs=inputs, generators=_strs(hs_derivations(f, args.level)))


def _jet_ideal(session, args):
    I = session.ideal(args.ideal)
    return dict(inputs={"ideal": _strs(I.generators), "level": args.level}, generators=_strs(jet_ideal(I, args.level).generators))


def _fiber_ideal(session, args):
    I = session.ideal(args.ideal)
    return dict(inputs={"ideal": _strs(I.generators), "level": args.level}, generators=_strs(fiber_ideal(I, args.level).generators))


def _lambda(session, args):
    f = _parse_user_poly(session, args.poly)
    I = session.modulus(args.ideal)
    entries = universal_jet_image(f, I, args.level)
    return dict(
        inputs={"poly": format_polynomial(f), "ideal": _strs(I.generators), "level": args.level},
        outputs={"zero": all(e.is_zero() for e in entries)},
        generators=_strs(entries),
    )


def _closure(session, args):
    P = _presentation(session, args)
    a = session.ideal(args.ideal)
    report = jet_closure(P, a, args.level)
    return dict(
        inputs={"ideal": _strs(a.generators), "modulus": _strs(P.modulus.generators), "level": args.level},
        outputs={"kernel": _strs(report.kernel_basis)},
        generators=_strs(report.closure_generators),
        dims={"dimA": report.dim_quotient, "dimClosure": report.dim_closure},
    )


def _chain(session, args):
    P = _presentation(session, args)
    a = session.ideal(args.ideal)
    chain = cumulative_closure_chain(P, a, args.max_level)
    return dict(
        inputs={"ideal": _strs(a.generators), "modulus": _strs(P.modulus.generators), "maxLevel": args.max_level},
        outputs={"chain": [_canonical_gens(c) for c in chain]},
        generators=_canonical_gens(chain[-1]),
    )


def _certify(session, args):
    P = _presentation(session, args)
    a = session.ideal(args.ideal)
    cert = certify_arc_closed(P, a, args.max_level)
    return dict(
        inputs={"ideal": _strs(a.generators), "modulus": _strs(P.modulus.generators), "maxLevel": args.max_level},
        outputs={"certified": cert.certified, "level": cert.level},
        generators=_canonical_gens(cert.chain[-1]),
        certificate=_certificate_dict(cert),
    )


def _jsc_member(session, args):
    P = _presentation(session, args)
    a = session.ideal(args.ideal)
    f = _parse_user_poly(session, args.poly)
    return dict(
        inputs={"ideal": _strs(a.generators), "modulus": _strs(P.modulus.generators), "element": format_polynomial(f), "level": args.level},
        outputs={"member": jsc_membership(P, a, f, args.level)},
    )


def _socle(session, args):
    P = _presentation(session, args)
    soc = socle_and_gorenstein(P)
    return dict(
        inputs={"modulus": _strs(P.modulus.generators)},
        outputs={"gorenstein": soc.gorenstein},
        generators=_strs(soc.basis),
        dims={"colength": soc.colength, "socleDimension": len(soc.basis)},
    )


def _matlis(session, args):
    P = _presentation(session, args)
    if args.power is None:
        raise UsageError("matlis needs --power N")
    emb = matlis_embedding(P, args.power)
    return dict(
        inputs={"modulus": _strs(P.modulus.generators), "power": args.power},
        outputs={"witness": format_polynomial(emb.witness), "images": [_strs(pair) for pair in emb.images]},
        generators=_canonical_gens(emb.colon),
        dims={"colength": emb.quotient_colength, "colonQuotientDim": emb.colon_quotient_dim},
    )


def _walkthrough(session, args):
    P = _presentation(session, args)
    walk = gorenstein_walkthrough(P, args.max_level)
    stages = [
        {
            "modulus": _canonical_gens(st.modulus),
            "colength": st.colength,
            "socle": _strs(st.socle_basis),
            "gorenstein": st.gorenstein,
            "socleGeneratorUsed": None
            if st.socle_generator_used is None
            else format_polynomial(st.socle_generator_used),
            "certificate": _certificate_dict(st.certificate),
        }
        for st in walk.stages
    ]
    emb = walk.embedding
    embedding = {
        "power": emb.power,
        "witness": format_polynomial(emb.witness),
        "colength": emb.quotient_colength,
        "colonQuotientDim": emb.colon_quotient_dim,
    }
    return dict(
        inputs={"modulus": _strs(P.modulus.generators), "maxLevel": args.max_level},
        outputs={"stages": stages, "embedding": embedding},
        dims={"stages": len(stages)},
    )


def _icl(session, args):
    I = session.ideal(args.ideal)
    if any(len(g.terms) != 1 for g in I.generators):
        raise UsageError("icl needs a monomial ideal: every generator must be a single term")
    exponents = [next(iter(g.terms)) for g in I.generators]
    closure = monomial_integral_closure(MonomialIdealData(exponents)).exponents if exponents else []  # (0) is closed
    return dict(inputs={"ideal": _strs(I.generators)}, generators=_strs(session.ring.monomial(u) for u in closure))


COMMANDS = {
    "derive": _derive,
    "jet-ideal": _jet_ideal,
    "fiber-ideal": _fiber_ideal,
    "lambda": _lambda,
    "closure": _closure,
    "chain": _chain,
    "certify": _certify,
    "jsc-member": _jsc_member,
    "socle": _socle,
    "matlis": _matlis,
    "walkthrough": _walkthrough,
    "icl": _icl,
}


def run_command(session: Session, args: argparse.Namespace) -> Report:
    """Run one parsed command line against a session; returns the report."""
    handler = COMMANDS.get(args.command)
    if handler is None:
        raise UsageError(f"unknown command '{args.command}'")
    fields = handler(session, args)
    return Report(args.command, session.field_spec.label, session.ring.variables, **fields)


def _nonnegative(text: str) -> int:
    message = f"expected a nonnegative integer, got {text!r}"
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(message) from None
    if value < 0:
        raise argparse.ArgumentTypeError(message)
    return value


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="jetclosure", description=__doc__)
    parser.add_argument("command", choices=list(COMMANDS))
    parser.add_argument("--session", required=True, help="session file declaring field, vars, ideals")
    parser.add_argument("--ideal", help="name of a session ideal")
    parser.add_argument("--modulus", help="name of the presentation modulus (default: zero ideal)")
    parser.add_argument("--poly", "--element", help="a polynomial in the session grammar (two spellings, one value)")
    parser.add_argument("--level", type=_nonnegative, default=0)
    parser.add_argument("--max-level", dest="max_level", type=_nonnegative, default=6)
    parser.add_argument("--power", type=_nonnegative)
    parser.add_argument("--json", action="store_true", help="emit one machine-readable JSON object")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 2
    started = time.monotonic()
    try:
        with open(args.session, "r", encoding="utf-8") as handle:
            session = parse_session(handle.read())
        report = run_command(session, args)
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return 2
    except (UsageError, OSError) as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except DomainError as exc:
        print(f"error: {exc.code}: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:
        print(f"error: Value: {exc}", file=sys.stderr)
        return 1
    except InternalError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 3
    elapsed_ms = int((time.monotonic() - started) * 1000)
    print(f"completed in {elapsed_ms} ms", file=sys.stderr)
    try:
        print(report.to_json() if args.json else report.to_text(), flush=True)
    except BrokenPipeError:
        # the flush at exit would raise again: point stdout at the null device
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
