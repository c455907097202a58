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
pinned to 0 and wall-clock timing goes to stderr instead.

Exit codes: 0 on success, 1 on a domain error, 2 on a parse or usage
error, 3 on an internal error (a failed invariant of the library).
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from dataclasses import dataclass

from .closures import (
    LocalAlgebraPresentation,
    certify_arc_closed,
    cumulative_closure_chain,
    gorenstein_walkthrough,
    jet_closure,
    jsc_membership,
    matlis_embedding,
    socle_and_gorenstein,
)
from .errors import DomainError, InternalError, ParseError
from .groebner import DEGREVLEX, Ideal
from .jets import fiber_ideal, hs_derivations, jet_ideal, universal_jet_image
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
        if name not in self.ideals:
            raise UsageError(f"unknown ideal '{name}'")
        return self.ideals[name]

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
    outputs: dict
    generators: list
    dims: dict
    certificate: dict = None
    millis: int = 0

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
            "millis": self.millis,
        }
        return json.dumps(payload)

    def to_text(self) -> str:
        lines = [f"command: {self.command}", f"field: {self.field_label}", f"vars: {' '.join(self.variables)}"]
        for key, value in self.inputs.items():
            lines.append(f"{key}: {_render(value)}")
        for key, value in self.outputs.items():
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


def _render(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, list):
        return ", ".join(_render(v) for v in value) if value else "0"
    if isinstance(value, dict):
        return "{" + ", ".join(f"{k}: {_render(v)}" for k, v in value.items()) + "}"
    return str(value)


def _gens(ideal_or_list) -> list:
    if isinstance(ideal_or_list, Ideal):
        return [format_polynomial(g) for g in ideal_or_list.generators]
    return [format_polynomial(g) for g in ideal_or_list]


def _canonical_gens(I: Ideal) -> list:
    return [format_polynomial(g) for g in I.groebner_basis(DEGREVLEX)]


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


def run_command(session: Session, args: argparse.Namespace) -> Report:
    """Dispatch one parsed command line against a session; returns the report."""
    command = args.command
    ring = session.ring
    base = dict(
        command=command,
        field_label=session.field_spec.label,
        variables=ring.variables,
    )

    if command == "derive":
        f = _parse_user_poly(session, args.poly or args.element)
        derivations = hs_derivations(f, args.level)
        return Report(
            **base,
            inputs={"poly": format_polynomial(f), "level": args.level},
            outputs={},
            generators=[format_polynomial(d) for d in derivations],
            dims={},
        )

    if command == "jet-ideal":
        I = session.ideal(args.ideal)
        ji = jet_ideal(I, args.level)
        return Report(
            **base,
            inputs={"ideal": _gens(I), "level": args.level},
            outputs={},
            generators=[format_polynomial(g) for g in ji.generators],
            dims={},
        )

    if command == "fiber-ideal":
        I = session.ideal(args.ideal)
        fi = fiber_ideal(I, args.level)
        return Report(
            **base,
            inputs={"ideal": _gens(I), "level": args.level},
            outputs={},
            generators=_gens(fi),
            dims={},
        )

    if command == "lambda":
        f = _parse_user_poly(session, args.poly or args.element)
        I = session.modulus(args.ideal)
        entries = universal_jet_image(f, I, args.level)
        return Report(
            **base,
            inputs={"poly": format_polynomial(f), "ideal": _gens(I), "level": args.level},
            outputs={"zero": all(e.is_zero() for e in entries)},
            generators=[format_polynomial(e) for e in entries],
            dims={},
        )

    if command == "closure":
        P = LocalAlgebraPresentation(ring, session.modulus(args.modulus))
        a = session.ideal(args.ideal)
        report = jet_closure(P, a, args.level)
        return Report(
            **base,
            inputs={"ideal": _gens(a), "modulus": _gens(P.modulus), "level": args.level},
            outputs={"kernel": [format_polynomial(p) for p in report.kernel_basis]},
            generators=[format_polynomial(g) for g in report.closure_generators],
            dims={"dimA": report.dim_quotient, "dimClosure": report.dim_closure},
        )

    if command == "chain":
        P = LocalAlgebraPresentation(ring, session.modulus(args.modulus))
        a = session.ideal(args.ideal)
        chain = cumulative_closure_chain(P, a, args.max_level)
        return Report(
            **base,
            inputs={"ideal": _gens(a), "modulus": _gens(P.modulus), "maxLevel": args.max_level},
            outputs={"chain": [_canonical_gens(c) for c in chain]},
            generators=_canonical_gens(chain[-1]),
            dims={},
        )

    if command == "certify":
        P = LocalAlgebraPresentation(ring, session.modulus(args.modulus))
        a = session.ideal(args.ideal)
        cert = certify_arc_closed(P, a, args.max_level)
        return Report(
            **base,
            inputs={"ideal": _gens(a), "modulus": _gens(P.modulus), "maxLevel": args.max_level},
            outputs={"certified": cert.certified, "level": cert.level},
            generators=_canonical_gens(cert.chain[-1]),
            dims={},
            certificate=_certificate_dict(cert),
        )

    if command == "jsc-member":
        P = LocalAlgebraPresentation(ring, session.modulus(args.modulus))
        a = session.ideal(args.ideal)
        f = _parse_user_poly(session, args.element or args.poly)
        member = jsc_membership(P, a, f, args.level)
        return Report(
            **base,
            inputs={"ideal": _gens(a), "modulus": _gens(P.modulus), "element": format_polynomial(f), "level": args.level},
            outputs={"member": member},
            generators=[],
            dims={},
        )

    if command == "socle":
        P = LocalAlgebraPresentation(ring, session.modulus(args.modulus))
        soc = socle_and_gorenstein(P)
        return Report(
            **base,
            inputs={"modulus": _gens(P.modulus)},
            outputs={"gorenstein": soc.gorenstein},
            generators=[format_polynomial(b) for b in soc.basis],
            dims={"colength": soc.colength, "socleDimension": len(soc.basis)},
        )

    if command == "matlis":
        P = LocalAlgebraPresentation(ring, session.modulus(args.modulus))
        if args.power is None:
            raise UsageError("matlis needs --power N")
        emb = matlis_embedding(P, args.power)
        return Report(
            **base,
            inputs={"modulus": _gens(P.modulus), "power": args.power},
            outputs={
                "witness": format_polynomial(emb.witness),
                "images": [
                    [format_polynomial(src), format_polynomial(dst)] for src, dst in emb.images
                ],
            },
            generators=_canonical_gens(emb.colon),
            dims={"colength": emb.quotient_colength, "colonQuotientDim": emb.colon_quotient_dim},
        )

    if command == "walkthrough":
        P = LocalAlgebraPresentation(ring, session.modulus(args.modulus))
        walk = gorenstein_walkthrough(P, args.max_level)
        stages = []
        for st in walk.stages:
            stages.append(
                {
                    "modulus": _canonical_gens(st.modulus),
                    "colength": st.colength,
                    "socle": [format_polynomial(b) for b in st.socle_basis],
                    "gorenstein": st.gorenstein,
                    "socleGeneratorUsed": format_polynomial(st.socle_generator_used)
                    if st.socle_generator_used is not None
                    else None,
                    "certificate": _certificate_dict(st.certificate),
                }
            )
        emb = walk.embedding
        return Report(
            **base,
            inputs={"modulus": _gens(P.modulus), "maxLevel": args.max_level},
            outputs={
                "stages": stages,
                "embedding": {
                    "power": emb.power,
                    "witness": format_polynomial(emb.witness),
                    "colength": emb.quotient_colength,
                    "colonQuotientDim": emb.colon_quotient_dim,
                },
            },
            generators=[],
            dims={"stages": len(stages)},
        )

    if command == "icl":
        I = session.ideal(args.ideal)
        exponents = []
        for g in I.generators:
            if len(g.terms) != 1:
                raise UsageError("icl needs a monomial ideal: every generator must be a single term")
            exponents.append(next(iter(g.terms)))
        closure = monomial_integral_closure(MonomialIdealData(exponents))
        return Report(
            **base,
            inputs={"ideal": _gens(I)},
            outputs={},
            generators=[format_polynomial(ring.monomial(u)) for u in closure.exponents],
            dims={},
        )

    raise UsageError(f"unknown command '{command}'")


def _nonnegative(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError("level must be nonnegative")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="jetclosure", description=__doc__)
    parser.add_argument("command", choices=[
        "derive", "jet-ideal", "fiber-ideal", "lambda", "closure", "chain",
        "certify", "jsc-member", "socle", "matlis", "walkthrough", "icl",
    ])
    parser.add_argument("--session", required=True, help="session file declaring field, vars, ideals")
    parser.add_argument("--ideal", help="name of a session ideal")
    parser.add_argument("--modulus", help="name of the presentation modulus (default: zero ideal)")
    parser.add_argument("--poly", help="a polynomial in the session grammar")
    parser.add_argument("--element", help="alias of --poly for membership commands")
    parser.add_argument("--level", type=_nonnegative, default=0)
    parser.add_argument("--max-level", dest="max_level", type=_nonnegative, default=6)
    parser.add_argument("--power", type=int)
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
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
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
    print(report.to_json() if args.json else report.to_text())
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
