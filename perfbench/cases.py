"""Running one case against the library, outside-in.

CLI cases go through ``jetclosure.cli.main`` with a session file written
during set-up; stdout is captured as the answer, and stderr (which holds
the CLI's own ``completed in N ms`` line) is kept only to read the code
of an expected domain error, never for timing.  Library cases build their
objects just before the timed call, so that no cached Groebner basis is
carried from one execution to the next.
"""

from __future__ import annotations

import contextlib
import io
import json
import os

from workloads import Case


def write_inputs(cases: list, workdir: str) -> dict:
    """Write one session file per CLI case; returns cid -> path."""
    os.makedirs(workdir, exist_ok=True)
    paths = {}
    for n, case in enumerate(cases):
        if not case.cli:
            continue
        path = os.path.join(workdir, f"case{n:04d}.session")
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(case.session_text())
        paths[case.cid] = path
    return paths


def cli_argv(case: Case, session_path: str) -> list:
    argv = [case.op, "--session", session_path, "--json"]
    for key, value in case.args.items():
        argv += [f"--{key}", str(value)]
    return argv


class Runner:
    """Builds the timed call for each case against an imported library."""

    def __init__(self, jc, session_paths: dict):
        self.jc = jc
        self.paths = session_paths

    def prepare(self, case: Case):
        """Return ``(call, render)``.

        ``call`` takes no argument and does exactly the timed work; it
        returns ``(status, payload)``: status 0 with the answer, 1 with
        the domain error code, or 2 with a usage/parse error message.
        ``render`` turns an answer into the text that is checked and
        digested; it runs outside the timed region.
        """
        if case.cli:
            return self._prepare_cli(case)
        return self._prepare_library(case)

    def _prepare_cli(self, case: Case):
        argv = cli_argv(case, self.paths[case.cid])
        cli = self.jc.cli

        def call():
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                status = cli.main(argv)
            if status == 0:
                return 0, out.getvalue()
            # "error: <Code>: message" for domain errors, exit 1
            text = err.getvalue().strip()
            if status == 1 and text.startswith("error: "):
                return 1, text[len("error: "):].split(":", 1)[0]
            return status, text

        return call, str

    def _ring(self, case: Case):
        poly = self.jc.poly
        if case.field == "Q":
            fld = poly.FieldSpec.rationals()
        else:
            fld = poly.FieldSpec.prime_field(int(case.field.split()[1]))
        return poly.RingContext(fld, tuple(case.variables))

    def _prepare_library(self, case: Case):
        jc = self.jc
        ring = self._ring(case)
        parse = jc.poly.parse_polynomial
        errors = jc.errors

        if case.op == "standard_monomial_basis":
            ideal = jc.groebner.Ideal(ring, [parse(t, ring) for t in case.ideals["a"]])

            def work():
                return jc.groebner.standard_monomial_basis(ideal)

            render = _render_standard_basis
        elif case.op == "module_standard_monomials":
            rank = case.args["rank"]
            vectors = []
            for comp, text in case.args["generators"]:
                comps = [ring.zero()] * rank
                comps[comp] = parse(text, ring)
                vectors.append(jc.groebner.FreeModuleElement(ring, comps))
            pres = jc.groebner.SubmodulePresentation(ring, rank, vectors)

            def work():
                return jc.groebner.module_standard_monomials(pres)

            render = _render_module_standard
        elif case.op == "module_jet_closure":
            rank = case.args["rank"]
            modulus = jc.groebner.Ideal(ring, [parse(t, ring) for t in case.ideals["i"]])
            base = jc.closures.LocalAlgebraPresentation(ring, modulus)

            def vec(texts):
                return jc.groebner.FreeModuleElement(ring, [parse(t, ring) for t in texts])

            mp = jc.closures.ModulePresentation(
                base, rank,
                [vec(v) for v in case.args["relations"]],
                [vec(v) for v in case.args["submodule"]],
            )
            level = case.args["level"]

            def work():
                return jc.closures.module_jet_closure(mp, level)

            render = lambda report: _render_module_closure(report, jc.poly.format_polynomial)
        else:
            raise ValueError(f"unknown library case op {case.op!r}")

        def call():
            try:
                result = work()
            except errors.DomainError as exc:
                return 1, exc.code
            return 0, result

        return call, render


def _render_standard_basis(sm) -> str:
    return json.dumps({"colength": sm.colength, "monomials": [list(u) for u in sm.monomials]})


def _render_module_standard(pairs) -> str:
    return json.dumps([[c, list(u)] for c, u in pairs])


def _render_module_closure(report, fmt) -> str:
    return json.dumps({
        "dim_module": report.dim_module,
        "dim_kernel": report.dim_kernel,
        "standard_basis": [[c, list(u)] for c, u in report.standard_basis],
        "kernel": [[fmt(p) for p in v.components] for v in report.kernel_basis],
    })
