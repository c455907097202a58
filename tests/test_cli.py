import json
import subprocess
import sys

import pytest

from jetclosure.cli import Session, UsageError, build_parser, main, parse_session, run_command
from jetclosure.closures import LocalAlgebraPresentation, ModulePresentation, module_jet_closure
from jetclosure.errors import NotArtinianError, ParseError
from jetclosure.groebner import Ideal, standard_monomial_basis
from jetclosure.jets import JetRing
from jetclosure.poly import FieldSpec, RingContext, format_polynomial, parse_polynomial
from oracles import reference_local_modulus

SESSION = """# toy session
field Q
vars x y
ideal a: x^2, y^2
ideal b: x*y, x^2 - y^2
ideal m2: x^2, x*y, y^2
ideal line: x
"""


def run(args, session_text=SESSION, tmp_path=None):
    path = tmp_path / "s.session"
    path.write_text(session_text, encoding="utf-8")
    argv = [args[0], "--session", str(path)] + args[1:]
    parsed = build_parser().parse_args(argv)
    session = parse_session(session_text)
    return run_command(session, parsed)


# --- session parsing ------------------------------------------------------


def test_parse_session_basic():
    session = parse_session("field Q\nvars x y\nideal I: x^2, x*y\n")
    assert session.field_spec.label == "Q"
    assert session.ring.variables == ("x", "y")
    assert [str(g) for g in session.ideals["I"].generators] == ["x^2", "x*y"]


def test_parse_session_prime_field():
    session = parse_session("field F 5\nvars x\nideal a: x^3\n")
    assert session.field_spec.characteristic == 5


def test_parse_session_rejects_nonprime():
    with pytest.raises(ParseError):
        parse_session("field F 4\nvars x\n")


def test_parse_session_rejects_characteristic_zero(tmp_path):
    with pytest.raises(ParseError) as err:
        parse_session("field F 0\nvars x\n")
    assert (err.value.line, err.value.column) == (1, 9)
    path = tmp_path / "f0.session"
    path.write_text("field F 0\nvars x\nideal a: x\n", encoding="utf-8")
    assert _main(["closure", "--session", str(path), "--ideal", "a", "--level", "0"]) == 2


def test_parse_session_rejects_duplicates_and_order():
    with pytest.raises(ParseError):
        parse_session("field Q\nfield Q\nvars x\n")
    with pytest.raises(ParseError):
        parse_session("field Q\nvars x\nideal a: x\nideal a: x\n")
    with pytest.raises(ParseError):
        parse_session("ideal a: x\nfield Q\nvars x\n")
    with pytest.raises(ParseError):
        parse_session("field Q\nvars x x\n")


def test_parse_session_error_carries_line():
    with pytest.raises(ParseError) as err:
        parse_session("field Q\nvars x\nideal a: x +\n")
    assert err.value.line == 3


def test_session_reserves_at_sign():
    with pytest.raises(ParseError):
        parse_session("field Q\nvars x@1\n")


def test_parser_rejects_garbage_without_crashing():
    import random

    rng = random.Random(13)
    alphabet = "xyz123 ^*+-(),:#@_=!?\n"
    for _ in range(300):
        text = "".join(rng.choice(alphabet) for _ in range(rng.randrange(40)))
        try:
            parse_session("field Q\nvars x y\n" + text)
        except ParseError:
            pass  # every malformed input must fail with a positioned ParseError


# --- commands -------------------------------------------------------------


def test_derive_lists_all_orders(tmp_path):
    report = run(["derive", "--poly", "x*y", "--level", "2"], tmp_path=tmp_path)
    assert len(report.generators) == 3
    # the printed t^2 coefficient re-parses to the exact derivation
    from jetclosure.jets import JetRing
    from jetclosure.poly import FieldSpec, RingContext

    jet_ctx = JetRing(RingContext(FieldSpec.rationals(), ("x", "y")), 2).context
    got = parse_polynomial(report.generators[2], jet_ctx)
    want = parse_polynomial("x@0*y@2 + x@1*y@1 + x@2*y@0", jet_ctx)
    assert got == want


def test_certify_reports_level_and_chain(tmp_path):
    report = run(["certify", "--ideal", "a", "--max-level", "8"], tmp_path=tmp_path)
    assert report.certificate["certified"] is True
    assert report.certificate["level"] == 2
    assert len(report.certificate["chain"]) == 3


def test_closure_level_zero_prints_maximal_ideal(tmp_path):
    report = run(["closure", "--ideal", "a", "--level", "0"], tmp_path=tmp_path)
    assert report.generators == ["y", "x"]


def test_report_round_trips_and_is_stable(tmp_path):
    report = run(["closure", "--ideal", "a", "--level", "1"], tmp_path=tmp_path)
    session = parse_session(SESSION)
    for text in report.generators:
        p = parse_polynomial(text, session.ring)
        from jetclosure.poly import format_polynomial

        assert format_polynomial(p) == text


def test_machine_format_schema(tmp_path):
    report = run(["jsc-member", "--ideal", "a", "--element", "x*y", "--level", "2"], tmp_path=tmp_path)
    payload = json.loads(report.to_json())
    assert list(payload.keys()) == [
        "command", "field", "vars", "inputs", "outputs", "generators",
        "dims", "certificate", "millis",
    ]
    assert payload["outputs"]["member"] is True
    assert payload["millis"] == 0


def test_walkthrough_report(tmp_path):
    report = run(["walkthrough", "--modulus", "m2", "--max-level", "3"], tmp_path=tmp_path)
    stages = report.outputs["stages"]
    assert stages[0]["gorenstein"] is False
    assert stages[-1]["gorenstein"] is True
    assert report.outputs["embedding"]["witness"]


def test_icl_command(tmp_path):
    report = run(["icl", "--ideal", "a"], tmp_path=tmp_path)
    assert report.generators == ["y^2", "x*y", "x^2"]
    # (0) is a monomial ideal with no generators, and integrally closed
    zero = run(["icl", "--ideal", "z"], session_text=SESSION + "ideal z: 0\n", tmp_path=tmp_path)
    assert zero.generators == []


def test_chain_command_lists_every_level(tmp_path):
    report = run(["chain", "--ideal", "line", "--max-level", "3"], tmp_path=tmp_path)
    chain = report.outputs["chain"]
    assert chain == [["y", "x"], ["x", "y^2"], ["x", "y^3"], ["x", "y^4"]]
    assert report.generators == chain[-1]


def test_lambda_command_flags_nonzero_image(tmp_path):
    report = run(["lambda", "--poly", "x", "--ideal", "a", "--level", "2"], tmp_path=tmp_path)
    assert report.outputs["zero"] is False
    assert report.generators[0] == "0"
    report2 = run(["lambda", "--poly", "x^2", "--ideal", "a", "--level", "2"], tmp_path=tmp_path)
    assert report2.outputs["zero"] is True


def test_fiber_ideal_command(tmp_path):
    report = run(["fiber-ideal", "--ideal", "a", "--level", "1"], tmp_path=tmp_path)
    assert report.generators == [
        "x@0^2", "2*x@0*x@1", "y@0^2", "2*y@0*y@1", "x@0", "y@0",
    ]


def test_jet_variable_strings_round_trip(tmp_path):
    from jetclosure.jets import JetRing
    from jetclosure.poly import FieldSpec, RingContext, format_polynomial

    report = run(["fiber-ideal", "--ideal", "b", "--level", "2"], tmp_path=tmp_path)
    jet_ctx = JetRing(RingContext(FieldSpec.rationals(), ("x", "y")), 2).context
    for text in report.generators:
        assert format_polynomial(parse_polynomial(text, jet_ctx)) == text


def test_jet_ideal_command_counts(tmp_path):
    report = run(["jet-ideal", "--ideal", "b", "--level", "2"], tmp_path=tmp_path)
    assert len(report.generators) == 6


# --- process behaviour ------------------------------------------------------


def _main(argv):
    return main(argv)


def test_main_success_exit_code(tmp_path, capsys):
    path = tmp_path / "s.session"
    path.write_text(SESSION, encoding="utf-8")
    code = _main(["closure", "--session", str(path), "--ideal", "a", "--level", "0"])
    out = capsys.readouterr()
    assert code == 0
    assert "generators: y, x" in out.out


def test_main_domain_error_exit_code(tmp_path, capsys):
    path = tmp_path / "s.session"
    path.write_text(SESSION, encoding="utf-8")
    code = _main(["socle", "--session", str(path), "--modulus", "line"])
    err = capsys.readouterr().err
    assert code == 1
    assert "NotArtinian" in err


def test_main_usage_error_exit_code(tmp_path, capsys):
    path = tmp_path / "s.session"
    path.write_text(SESSION, encoding="utf-8")
    assert _main(["closure", "--session", str(path), "--ideal", "missing", "--level", "1"]) == 2
    assert _main(["bogus", "--session", str(path)]) == 2
    bad = tmp_path / "bad.session"
    bad.write_text("field F 4\nvars x\n", encoding="utf-8")
    assert _main(["closure", "--session", str(bad), "--ideal", "a", "--level", "0"]) == 2


def test_main_deep_nesting_is_a_parse_error(tmp_path, capsys):
    deep = "(" * 2000 + "x" + ")" * 2000
    path = tmp_path / "s.session"
    path.write_text(SESSION, encoding="utf-8")
    argv = ["jsc-member", "--session", str(path), "--ideal", "a", "--level", "1"]
    assert _main(argv + ["--poly", deep]) == 2
    nested = tmp_path / "nested.session"
    nested.write_text(f"field Q\nvars x y\nideal a: {deep}\n", encoding="utf-8")
    assert _main(["socle", "--session", str(nested), "--modulus", "a"]) == 2
    assert capsys.readouterr().err.count("parse error: parentheses nested deeper") == 2
    fifty = "(" * 50 + "x + y" + ")" * 50
    assert _main(argv + ["--poly", fifty]) == 0
    assert "element: x + y" in capsys.readouterr().out
    session = parse_session(f"field Q\nvars x y\nideal a: {fifty}\n")
    assert session.ideals["a"].generators == (parse_polynomial("x + y", session.ring),)


def test_subprocess_json_deterministic(tmp_path):
    path = tmp_path / "s.session"
    path.write_text(SESSION, encoding="utf-8")
    cmd = [
        sys.executable, "-m", "jetclosure.cli", "certify",
        "--session", str(path), "--ideal", "b", "--max-level", "6", "--json",
    ]
    first = subprocess.run(cmd, capture_output=True, text=True)
    second = subprocess.run(cmd, capture_output=True, text=True)
    assert first.returncode == second.returncode == 0
    assert first.stdout == second.stdout
    payload = json.loads(first.stdout)
    assert payload["certificate"]["certified"] is True


def test_machine_format_golden_bytes(tmp_path, capsys):
    path = tmp_path / "s.session"
    path.write_text("field Q\nvars x y\nideal a: x^2, y^2\n", encoding="utf-8")
    code = main(["closure", "--session", str(path), "--ideal", "a", "--level", "1", "--json"])
    assert code == 0
    out = capsys.readouterr().out
    assert out == (
        '{"command": "closure", "field": "Q", "vars": ["x", "y"], '
        '"inputs": {"ideal": ["x^2", "y^2"], "modulus": [], "level": 1}, '
        '"outputs": {"kernel": []}, '
        '"generators": ["y^2", "x*y", "x^2"], '
        '"dims": {"dimA": 3, "dimClosure": 0}, '
        '"certificate": null, "millis": 0}\n'
    )


def test_parser_is_built_once_and_shared_across_runs(tmp_path, capsys):
    # a usage error leaves the shared parser as it was for the next run
    assert build_parser() is build_parser()
    path = tmp_path / "s.session"
    path.write_text(SESSION, encoding="utf-8")
    assert main(["closure", "--session", str(path), "--level", "-1"]) == 2
    capsys.readouterr()
    assert main(["closure", "--session", str(path), "--ideal", "a", "--level", "0"]) == 0
    assert "generators: y, x" in capsys.readouterr().out


def test_huge_exponent_certify_answers_at_once(tmp_path):
    # x^99999999 has no pointed jets up to level 3, and the series reads
    # no term of it; walking it one degree at a time never ended
    path = tmp_path / "huge.session"
    path.write_text("field Q\nvars x y z\nideal h: x^99999999, y, z\n", encoding="utf-8")
    argv = ["certify", "--session", str(path), "--ideal", "h", "--max-level", "3"]
    script = (
        "import sys, time\n"
        "from jetclosure.cli import main\n"
        "start = time.perf_counter()\n"
        f"code = main({argv!r})\n"
        "print(time.perf_counter() - start, file=sys.stderr)\n"
        "sys.exit(code)\n"
    )
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert "certified: false" in proc.stdout
    assert float(proc.stderr.strip().splitlines()[-1]) < 0.25


def test_huge_exponent_in_the_full_jet_ring_answers_at_once(tmp_path):
    # in the full jet ring x^N has a nonzero series at every level; its
    # closed form D_i(x^N) takes at most i factors of N(N-1)...(N-i+1),
    # not N series products
    N = 99999999
    path = tmp_path / "huge.session"
    path.write_text(f"field Q\nvars x y\nideal h: x^{N}, y\n", encoding="utf-8")
    runs = {
        "derive": ["derive", "--session", str(path), "--poly", f"x^{N}", "--level", "1", "--json"],
        "fiber-ideal": ["fiber-ideal", "--session", str(path), "--ideal", "h", "--level", "1", "--json"],
    }
    out = {}
    for name, argv in runs.items():
        proc = subprocess.run([sys.executable, "-m", "jetclosure.cli", *argv],
                              capture_output=True, text=True, timeout=10)
        assert proc.returncode == 0, proc.stderr
        out[name] = json.loads(proc.stdout)["generators"]
    jets = JetRing(RingContext(FieldSpec.rationals(), ("x", "y")), 1).context
    d0, d1 = (parse_polynomial(t, jets) for t in out["derive"])
    assert d0 == jets.monomial((N, 0, 0, 0))
    assert d1 == jets.monomial((N - 1, 0, 1, 0), N)
    assert out["fiber-ideal"][:2] == out["derive"]


def test_chain_to_level_ten_answers_at_once(tmp_path):
    # J' Buchberger truncated at each level's weight: rebuilt in full at
    # every level, this chain did not reach level 10 in 30 s
    path = tmp_path / "chain.session"
    path.write_text("field Q\nvars x y z\nideal a: x^2, y*z\nideal i: x*z - y^2\n", encoding="utf-8")
    argv = ["chain", "--session", str(path), "--ideal", "a", "--modulus", "i", "--max-level", "10", "--json"]
    proc = subprocess.run([sys.executable, "-m", "jetclosure.cli", *argv], capture_output=True, text=True, timeout=10)
    assert proc.returncode == 0, proc.stderr
    assert len(json.loads(proc.stdout)["outputs"]["chain"]) == 11


def test_output_independent_of_hash_seed(tmp_path):
    import os

    path = tmp_path / "s.session"
    path.write_text(SESSION, encoding="utf-8")
    cmd = [
        sys.executable, "-m", "jetclosure.cli", "walkthrough",
        "--session", str(path), "--modulus", "m2", "--max-level", "2", "--json",
    ]
    outputs = []
    for seed in ("0", "1", "424242"):
        env = dict(os.environ, PYTHONHASHSEED=seed)
        proc = subprocess.run(cmd, capture_output=True, text=True, env=env)
        assert proc.returncode == 0, proc.stderr
        outputs.append(proc.stdout)
    assert outputs[0] == outputs[1] == outputs[2]


def test_main_internal_error_exit_code(tmp_path, capsys, monkeypatch):
    # a failed invariant of the library is exit 3 with one stderr line, not a traceback
    import jetclosure.closures as closures

    path = tmp_path / "s.session"
    path.write_text(SESSION, encoding="utf-8")
    argv = ["matlis", "--session", str(path), "--modulus", "b", "--power", "3"]
    assert _main(argv) == 0
    capsys.readouterr()
    monkeypatch.setattr(closures, "_generates_colon", lambda w, box, truncate, dim: False)
    assert _main(argv) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "internal error: no single witness generates the colon ideal modulo the powers\n"


def test_walkthrough_of_a_modulus_with_zeros_away_from_the_origin_answers_locally(tmp_path, capsys):
    # finite colength but not m-primary: the walkthrough starts from the
    # m-primary component, k = S/(x, y) and S/(x^2, x*y, y^2)
    for modulus, stage in (("x^2 - x, y", "(y, x), colength: 1"), ("x^3 - x^2, y^2, x*y", "(y^2, x*y, x^2), colength: 3")):
        path = tmp_path / "far.session"
        path.write_text(f"field Q\nvars x y\nideal i: {modulus}\n", encoding="utf-8")
        assert _main(["walkthrough", "--session", str(path), "--modulus", "i", "--max-level", "2"]) == 0
        captured = capsys.readouterr()
        assert f"stages: {{modulus: {stage}, " in captured.out
        assert captured.err.startswith("completed in ")


def test_artinian_commands_answer_for_the_local_ring(tmp_path, capsys):
    """socle, matlis --power 3 and walkthrough on the CLI, and
    module_jet_closure, give for a modulus I with zeros away from the
    origin the answers of I + m^N (N = dim S/I, ``reference_local_modulus``),
    whose quotients are the local algebras k[x, y]/(x^2, y^2) and k.  A
    modulus that is m-primary only locally, with S/I infinite, is still
    refused."""
    R = RingContext(FieldSpec.rationals(), ("x", "y"))
    path = tmp_path / "local.session"
    for modulus, colength, socle in (("x^2 - x^3, y^2", 4, ["x*y"]), ("x^2 - x, y", 1, ["1"])):
        P = LocalAlgebraPresentation(R, Ideal(R, [parse_polynomial(t, R) for t in modulus.split(", ")]))
        local = reference_local_modulus(P)
        assert standard_monomial_basis(local).colength == colength
        text = ", ".join(map(format_polynomial, local.generators))
        path.write_text(f"field Q\nvars x y\nideal i: {modulus}\nideal q: {text}\n", encoding="utf-8")
        for command, *options in (["socle"], ["matlis", "--power", "3"], ["walkthrough", "--max-level", "2"]):
            reports = []
            for name in ("i", "q"):
                assert _main([command, "--session", str(path), "--modulus", name, *options, "--json"]) == 0
                reports.append(json.loads(capsys.readouterr().out))
                del reports[-1]["inputs"]
            assert reports[0] == reports[1]
            if command == "socle":
                assert reports[0]["dims"]["colength"] == colength and reports[0]["generators"] == socle
        reports = [
            module_jet_closure(ModulePresentation(base, 1), 2)
            for base in (P, LocalAlgebraPresentation(R, local))
        ]
        assert reports[0].dim_module == reports[1].dim_module == colength
        assert reports[0].kernel_basis == reports[1].kernel_basis == []
    path.write_text("field Q\nvars x y\nideal i: x - x*y, y - y^2\n", encoding="utf-8")
    assert _main(["socle", "--session", str(path), "--modulus", "i"]) == 1
    assert capsys.readouterr().err == "error: NotArtinian: the modulus is not m-primary\n"
    P = LocalAlgebraPresentation(R, Ideal(R, [parse_polynomial(t, R) for t in ("x - x*y", "y - y^2")]))
    with pytest.raises(NotArtinianError):
        module_jet_closure(ModulePresentation(P, 1), 2)


def test_closed_stdout_exits_0_with_no_traceback(tmp_path):
    # the reader exits before the CLI writes: printing the report, and the
    # interpreter's flush at exit, meet a closed pipe
    path = tmp_path / "s.session"
    path.write_text(SESSION, encoding="utf-8")
    reader = subprocess.Popen([sys.executable, "-c", ""], stdin=subprocess.PIPE)
    reader.wait(timeout=60)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "jetclosure.cli", "chain", "--session", str(path), "--ideal", "b", "--max-level", "3"],
            stdout=reader.stdin, stderr=subprocess.PIPE, text=True, timeout=60,
        )
    finally:
        reader.stdin.close()
    assert proc.returncode == 0, proc.stderr
    assert "Traceback" not in proc.stderr and "Exception ignored" not in proc.stderr
    assert proc.stderr.startswith("completed in ")


def test_text_report_keeps_nested_lists_apart(tmp_path, capsys):
    path = tmp_path / "s.session"
    path.write_text(SESSION, encoding="utf-8")
    assert _main(["chain", "--session", str(path), "--ideal", "line", "--max-level", "2"]) == 0
    out = capsys.readouterr().out
    assert "chain: (y, x), (x, y^2), (x, y^3)\n" in out
    assert "generators: x, y^3\n" in out
    assert _main(["matlis", "--session", str(path), "--modulus", "b", "--power", "3"]) == 0
    out = capsys.readouterr().out
    assert "images: (1, x^2 + y^2), (y, x^2*y), (x, x*y^2), (y^2, x^2*y^2)\n" in out
    assert _main(["certify", "--session", str(path), "--ideal", "line", "--max-level", "1"]) == 0
    assert "level: null\n" in capsys.readouterr().out


def test_power_and_levels_are_nonnegative_integers(tmp_path, capsys):
    path = tmp_path / "s.session"
    path.write_text(SESSION, encoding="utf-8")
    assert _main(["matlis", "--session", str(path), "--modulus", "b", "--power", "-1"]) == 2
    assert "argument --power: expected a nonnegative integer, got '-1'" in capsys.readouterr().err
    assert _main(["closure", "--session", str(path), "--ideal", "a", "--level", "abc"]) == 2
    err = capsys.readouterr().err
    assert "argument --level: expected a nonnegative integer, got 'abc'" in err
    assert "_nonnegative" not in err


def test_element_is_a_second_spelling_of_poly(tmp_path):
    # one destination, so whichever spelling comes last wins
    for argv, key in ((["derive"], "poly"), (["jsc-member", "--ideal", "a"], "element")):
        assert run(argv + ["--poly", "x", "--element", "y"], tmp_path=tmp_path).inputs[key] == "y"
        assert run(argv + ["--element", "y", "--poly", "x"], tmp_path=tmp_path).inputs[key] == "x"


def test_run_command_rejects_an_unknown_command():
    args = build_parser().parse_args(["socle", "--session", "s.session"])
    args.command = "bogus"
    with pytest.raises(UsageError, match="unknown command 'bogus'"):
        run_command(parse_session(SESSION), args)


# --- session bytes ----------------------------------------------------------


def _run_bytes(tmp_path, capsys, data: bytes, argv: list) -> tuple:
    """(exit code, stdout, stderr) of ``main`` on a session file holding
    ``data``; the timing line of a success is checked and dropped."""
    path = tmp_path / "bytes.session"
    path.write_bytes(data)
    code = _main(argv[:1] + ["--session", str(path)] + argv[1:])
    out, err = capsys.readouterr()
    if code == 0:
        assert err.startswith("completed in ") and err.endswith(" ms\n") and err.count("\n") == 1
        err = ""
    return code, out, err


def test_session_that_is_not_utf8_is_a_parse_error_at_the_bad_byte(tmp_path, capsys):
    argv = ["certify", "--ideal", "a"]
    cases = [
        (b"field Q\nvars x y\nideal a: x^2 \xff+ y\n", "invalid UTF-8 byte 0xff (line 3, column 14)"),
        # line ends of every kind, and a valid two-byte character before the bad one
        ("field Q\r\nvars x y\rideal a: xé^2 ".encode() + b"\xc3(", "invalid UTF-8 byte 0xc3 (line 3, column 15)"),
        (b"\x80field Q\n", "invalid UTF-8 byte 0x80 (line 1, column 1)"),
        (b"field Q\nvars x\n\xed\xa0\x80\n", "invalid UTF-8 byte 0xed (line 3, column 1)"),  # a surrogate
        (b"field Q\nvars x\nideal a: x\n\xf0\x9f", "invalid UTF-8 byte 0xf0 (line 4, column 1)"),  # cut short
    ]
    for data, message in cases:
        assert _run_bytes(tmp_path, capsys, data, argv) == (2, "", f"parse error: {message}\n")


GOOD_SESSION = "# a comment\nfield F 3\nvars x y\n\nideal a: x^2, y^2 - x*y  # trailing\nideal m: x^3\n"
BAD_SESSION = "field Q\nvars x y\nideal a: x^2\nideal b: x + $\n"


def test_session_line_ends_and_bom_behave_as_text_mode_reading(tmp_path, capsys):
    """CRLF, a lone CR, or a mix of them, read as LF, and a UTF-8 byte
    order mark is an unexpected character: the same stdout, stderr and
    exit code as reading the file in text mode gave."""
    argv = ["certify", "--ideal", "a", "--modulus", "m", "--max-level", "3"]
    expected = _run_bytes(tmp_path, capsys, GOOD_SESSION.encode(), argv)
    assert expected[0] == 0 and "certificate: " in expected[1]
    bad = (2, "", "parse error: unexpected character '$' (line 4, column 14)\n")
    assert _run_bytes(tmp_path, capsys, BAD_SESSION.encode(), argv) == bad
    for text, want in ((GOOD_SESSION, expected), (BAD_SESSION, bad)):
        lines = text.split("\n")
        variants = [
            text.replace("\n", "\r\n"),
            text.replace("\n", "\r"),
            "".join(line + ("\r\n", "\r", "\n")[k % 3] for k, line in enumerate(lines[:-1])),
        ]
        for variant in variants:
            assert _run_bytes(tmp_path, capsys, variant.encode(), argv) == want
    bom = (2, "", "parse error: unexpected character '\\ufeff' (line 1, column 1)\n")
    assert _run_bytes(tmp_path, capsys, b"\xef\xbb\xbf" + GOOD_SESSION.encode(), argv) == bom
