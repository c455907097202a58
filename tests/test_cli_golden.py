"""Golden CLI corpus: stdout, stderr and exit code of every command.

Each argument list runs through ``cli.main`` in text mode and in JSON
mode, against a session over Q or over F_2, and is compared with
``golden_cli.json``.  The corpus covers every command and each of its
usage and domain errors.  The ``completed in`` timing line is dropped
from stderr.  For errors that argparse itself reports only the exit
code is compared, because its usage text differs between Python
versions.

Re-record the file, only when the printed answers are meant to change:

    PYTHONPATH=src python tests/test_cli_golden.py
"""

from __future__ import annotations

import contextlib
import io
import json
import pathlib
import sys
import tempfile

GOLDEN = pathlib.Path(__file__).with_name("golden_cli.json")

SESSIONS = {
    "Q": """field Q
vars x y
ideal a: x^2, y^2
ideal b: x*y, x^2 - y^2
ideal m2: x^2, x*y, y^2
ideal line: x
ideal cusp: y^2 - x^3
ideal mixed: x^2 + y^3, x*y
""",
    "F2": """field F 2
vars x y
ideal a: x^2, y^3
ideal b: x*y, x^2 + y^2
ideal m2: x^2, x*y, y^2
ideal line: x
ideal cusp: y^2 + x^3
""",
    "bad": "field F 4\nvars x\n",
}

# (name, session, argv after the command's --session, argparse error?)
CASES = [
    ("derive", "Q", ["derive", "--poly", "x*y", "--level", "2"], False),
    ("derive-element", "Q", ["derive", "--element", "x^2 + y", "--level", "1"], False),
    ("derive-default-level", "Q", ["derive", "--poly", "3*x - 2*y"], False),
    ("derive-bad-character", "Q", ["derive", "--poly", "y/2"], False),
    ("derive-no-poly", "Q", ["derive", "--level", "1"], False),
    ("derive-bad-poly", "Q", ["derive", "--poly", "x +", "--level", "1"], False),
    ("derive-unknown-var", "Q", ["derive", "--poly", "z", "--level", "1"], False),
    ("derive-F2", "F2", ["derive", "--poly", "x^2*y + x", "--level", "3"], False),
    ("jet-ideal", "Q", ["jet-ideal", "--ideal", "b", "--level", "2"], False),
    ("jet-ideal-no-ideal", "Q", ["jet-ideal", "--level", "1"], False),
    ("jet-ideal-unknown", "Q", ["jet-ideal", "--ideal", "missing"], False),
    ("fiber-ideal", "Q", ["fiber-ideal", "--ideal", "a", "--level", "1"], False),
    ("fiber-ideal-F2", "F2", ["fiber-ideal", "--ideal", "b", "--level", "2"], False),
    ("lambda", "Q", ["lambda", "--poly", "x", "--ideal", "a", "--level", "2"], False),
    ("lambda-zero", "Q", ["lambda", "--poly", "x^2", "--ideal", "a", "--level", "2"], False),
    ("lambda-no-modulus", "Q", ["lambda", "--element", "x*y", "--level", "1"], False),
    ("lambda-poly-before-ideal", "Q", ["lambda", "--ideal", "missing", "--level", "1"], False),
    ("lambda-unknown-ideal", "Q", ["lambda", "--poly", "x", "--ideal", "missing"], False),
    ("closure", "Q", ["closure", "--ideal", "a", "--level", "1"], False),
    ("closure-modulus", "Q", ["closure", "--ideal", "line", "--modulus", "cusp", "--level", "2"], False),
    ("closure-F2", "F2", ["closure", "--ideal", "b", "--level", "2"], False),
    ("closure-modulus-before-ideal", "Q", ["closure", "--ideal", "missing", "--modulus", "gone"], False),
    ("closure-no-ideal", "Q", ["closure", "--level", "1"], False),
    ("chain", "Q", ["chain", "--ideal", "line", "--max-level", "3"], False),
    ("chain-F2", "F2", ["chain", "--ideal", "a", "--max-level", "3"], False),
    ("chain-modulus-before-ideal", "Q", ["chain", "--modulus", "gone"], False),
    ("certify", "Q", ["certify", "--ideal", "b", "--max-level", "6"], False),
    ("certify-not-certified", "Q", ["certify", "--ideal", "line", "--max-level", "2"], False),
    ("certify-modulus", "Q", ["certify", "--ideal", "line", "--modulus", "cusp", "--max-level", "3"], False),
    ("certify-F2", "F2", ["certify", "--ideal", "b", "--max-level", "4"], False),
    ("certify-modulus-before-ideal", "Q", ["certify", "--ideal", "missing", "--modulus", "gone"], False),
    ("jsc-member", "Q", ["jsc-member", "--ideal", "a", "--element", "x*y", "--level", "2"], False),
    ("jsc-member-poly", "Q", ["jsc-member", "--ideal", "a", "--poly", "x", "--level", "1"], False),
    ("jsc-member-F2", "F2", ["jsc-member", "--ideal", "a", "--modulus", "cusp", "--poly", "x*y", "--level", "1"], False),
    ("jsc-member-no-element", "Q", ["jsc-member", "--ideal", "a", "--level", "1"], False),
    ("jsc-member-ideal-before-element", "Q", ["jsc-member", "--level", "1"], False),
    ("jsc-member-modulus-before-ideal", "Q", ["jsc-member", "--modulus", "gone", "--element", "x"], False),
    ("socle", "Q", ["socle", "--modulus", "m2"], False),
    ("socle-gorenstein", "F2", ["socle", "--modulus", "a"], False),
    ("socle-not-artinian", "Q", ["socle", "--modulus", "line"], False),
    ("socle-zero-modulus", "Q", ["socle"], False),
    ("socle-unknown", "Q", ["socle", "--modulus", "gone"], False),
    ("matlis", "Q", ["matlis", "--modulus", "b", "--power", "3"], False),
    ("matlis-F2", "F2", ["matlis", "--modulus", "a", "--power", "3"], False),
    ("matlis-not-gorenstein", "F2", ["matlis", "--modulus", "m2", "--power", "2"], False),
    ("matlis-no-power", "Q", ["matlis", "--modulus", "b"], False),
    ("matlis-negative-power", "Q", ["matlis", "--modulus", "b", "--power", "-1"], True),
    ("matlis-not-artinian", "Q", ["matlis", "--modulus", "line", "--power", "2"], False),
    ("walkthrough", "Q", ["walkthrough", "--modulus", "m2", "--max-level", "3"], False),
    ("walkthrough-F2", "F2", ["walkthrough", "--modulus", "b", "--max-level", "2"], False),
    ("walkthrough-not-artinian", "Q", ["walkthrough", "--modulus", "line"], False),
    ("icl", "Q", ["icl", "--ideal", "a"], False),
    ("icl-F2", "F2", ["icl", "--ideal", "m2"], False),
    ("icl-not-monomial", "Q", ["icl", "--ideal", "b"], False),
    ("icl-no-ideal", "Q", ["icl"], False),
    ("bad-session", "bad", ["closure", "--ideal", "a"], False),
    ("missing-session-file", None, ["socle", "--session", "no-such-file.session"], False),
    ("unknown-command", "Q", ["bogus"], True),
    ("negative-level", "Q", ["closure", "--ideal", "a", "--level", "-1"], True),
    ("non-integer-level", "Q", ["closure", "--ideal", "a", "--level", "abc"], True),
    ("negative-max-level", "Q", ["chain", "--ideal", "a", "--max-level", "-2"], True),
    ("non-integer-power", "Q", ["matlis", "--modulus", "b", "--power", "abc"], True),
    ("no-session", None, ["socle"], True),
]


def _argv(session, args, paths, json_mode):
    argv = list(args)
    if session is not None:
        argv[1:1] = ["--session", str(paths[session])]
    return argv + (["--json"] if json_mode else [])


def _invoke(argv):
    from jetclosure.cli import main

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    stderr = "".join(
        line for line in err.getvalue().splitlines(keepends=True) if not line.startswith("completed in ")
    )
    return {"exit": code, "stdout": out.getvalue(), "stderr": stderr}


def _write_sessions(directory: pathlib.Path) -> dict:
    paths = {}
    for key, text in SESSIONS.items():
        paths[key] = directory / f"{key}.session"
        paths[key].write_text(text, encoding="utf-8")
    return paths


def _run_corpus(directory: pathlib.Path) -> dict:
    paths = _write_sessions(directory)
    results = {}
    for name, session, args, argparse_error in CASES:
        for mode in ("text", "json"):
            got = _invoke(_argv(session, args, paths, mode == "json"))
            if argparse_error:
                got = {"exit": got["exit"]}
            assert f"{name}/{mode}" not in results, f"duplicate case name {name}"
            results[f"{name}/{mode}"] = got
    return results


def test_corpus_matches_golden(tmp_path):
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    got = _run_corpus(tmp_path)
    assert sorted(got) == sorted(golden)
    for key in golden:
        assert got[key] == golden[key], key


def test_every_command_has_a_golden_case():
    # a command added to the table fails here until some golden case answers it
    from jetclosure.cli import COMMANDS

    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    answered = {args[0] for name, _, args, _ in CASES if golden[f"{name}/json"]["exit"] == 0}
    assert set(COMMANDS) <= answered


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as scratch:
        corpus = _run_corpus(pathlib.Path(scratch))
    GOLDEN.write_text(json.dumps(corpus, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {len(corpus)} entries to {GOLDEN}", file=sys.stderr)
