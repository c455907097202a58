"""Self-tests of the benchmark itself.

    python3 perfbench/selftest.py

1. A tiny run of every workload, untraced and traced, exits 0 with no
   failed answer and emits exactly the metric names, with the units,
   that ``BENCHMARK.json`` lists.
2. A deliberately corrupted answer of every kind of case is counted as a
   failure by the oracles alone (at a seed with no recorded digests), so
   the checker is live.
3. A run whose answers are corrupted prints ``"correct": false`` and
   exits 1.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import subprocess
import sys

import run

SPEC = os.path.join(run.ROOT, "BENCHMARK.json")
UNCHECKED_SEED = 7  # no digests recorded: only the oracles can catch a fault


def _last_json(text: str) -> dict:
    return json.loads(text.strip().splitlines()[-1])


def test_tiny_runs_emit_every_metric(spec: dict) -> None:
    wanted = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            proc = subprocess.run(
                [sys.executable, os.path.join(run.HERE, "run.py"), "--workload", workload,
                 "--seed", str(run.DEFAULT_SEED), "--seconds", "1", "--trace", str(trace), "--tiny"],
                cwd=run.ROOT, capture_output=True, text=True, timeout=300, check=False)
            assert proc.returncode == 0, f"{workload} trace={trace}: exit {proc.returncode}\n{proc.stderr}"
            result = _last_json(proc.stdout)
            assert result["correct"] and result["failed"] == 0, (workload, trace, proc.stderr)
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            assert got == wanted[trace], f"{workload} trace={trace}: {sorted(set(got) ^ set(wanted[trace]))}"
            print(f"ok  tiny {workload} trace={trace}: {len(got)} metrics, error_rate 0")


def _corrupt(case, payload: str) -> str:
    """Spoil one fact of the answer: drop an element or shift a count."""
    data = json.loads(payload)
    if case.op in ("certify", "socle", "icl"):
        data["generators"] = data["generators"][:-1] or ["x"]
    elif case.op == "walkthrough":
        data["outputs"]["stages"][-1]["colength"] += 1
    elif case.op == "matlis":
        data["outputs"]["images"] = data["outputs"]["images"][:-1]
    elif case.op == "standard_monomial_basis":
        data["monomials"] = data["monomials"][:-1]
    elif case.op == "module_standard_monomials":
        data = data[:-1]
    elif case.op == "module_jet_closure":
        data["dim_module"] += 1
    return json.dumps(data)


def test_corrupted_answers_fail(spec: dict) -> None:
    sys.path.insert(0, run.SRC)
    for workload in (w["name"] for w in spec["workloads"]):
        workdir = os.path.join(run.ROOT, ".perfbench_work", f"selftest-{workload}")
        try:
            setup = run.Setup(workload, UNCHECKED_SEED, True, workdir)
            records = run.run_pass(setup, run.case_io.Runner(setup.jc, setup.paths))
        finally:
            run.shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.redirect_stderr(io.StringIO()):
            assert run.check_records(setup, records, workload, UNCHECKED_SEED) == 0, workload
        kinds = set()
        for rec in records:
            case = setup.cases[rec.index]
            if rec.status != 0 or case.op in kinds:
                continue
            kinds.add(case.op)
            good = rec.payload
            rec.payload = _corrupt(case, good)
            with contextlib.redirect_stderr(io.StringIO()):
                failed = run.check_records(setup, [rec], workload, UNCHECKED_SEED)
            rec.payload = good
            assert failed == 1, f"{workload}: corrupted {case.op} answer passed the checks"
            print(f"ok  corrupted {case.op} answer in {workload} counted as failed")


def test_wrong_answer_exits_nonzero() -> None:
    original = run.run_pass

    def corrupting(setup, runner, *args, **kwargs):
        records = original(setup, runner, *args, **kwargs)
        if not records:
            return records
        records[0].payload = _corrupt(setup.cases[records[0].index], records[0].payload)
        return records

    run.run_pass = corrupting
    out = io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            status = run.main(["--workload", "staircase-newton", "--seed", str(UNCHECKED_SEED), "--tiny"])
    finally:
        run.run_pass = original
    result = _last_json(out.getvalue())
    assert status == 1 and result["correct"] is False and result["failed"] == 1, (status, result)
    print("ok  a wrong answer makes the run print correct=false and exit 1")


def main() -> int:
    with open(SPEC, encoding="utf-8") as handle:
        spec = json.load(handle)
    test_tiny_runs_emit_every_metric(spec)
    test_corrupted_answers_fail(spec)
    test_wrong_answer_exits_nonzero()
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
