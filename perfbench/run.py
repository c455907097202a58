"""Benchmark driver for jetclosure.

    python3 perfbench/run.py --workload certify-mix --seed 1 --seconds 36 --trace 0

Run it from the root of a checkout: it imports ``jetclosure`` from the
checkout's ``src/`` and nothing else, and exits with status 2 when that
is missing.  One process runs one workload (see ``workloads.py``):

* set-up: import the library and generate and write every case input,
  timed, 16 times before the timed loop and 15 times after it (and after
  the checks), each followed by a sample of the host's speed (see
  ``hostspeed.py``); ``setup_s`` is the median of the 31, scaled to the
  nominal host speed by the median of those samples.
* the timed loop: closed loop, one client, one thread, for
  ``--seconds``.  Passes over the workload's case list run one after
  another, each in its own seeded shuffled order, so that every kind of
  case is spread over the whole run.  The first pass always runs whole;
  a later pass stops at the first case whose previous run would end past
  the deadline.  Each case is timed on its own (wall and process CPU); a
  garbage collection runs between cases, outside the timers, and so do
  the samples of the host's speed, one after every case that ends 50 ms
  or more after the last sample.
* the figures: every run of a case is first scaled to the nominal host
  speed: by ``hostspeed.NOMINAL_S`` over the mean of the samples taken
  from 3 s before the run to 3 s after it.  Every case then gets the
  median of its own scaled runs, and the timing metrics are taken over
  those per-case times, one per case of the list, so a pass cut short
  does not change the mix the figures describe.
* checks, after the loop: every distinct answer against the oracles in
  ``oracle.py``, repeated answers against the first one, and, for the
  default seed and the fixed ROADMAP cases, against the digests recorded
  in ``digests.json``.

Why the scaling: on a shared 2-vCPU Intel Xeon VM the speed of
pure-Python code swung between 11.8 and 20.3 iterations per second of a
fixed loop from one second to the next, with process CPU time slowed
as much as wall time, and in stretches of half a minute or more.  On
six to eight seeds of each workload the timing metrics spread by 7-22%
(IQR over median) with raw times, and by at most 6.7% scaled (see
``hostspeed.py``).  The mean scale of a run is printed with its figures.

With ``--trace 0`` the last line of stdout is one JSON object with the
end-to-end metrics; with ``--trace 1`` every case runs untraced and then
traced, and the run reports the per-layer metrics of ``spans.py``, per
pass, plus ``trace.overhead_ratio`` (traced wall / untraced wall).  The
spans go to ``.perfbench_out/`` in the checkout.  The exit status is 1
when any answer failed its check.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import json
import os
import random
import resource
import shutil
import statistics
import sys
import time
import traceback

import cases as case_io
import hostspeed
import oracle
from spans import Tracer
from workloads import GENERATORS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
DIGESTS = os.path.join(HERE, "digests.json")
DEFAULT_SEED = 0
SETUP_BEFORE = 16  # set-ups timed before the timed loop
SETUP_AFTER = 15  # and after it, with --trace 0
SUBMODULES = ("cli", "closures", "errors", "groebner", "jets", "linalg", "newton", "poly")


class Setup:
    """The imported library, the case list and the written inputs."""

    def __init__(self, workload: str, seed: int, tiny: bool, workdir: str):
        self.inputs = (workload, seed, tiny, workdir)
        self.samples = []
        self.host = []
        self.jc, self.modules, self.cases, self.paths = self.repeat(SETUP_BEFORE)

    def repeat(self, times: int) -> tuple:
        """Set up from scratch ``times`` times, timing each; returns the
        last library, modules, cases and paths.  Called again after the
        constructor, it leaves a new copy of the library in
        ``sys.modules``: run no case after that."""
        workload, seed, tiny, workdir = self.inputs
        for _ in range(times):
            for name in [m for m in sys.modules if m == "jetclosure" or m.startswith("jetclosure.")]:
                del sys.modules[name]
            t0 = time.perf_counter()
            jc = importlib.import_module("jetclosure")
            modules = {name: importlib.import_module(f"jetclosure.{name}") for name in SUBMODULES}
            cases = GENERATORS[workload](seed)
            if tiny:
                cases = tiny_selection(cases)
            shutil.rmtree(workdir, ignore_errors=True)
            paths = case_io.write_inputs(cases, workdir)
            self.samples.append(time.perf_counter() - t0)
            self.host.append(hostspeed.sample())
        return jc, modules, cases, paths

    @property
    def setup_s(self) -> float:
        """The median set-up, at the nominal host speed."""
        return statistics.median(self.samples) * hostspeed.NOMINAL_S / statistics.median(self.host)


def tiny_selection(cases: list) -> list:
    """The first two seeded cases of every kind: a quick run for self-tests."""
    taken = {}
    out = []
    for case in cases:
        kind = (case.op, case.expect, case.facts.get("nil") is None)
        if not case.cid.startswith("fixed:") and taken.get(kind, 0) < 2:
            taken[kind] = taken.get(kind, 0) + 1
            out.append(case)
    return out


class Record:
    """One execution: its times and its answer."""

    __slots__ = ("index", "start", "wall", "cpu", "status", "payload")

    def __init__(self, index, start, wall, cpu, status, payload):
        self.index, self.start, self.wall, self.cpu = index, start, wall, cpu
        self.status, self.payload = status, payload


def run_case(setup: Setup, runner, index: int, tracer=None) -> Record:
    """Execute case ``index`` once, timed; the answer is rendered after."""
    call, render = runner.prepare(setup.cases[index])
    if tracer is not None:
        tracer.case = index
    gc.collect()
    w0, c0 = time.perf_counter(), time.process_time()
    try:
        status, answer = call()
    except Exception:  # the answer is wrong, not the benchmark: count it
        status, answer = -1, traceback.format_exc(limit=3)
    wall, cpu = time.perf_counter() - w0, time.process_time() - c0
    payload = render(answer) if status == 0 else answer
    return Record(index, w0, wall, cpu, status, payload)


def run_pass(setup: Setup, runner, order=None, deadline=None, last=None, host=None) -> list:
    """One pass over the case list, in ``order``; one Record per case run.

    With a ``deadline`` (a ``perf_counter`` time) the pass stops before
    the first case whose previous wall time, in ``last``, would take it
    past the deadline.  A ``hostspeed.Sampler`` as ``host`` is offered a
    sample after every case.
    """
    records = []
    for index in range(len(setup.cases)) if order is None else order:
        if deadline is not None and time.perf_counter() + last[index] > deadline:
            break
        records.append(run_case(setup, runner, index))
        if host is not None:
            host.after_case()
    return records


def load_digests(workload: str) -> dict:
    with open(DIGESTS, encoding="utf-8") as handle:
        return json.load(handle).get(workload, {})


def digest(payload: str) -> str:
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def check_records(setup: Setup, records: list, workload: str, seed: int) -> int:
    """Count failed executions; print the first problems to stderr."""
    table = load_digests(workload)
    recorded = dict(table.get("fixed", {}))
    if seed == table.get("seed"):
        recorded.update(table.get("seeded", {}))
    first = {}
    failed = 0
    for rec in records:
        case = setup.cases[rec.index]
        if case.cid not in first:
            problems = oracle.check(case, rec.status, rec.payload, setup.jc)
            want = recorded.get(case.cid)
            if want is None and (case.cid.startswith("fixed:") or seed == table.get("seed")):
                problems.append("no digest recorded for this case")
            elif want is not None and digest(rec.payload) != want:
                problems.append("answer differs from the digest recorded for it")
            first[case.cid] = (digest(rec.payload), problems)
        else:
            problems = first[case.cid][1]
            if digest(rec.payload) != first[case.cid][0]:
                problems = problems + ["answer changed between passes"]
        if problems:
            failed += 1
            if failed <= 5:
                print(f"FAIL {workload} seed {seed} {case.cid} ({case.op}): {'; '.join(problems)}",
                      file=sys.stderr)
    return failed


def per_case_medians(records: list, host) -> tuple:
    """(wall, cpu): the median of each case's runs, each run scaled to
    the nominal host speed by the ``hostspeed.Sampler``; one entry per
    case."""
    runs = {}
    for rec in records:
        scale = host.scale(rec.start, rec.start + rec.wall)
        runs.setdefault(rec.index, []).append((rec.wall * scale, rec.cpu * scale))
    wall = [statistics.median(w for w, _ in scaled) for scaled in runs.values()]
    cpu = [statistics.median(c for _, c in scaled) for scaled in runs.values()]
    return wall, cpu


def end_to_end(setup: Setup, records: list, host) -> dict:
    """The metrics of one pass over the list, from per-case medians, at
    the nominal host speed."""
    walls, cpus = per_case_medians(records, host)
    deciles = statistics.quantiles(walls, n=10, method="inclusive")
    return {
        "setup_s": (setup.setup_s, "s"),
        "cases_per_s": (len(walls) / sum(walls), "1/s"),
        "case_ms_p50": (statistics.median(walls) * 1000, "ms"),
        "case_ms_p90": (deciles[8] * 1000, "ms"),
        "cpu_ms_per_case": (sum(cpus) / len(cpus) * 1000, "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


def measure(setup: Setup, runner, seconds: float, seed: int) -> tuple:
    """Shuffled passes for ``seconds``; returns (records, passes begun,
    the ``hostspeed.Sampler`` of the loop)."""
    shuffler = random.Random(f"order:{seed}")
    order = list(range(len(setup.cases)))
    shuffler.shuffle(order)
    host = hostspeed.Sampler()
    start = host.start
    records = run_pass(setup, runner, order, None, None, host)
    last = {}
    passes = 1
    while True:
        last.update((r.index, r.wall) for r in records[-len(order):])
        shuffler.shuffle(order)
        more = run_pass(setup, runner, order, start + seconds, last, host)
        records += more
        passes += bool(more)
        if len(more) < len(order):
            return records, passes, host


def measure_traced(setup: Setup, runner, seconds: float, out_path: str) -> tuple:
    """Per-layer metrics per pass; each case runs untraced, then traced.

    Running the two right after each other makes the overhead ratio
    immune to the host's speed drifting between whole passes.
    """
    tracer = Tracer()
    records = []
    untraced = traced = 0.0
    passes = 0
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        for index in range(len(setup.cases)):
            plain = run_case(setup, runner, index)
            tracer.install(setup.jc, setup.modules)
            try:
                spanned = run_case(setup, runner, index, tracer)
            finally:
                tracer.uninstall()
            records += [plain, spanned]
            untraced += plain.wall
            traced += spanned.wall
        passes += 1
        now = time.perf_counter()
        if now - start + (now - t0) > seconds:
            break
    os.makedirs(os.path.dirname(out_path), exist_ok=True)
    tracer.dump(out_path, [c.cid for c in setup.cases])
    metrics = {k: (v["value"], v["unit"]) for k, v in tracer.metrics(passes).items()}
    metrics["trace.overhead_ratio"] = (traced / untraced, "ratio")
    print(f"tracing overhead: {traced - untraced:.3f} s over {passes} pass(es) "
          f"({untraced:.3f} s untraced, {traced:.3f} s traced); spans in {out_path}")
    return records, passes, metrics


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(GENERATORS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="two cases of each kind, one pass (self-test)")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "jetclosure", "__init__.py")):
        print(f"error: no jetclosure sources under {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    tag = f"{args.workload}-seed{args.seed}"
    workdir = os.path.join(ROOT, ".perfbench_work", f"{tag}-{os.getpid()}")
    try:
        setup = Setup(args.workload, args.seed, args.tiny, workdir)
        if os.path.dirname(os.path.dirname(os.path.abspath(setup.jc.__file__))) != SRC:
            print(f"error: imported jetclosure from {setup.jc.__file__}, not {SRC}", file=sys.stderr)
            return 2
        runner = case_io.Runner(setup.jc, setup.paths)
        seconds = 0.0 if args.tiny else args.seconds
        if args.trace:
            out_path = os.path.join(ROOT, ".perfbench_out", f"trace-{tag}.jsonl")
            records, passes, metrics = measure_traced(setup, runner, seconds, out_path)
        else:
            records, passes, host = measure(setup, runner, seconds, args.seed)
            metrics = end_to_end(setup, records, host)
            print(f"host speed: times scaled by {host.scale(host.start, time.perf_counter()):.4f} "
                  f"on average to the nominal host speed")
        failed = check_records(setup, records, args.workload, args.seed)
        if not args.trace:
            setup.repeat(SETUP_AFTER)
            metrics["setup_s"] = (setup.setup_s, "s")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(workdir))
        except OSError:
            pass
    attempted = len(records)
    runs = [sum(1 for r in records if r.index == i) for i in range(len(setup.cases))]
    print(f"{args.workload} seed {args.seed}: {len(setup.cases)} cases, {passes} pass(es) begun, "
          f"{min(runs)}-{max(runs)} runs per case = {attempted} cases attempted, {failed} failed")
    for name, (value, unit) in metrics.items():
        print(f"  {name:48s} {value:14.6g} {unit}")
    print(f"  {'error_rate':48s} {failed / attempted:14.6g} fraction")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
