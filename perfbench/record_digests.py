"""Record the digests of the answers for the default seed.

    python3 perfbench/record_digests.py

Runs one pass of every workload at ``run.DEFAULT_SEED``, checks every
answer with the oracles, and writes ``digests.json``: per workload, the
SHA-256 of each seeded answer and of each fixed ROADMAP case (checked
for every seed).  It refuses to record an answer that fails its oracle.
Re-record only when a change is meant to alter the printed answers.
"""

from __future__ import annotations

import json
import os
import shutil
import sys

import run


def main() -> int:
    sys.path.insert(0, run.SRC)
    table = {}
    for workload in sorted(run.GENERATORS):
        workdir = os.path.join(run.ROOT, ".perfbench_work", f"record-{workload}")
        try:
            setup = run.Setup(workload, run.DEFAULT_SEED, False, workdir)
            records = run.run_pass(setup, run.case_io.Runner(setup.jc, setup.paths))
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        entry = {"seed": run.DEFAULT_SEED, "fixed": {}, "seeded": {}}
        for rec in records:
            case = setup.cases[rec.index]
            problems = run.oracle.check(case, rec.status, rec.payload, setup.jc)
            if problems:
                print(f"{workload} {case.cid}: {problems}", file=sys.stderr)
                return 1
            group = "fixed" if case.cid.startswith("fixed:") else "seeded"
            entry[group][case.cid] = run.digest(rec.payload)
        table[workload] = entry
        print(f"{workload}: {len(records)} answers recorded")
    with open(run.DIGESTS, "w", encoding="utf-8") as handle:
        json.dump(table, handle, indent=1, sort_keys=True)
        handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
