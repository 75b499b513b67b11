"""Record the outputs that the benchmark checks against.

    python3 perfbench/record_expected.py

Run from the repository root, on a commit whose outputs are trusted.
It runs one pass of every workload at seed 0, then the `ind` job of
every weight in inputs.IND_WEIGHTS and the `tensor` job of every pair
in inputs.TENSOR_PAIRS, and writes perfbench/expected.json.  Every
recorded digest is either of an output that does not depend on the seed
or of a relabelling-invariant fingerprint, so every seed must reproduce
it.  It takes about five minutes.
"""

from __future__ import annotations

import json
import os
import shutil
import sys
import tempfile
import time

import run
from inputs import IND_WEIGHTS, TENSOR_PAIRS


def main():
    root = os.getcwd()
    base = os.path.join(root, ".bench_work")
    os.makedirs(base, exist_ok=True)
    work = tempfile.mkdtemp(prefix="record-", dir=base)
    expected = {}
    try:
        for workload in sorted(run.WORKLOADS):
            ctx = run.open_run(root, os.path.join(work, workload), 0, workload)
            if ctx is None:
                print("no buildable src/doublechar here", file=sys.stderr)
                return 2
            pass_dir = os.path.join(ctx["work"], "pass")
            os.makedirs(pass_dir)
            jobs = ctx["jobs"](ctx, pass_dir)
            if workload == "reports":
                jobs += [run.ind_job(ctx, w) for w in IND_WEIGHTS]
                jobs += [run.tensor_job(ctx, a, b) for a, b in TENSOR_PAIRS]
            done = {}
            for job in jobs:
                ctx["deadline"] = time.monotonic() + run.RUN_LIMIT_S
                res = run.launch(ctx, job, pass_dir)
                done[job["id"]] = res
                observed = run.observed_digests(job, res) if not res["error"] else {}
                problem = run.check(job, res, observed, done)
                if problem:
                    print(f"{job['id']}: {problem}", file=sys.stderr)
                    return 1
                expected.update(observed)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            os.rmdir(base)
        except OSError:
            pass
    with open(run.EXPECTED_PATH, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(expected, indent=2, sort_keys=True) + "\n")
    print(f"recorded {len(expected)} digests in {run.EXPECTED_PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
