"""doublechar benchmark: seeded workloads of CLI and library jobs.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Every job runs in its own fresh
interpreter (perfbench/job.py) with doublechar imported from the
checkout's src, one job at a time: a single client in a closed loop.
A pass runs each job of the workload once and checks every output; the
run repeats passes until the next one would end after S seconds.

--trace 0 prints the end-to-end metrics (median over passes):
  wall_s       wall time of one pass over the workload's jobs
  setup_s      per job, launch to the return of its first WeightSystem,
               summed over the pass; set-up-only passes are added while
               time is left, up to five samples, and always up to three
  peak_rss_mb  highest peak RSS of any job process in the pass
--trace 1 runs one untraced pass, then traced passes, and prints the
per-layer metrics of spans.LAYER_METRICS plus trace.overhead_s and
host.calib_s.  Every job launched, set-up-only ones included, counts in
`attempted`; those that fail (nonzero exit, a failed output check, or
no WeightSystem built) count in `failed`; the error rate is
failed / attempted.

The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import re
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from inputs import GROUPS, make_inputs  # noqa: E402
from job import digest  # noqa: E402
from spans import LAYER_METRICS, aggregate, layer_metrics  # noqa: E402

EXPECTED_PATH = os.path.join(HERE, "expected.json")
MIN_SETUP_SAMPLES = 3
MAX_SETUP_SAMPLES = 5
RUN_LIMIT_S = 170  # a run must exit within 180 s
CALIB_LOOPS = 1_000_000


class SetupError(Exception):
    """A workload's untimed set-up failed, so no pass can run."""


# ---- workloads ----


def _taft(ctx, pass_dir):
    jobs = []
    for n in (7, 12):
        out = os.path.join(pass_dir, f"taft{n}")
        jobs.append(
            {
                "id": f"taft{n}",
                "kind": "cli",
                "args": ["taft", str(n), "--out", out],
                "out_dir": out,
                "digests": {
                    f"taft{n}.stdout": "stdout",
                    f"taft{n}.report.json": "file:report.json",
                    f"taft{n}.report.txt": "file:report.txt",
                },
            }
        )
    return jobs


def _dg_fusion(ctx, pass_dir):
    jobs = [
        {
            "id": f"{g}_fusion_table",
            "kind": "fusion_table",
            "args": [ctx["groups"][g]],
            "group": g,
            "digests": {f"{g}.fusion": "out:fusion", f"{g}.dims": "out:dims"},
        }
        for g in ("S4", "A5")
    ]
    jobs.append(
        {
            "id": "S5_weights",
            "kind": "cli",
            "args": ["weights", "--group", ctx["groups"]["S5"]],
            "group": "S5",
            "digests": {"S5.duals": "duals"},
        }
    )
    return jobs


def _taft9_setup(ctx):
    """Untimed, once per run: the taft 9 files the report jobs read."""
    out = os.path.join(ctx["work"], "taft9")
    res = launch(ctx, {"id": "taft9_setup", "kind": "cli", "args": ["taft", "9", "--out", out]},
                 ctx["work"])
    if res["error"]:
        raise SetupError(f"reports set-up (taft 9) failed: {res['error']}")
    return out


def _taft9_args(ctx, named=True):
    data = {k: os.path.join(ctx["taft9"], f"{k}.json")
            for k in ("group", "profile", "simples", "aliases")}
    args = ["--group", data["group"], "--profile", data["profile"], "--simples", data["simples"]]
    return args + ["--aliases", data["aliases"]] if named else args


def ind_job(ctx, weight):
    return {"id": "taft9_ind", "kind": "cli", "args": ["ind"] + _taft9_args(ctx) + [weight],
            "digests": {f"taft9.ind.{weight}.stdout": "stdout"}}


def tensor_job(ctx, left, right):
    return {"id": "taft9_tensor", "kind": "cli",
            "args": ["tensor"] + _taft9_args(ctx) + [left, right],
            "digests": {f"taft9.tensor.{left}.{right}.stdout": "stdout"}}


def _reports(ctx, pass_dir):
    base = _taft9_args(ctx, named=False)
    named = _taft9_args(ctx)
    picks = ctx["picks"]
    s3 = ["--group", "data/s3_group.json"]
    fk3 = s3 + ["--profile", "data/fk3_ml.json"]
    aliases = ["--aliases", "data/fk3_aliases.json"]
    return [
        {"id": "taft9_bgg", "kind": "cli", "args": ["bgg"] + named,
         "digests": {"taft9.bgg.stdout": "stdout"}},
        {"id": "taft9_bgg_ungraded", "kind": "cli", "args": ["bgg", "--ungraded"] + named,
         "digests": {"taft9.bgg_ungraded.stdout": "stdout"}},
        {"id": "taft9_verify", "kind": "cli", "args": ["verify"] + base,
         "digests": {"taft9.verify.stdout": "stdout"}},
        ind_job(ctx, picks["ind"]),
        tensor_job(ctx, *picks["tensor"]),
        {"id": "fk3_bgg", "kind": "cli", "args": ["bgg"] + fk3 + aliases,
         "digests": {"fk3.bgg.stdout": "stdout"}},
        {"id": "fk3_verify", "kind": "cli", "args": ["verify"] + fk3,
         "digests": {"fk3.verify.stdout": "stdout"}},
        {"id": "s3_weights", "kind": "cli", "args": ["weights"] + s3 + aliases,
         "digests": {"s3.weights.stdout": "stdout"}},
    ]


def _tables(ctx, pass_dir):
    jobs = []
    for g in ("S6", "S7"):
        cache = os.path.join(pass_dir, f"cache-{g}")
        for state in ("cold", "warm"):
            job = {
                "id": f"{g}_tables_{state}",
                "kind": "tables",
                "args": [ctx["groups"][g], cache],
                "group": g,
                "digests": {f"{g}.dims": "out:dims"},
            }
            if state == "warm":
                job["same_as"] = f"{g}_tables_cold"
            jobs.append(job)
    return jobs


WORKLOADS = {
    "taft": (_taft, None),
    "dg_fusion": (_dg_fusion, None),
    "reports": (_reports, _taft9_setup),
    "tables": (_tables, None),
}


# ---- jobs ----


def launch(ctx, job, pass_dir, trace=False, setup_only=False):
    """Run one job process; return its timings, outputs and any error."""
    result_path = os.path.join(pass_dir, f"{job['id']}.result.json")
    spec = {
        "id": job["id"],
        "kind": job["kind"],
        "args": job["args"],
        "result": result_path,
        "src": ctx["src"],
        "trace": trace,
        "setup_only": setup_only,
    }
    timeout = max(1.0, ctx["deadline"] - time.monotonic())
    t0 = time.monotonic()
    proc = subprocess.Popen(
        [sys.executable, os.path.join(HERE, "job.py"), json.dumps(spec)],
        cwd=ctx["root"],
        env=ctx["env"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
    )
    try:
        stdout, stderr = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        return {"error": "timed out", "wall": time.monotonic() - t0}
    wall = time.monotonic() - t0
    res = {"wall": wall, "stdout": stdout, "error": None}
    try:
        with open(result_path, encoding="utf-8") as fh:
            data = json.load(fh)
    except (OSError, ValueError):
        res["error"] = f"exit {proc.returncode}, no result: {stderr.decode(errors='replace')[-400:]}"
        return res
    res["out"] = data.get("out")
    res["trace"] = data.get("trace")
    res["rss_mb"] = data["maxrss_kb"] / 1024
    if data.get("setup_t") is not None:
        res["setup"] = data["setup_t"] - t0
    if proc.returncode != 0 or data["rc"] != 0:
        detail = data.get("error") or stderr.decode(errors="replace")[-400:]
        res["error"] = f"exit {proc.returncode}: {detail}"
    elif "setup" not in res:
        res["error"] = "no WeightSystem was built"
    return res


def observed_digests(job, res):
    """The digests a job's check compares, computed from its outputs."""
    out = {}
    for key, source in job.get("digests", {}).items():
        if source == "stdout":
            out[key] = hashlib.sha256(res["stdout"]).hexdigest()
        elif source.startswith("file:"):
            with open(os.path.join(job["out_dir"], source[5:]), "rb") as fh:
                out[key] = hashlib.sha256(fh.read()).hexdigest()
        elif source.startswith("out:"):
            value = res["out"][source[4:]]
            out[key] = value if isinstance(value, str) else digest(value)
        elif source == "duals":
            out[key] = digest(_duals_fingerprint(job, res["stdout"]))
    return out


_WEIGHT_LINE = re.compile(r"^(g\d+r\d+)\s.*\bdim=(\d+)\s+dual=(g\d+r\d+)$")


def _duals_fingerprint(job, stdout):
    """Multiset of (dim w, dim w*) from `doublechar weights` output; the
    squared dimensions must add up to |G|^2."""
    dims, duals = {}, {}
    for line in stdout.decode().splitlines():
        m = _WEIGHT_LINE.match(line)
        if m:
            dims[m.group(1)] = int(m.group(2))
            duals[m.group(1)] = m.group(3)
    order = GROUPS[job["group"]][2]
    if not dims or sum(d * d for d in dims.values()) != order * order:
        raise ValueError("weights output does not account for |G|^2")
    return sorted([dims[w], dims[duals[w]]] for w in dims)


def check(job, res, expected, done):
    """None when the job's outputs are right, else what is wrong."""
    if res["error"]:
        return res["error"]
    try:
        for key, value in observed_digests(job, res).items():
            if expected.get(key) != value:
                return f"{key} differs from the recorded output"
    except (OSError, ValueError, KeyError) as exc:
        return f"output unreadable: {exc}"
    out = res.get("out")
    if out is not None and sum(d * d for d in out["dims"]) != out["order"] ** 2:
        return "squared dimensions do not add up to |G|^2"
    if job.get("same_as"):
        other = done.get(job["same_as"])
        if other is None or other.get("out") is None:
            return f"{job['same_as']} has no output to compare with"
        for field in ("labelled", "tables"):
            if out[field] != other["out"][field]:
                return f"{field} differ from {job['same_as']}"
    return None


# ---- passes ----


def run_pass(ctx, index, trace=False, setup_only=False):
    pass_dir = os.path.join(ctx["work"], f"pass{index}")
    os.makedirs(pass_dir)
    jobs = ctx["jobs"](ctx, pass_dir)
    t0 = time.monotonic()
    done, failures, dumps = {}, [], []
    for job in jobs:
        res = launch(ctx, job, pass_dir, trace=trace, setup_only=setup_only)
        done[job["id"]] = res
        if not setup_only:
            problem = check(job, res, ctx["expected"], done)
            if problem:
                failures.append(f"{job['id']}: {problem}")
            if res.get("trace"):
                dumps.append(res["trace"])
        elif res["error"] or "setup" not in res:
            failures.append(f"{job['id']} (set-up only): {res['error']}")
    elapsed = time.monotonic() - t0
    shutil.rmtree(pass_dir, ignore_errors=True)
    return {
        "elapsed": elapsed,
        "wall": sum(r["wall"] for r in done.values()),
        "setup": sum(r.get("setup", 0.0) for r in done.values()),
        "rss_mb": max(r.get("rss_mb", 0.0) for r in done.values()),
        "job_walls": {k: r["wall"] for k, r in done.items()},
        "jobs": len(jobs),
        "failures": failures,
        "dumps": dumps,
    }


def calibrate():
    """Seconds for a fixed pure-Python integer loop: host speed, reported
    beside the metrics and never used to rescale them."""
    t0 = time.perf_counter()
    x = 0
    for i in range(CALIB_LOOPS):
        x = (x + i * i) % 1000003
    return time.perf_counter() - t0


def _quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def measure(ctx, seconds, trace):
    start = time.monotonic()
    calib = [calibrate()]
    passes, traced = [], []
    index = 0

    def more(runs):
        spent = time.monotonic() - start
        return spent + statistics.median(p["elapsed"] for p in runs) <= seconds

    passes.append(run_pass(ctx, index))
    index += 1
    if trace:
        while True:
            traced.append(run_pass(ctx, index, trace=True))
            index += 1
            if not more(traced) or traced[-1]["failures"]:
                break
    else:
        while more(passes) and not passes[-1]["failures"]:
            passes.append(run_pass(ctx, index))
            index += 1
    setups = [p["setup"] for p in passes]
    extra = []
    # set-up-only passes cost about one set-up each: take them while the
    # run has time left, and at least until MIN_SETUP_SAMPLES exist
    while (not trace and len(setups) < MAX_SETUP_SAMPLES and not passes[-1]["failures"]
           and (len(setups) < MIN_SETUP_SAMPLES
                or time.monotonic() - start + statistics.median(setups) <= seconds)):
        extra.append(run_pass(ctx, index, setup_only=True))
        index += 1
        setups.append(extra[-1]["setup"])
    calib.append(calibrate())
    return passes, traced, setups, extra, statistics.median(calib), time.monotonic() - start


# ---- reporting ----


def _line(name, value, unit, extra=""):
    shown = "missing" if value is None else f"{value:.6g}"
    print(f"{name:28s} {shown:>12s} {unit:6s} {extra}")


def report(args, passes, traced, setups, extra, calib, elapsed):
    every = passes + traced + extra
    attempted = sum(p["jobs"] for p in every)
    failures = [f for p in every for f in p["failures"]]
    failed = len(failures)
    for f in failures:
        print(f"FAILED {f}")
    print(f"workload {args.workload}  seed {args.seed}  passes {len(passes)} untraced, "
          f"{len(traced)} traced, {len(extra)} set-up only, in {elapsed:.1f} s")
    walls = [p["wall"] for p in passes]
    q1, q3 = _quartiles(walls)
    wall = statistics.median(walls)
    if not traced:
        _line("host.calib_s", calib, "s")
    _line("error_rate", failed / attempted if attempted else 0.0, "ratio",
          f"{failed}/{attempted} jobs")
    for job_id in passes[0]["job_walls"]:
        values = [p["job_walls"][job_id] for p in passes]
        _line(f"job {job_id}", statistics.median(values), "s", f"n={len(values)}")
    metrics = {}
    if not traced:
        q1s, q3s = _quartiles(setups)
        rss = [p["rss_mb"] for p in passes]
        metrics = {
            "wall_s": {"value": wall, "unit": "s"},
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "peak_rss_mb": {"value": statistics.median(rss), "unit": "MB"},
        }
        _line("wall_s", wall, "s", f"q1={q1:.6g} q3={q3:.6g} n={len(walls)}")
        _line("setup_s", metrics["setup_s"]["value"], "s",
              f"q1={q1s:.6g} q3={q3s:.6g} n={len(setups)}")
        _line("peak_rss_mb", metrics["peak_rss_mb"]["value"], "MB", f"n={len(rss)}")
    else:
        per_pass = [layer_metrics(aggregate(p["dumps"])) for p in traced]
        traced_wall = statistics.median(p["wall"] for p in traced)
        for name, (_, _, unit) in LAYER_METRICS.items():
            values = [m[name] for m in per_pass]
            value = None if None in values else statistics.median(values)
            metrics[name] = {"value": value, "unit": unit}
        metrics["trace.overhead_s"] = {"value": traced_wall - wall, "unit": "s"}
        metrics["host.calib_s"] = {"value": calib, "unit": "s"}
        for name, m in metrics.items():
            _line(name, m["value"], m["unit"])
    correct = not failures
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))


# ---- entry point ----


def open_run(root, work, seed, workload):
    """Context of one run: environment, deadline, seeded inputs and the
    workload's untimed set-up; None if root holds no buildable checkout."""
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "doublechar", "__init__.py")):
        return None
    env = {k: v for k, v in os.environ.items()
           if k not in ("PYTHONPATH", "DOUBLECHAR_CACHE_DIR", "PYTHONHASHSEED")}
    env["PYTHONPATH"] = src
    env["PYTHONHASHSEED"] = "0"  # exact counters repeat run to run
    # byte-compile the package so that no timed job pays for it
    built = subprocess.run([sys.executable, "-m", "compileall", "-q", src],
                           env=env, capture_output=True, timeout=120)
    if built.returncode != 0:
        return None
    ctx = {"root": root, "src": src, "env": env, "work": work,
           "deadline": time.monotonic() + RUN_LIMIT_S}
    manifest = make_inputs(seed, os.path.join(work, "inputs"))
    ctx["groups"] = {g: os.path.join(work, "inputs", f) for g, f in manifest["groups"].items()}
    ctx["picks"] = manifest["picks"]
    make_jobs, setup = WORKLOADS[workload]
    ctx["jobs"] = make_jobs
    if setup:
        ctx["taft9"] = setup(ctx)
    return ctx


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = os.getcwd()
    base = os.path.join(root, ".bench_work")
    os.makedirs(base, exist_ok=True)
    work = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=base)
    try:
        ctx = open_run(root, work, args.seed, args.workload)
        if ctx is None:
            print("perfbench: no buildable src/doublechar here; run from the "
                  "repository root", file=sys.stderr)
            return 2
        with open(EXPECTED_PATH, encoding="utf-8") as fh:
            ctx["expected"] = json.load(fh)
        print(f"inputs: seed {args.seed}, picks {json.dumps(ctx['picks'])}")
        report(args, *measure(ctx, args.seconds, bool(args.trace)))
        return 0
    except SetupError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            os.rmdir(base)
        except OSError:
            pass


if __name__ == "__main__":
    sys.exit(main())
