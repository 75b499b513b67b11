"""Run the benchmark over seeds 1 to 10 and summarise every metric.

    python3 perfbench/sweep.py

Run from the root of a checkout.  It calls perfbench/run.py once per
(workload, seed) for every workload of BENCHMARK.json, with its
run_seconds, one run at a time, rotating the workload order every round
so that slow drift of the host falls evenly on all workloads.  For each
workload and end-to-end metric it prints the median, the quartiles
(statistics.quantiles, n=4) and their distance as a share of the
median, beside the metric's bound from BENCHMARK.json; the per-job
walls and host.calib_s the same way.  Then it makes one traced run per
workload at seed 1 and prints every per-layer metric.  The last line of
its output is the whole summary as one JSON object.
"""

from __future__ import annotations

import json
import os
import re
import statistics
import subprocess
import sys

RUN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "run.py")
SEEDS = range(1, 11)
_HUMAN = re.compile(r"^(host\.calib_s|job \S+)\s+(\S+)\s")


def run_once(workload, seed, seconds, trace):
    proc = subprocess.run(
        [sys.executable, RUN, "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(int(trace))],
        capture_output=True, text=True, timeout=900,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}")
    result = json.loads(lines[-1])
    extra = {}
    for line in lines:
        m = _HUMAN.match(line)
        if m:
            extra[m.group(1)] = float(m.group(2))
    for line in lines:
        if line.startswith("FAILED"):
            print(f"  {workload} seed {seed}: {line}")
    return result, extra


def summary(values):
    med = statistics.median(values)
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = med
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med if med else 0.0,
            "n": len(values), "values": values}


def main():
    with open("BENCHMARK.json", encoding="utf-8") as fh:
        bench = json.load(fh)
    workloads = [w["name"] for w in bench["workloads"]]
    seconds = bench["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    units = {m["name"]: m["unit"] for m in bench["end_to_end"] + bench["per_layer"]}

    samples = {w: {} for w in workloads}
    failed = {w: [0, 0] for w in workloads}
    for k, seed in enumerate(SEEDS):
        for i in range(len(workloads)):
            w = workloads[(i + k) % len(workloads)]
            result, extra = run_once(w, seed, seconds, False)
            failed[w][0] += result["failed"]
            failed[w][1] += result["attempted"]
            values = {name: m["value"] for name, m in result["metrics"].items()}
            values.update(extra)
            for name, value in values.items():
                samples[w].setdefault(name, []).append(value)
            print(f"seed {seed} {w}: " + "  ".join(f"{n}={v:.4g}" for n, v in values.items()),
                  flush=True)

    out = {"seconds": seconds, "seeds": [SEEDS[0], SEEDS[-1]], "workloads": {}}
    print()
    print(f"{'workload':10s} {'metric':26s} {'median':>10s} {'q1':>10s} {'q3':>10s} "
          f"{'spread':>7s} {'bound':>6s} unit")
    for w in workloads:
        out["workloads"][w] = {"failed": failed[w][0], "attempted": failed[w][1], "metrics": {}}
        for name, values in samples[w].items():
            s = summary(values)
            out["workloads"][w]["metrics"][name] = s
            bound = bounds.get(name)
            flag = " !" if bound is not None and name != "setup_s" and s["spread"] > bound / 3 else ""
            print(f"{w:10s} {name:26s} {s['median']:10.4f} {s['q1']:10.4f} {s['q3']:10.4f} "
                  f"{s['spread']:7.3f} {'' if bound is None else bound:>6} "
                  f"{units.get(name, 's')}{flag}")
        print(f"{w:10s} {'error_rate':26s} {failed[w][0]}/{failed[w][1]} jobs")

    print()
    traced = {}
    for w in workloads:
        result, _ = run_once(w, SEEDS[0], seconds, True)
        traced[w] = {n: m["value"] for n, m in result["metrics"].items()}
    out["traced"] = traced
    print(f"{'metric':28s} " + " ".join(f"{w:>12s}" for w in workloads) + "  unit")
    for name in traced[workloads[0]]:
        cells = []
        for w in workloads:
            v = traced[w][name]
            cells.append(f"{'missing' if v is None else format(v, '.5g'):>12s}")
        print(f"{name:28s} " + " ".join(cells) + f"  {units.get(name, '')}")
    print(json.dumps(out, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
