"""Run one benchmark job in a fresh interpreter.

    python3 perfbench/job.py SPEC_JSON

SPEC_JSON is built by run.py: the job id, its kind ("cli" runs
`doublechar.cli.main(args)`, "fusion_table" and "tables" are library
jobs), its arguments, the result path, the checkout's src directory,
and the `trace` and `setup_only` flags.  doublechar comes from
PYTHONPATH, as a user's run would get it.

The result file holds the exit code, the CLOCK_MONOTONIC time at which
the first `WeightSystem(...)` returned, the peak RSS, what a library job
computed, and, when traced, the job's spans and counters.  With
`setup_only` the job stops right after that first WeightSystem.
"""

from __future__ import annotations

import hashlib
import json
import os
import resource
import sys
import time


def digest(obj):
    data = json.dumps(obj, sort_keys=True, separators=(",", ":")).encode()
    return hashlib.sha256(data).hexdigest()


def _load_group(path):
    from doublechar import FiniteGroup

    with open(path, encoding="utf-8") as fh:
        return FiniteGroup.from_json(json.load(fh))


def fusion_table(path):
    """Every unordered product of weights, fingerprinted by dimensions."""
    from doublechar import WeightSystem

    group = _load_group(path)
    system = WeightSystem(group)
    weights = system.weights
    rows = []
    for i, a in enumerate(weights):
        for b in weights[i:]:
            product = system.fusion(a, b)
            rows.append(
                [
                    sorted([system.dim(a), system.dim(b)]),
                    sorted([system.dim(c), m] for c, m in product.items()),
                ]
            )
    rows.sort()
    return {
        "order": group.order,
        "dims": sorted(system.dim(w) for w in weights),
        "fusion": digest(rows),
    }


def tables(path, cache_dir):
    """Weights and character tables through the on-disk table cache."""
    from doublechar import WeightSystem

    group = _load_group(path)
    system = WeightSystem(group, cache_dir=cache_dir)
    return {
        "order": group.order,
        "dims": sorted(system.dim(w) for w in system.weights),
        "labelled": digest([[w.label, system.dim(w)] for w in system.weights]),
        "tables": digest([t.to_json()["values"] for t in system.tables]),
    }


LIBRARY_JOBS = {"fusion_table": fusion_table, "tables": tables}


def _write(path, result):
    result["maxrss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(result, fh, separators=(",", ":"))


def _stamp_setup(weight_system, spec, result, finish):
    """Record when the first WeightSystem(...) returns; stop there for
    a setup-only job."""
    init = weight_system.__init__

    def stamped(self, *args, **kwargs):
        init(self, *args, **kwargs)
        if result["setup_t"] is None:
            result["setup_t"] = time.monotonic()
            if spec["setup_only"]:
                result["rc"] = 0
                finish()
                sys.stdout.flush()
                os._exit(0)

    weight_system.__init__ = stamped


def main():
    spec = json.loads(sys.argv[1])
    result = {"rc": None, "setup_t": None}
    recorder = None

    def finish():
        if recorder is not None:
            result["trace"] = recorder.dump()
        _write(spec["result"], result)

    import doublechar
    from doublechar.weights import WeightSystem

    src = os.path.realpath(spec["src"]) + os.sep
    if not os.path.realpath(doublechar.__file__).startswith(src):
        result["error"] = f"doublechar imported from {doublechar.__file__}, not {src}"
        result["rc"] = 1
        finish()
        return 1
    if spec["trace"]:
        from spans import Recorder

        recorder = Recorder(spec["id"])
        recorder.install()
    _stamp_setup(WeightSystem, spec, result, finish)
    try:
        if spec["kind"] == "cli":
            from doublechar.cli import main as cli_main

            result["rc"] = cli_main(spec["args"])
        else:
            result["out"] = LIBRARY_JOBS[spec["kind"]](*spec["args"])
            result["rc"] = 0
    except Exception as exc:  # the job boundary: report, never hang the pass
        result["error"] = f"{type(exc).__name__}: {exc}"
        result["rc"] = 1
    sys.stdout.flush()
    finish()
    return result["rc"]


if __name__ == "__main__":
    sys.exit(main())
