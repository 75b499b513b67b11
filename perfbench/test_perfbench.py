"""Tests of the benchmark's own machinery.

    python3 -m pytest perfbench/test_perfbench.py

They run from the repository root and import doublechar from src.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
sys.path[:0] = [HERE, SRC]

from inputs import make_inputs  # noqa: E402
from job import fusion_table, tables  # noqa: E402
from run import EXPECTED_PATH, _duals_fingerprint  # noqa: E402
from spans import aggregate, layer_metrics, _resolve  # noqa: E402

with open(EXPECTED_PATH, encoding="utf-8") as _fh:
    EXPECTED = json.load(_fh)


def _files(directory):
    out = {}
    for name in sorted(os.listdir(directory)):
        with open(os.path.join(directory, name), "rb") as fh:
            out[name] = fh.read()
    return out


def test_same_seed_gives_identical_bytes(tmp_path):
    make_inputs(7, tmp_path / "a")
    make_inputs(7, tmp_path / "b")
    assert _files(tmp_path / "a") == _files(tmp_path / "b")


def test_seed_is_recorded_and_changes_labels(tmp_path):
    one = make_inputs(1, tmp_path / "one")
    two = make_inputs(2, tmp_path / "two")
    assert one["seed"] == 1 and two["seed"] == 2
    assert json.loads(_files(tmp_path / "one")["manifest.json"])["seed"] == 1
    a, b = _files(tmp_path / "one"), _files(tmp_path / "two")
    assert any(a[f"{g}.json"] != b[f"{g}.json"] for g in one["groups"])


def test_fingerprints_do_not_depend_on_seed(tmp_path):
    from doublechar.cli import main

    seen = []
    for seed in (1, 2):
        d = tmp_path / str(seed)
        make_inputs(seed, d)
        fusion = fusion_table(str(d / "S4.json"))
        table = tables(str(d / "S6.json"), str(d / "cache"))
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            assert main(["weights", "--group", str(d / "S4.json")]) == 0
        duals = _duals_fingerprint({"group": "S4"}, buf.getvalue().encode())
        seen.append((fusion["fusion"], fusion["dims"], table["dims"], duals))
    assert seen[0] == seen[1]
    assert seen[0][0] == EXPECTED["S4.fusion"]


def _traced_job(tmp_path, name, group_file, kind="fusion_table"):
    args = [group_file] if kind == "fusion_table" else [group_file, str(tmp_path / "cache")]
    result = tmp_path / f"{name}.json"
    spec = {"id": name, "kind": kind, "args": args, "result": str(result),
            "src": SRC, "trace": True, "setup_only": False}
    env = dict(os.environ, PYTHONPATH=SRC, PYTHONHASHSEED="0")
    subprocess.run([sys.executable, os.path.join(HERE, "job.py"), json.dumps(spec)],
                   env=env, check=True, timeout=120)
    return json.loads(result.read_text())


def test_traced_counters_repeat_exactly(tmp_path):
    make_inputs(3, tmp_path)
    runs = [_traced_job(tmp_path, f"s4-{k}", str(tmp_path / "S4.json")) for k in range(2)]
    metrics = [layer_metrics(aggregate([r["trace"]])) for r in runs]
    assert runs[0]["trace"]["missing"] == []
    for name, value in metrics[0].items():
        if not name.endswith("_s"):
            assert metrics[1][name] == value, name
    # every unordered pair once: nothing is a cache hit
    n = len(runs[0]["out"]["dims"])
    assert metrics[0]["weights.fusion_pairs"] == n * (n + 1) // 2
    assert metrics[0]["weights.fusion_hit_ratio"] == 0
    assert metrics[0]["taft.oracle_calls"] == 0 and metrics[0]["bgg.decompose_calls"] == 0


def test_missing_entry_point_is_not_zero():
    assert _resolve("doublechar.nichols", "no_such_function") is None
    assert _resolve("doublechar.no_such_module", "f") is None
    agg = {"calls": {}, "incl": {}, "self": {}, "counts": {},
           "missing": {"taft.oracle", "chartable.lookup"}}
    metrics = layer_metrics(agg)
    assert metrics["taft.oracle_s"] is None
    assert metrics["chartable.cache_hits"] is None
    assert metrics["weights.fusion_calls"] == 0


def test_traced_counters_do_not_depend_on_seed(tmp_path):
    counters = []
    for seed in (1, 2):
        d = tmp_path / str(seed)
        make_inputs(seed, d)
        metrics = {}
        for kind, group in (("fusion_table", "S4"), ("tables", "S5")):
            run = _traced_job(d, f"{kind}-{group}", str(d / f"{group}.json"), kind)
            for name, value in layer_metrics(aggregate([run["trace"]])).items():
                if not name.endswith("_s"):
                    metrics[f"{kind}:{name}"] = value
        counters.append(metrics)
    assert counters[0] == counters[1]
    assert counters[0]["tables:groups.centralizer_calls"] > 0
    assert counters[0]["tables:chartable.cache_misses"] > 0
