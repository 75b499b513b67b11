"""Span and counter recorder for traced benchmark jobs.

`Recorder.install()` wraps the public entry points of every doublechar
module.  Each call becomes a span (name, start, end, parent, job id)
held in memory; the job writes them out when it exits and the harness
turns them into per-layer self times with `aggregate`.  Counts are taken
at the same boundaries.

A function imported by name into other modules (`verma_char` lives in
`nichols` but is called through `bgg` and `cli`) is replaced in every
loaded doublechar namespace that holds it.  An entry point that no longer
exists is listed in `Recorder.missing`, so its layer is reported as
missing rather than as zero.
"""

from __future__ import annotations

import functools
import importlib
import os
import sys
import time
import weakref

# span name -> entry points (module, attribute path) recorded under it
SPANS = {
    "groups.closure": [("doublechar.groups", "FiniteGroup.from_generators")],
    "groups.conjugacy": [("doublechar.groups", "ConjugacyData.__init__")],
    "groups.centralizer": [("doublechar.groups", "centralizer")],
    # renamed on exit to chartable.cache_hit / cache_miss / no_cache
    "chartable.lookup": [("doublechar.chartable", "CharacterTable.load_or_compute")],
    "chartable.compute": [("doublechar.chartable", "CharacterTable.compute")],
    "weights.init": [("doublechar.weights", "WeightSystem.__init__")],
    "weights.fusion": [("doublechar.weights", "WeightSystem.fusion")],
    "weights.dual": [("doublechar.weights", "WeightSystem.dual")],
    "graded.kmul": [("doublechar.graded", "KElement.mul")],
    "nichols.verma_char": [("doublechar.nichols", "verma_char")],
    "nichols.coverma_char": [("doublechar.nichols", "coverma_char")],
    "nichols.duality": [("doublechar.nichols", "verify_duality_identities")],
    "bgg.decompose": [("doublechar.bgg", "decompose_into_simples")],
    "bgg.matrices": [("doublechar.bgg", "bgg_matrices")],
    "bgg.ind": [("doublechar.bgg", "ind_into_projectives")],
    "bgg.tensor": [("doublechar.bgg", "tensor_projectives")],
    "taft.oracle": [("doublechar.taft", "VermaMatrices.__init__")],
    "taft.build": [("doublechar.taft", "build_profile_and_table")],
    "jsonio.load": [
        ("doublechar.jsonio", name)
        for name in (
            "load_group_file",
            "load_profile_file",
            "load_simples_file",
            "load_aliases_file",
        )
    ],
    "jsonio.write": [
        ("doublechar.jsonio", "write_json"),
        ("doublechar.jsonio", "write_text"),
    ],
    "cli.main": [("doublechar.cli", "main")],
}

# counted, not timed: Cyclotomic arithmetic
CYCLOTOMIC_OPS = (
    "__add__",
    "__radd__",
    "__sub__",
    "__rsub__",
    "__mul__",
    "__rmul__",
    "__truediv__",
    "conjugate",
    "inverse",
)

# (span the metric reads, quantity, unit); quantity is "self" (self time),
# "incl" (inclusive time), "calls", or a counter name
LAYER_METRICS = {
    "groups.closure_s": ("groups.closure", "self", "s"),
    "groups.conjugacy_s": ("groups.conjugacy", "self", "s"),
    "groups.centralizer_s": ("groups.centralizer", "self", "s"),
    "groups.centralizer_calls": ("groups.centralizer", "calls", "count"),
    "chartable.compute_s": ("chartable.compute", "self", "s"),
    "chartable.compute_calls": ("chartable.compute", "calls", "count"),
    "chartable.cache_misses": ("chartable.cache_miss", "calls", "count"),
    "chartable.cache_write_s": ("chartable.cache_miss", "self", "s"),
    "chartable.cache_hits": ("chartable.cache_hit", "calls", "count"),
    "chartable.cache_load_s": ("chartable.cache_hit", "incl", "s"),
    "weights.init_self_s": ("weights.init", "self", "s"),
    "weights.fusion_s": ("weights.fusion", "self", "s"),
    "weights.fusion_calls": ("weights.fusion", "calls", "count"),
    "weights.fusion_pairs": ("weights.fusion", "fusion_pairs", "count"),
    "weights.fusion_hit_ratio": ("weights.fusion", "hit_ratio", "ratio"),
    "weights.dual_s": ("weights.dual", "self", "s"),
    "weights.dual_calls": ("weights.dual", "calls", "count"),
    "cyclotomic.ops": ("cyclotomic", "cyclotomic_ops", "count"),
    "graded.kmul_s": ("graded.kmul", "self", "s"),
    "graded.kmul_calls": ("graded.kmul", "calls", "count"),
    "nichols.verma_char_s": ("nichols.verma_char", "self", "s"),
    "nichols.verma_char_calls": ("nichols.verma_char", "calls", "count"),
    "nichols.coverma_char_s": ("nichols.coverma_char", "self", "s"),
    "nichols.coverma_char_calls": ("nichols.coverma_char", "calls", "count"),
    "nichols.duality_s": ("nichols.duality", "self", "s"),
    "bgg.decompose_s": ("bgg.decompose", "self", "s"),
    "bgg.decompose_calls": ("bgg.decompose", "calls", "count"),
    "bgg.matrices_self_s": ("bgg.matrices", "self", "s"),
    "bgg.ind_s": ("bgg.ind", "self", "s"),
    "bgg.tensor_s": ("bgg.tensor", "self", "s"),
    "taft.oracle_s": ("taft.oracle", "self", "s"),
    "taft.oracle_calls": ("taft.oracle", "calls", "count"),
    "taft.build_s": ("taft.build", "self", "s"),
    "jsonio.load_s": ("jsonio.load", "self", "s"),
    "jsonio.write_s": ("jsonio.write", "self", "s"),
    "jsonio.bytes_written": ("jsonio.write", "bytes_written", "bytes"),
    "cli.self_s": ("cli.main", "self", "s"),
}

# spans renamed on exit read their entry points from the original name
_SOURCE = {
    "chartable.cache_hit": "chartable.lookup",
    "chartable.cache_miss": "chartable.lookup",
}


def _resolve(module, path):
    """(owner, attribute name, raw attribute) or None when it is gone."""
    try:
        owner = importlib.import_module(module)
    except ImportError:
        return None
    *outer, name = path.split(".")
    for part in outer:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    raw = owner.__dict__.get(name) if isinstance(owner, type) else getattr(owner, name, None)
    if raw is None:
        return None
    return owner, name, raw


class Recorder:
    """Spans and counters of one job process."""

    def __init__(self, job_id):
        self.job = job_id
        # [name, start_ns, end_ns, parent index or -1, job id]
        self.spans = []
        self.stack = []
        self.counts = {"cyclotomic_ops": 0, "bytes_written": 0, "fusion_pairs": 0}
        self._computes = 0
        self.missing = []
        self._pairs = weakref.WeakKeyDictionary()

    # ---- recording ----

    def span(self, name, fn, on_enter=None, on_exit=None):
        spans, stack, clock, job = self.spans, self.stack, time.perf_counter_ns, self.job

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            record = [name, clock(), 0, stack[-1] if stack else -1, job]
            stack.append(len(spans))
            spans.append(record)
            token = on_enter(args, kwargs) if on_enter else None
            try:
                return fn(*args, **kwargs)
            finally:
                if on_exit:
                    on_exit(record, args, kwargs, token)
                record[2] = clock()
                stack.pop()

        return wrapper

    def counted(self, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts["cyclotomic_ops"] += 1
            return fn(*args, **kwargs)

        return wrapper

    # ---- hooks for spans that also count ----

    def _fusion_enter(self, args, kwargs):
        system, lam, mu = args[0], args[1], args[2]
        seen = self._pairs.setdefault(system, set())
        key = (min(lam, mu), max(lam, mu))
        if key not in seen:
            seen.add(key)
            self.counts["fusion_pairs"] += 1

    def _compute_enter(self, args, kwargs):
        self._computes += 1

    def _lookup_enter(self, args, kwargs):
        # load_or_compute(cls, group, cache_dir=None, conj=None)
        cache_dir = kwargs.get("cache_dir", args[2] if len(args) > 2 else None)
        return cache_dir, self._computes

    def _lookup_exit(self, record, args, kwargs, token):
        cache_dir, computed = token
        if cache_dir is None:
            record[0] = "chartable.no_cache"
        elif self._computes > computed:
            record[0] = "chartable.cache_miss"
        else:
            record[0] = "chartable.cache_hit"

    def _write_exit(self, record, args, kwargs, token):
        parent = record[3]
        if parent >= 0 and self.spans[parent][0] == "jsonio.write":
            return  # write_json delegating to write_text; count once
        path = args[0] if args else kwargs.get("path")
        if path and os.path.exists(path):
            self.counts["bytes_written"] += os.path.getsize(path)

    # ---- installation ----

    def install(self):
        """Wrap every entry point in SPANS and the Cyclotomic operations."""
        import doublechar  # noqa: F401  (loads every submodule)

        enter = {
            "weights.fusion": self._fusion_enter,
            "chartable.lookup": self._lookup_enter,
            "chartable.compute": self._compute_enter,
        }
        leave = {
            "chartable.lookup": self._lookup_exit,
            "jsonio.write": self._write_exit,
        }
        for name, points in SPANS.items():
            for module, path in points:
                found = _resolve(module, path)
                if found is None:
                    self.missing.append(name)
                    continue
                owner, attr, raw = found
                kind = type(raw) if isinstance(raw, (classmethod, staticmethod)) else None
                fn = raw.__func__ if kind else raw
                wrapped = self.span(name, fn, enter.get(name), leave.get(name))
                self._replace(owner, attr, raw, kind(wrapped) if kind else wrapped)
        found = _resolve("doublechar.cyclotomic", "Cyclotomic")
        if found is None:
            self.missing.append("cyclotomic")
        else:
            cls = found[2]
            for op in CYCLOTOMIC_OPS:
                if op not in cls.__dict__:
                    self.missing.append("cyclotomic")
                    continue
                setattr(cls, op, self.counted(cls.__dict__[op]))

    @staticmethod
    def _replace(owner, attr, raw, wrapped):
        setattr(owner, attr, wrapped)
        if isinstance(owner, type):
            return
        # the same function imported by name elsewhere
        for modname, module in list(sys.modules.items()):
            if modname != "doublechar" and not modname.startswith("doublechar."):
                continue
            for key, value in list(vars(module).items()):
                if value is raw:
                    setattr(module, key, wrapped)

    # ---- output ----

    def dump(self):
        return {
            "job": self.job,
            "spans": self.spans,
            "counts": self.counts,
            "missing": sorted(set(self.missing)),
        }


def aggregate(dumps):
    """Per-span totals over several job dumps: calls, inclusive and self
    seconds; plus the summed counters and the missing span names."""
    calls, incl, self_s = {}, {}, {}
    counts = {}
    missing = set()
    for d in dumps:
        spans = d["spans"]
        child = [0] * len(spans)
        for name, start, end, parent, _ in spans:
            if parent >= 0:
                child[parent] += end - start
        for i, (name, start, end, parent, _) in enumerate(spans):
            calls[name] = calls.get(name, 0) + 1
            incl[name] = incl.get(name, 0) + (end - start) / 1e9
            self_s[name] = self_s.get(name, 0) + (end - start - child[i]) / 1e9
        for key, value in d["counts"].items():
            counts[key] = counts.get(key, 0) + value
        missing.update(d["missing"])
    return {"calls": calls, "incl": incl, "self": self_s, "counts": counts, "missing": missing}


def layer_metrics(agg):
    """LAYER_METRICS values from an aggregate; None marks a layer whose
    entry point is missing."""
    out = {}
    for metric, (span, quantity, unit) in LAYER_METRICS.items():
        if _SOURCE.get(span, span) in agg["missing"]:
            out[metric] = None
            continue
        if quantity in ("self", "incl", "calls"):
            value = agg[quantity].get(span, 0)
        elif quantity == "hit_ratio":
            n = agg["calls"].get(span, 0)
            value = (n - agg["counts"].get("fusion_pairs", 0)) / n if n else 0.0
        else:
            value = agg["counts"].get(quantity, 0)
        out[metric] = value
    return out
