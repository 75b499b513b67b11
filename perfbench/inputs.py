"""Seeded inputs for the benchmark.

A seed turns into one group file per benchmark group (points relabelled
by a random permutation, generators conjugated accordingly and listed in
a shuffled order) and into the weight picks of the `reports` workload:
one of IND_WEIGHTS and one of TENSOR_PAIRS, whose outputs are all
recorded in expected.json.  The same seed always gives byte-identical
files; every group file describes the same abstract group whatever the
seed, so relabelling-invariant fingerprints of the results do not
depend on it.
"""

from __future__ import annotations

import json
import os
import random

# name -> (degree, generators, order); each generating set is fixed in
# size so that the seed changes labels, not the size of the input
GROUPS = {
    "S4": (4, [(1, 2, 3, 0), (1, 0, 2, 3)], 24),
    "A5": (5, [(1, 2, 0, 3, 4), (0, 1, 3, 4, 2)], 60),
    "S5": (5, [(1, 2, 3, 4, 0), (1, 0, 2, 3, 4)], 120),
    "S6": (6, [(1, 2, 3, 4, 5, 0), (1, 0, 2, 3, 4, 5)], 720),
    "S7": (7, [(1, 2, 3, 4, 5, 6, 0), (1, 0, 2, 3, 4, 5, 6)], 5040),
}

# the taft 9 files of the `reports` workload have weights g<i>r<j>, i, j < 9
TAFT_REPORT_N = 9
IND_WEIGHTS = [f"g{i}r{j}" for i in range(TAFT_REPORT_N) for j in range(TAFT_REPORT_N)]
TENSOR_PAIRS = [
    ("g0r0", "g1r2"),
    ("g2r5", "g7r3"),
    ("g4r4", "g4r8"),
    ("g8r1", "g3r6"),
    ("g5r0", "g6r7"),
    ("g1r8", "g8r8"),
]


def canonical_bytes(obj):
    return (json.dumps(obj, indent=2, sort_keys=True) + "\n").encode()


def relabelled_group(name, rng):
    """Group file payload: generators conjugated by a random point
    relabelling pi (g -> pi g pi^-1), in a shuffled order."""
    degree, gens, _ = GROUPS[name]
    pi = list(range(degree))
    rng.shuffle(pi)
    inv = [0] * degree
    for i, x in enumerate(pi):
        inv[x] = i
    out = [[pi[g[inv[x]]] for x in range(degree)] for g in gens]
    rng.shuffle(out)
    return {"format": 1, "degree": degree, "generators": out}


def report_picks(rng):
    return {"ind": rng.choice(IND_WEIGHTS), "tensor": list(rng.choice(TENSOR_PAIRS))}


def make_inputs(seed, directory):
    """Write every seeded input under directory and return the manifest,
    which names the group files relative to directory."""
    os.makedirs(directory, exist_ok=True)
    manifest = {"seed": seed, "groups": {}}
    for name in GROUPS:
        rng = random.Random(f"{seed}:{name}")
        manifest["groups"][name] = f"{name}.json"
        with open(os.path.join(directory, f"{name}.json"), "wb") as fh:
            fh.write(canonical_bytes(relabelled_group(name, rng)))
    manifest["picks"] = report_picks(random.Random(f"{seed}:reports"))
    with open(os.path.join(directory, "manifest.json"), "wb") as fh:
        fh.write(canonical_bytes(manifest))
    return manifest
