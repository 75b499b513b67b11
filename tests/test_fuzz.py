"""Randomly mutated input files never crash the CLI.

Each case mutates one of the shipped files (`data/*.json`) or one of the
files `taft 3 --out` writes, in one place: a key deleted, a list item
duplicated, or a scalar swapped for a value of another type or size.
Every command that reads the file then runs in-process and must exit
0, 2, 3 or 4; an exception escaping `cli.main` fails the test with its
traceback.

Those changes mostly break a file's shape, which the loaders refuse
(exit 2).  A second set of cases keeps the shape and changes a value the
engine checks: a nonnegative integer set to another, or a weight label
swapped for another label of the same file.  Some of them must reach an
inconsistency (exit 3).
"""

import contextlib
import copy
import io
import json
import pathlib
import random
import re

import pytest

from doublechar import cli

DATA = pathlib.Path(__file__).resolve().parent.parent / "data"

SCALARS = [None, True, 1.5, "x", [], {}, -1, 2**70]
MUTATIONS = 60
SEED = 20261018
VALUE_CHANGES = 40
VALUE_SEED = 20261019
LABEL = re.compile(r"^g\d+r\d+$")


def _nodes(obj, path=()):
    """Every (path, value) in a JSON tree, the root included."""
    yield path, obj
    if isinstance(obj, dict):
        for k, v in obj.items():
            yield from _nodes(v, path + (k,))
    elif isinstance(obj, list):
        for i, v in enumerate(obj):
            yield from _nodes(v, path + (i,))


def _mutate(obj, rng):
    """A copy of obj changed in one place, and a description of the change."""
    obj = copy.deepcopy(obj)
    nodes = list(_nodes(obj))
    choices = []
    for path, value in nodes:
        if isinstance(value, dict) and value:
            choices.append(("delete", path))
        if isinstance(value, list) and value:
            choices.append(("duplicate", path))
        if path and not isinstance(value, (dict, list)):
            choices.append(("swap", path))
    kind, path = rng.choice(choices)
    parent = obj
    for key in path[:-1]:
        parent = parent[key]
    target = parent[path[-1]] if path else obj
    if kind == "delete":
        key = rng.choice(sorted(target))
        del target[key]
        return obj, f"delete {list(path) + [key]}"
    if kind == "duplicate":
        i = rng.randrange(len(target))
        target.insert(i, copy.deepcopy(target[i]))
        return obj, f"duplicate {list(path) + [i]}"
    new = copy.deepcopy(rng.choice(SCALARS))
    parent[path[-1]] = new
    return obj, f"swap {list(path)} for {new!r}"


def _change_value(obj, rng):
    """A copy of obj with one value changed and its shape kept, and a
    description of the change."""
    obj = copy.deepcopy(obj)
    nodes = list(_nodes(obj))
    labels = sorted({v for _, v in nodes if isinstance(v, str) and LABEL.match(v)})
    choices = [
        (path, value)
        for path, value in nodes
        if path
        and (
            (type(value) is int and value >= 0)
            or (isinstance(value, str) and value in labels and len(labels) > 1)
        )
    ]
    path, value = rng.choice(choices)
    if isinstance(value, str):
        new = rng.choice([label for label in labels if label != value])
    else:
        new = rng.choice([n for n in range(4) if n != value])
    parent = obj
    for key in path[:-1]:
        parent = parent[key]
    parent[path[-1]] = new
    return obj, f"set {list(path)} to {new!r}"


@pytest.fixture(scope="module")
def scenarios(tmp_path_factory):
    """Name -> (files by role, the commands over those roles)."""
    taft = tmp_path_factory.mktemp("taft3")
    assert cli.main(["taft", "3", "--out", str(taft)]) == 0
    graded = ["--group", "{group}", "--profile", "{profile}", "--simples", "{simples}"]
    named = graded + ["--aliases", "{aliases}"]
    return {
        "s3": (
            {
                "group": DATA / "s3_group.json",
                "profile": DATA / "fk3_ml.json",
                "aliases": DATA / "fk3_aliases.json",
            },
            [
                ["weights", "--group", "{group}", "--aliases", "{aliases}"],
                ["bgg", "--group", "{group}", "--profile", "{profile}", "--aliases", "{aliases}"],
                ["verify", "--group", "{group}", "--profile", "{profile}"],
            ],
        ),
        "c3": ({"group": DATA / "c3_group.json"}, [["weights", "--group", "{group}"]]),
        "taft3": (
            {role: taft / f"{role}.json" for role in ("group", "profile", "simples", "aliases")},
            [
                ["weights", "--group", "{group}", "--aliases", "{aliases}"],
                ["bgg", *named],
                ["verify", *graded],
                ["ind", *named, "g1r1"],
                ["tensor", *named, "g1r1", "g2r0"],
            ],
        ),
    }


def _run(argv):
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        return cli.main(argv)


def _run_cases(scenarios, tmp_path, rng, cases, mutate):
    """Run every command over each mutated file; the exit codes seen."""
    names = sorted(scenarios)
    codes = []
    for case in range(cases):
        name = rng.choice(names)
        files, commands = scenarios[name]
        role = rng.choice(sorted(files))
        original = json.loads(files[role].read_text(encoding="utf-8"))
        mutated, change = mutate(original, rng)
        path = tmp_path / f"case{case}.json"
        path.write_text(json.dumps(mutated), encoding="utf-8")
        paths = {**{r: str(p) for r, p in files.items()}, role: str(path)}
        for command in commands:
            if "{" + role + "}" not in command:
                continue
            argv = [a.format(**paths) for a in command]
            code = _run(argv)
            assert code in (0, 2, 3, 4), f"{name} {role}: {change}: {argv[0]} exited {code}"
            codes.append(code)
    return codes


def test_mutated_inputs_exit_cleanly(scenarios, tmp_path, monkeypatch):
    monkeypatch.delenv(cli.CACHE_ENV, raising=False)
    _run_cases(scenarios, tmp_path, random.Random(SEED), MUTATIONS, _mutate)


def test_changed_values_reach_inconsistencies(scenarios, tmp_path, monkeypatch):
    monkeypatch.delenv(cli.CACHE_ENV, raising=False)
    codes = _run_cases(
        scenarios, tmp_path, random.Random(VALUE_SEED), VALUE_CHANGES, _change_value
    )
    assert 3 in codes, f"exit codes {sorted(set(codes))}"
