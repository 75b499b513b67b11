import json

import pytest

from doublechar.errors import InputError
from doublechar.jsonio import (
    ML_KIND,
    PROFILE_KIND,
    aliases_to_json,
    canonical_dumps,
    load_aliases_file,
    load_group_file,
    load_profile_file,
    load_simples_file,
    profile_to_json,
    simples_to_json,
    write_json,
)
from doublechar.taft import TaftParams, build_profile_and_table
from doublechar.weights import WeightSystem


def test_canonical_dumps_is_stable():
    a = canonical_dumps({"b": 1, "a": [2, 1]})
    b = canonical_dumps({"a": [2, 1], "b": 1})
    assert a == b
    assert a.endswith("\n")
    assert json.loads(a) == {"a": [2, 1], "b": 1}


def test_group_file_round_trip(tmp_path):
    params = TaftParams(4)
    path = tmp_path / "group.json"
    write_json(str(path), params.system.group.to_json())
    group = load_group_file(str(path))
    assert group.elements == params.system.group.elements
    with pytest.raises(InputError):
        load_group_file(str(path), max_order=3)
    with pytest.raises(InputError):
        load_group_file(str(tmp_path / "absent.json"))
    bad = tmp_path / "bad.json"
    bad.write_text("{")
    with pytest.raises(InputError):
        load_group_file(str(bad))


def test_profile_round_trip(tmp_path, taft3):
    _, profile, table = taft3
    system = profile.system
    path = tmp_path / "profile.json"
    write_json(str(path), profile_to_json(profile, "group.json"))
    kind, clone = load_profile_file(str(path), system)
    assert kind == PROFILE_KIND
    assert clone.components == profile.components
    assert clone.n_top == profile.n_top


def test_simples_round_trip(tmp_path, taft3):
    _, profile, table = taft3
    path = tmp_path / "simples.json"
    write_json(str(path), simples_to_json(table))
    clone = load_simples_file(str(path), profile.system)
    for lam in table.weights():
        assert clone[lam] == table[lam]


def test_aliases_round_trip(tmp_path, taft3):
    params, profile, _ = taft3
    system = profile.system
    path = tmp_path / "aliases.json"
    write_json(str(path), aliases_to_json(params.aliases()))
    clone = load_aliases_file(str(path), system)
    assert clone == params.aliases()


def test_alias_validation(tmp_path, taft3):
    _, profile, _ = taft3
    system = profile.system
    path = tmp_path / "aliases.json"
    path.write_text(json.dumps({"format": 1, "aliases": {"g0r0": "x", "g0r1": "x"}}))
    with pytest.raises(InputError):
        load_aliases_file(str(path), system)
    path.write_text(json.dumps({"format": 1, "aliases": {"g9r9": "x"}}))
    with pytest.raises(InputError):
        load_aliases_file(str(path), system)


def test_ml_kind_detection():
    import pathlib

    from doublechar.groups import FiniteGroup

    fixture = pathlib.Path(__file__).resolve().parent.parent / "data" / "fk3_ml.json"
    system = WeightSystem(FiniteGroup.from_generators(3, [(1, 0, 2), (1, 2, 0)]))
    kind, ml = load_profile_file(str(fixture), system)
    assert kind == ML_KIND
    assert ml.dim_b == 12
    assert ml.n_top == 4
