import json
import os
import pathlib
import tracemalloc

import pytest

from doublechar import cli
from doublechar.bgg import MLMatrixData
from doublechar.errors import InconsistencyError, InputError, SpanError
from doublechar.jsonio import (
    aliases_to_json,
    canonical_dumps,
    load_aliases_file,
    load_group_file,
    load_profile_file,
    load_simples_file,
    write_json,
    write_text,
)
from doublechar.nichols import NicholsProfile
from doublechar.taft import TaftParams, build_profile_and_table
from doublechar.weights import Weight, WeightSystem

DATA = pathlib.Path(__file__).resolve().parent.parent / "data"


def _reference_dumps(obj):
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def test_canonical_dumps_is_stable():
    a = canonical_dumps({"b": 1, "a": [2, 1]})
    b = canonical_dumps({"a": [2, 1], "b": 1})
    assert a == b
    assert a.endswith("\n")
    assert json.loads(a) == {"a": [2, 1], "b": 1}


def _recorded_writes(monkeypatch):
    """(path, obj) of each write_json call the CLI makes from now on."""
    writes = []
    write = cli.write_json

    def recorded(path, obj):
        writes.append((path, obj))
        write(path, obj)

    monkeypatch.setattr(cli, "write_json", recorded)
    return writes


def test_canonical_dumps_matches_json_on_every_written_payload(monkeypatch, tmp_path):
    payloads = _recorded_writes(monkeypatch)
    for n in range(2, 13):
        assert cli.main(["taft", str(n), "--out", str(tmp_path / f"taft{n}")]) == 0
    t3 = tmp_path / "taft3"
    taft3 = [
        "--group", t3 / "group.json",
        "--profile", t3 / "profile.json",
        "--simples", t3 / "simples.json",
        "--aliases", t3 / "aliases.json",
    ]
    fk3 = ["--group", DATA / "s3_group.json", "--profile", DATA / "fk3_ml.json"]
    for i, files in enumerate((taft3, fk3)):
        for extra in ([], ["--ungraded"]):
            out = tmp_path / f"bgg{i}{''.join(extra)}"
            argv = ["bgg", *files, *extra, "--out", out]
            assert cli.main([str(a) for a in argv]) == 0
    assert len(payloads) == 11 * 5 + 4
    assert len({path for path, _ in payloads}) == len(payloads)
    for path, obj in payloads:
        assert canonical_dumps(obj) == _reference_dumps(obj)
        # the streamed file holds exactly the joined text
        assert pathlib.Path(path).read_bytes() == canonical_dumps(obj).encode()


@pytest.mark.parametrize("obj", [{1: "a"}, {"w": Weight(0, 1)}], ids=["int_key", "weight"])
def test_refused_payload_keeps_the_previous_file(tmp_path, obj):
    path = tmp_path / "report.json"
    write_json(str(path), {"kept": [1, 2]})
    before = path.read_bytes()
    with pytest.raises(TypeError):
        write_json(str(path), obj)
    assert path.read_bytes() == before
    assert sorted(p.name for p in tmp_path.iterdir()) == ["report.json"]


def test_failed_rename_names_the_destination_and_leaves_no_temporary_file(tmp_path):
    # a directory cannot be replaced by a file: the temporary file is
    # written, the rename fails, and the error names the destination
    path = tmp_path / "taken"
    path.mkdir()
    for write in (lambda: write_json(str(path), {}), lambda: write_text(str(path), "x\n")):
        with pytest.raises(InputError) as info:
            write()
        assert str(info.value).startswith(f"cannot write {path}: ")
        assert ".tmp" not in str(info.value)
        assert sorted(p.name for p in tmp_path.iterdir()) == ["taken"]
        assert list(path.iterdir()) == []


def test_written_files_take_the_mode_open_gives(tmp_path):
    plain = tmp_path / "plain.json"
    with open(plain, "w"):
        pass
    for name, write in (("a.json", write_json), ("b.txt", write_text)):
        path = tmp_path / name
        write(str(path), "x")
        assert os.stat(path).st_mode == os.stat(plain).st_mode


def test_report_is_streamed_without_a_copy_of_its_text(monkeypatch, tmp_path):
    # a joined copy of the taft 12 report's text would cost about
    # 3.8 MiB above the payload; streaming it costs a write buffer
    writes = _recorded_writes(monkeypatch)
    assert cli.main(["taft", "12", "--out", str(tmp_path / "taft12")]) == 0
    (obj,) = [obj for path, obj in writes if path.endswith("report.json")]
    path = tmp_path / "report.json"
    tracemalloc.start()
    try:
        write_json(str(path), obj)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert path.stat().st_size > 400_000
    assert peak < 256 * 1024


@pytest.mark.parametrize(
    "obj",
    [
        {},
        [],
        {"a": {}, "b": [], "c": [{}, [], [[]], {"d": {}}]},
        [[[]], [{}], {"": []}],
        "",
        0,
        -7,
        -(10**30),
        [True, False, None, 1.5, -0.0, 1e300],
        {"ключ": "значение", "ü": "\u00e9\u4e2d\U0001f600"},
        {"tab\tnew\nline": "quote \" back \\ nul \x00 bell \x07 del \x7f"},
        {"b": 1, "a": 2, "B": 3, "aa": 4, "": 5},
    ],
)
def test_canonical_dumps_matches_json(obj):
    assert canonical_dumps(obj) == _reference_dumps(obj)


class _Dict(dict):
    pass


class _List(list):
    pass


def test_canonical_dumps_refuses_what_json_would_write_differently():
    with pytest.raises(TypeError):
        canonical_dumps({1: "a"})
    with pytest.raises(TypeError):
        canonical_dumps({"a": {None: 1}})
    with pytest.raises(TypeError):
        canonical_dumps(object())
    for obj in (_Dict(a=1), _List([1]), [_Dict()], {"a": _List()}):
        try:
            text = canonical_dumps(obj)
        except TypeError:
            continue
        assert text == _reference_dumps(obj)


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
    write_json(str(path), profile.to_json("group.json"))
    clone = load_profile_file(str(path), system)
    assert type(clone) is NicholsProfile
    assert clone.components == profile.components
    assert clone.n_top == profile.n_top


@pytest.mark.parametrize("error", [InputError, InconsistencyError, SpanError])
def test_inconsistent_profile_names_its_path(monkeypatch, tmp_path, taft3, error):
    # the error keeps its type and a SpanError its residual; only the
    # message gains the path
    _, profile, _ = taft3
    path = tmp_path / "profile.json"
    write_json(str(path), profile.to_json("group.json"))
    residual = object()
    if error is SpanError:
        raised = SpanError("identity broke", residual)
    else:
        raised = error("identity broke")

    def refuse(payload, system):
        raise raised

    monkeypatch.setattr(NicholsProfile, "from_json", staticmethod(refuse))
    with pytest.raises(error) as info:
        load_profile_file(str(path), profile.system)
    assert type(info.value) is error
    assert str(info.value) == f"{path}: identity broke"
    if error is SpanError:
        assert info.value.residual is residual


def test_simples_round_trip(tmp_path, taft3):
    _, profile, table = taft3
    path = tmp_path / "simples.json"
    write_json(str(path), table.to_json())
    clone = load_simples_file(str(path), profile.system)
    for lam in table.weights():
        assert clone[lam] == table[lam]


# a layer below every other of one entry: two weights under g0r1, or
# g0r1's lowest weight g2r0 under g0r2
LOWEST_LAYER_FAULTS = {
    "single-weight": (1, -7, ["g1r1", "g2r2"], "entry g0r1 has 2 weights in degree -7"),
    "bijection": (2, -3, ["g2r0"], "entries g0r1 and g0r2 share the lowest weight g2r0"),
}


def write_lowest_layer_fault(src, dst, fault):
    entry, deg, labels, _ = LOWEST_LAYER_FAULTS[fault]
    obj = json.loads(pathlib.Path(src).read_text(encoding="utf-8"))
    layer = {"deg": deg, "weights": [{"m": 1, "w": w} for w in labels]}
    obj["simples"][entry]["char"]["char"].insert(0, layer)
    pathlib.Path(dst).write_text(json.dumps(obj), encoding="utf-8")
    return dst


def lowest_layer_message(path, fault):
    return f"{path}: lowest-layer invariant '{fault}' violated: {LOWEST_LAYER_FAULTS[fault][3]}"


@pytest.mark.parametrize("fault", sorted(LOWEST_LAYER_FAULTS))
def test_simples_breaking_a_lowest_layer_invariant_names_its_path(tmp_path, taft3, fault):
    _, profile, table = taft3
    good = tmp_path / "good.json"
    write_json(str(good), table.to_json())
    path = write_lowest_layer_fault(good, tmp_path / "simples.json", fault)
    with pytest.raises(InconsistencyError) as info:
        load_simples_file(str(path), profile.system)
    assert type(info.value) is InconsistencyError
    assert str(info.value) == lowest_layer_message(path, fault)


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
    ml = load_profile_file(str(fixture), system)
    assert type(ml) is MLMatrixData
    assert ml.dim_b == 12
    assert ml.n_top == 4
