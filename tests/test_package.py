import json
import os
import pathlib
import subprocess
import sys

import pytest

import doublechar
from doublechar import (
    Cyclotomic,
    FiniteGroup,
    MLMatrixData,
    NicholsProfile,
    SimpleTable,
    TaftParams,
    VermaMatrices,
    WeightSystem,
    zeta,
)
from doublechar.jsonio import canonical_dumps
from doublechar.laurent import _SparseSum
from doublechar.weights import Weight

DATA = pathlib.Path(__file__).resolve().parent.parent / "data"


def test_all_names_resolve_once():
    names = doublechar.__all__
    assert len(names) == len(set(names))
    for name in names:
        assert hasattr(doublechar, name), name


def _fk3_matrix():
    system = WeightSystem(FiniteGroup.from_generators(3, [(1, 0, 2), (1, 2, 0)]))
    return MLMatrixData.from_json(json.loads((DATA / "fk3_ml.json").read_text()), system)


# one value of each immutable class, built from the taft3 fixture
FROZEN = {
    _SparseSum: lambda taft3: _SparseSum({"x": 1}),
    Cyclotomic: lambda taft3: zeta(3),
    NicholsProfile: lambda taft3: taft3[1],
    SimpleTable: lambda taft3: taft3[2],
    MLMatrixData: lambda taft3: _fk3_matrix(),
    TaftParams: lambda taft3: taft3[0],
    VermaMatrices: lambda taft3: VermaMatrices(taft3[0]),
}


@pytest.mark.parametrize("cls", FROZEN, ids=lambda cls: cls.__name__)
def test_value_classes_are_immutable(cls, taft3):
    value = FROZEN[cls](taft3)
    assert type(value) is cls
    # a field of the class, then a name it does not have
    for name in (cls.__slots__[0], "extra"):
        with pytest.raises(AttributeError, match=f"^{cls.__name__} is immutable$"):
            setattr(value, name, None)


def _loaded_by_cli_import(module):
    # modules that site loads before the import do not count
    code = (
        "import sys; before = set(sys.modules); import doublechar.cli; "
        f"print({module!r} in set(sys.modules) - before)"
    )
    src = str(pathlib.Path(doublechar.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True
    )
    return proc.stdout


def test_cli_import_loads_no_dataclasses():
    assert _loaded_by_cli_import("dataclasses") == "False\n"


def test_cli_import_loads_no_hashlib():
    # hashlib maps OpenSSL; only a table cache lookup needs it
    assert _loaded_by_cli_import("hashlib") == "False\n"


def test_weight_order_hash_repr_and_immutability():
    ws = [Weight(i, j) for i in range(4) for j in range(4)]
    assert sorted(reversed(ws)) == ws
    assert Weight(1, 3) < Weight(2, 0) and Weight(2, 0) < Weight(2, 1)
    # the hash a frozen dataclass of the two fields had
    assert hash(Weight(3, 7)) == hash((3, 7))
    assert repr(Weight(3, 7)) == Weight(3, 7).label == "g3r7"
    with pytest.raises(AttributeError):
        Weight(3, 7).class_index = 0


def test_canonical_dumps_refuses_a_weight():
    # a Weight is a tuple, but must never be written as a list
    for obj in (Weight(0, 1), [Weight(0, 1)], {"w": Weight(0, 1)}):
        with pytest.raises(TypeError):
            canonical_dumps(obj)
