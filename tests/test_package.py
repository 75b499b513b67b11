import json
import pathlib

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
from doublechar.laurent import _SparseSum

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
    VermaMatrices: lambda taft3: VermaMatrices(taft3[0], 1, 2),
}


@pytest.mark.parametrize("cls", FROZEN, ids=lambda cls: cls.__name__)
def test_value_classes_are_immutable(cls, taft3):
    value = FROZEN[cls](taft3)
    assert type(value) is cls
    # a field of the class, then a name it does not have
    for name in (cls.__slots__[0], "extra"):
        with pytest.raises(AttributeError, match=f"^{cls.__name__} is immutable$"):
            setattr(value, name, None)
