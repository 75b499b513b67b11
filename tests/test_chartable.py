import numpy as np
import pytest

from doublechar.chartable import CharacterTable, _working_prime
from doublechar.cyclotomic import Cyclotomic, zeta
from doublechar.errors import InconsistencyError
from doublechar.groups import ConjugacyData, FiniteGroup, perm_mul

S3 = [(1, 0, 2), (1, 2, 0)]
S4 = [(1, 0, 2, 3), (1, 2, 3, 0)]
D4 = [(1, 2, 3, 0), (3, 2, 1, 0)]


def numeric_degrees(group, conj):
    """Irreducible degrees read off the regular representation.

    A generic central element acts on the regular representation with
    one eigenvalue per irreducible, of multiplicity degree^2; cluster
    the spectrum and take square roots.
    """
    n = group.order
    z = np.zeros((n, n))
    coeffs = [1.0, 3.13717, 7.51309, 17.0411, 41.317, 97.003, 211.7, 487.13]
    for cid, members in enumerate(conj.classes):
        for m in members:
            g = group.elements[m]
            for h_idx, h in enumerate(group.elements):
                z[group.index[perm_mul(g, h)], h_idx] += coeffs[cid % len(coeffs)]
    eig = np.sort(np.linalg.eigvals(z))
    clusters = []
    for ev in eig:
        if clusters and abs(ev - clusters[-1][0]) < 1e-6 * max(1.0, abs(ev)):
            clusters[-1][1] += 1
        else:
            clusters.append([ev, 1])
    degs = sorted(round(np.sqrt(m)) for _, m in clusters)
    assert all(d * d == m for d, (_, m) in zip(degs, sorted(clusters, key=lambda c: c[1])))
    return degs


def exact_row_orthogonality(group, conj, table):
    n = group.order
    sizes = conj.sizes()
    for a in range(table.count):
        for b in range(table.count):
            acc = Cyclotomic.from_rational(0, table.exponent)
            for j in range(conj.count):
                term = table.values[a][j] * table.values[b][j].conjugate()
                acc = acc + term * sizes[j]
            assert acc == (n if a == b else 0)


@pytest.mark.parametrize(
    "degree, gens, expected_degrees",
    [
        (3, S3, [1, 1, 2]),
        (4, D4, [1, 1, 1, 1, 2]),
        (4, S4, [1, 1, 2, 3, 3]),
        (6, [(1, 2, 3, 4, 5, 0)], [1] * 6),
        (1, [], [1]),
    ],
)
def test_degrees_match_regular_representation(degree, gens, expected_degrees):
    group = FiniteGroup.from_generators(degree, gens)
    conj = ConjugacyData(group)
    assert numeric_degrees(group, conj) == expected_degrees
    table = CharacterTable.compute(group, conj)
    assert sorted(table.degrees) == expected_degrees
    assert sum(d * d for d in table.degrees) == group.order
    exact_row_orthogonality(group, conj, table)


def test_trivial_character_is_row_zero():
    for degree, gens in ((3, S3), (4, S4), (4, D4)):
        group = FiniteGroup.from_generators(degree, gens)
        table = CharacterTable.compute(group)
        assert all(v == 1 for v in table.values[0])
        assert table.degrees[0] == 1


def test_c3_table_is_canonical():
    group = FiniteGroup.from_generators(3, [(1, 2, 0)])
    table = CharacterTable.compute(group)
    z = zeta(3)
    # elements sorted lexicographically: e, the 3-cycle, its square
    expected = [
        [1, 1, 1],
        [1, z, z**2],
        [1, z**2, z],
    ]
    for i in range(3):
        for j in range(3):
            assert table.value(i, j) == expected[i][j]


def test_s3_column_values():
    group = FiniteGroup.from_generators(3, S3)
    conj = ConjugacyData(group)
    table = CharacterTable.compute(group, conj)
    by_size = {len(c): cid for cid, c in enumerate(conj.classes)}
    transposition, three_cycle = by_size[3], by_size[2]
    cols = {
        (
            int(table.values[i][transposition].to_rational()),
            int(table.values[i][three_cycle].to_rational()),
        )
        for i in range(3)
        if table.degrees[i] == 1
    }
    assert cols == {(-1, 1), (1, 1)}
    std = next(i for i in range(3) if table.degrees[i] == 2)
    assert table.values[std][transposition] == 0
    assert table.values[std][three_cycle] == -1


def test_working_prime():
    assert _working_prime(6, 6) == 7
    assert _working_prime(4, 4) == 5
    assert _working_prime(12, 24) == 13
    assert _working_prime(1, 1) == 3


def test_cache_round_trip(tmp_path):
    group = FiniteGroup.from_generators(3, S3)
    t1 = CharacterTable.load_or_compute(group, cache_dir=str(tmp_path))
    files = list(tmp_path.glob("chartable-*.json"))
    assert len(files) == 1
    t2 = CharacterTable.load_or_compute(group, cache_dir=str(tmp_path))
    assert t1.values == t2.values
    assert t1.degrees == t2.degrees


def test_corrupt_cache_entry_is_recomputed(tmp_path):
    group = FiniteGroup.from_generators(3, S3)
    t1 = CharacterTable.load_or_compute(group, cache_dir=str(tmp_path))
    (path,) = tmp_path.glob("chartable-*.json")
    path.write_text("{ not json")
    t2 = CharacterTable.load_or_compute(group, cache_dir=str(tmp_path))
    assert t2.values == t1.values


def test_json_round_trip():
    group = FiniteGroup.from_generators(4, D4)
    conj = ConjugacyData(group)
    table = CharacterTable.compute(group, conj)
    clone = CharacterTable.from_json(table.to_json(), group, conj)
    assert clone.values == table.values
    assert clone.degrees == table.degrees


def test_deterministic_recompute():
    group = FiniteGroup.from_generators(4, S4)
    a = CharacterTable.compute(group)
    b = CharacterTable.compute(group)
    assert a.to_json() == b.to_json()


def test_orthogonality_failure_names_both_sides():
    group = FiniteGroup.from_generators(3, S3)
    table = CharacterTable.compute(group)
    # flip the sign character to +1 on the transpositions: rows 0 and 1
    # then pair to 1 + 3 + 2 = 6 instead of 0
    sign = list(table.values[1])
    j = next(j for j, v in enumerate(sign) if v == -1)
    sign[j] = Cyclotomic.from_rational(1)
    values = (table.values[0], tuple(sign)) + table.values[2:]
    broken = CharacterTable(group, table.conj, table.exponent, values, table.degrees)
    with pytest.raises(InconsistencyError) as info:
        broken._verify()
    assert str(info.value) == (
        "orthogonality fails for character rows 0 and 1: inner product 6, expected 0"
    )
