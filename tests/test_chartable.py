import hashlib
import io
import json
import os
import stat
from math import gcd

import numpy as np
import pytest
from hypothesis import given
from test_weights import LARGER_GROUPS, PROPERTY, small_groups

from doublechar import chartable, cyclotomic, modp
from doublechar.chartable import CharacterTable, _working_prime
from doublechar.cyclotomic import Cyclotomic, _degree, _power_table, dot, zeta
from doublechar.errors import InconsistencyError
from doublechar.groups import FiniteGroup, perm_mul, perm_order
from doublechar.modp import charpoly, nullspace, poly_roots, primitive_root, rref
from doublechar.weights import WeightSystem

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
    conj = group.conj
    assert numeric_degrees(group, conj) == expected_degrees
    table = CharacterTable.compute(group)
    assert sorted(table.degrees) == expected_degrees
    assert sum(d * d for d in table.degrees) == group.order
    exact_row_orthogonality(group, conj, table)


def test_trivial_character_is_row_zero():
    for degree, gens in ((3, S3), (4, S4), (4, D4)):
        group = FiniteGroup.from_generators(degree, gens)
        table = CharacterTable.compute(group)
        assert all(v == 1 for v in table.values[0])
        assert table.degrees[0] == 1


@pytest.mark.parametrize("n", [30, 42])
def test_trivial_character_sorts_first_where_a_root_has_larger_coordinates(n):
    # in Q(zeta_30) and Q(zeta_42) some root of unity has power-basis
    # coordinates above those of 1, so descending coordinates alone put
    # a nontrivial linear character in row 0 and the table was refused
    system = WeightSystem(FiniteGroup.from_generators(n, [_on(n, tuple(range(n)))]))
    assert all(v == 1 for v in system.tables[0].values[0])
    assert len(system.weights) == n * n
    assert sum(system.dim(w) ** 2 for w in system.weights) == n * n


def test_z30_presentations_give_equal_weight_dimensions():
    one_cycle = WeightSystem(FiniteGroup.from_generators(30, [_on(30, tuple(range(30)))]))
    # Z2 x Z3 x Z5 on 10 points
    product = WeightSystem(
        FiniteGroup.from_generators(
            10, [_on(10, (0, 1)), _on(10, (2, 3, 4)), _on(10, (5, 6, 7, 8, 9))]
        )
    )
    assert product.group.order == 30
    assert sorted(map(one_cycle.dim, one_cycle.weights)) == sorted(
        map(product.dim, product.weights)
    )


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
            assert table.values[i][table.conj.class_of[j]] == expected[i][j]


def test_s3_column_values():
    group = FiniteGroup.from_generators(3, S3)
    conj = group.conj
    table = CharacterTable.compute(group)
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
    table = CharacterTable.compute(group)
    clone = CharacterTable.from_json(table.to_json(), group)
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
    broken = CharacterTable(group, table.exponent, values, table.degrees)
    with pytest.raises(InconsistencyError) as info:
        broken._verify()
    assert str(info.value) == (
        "orthogonality fails for character rows 0 and 1: inner product 6, expected 0"
    )


def old_inner(table):
    """<chi_a, chi_b> for a <= b in _verify's order, as _verify took them
    before it read each value's terms once: one dot per pair, against rows
    of Cyclotomic values weighted by the class sizes."""
    conj = table.conj
    sizes, inv = conj.sizes(), conj.inverse_class
    weighted = [[row[inv[j]] * size for j, size in enumerate(sizes)] for row in table.values]
    k = table.count
    return [dot(table.values[a], weighted[b]) for a in range(k) for b in range(a, k)]


@pytest.mark.parametrize("name", ["S4", "S5", "Z12", "S7"])
def test_verify_inner_products_match_the_old_dot_route(name, monkeypatch):
    gens = {
        "S4": (4, S4),
        "S5": LARGER_GROUPS["S5"],
        "Z12": (12, [tuple(range(1, 12)) + (0,)]),
        "S7": (7, [(1, 0, 2, 3, 4, 5, 6), (1, 2, 3, 4, 5, 6, 0)]),
    }[name]
    table = CharacterTable.compute(FiniteGroup.from_generators(*gens))
    if name == "S7":
        assert table.exponent == 420
    got = []

    def recording(e, coeffs):
        got.append(cyclotomic._make(e, coeffs))
        return got[-1]

    monkeypatch.setattr(chartable, "_make", recording)
    table._verify()
    want = old_inner(table)
    assert len(got) == table.count * (table.count + 1) // 2
    assert [(x.order, x.coeffs) for x in got] == [(x.order, x.coeffs) for x in want]


def _s3_table_with(**changes):
    """The S3 table with some of its values or degrees replaced."""
    group = FiniteGroup.from_generators(3, S3)
    table = CharacterTable.compute(group)
    parts = {"values": table.values, "degrees": table.degrees, **changes}
    return CharacterTable(group, table.exponent, parts["values"], parts["degrees"])


@pytest.mark.parametrize(
    "changes, message",
    [
        ({"values": ()}, "0 characters for 3 conjugacy classes"),
        ({"degrees": (1, 1, 3)}, "degree squares sum to 11, not |G| = 6"),
    ],
)
def test_count_and_degree_failures_give_both_sides(changes, message):
    with pytest.raises(InconsistencyError) as info:
        _s3_table_with(**changes)._verify()
    assert str(info.value) == message


def test_trivial_row_failure_names_the_values():
    table = _s3_table_with()
    values = (table.values[1], table.values[0]) + table.values[2:]
    with pytest.raises(InconsistencyError) as info:
        _s3_table_with(values=values)._verify()
    assert str(info.value) == (
        "trivial character is not in row 0: row 0 takes {1: -1} (class: value), not 1"
    )


def test_split_failure_gives_both_dimensions(monkeypatch):
    # losing one eigenvalue of the transposition class matrix leaves a
    # 3-dimensional space covered by eigenspaces of total dimension 2
    real = chartable.poly_roots
    monkeypatch.setattr(chartable, "poly_roots", lambda f, p: real(f, p)[:-1])
    with pytest.raises(InconsistencyError) as info:
        CharacterTable.compute(FiniteGroup.from_generators(3, S3))
    assert str(info.value) == (
        "class matrix 1 failed to split a subspace: eigenspaces of total "
        "dimension 2 in a subspace of dimension 3"
    )


def test_unseparated_characters_give_the_dimensions_left(monkeypatch):
    # scalar class matrices split nothing
    monkeypatch.setattr(
        chartable, "_class_matrix", lambda group, i: [[int(r == c) for c in range(3)] for r in range(3)]
    )
    with pytest.raises(InconsistencyError) as info:
        CharacterTable.compute(FiniteGroup.from_generators(3, S3))
    assert str(info.value) == "class matrices did not separate subspaces of dimension [3]"


def test_vanishing_eigenvector_is_named(monkeypatch):
    real = chartable._split_spaces

    def zeroed(group, p):
        vectors = real(group, p)
        vectors[2] = [0] + vectors[2][1:]
        return vectors

    monkeypatch.setattr(chartable, "_split_spaces", zeroed)
    with pytest.raises(InconsistencyError) as info:
        CharacterTable.compute(FiniteGroup.from_generators(3, S3))
    assert str(info.value) == "eigenvector 2 vanishes on the identity class"


# ---- column orthogonality: a second route past the row check in _verify ----


def assert_column_orthogonality(table):
    """sum_chi chi(g) conj chi(h) = |Z_g| if g and h are conjugate, else 0,
    with |Z_g| = |G| / |class of g|."""
    sizes = table.conj.sizes()
    k = table.count
    for a in range(k):
        for b in range(k):
            acc = Cyclotomic.from_rational(0, table.exponent)
            for row in table.values:
                acc = acc + row[a] * row[b].conjugate()
            assert acc == (table.group.order // sizes[a] if a == b else 0), (a, b)


@PROPERTY
@given(small_groups())
def test_columns_are_orthogonal(group):
    assert_column_orthogonality(CharacterTable.compute(group))


@pytest.mark.parametrize("name", sorted(LARGER_GROUPS))
def test_columns_are_orthogonal_on_larger_groups(name):
    assert_column_orthogonality(CharacterTable.compute(FiniteGroup.from_generators(*LARGER_GROUPS[name])))


# ---- the per-class Fourier lift against the length-e lift ----


def brute_dixon_rows(group, conj, e):
    """Character rows lifted with one DFT of length e, the group exponent,
    over e power-map entries per class: the lift before it was cut to the
    order of each class representative."""
    n = group.order
    k = conj.count
    p = _working_prime(e, n)
    sizes = conj.sizes()
    inv_cls = conj.inverse_class
    vectors = chartable._split_spaces(group, p)

    pm = []
    for r in conj.reps:
        row = []
        cur = group.identity_index
        for _ in range(e):
            row.append(conj.class_of[cur])
            cur = group.mul_index(cur, r)
        pm.append(row)

    omega = pow(primitive_root(p), (p - 1) // e, p)
    omega_inv = pow(omega, -1, p)
    ipow = [1] * e
    for s in range(1, e):
        ipow[s] = (ipow[s - 1] * omega_inv) % p
    e_inv = pow(e, -1, p)
    table = _power_table(e)
    dim = _degree(e)
    size_inv = [pow(sz, -1, p) for sz in sizes]

    rows = []
    for w in vectors:
        scale = pow(w[0], -1, p)
        w = [(x * scale) % p for x in w]
        s = sum(w[r] * w[inv_cls[r]] * size_inv[r] for r in range(k)) % p
        deg = chartable._sqrt_small((n * pow(s, -1, p)) % p, p)
        theta = [(deg * w[j] * size_inv[j]) % p for j in range(k)]
        row = []
        for j in range(k):
            coeffs = [0] * dim
            total = 0
            for c in range(e):
                acc = 0
                for s_ in range(e):
                    acc += theta[pm[j][s_]] * ipow[(c * s_) % e]
                m = (acc * e_inv) % p
                assert m <= deg
                total += m
                for t in range(dim):
                    coeffs[t] += m * table[c][t]
            assert total == deg
            row.append(Cyclotomic(e, coeffs))
        rows.append(row)
    return rows


def assert_lift_matches_brute(group):
    e = group.exponent()
    rows = sorted(brute_dixon_rows(group, group.conj, e), key=chartable._row_key)
    brute = CharacterTable(
        group,
        e,
        tuple(tuple(r) for r in rows),
        tuple(int(r[0].to_rational()) for r in rows),
    )
    assert CharacterTable.compute(group).to_json() == brute.to_json()


def _on(degree, *cycles):
    """The permutation of range(degree) with the given disjoint cycles."""
    perm = list(range(degree))
    for c in cycles:
        for a, b in zip(c, c[1:] + c[:1]):
            perm[a] = b
    return tuple(perm)


# name: (degree, generators, order)
LIFT_GROUPS = {
    "S3": (3, S3, 6),
    "S4": (4, S4, 24),
    "S5": (5, [_on(5, (0, 1)), _on(5, (0, 1, 2, 3, 4))], 120),
    "A5": (5, [_on(5, (0, 1, 2)), _on(5, (0, 1, 2, 3, 4))], 60),
    "Z7": (7, [_on(7, (0, 1, 2, 3, 4, 5, 6))], 7),
    "Z12": (12, [_on(12, tuple(range(12)))], 12),
    "D8": (4, D4, 8),
    "D12": (6, [_on(6, tuple(range(6))), _on(6, (1, 5), (2, 4))], 12),
    # the regular representation of Q8 = <i, j>, elements numbered
    # 1, i, -1, -i, j, -k, -j, k; unlike D8 it has a single involution
    "Q8": (8, [_on(8, (0, 1, 2, 3), (4, 5, 6, 7)), _on(8, (0, 4, 2, 6), (1, 7, 3, 5))], 8),
    "Z3xS3": (6, [_on(6, (0, 1, 2)), _on(6, (3, 4)), _on(6, (3, 4, 5))], 18),
    "Z4xZ6": (10, [_on(10, (0, 1, 2, 3)), _on(10, (4, 5, 6, 7, 8, 9))], 24),
}


@pytest.mark.parametrize("name", sorted(LIFT_GROUPS))
def test_lift_matches_the_length_e_lift(name):
    degree, gens, order = LIFT_GROUPS[name]
    group = FiniteGroup.from_generators(degree, gens)
    assert group.order == order
    assert_lift_matches_brute(group)


@PROPERTY
@given(small_groups())
def test_lift_matches_the_length_e_lift_on_random_groups(group):
    assert_lift_matches_brute(group)


@PROPERTY
@given(small_groups())
def test_values_are_fixed_by_the_galois_group_of_their_class(group):
    # chi(g) lies in Q(zeta_o) for o the order of g, so every automorphism
    # zeta_e -> zeta_e^k with k = 1 (mod o) fixes it
    table = CharacterTable.compute(group)
    e = table.exponent
    for j, rep in enumerate(table.conj.reps):
        o = perm_order(group.elements[rep])
        for k in range(1, e + 1):
            if gcd(k, e) == 1 and k % o == 1 % o:
                for row in table.values:
                    assert row[j].galois(k) == row[j]


def test_lift_failure_names_the_class_and_both_sides(monkeypatch):
    real = chartable._sqrt_small
    monkeypatch.setattr(chartable, "_sqrt_small", lambda a, p: real(a, p) + 1)
    group = FiniteGroup.from_generators(3, S3)
    with pytest.raises(InconsistencyError) as info:
        CharacterTable.compute(group)
    # every degree comes out one too large: the linear characters lift to
    # twice themselves, which passes, but the 2-dimensional character,
    # now claimed as 3/2 of itself, breaks on the transpositions
    assert str(info.value) == (
        "root multiplicity 5 exceeds the degree 3 at class 1 (element order 2)"
    )


def test_cache_file_matches_json_dump_byte_for_byte(tmp_path):
    group = FiniteGroup.from_generators(4, S4)
    table = CharacterTable.load_or_compute(group, cache_dir=str(tmp_path))
    (path,) = tmp_path.glob("chartable-*.json")
    reference = io.StringIO()
    json.dump(table.to_json(), reference, sort_keys=True, separators=(",", ":"))
    assert path.read_bytes() == reference.getvalue().encode("utf-8")


def test_warm_read_accepts_an_entry_written_by_json_dump(tmp_path, monkeypatch):
    # entries written before the cache moved to json.dumps stay valid
    group = FiniteGroup.from_generators(4, S4)
    table = CharacterTable.compute(group)
    key = hashlib.sha256(group.content_key().encode()).hexdigest()
    path = tmp_path / f"chartable-{key}.json"
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(table.to_json(), fh, sort_keys=True, separators=(",", ":"))
    before = path.read_bytes()

    def refuse(cls, group):
        raise AssertionError("a valid cache entry was recomputed")

    monkeypatch.setattr(CharacterTable, "compute", classmethod(refuse))
    warm = CharacterTable.load_or_compute(group, cache_dir=str(tmp_path))
    assert warm.to_json() == table.to_json()
    assert path.read_bytes() == before


def _entry_path(tmp_path, group):
    key = hashlib.sha256(group.content_key().encode()).hexdigest()
    return tmp_path / f"chartable-{key}.json"


def test_cache_entry_takes_the_mode_open_gives(tmp_path):
    group = FiniteGroup.from_generators(3, S3)
    old = os.umask(0o022)
    try:
        plain = tmp_path / "plain.json"
        with open(plain, "w"):
            pass
        CharacterTable.load_or_compute(group, cache_dir=str(tmp_path / "cache"))
    finally:
        os.umask(old)
    (entry,) = (tmp_path / "cache").glob("chartable-*.json")
    assert stat.S_IMODE(entry.stat().st_mode) == stat.S_IMODE(plain.stat().st_mode) == 0o644


def test_interrupted_cache_write_leaves_no_temporary_file(tmp_path, monkeypatch):
    group = FiniteGroup.from_generators(3, S3)

    def interrupt(src, dst):
        raise KeyboardInterrupt

    monkeypatch.setattr(os, "replace", interrupt)
    with pytest.raises(KeyboardInterrupt):
        CharacterTable.load_or_compute(group, cache_dir=str(tmp_path))
    assert list(tmp_path.iterdir()) == []


def test_directory_at_the_entry_path_is_recomputed_and_not_written(tmp_path):
    group = FiniteGroup.from_generators(4, S4)
    _entry_path(tmp_path, group).mkdir()
    table = CharacterTable.load_or_compute(group, cache_dir=str(tmp_path))
    assert table.to_json() == CharacterTable.compute(group).to_json()
    assert [p.name for p in tmp_path.iterdir()] == [_entry_path(tmp_path, group).name]
    assert list(_entry_path(tmp_path, group).iterdir()) == []


# ---- one elimination per eigenspace against the route that reduced twice ----


def split_spaces_reducing_twice(group, p):
    """_split_spaces as it was while each lifted eigenspace basis was
    row-reduced again by modp.rref before the next class matrix."""
    k = group.conj.count
    spaces = [([[int(c == r) for c in range(k)] for r in range(k)], list(range(k)))]
    for i in range(1, k):
        if all(len(b) == 1 for b, _ in spaces):
            break
        A = chartable._class_matrix(group, i)
        refined = []
        for basis, pivots in spaces:
            if len(basis) == 1:
                refined.append((basis, pivots))
                continue
            R = chartable._restrict(A, basis, pivots, p)
            d = len(R)
            for root in poly_roots(charpoly(R, p), p):
                M = [[(R[r][c] - (root if r == c else 0)) % p for c in range(d)] for r in range(d)]
                coords = nullspace(M, p)
                if coords:
                    amb = [[sum(x * y for x, y in zip(cv, col)) % p for col in zip(*basis)]
                           for cv in coords]
                    refined.append(rref(amb, p))
        spaces = refined
    return [b[0] for b, _ in spaces]


SPLIT_GROUPS = {
    "S4": (4, S4),
    "S5": LARGER_GROUPS["S5"],
    "S6": LARGER_GROUPS["S6"],
    "S3xZ5": (8, [_on(8, (0, 1)), _on(8, (0, 1, 2)), _on(8, (3, 4, 5, 6, 7))]),
    "Z28": (28, [_on(28, tuple(range(28)))]),
}


@pytest.mark.parametrize("name", sorted(SPLIT_GROUPS))
def test_one_elimination_per_eigenspace_finds_the_same_lines(name):
    group = FiniteGroup.from_generators(*SPLIT_GROUPS[name])
    p = _working_prime(group.exponent(), group.order)

    def lines(vectors):
        # each vector scaled to 1 at the identity class
        return [[x * pow(v[0], -1, p) % p for x in v] for v in vectors]

    assert lines(chartable._split_spaces(group, p)) == lines(
        split_spaces_reducing_twice(group, p)
    )


def test_cold_s7_weight_system_runs_one_elimination_per_eigenspace(monkeypatch):
    # nullspace calls modp.rref once per eigenspace; the route that reduced
    # each lift again made 658 calls
    assert "rref" not in vars(chartable)
    calls = []
    real = modp.rref

    def counting(rows, p):
        calls.append(len(rows))
        return real(rows, p)

    monkeypatch.setattr(modp, "rref", counting)
    system = WeightSystem(FiniteGroup.from_generators(7, [_on(7, tuple(range(7))), _on(7, (0, 1))]))
    assert len(system.weights) == 170
    assert len(calls) == 329
