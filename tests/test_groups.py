import random
from math import lcm

import pytest
from hypothesis import given
from test_weights import LARGER_GROUPS, PROPERTY, small_groups

from doublechar import groups, weights
from doublechar.errors import InputError
from doublechar.groups import (
    ConjugacyData,
    FiniteGroup,
    after,
    centralizer,
    perm_inv,
    perm_mul,
    perm_order,
)
from doublechar.weights import WeightSystem

S3 = [(1, 0, 2), (1, 2, 0)]
S4 = [(1, 0, 2, 3), (1, 2, 3, 0)]
D4 = [(1, 2, 3, 0), (0, 3, 2, 1)]
Q8 = [(2, 3, 1, 0, 6, 7, 5, 4), (4, 5, 7, 6, 1, 0, 2, 3)]


def brute_classes(group):
    """Orbits under conjugation by every element, from scratch."""
    elements = group.elements
    seen = set()
    classes = []
    for g in elements:
        if g in seen:
            continue
        orbit = {perm_mul(perm_mul(x, g), perm_inv(x)) for x in elements}
        seen |= orbit
        classes.append(orbit)
    return classes


def brute_centralizer(group, g):
    """Every element commuting with g, by a scan of the whole group."""
    return tuple(h for h in group.elements if perm_mul(h, g) == perm_mul(g, h))


def brute_exponent(group):
    """The lcm of the orders of every element, by a scan of the whole group."""
    return lcm(*(perm_order(g) for g in group.elements))


@pytest.mark.parametrize(
    "gens, order, n_classes, sizes",
    [
        (S3, 6, 3, [1, 3, 2]),
        (S4, 24, 5, [1, 6, 8, 3, 6]),
        ([(1, 2, 3, 4, 5, 0)], 6, 6, [1] * 6),
        ([(1, 2, 3, 0), (3, 2, 1, 0)], 8, 5, [1, 2, 2, 2, 1]),
    ],
)
def test_class_structure(gens, order, n_classes, sizes):
    group = FiniteGroup.from_generators(len(gens[0]), gens)
    assert group.order == order
    conj = ConjugacyData(group)
    assert conj.count == n_classes
    assert conj.sizes() == sizes
    brute = brute_classes(group)
    assert sorted(len(c) for c in brute) == sorted(sizes)
    as_sets = [set(c) for c in conj.classes]
    for orbit in brute:
        orbit_idx = {group.index[g] for g in orbit}
        assert orbit_idx in as_sets


def test_identity_class_is_first():
    for gens in (S3, S4):
        group = FiniteGroup.from_generators(len(gens[0]), gens)
        conj = ConjugacyData(group)
        assert conj.classes[0] == [group.index[group.identity]]


def test_conjugators():
    group = FiniteGroup.from_generators(3, S3)
    conj = ConjugacyData(group)
    for i, g in enumerate(group.elements):
        x = conj.conjugator[i]
        rep = group.elements[conj.reps[conj.class_of[i]]]
        assert perm_mul(perm_mul(x, rep), perm_inv(x)) == g


def test_inverse_class_is_an_involution():
    group = FiniteGroup.from_generators(4, S4)
    conj = ConjugacyData(group)
    for c in range(conj.count):
        assert conj.inverse_class[conj.inverse_class[c]] == c
        rep = group.elements[conj.reps[c]]
        inv = group.index[perm_inv(rep)]
        assert conj.class_of[inv] == conj.inverse_class[c]


def test_exponent_and_orders():
    s3 = FiniteGroup.from_generators(3, S3)
    assert s3.exponent() == 6
    c6 = FiniteGroup.from_generators(6, [(1, 2, 3, 4, 5, 0)])
    assert c6.exponent() == 6
    s4 = FiniteGroup.from_generators(4, S4)
    assert s4.exponent() == 12


@PROPERTY
@given(small_groups())
def test_exponent_matches_the_element_scan(group):
    assert group.exponent() == brute_exponent(group)


@pytest.mark.parametrize("name, exponent", [("S5", 60), ("A5", 30), ("S6", 60)])
def test_exponent_matches_the_element_scan_on_larger_groups(name, exponent):
    group = FiniteGroup.from_generators(*LARGER_GROUPS[name])
    assert group.exponent() == brute_exponent(group) == exponent


def test_centralizer_orbit_stabilizer():
    group = FiniteGroup.from_generators(4, S4)
    conj = group.conj
    for c, members in enumerate(conj.classes):
        rep = group.elements[conj.reps[c]]
        z = centralizer(group, c)
        assert z.order * len(members) == group.order
        for h in z.elements:
            assert perm_mul(h, rep) == perm_mul(rep, h)


@pytest.mark.parametrize("gens", [S4, D4, Q8], ids=["S4", "D4", "Q8"])
def test_centralizer_generators_close_to_its_elements(gens):
    # centralizer keeps the Schreier elements that the closure BFS of
    # from_generators has not yet reached, capped at the centralizer's
    # order; the identity's centralizer is the group itself
    group = FiniteGroup.from_generators(len(gens[0]), gens)
    conj = group.conj
    for i in range(conj.count):
        z = centralizer(group, i)
        closed = FiniteGroup.from_generators(z.degree, z.generators)
        assert closed.elements == z.elements


@PROPERTY
@given(small_groups())
def test_centralizer_matches_the_commuting_scan(group):
    conj = group.conj
    for i, rep in enumerate(conj.reps):
        z = centralizer(group, i)
        assert z.elements == brute_centralizer(group, group.elements[rep])
        closed = FiniteGroup.from_generators(z.degree, z.generators)
        assert closed.elements == z.elements
        if len(conj.classes[i]) == 1:
            assert z is group


def test_index_tables():
    group = FiniteGroup.from_generators(3, S3)
    rng = random.Random(6)
    for _ in range(40):
        i = rng.randrange(group.order)
        j = rng.randrange(group.order)
        assert group.elements[group.mul_index(i, j)] == perm_mul(
            group.elements[i], group.elements[j]
        )
        assert perm_mul(group.elements[i], group.elements[group.inverse_index(i)]) == (
            0,
            1,
            2,
        )


def test_inverses_are_computed_only_when_asked(monkeypatch):
    # a cold S7 weight system inverts the generators, the class
    # representatives, the class members its class matrices read and, once
    # per Schreier element, the conjugator a centralizer reads (244 of the
    # 468), not all 5,040 elements; each inverse_index is stored both ways
    calls = []

    def counting(a):
        calls.append(a)
        return perm_inv(a)

    monkeypatch.setattr(groups, "perm_inv", counting)
    group = FiniteGroup.from_generators(7, [(1, 0, 2, 3, 4, 5, 6), (1, 2, 3, 4, 5, 6, 0)])
    WeightSystem(group)
    assert len(calls) == 468
    inverses = [group.inverse_index(i) for i in range(group.order)]
    assert all(
        perm_mul(g, group.elements[j]) == group.identity for g, j in zip(group.elements, inverses)
    )
    done = len(calls)
    assert [group.inverse_index(i) for i in range(group.order)] == inverses
    assert len(calls) == done


def test_content_key_ignores_generating_set():
    a = FiniteGroup.from_generators(3, S3)
    b = FiniteGroup.from_generators(3, [(0, 2, 1), (1, 0, 2)])
    assert b.order == 6
    assert a.content_key() == b.content_key()
    c6 = FiniteGroup.from_generators(6, [(1, 2, 3, 4, 5, 0)])
    assert a.content_key() != c6.content_key()


def test_json_round_trip():
    group = FiniteGroup.from_generators(4, S4)
    clone = FiniteGroup.from_json(group.to_json())
    assert clone.elements == group.elements
    assert clone.content_key() == group.content_key()


def test_group_order_cap():
    with pytest.raises(InputError):
        FiniteGroup.from_generators(4, S4, max_order=10)


def test_bad_permutations_are_rejected():
    with pytest.raises(InputError):
        FiniteGroup.from_generators(3, [(0, 0, 1)])
    with pytest.raises(InputError):
        FiniteGroup.from_generators(3, [(0, 1)])


def test_boolean_points_are_rejected():
    # True == 1 and False == 0, so a sorted comparison alone lets this through
    with pytest.raises(InputError):
        FiniteGroup.from_generators(2, [(True, False)])


def test_float_points_are_rejected():
    # 2.0 == 2 passes a sorted comparison, then cannot index a tuple
    with pytest.raises(InputError):
        FiniteGroup.from_generators(3, [(1, 2.0, 0)])


def reference_perm_mul(a, b):
    """The product perm_mul computed before its C gather, one image at a time."""
    return tuple(a[x] for x in b)


def test_perm_mul_matches_the_reference_product():
    rng = random.Random(25)
    for degree in range(1, 10):
        for _ in range(40):
            a, b = list(range(degree)), list(range(degree))
            rng.shuffle(a)
            rng.shuffle(b)
            got = perm_mul(tuple(a), tuple(b))
            assert type(got) is tuple
            assert got == reference_perm_mul(a, b)
    # itemgetter with one index returns the bare item
    assert perm_mul((0,), (0,)) == (0,)


@pytest.mark.parametrize("degree", [1, 2, 7])
def test_after_is_the_product_with_a_fixed_right_factor(degree):
    # at degree 1 itemgetter of one index would return the bare item
    rng = random.Random(33)
    for _ in range(20):
        a, b = list(range(degree)), list(range(degree))
        rng.shuffle(a)
        rng.shuffle(b)
        a, b = tuple(a), tuple(b)
        got = after(b)(a)
        assert type(got) is tuple
        assert got == perm_mul(a, b) == reference_perm_mul(a, b)


def relabelled_s5(seed):
    """S5 with its points renamed by a seeded permutation p: each generator
    s becomes p s p^(-1), so the element order and the classes move."""
    p = list(range(5))
    random.Random(seed).shuffle(p)
    p = tuple(p)
    gens = [perm_mul(perm_mul(p, s), perm_inv(p)) for s in LARGER_GROUPS["S5"][1]]
    return FiniteGroup.from_generators(5, gens)


def old_conjugacy(group):
    """The conjugacy walk as it was while ConjugacyData stored every
    conjugator's inverse: (classes, reps, conjugator, conjugator_inv)."""
    n = group.order
    elements = group.elements
    pairs = [(s, perm_inv(s)) for s in group.generators]
    class_of = [-1] * n
    conjugator = [None] * n
    conjugator_inv = [None] * n
    classes, reps = [], []
    for start in range(n):
        if class_of[start] >= 0:
            continue
        cid = len(classes)
        class_of[start] = cid
        conjugator[start] = conjugator_inv[start] = group.identity
        members, queue = [start], [start]
        while queue:
            i = queue.pop()
            for s, s_inv in pairs:
                j = group.index[perm_mul(perm_mul(s, elements[i]), s_inv)]
                if class_of[j] < 0:
                    class_of[j] = cid
                    conjugator[j] = perm_mul(s, conjugator[i])
                    conjugator_inv[j] = perm_mul(conjugator_inv[i], s_inv)
                    members.append(j)
                    queue.append(j)
        classes.append(sorted(members))
        reps.append(start)
    return classes, reps, conjugator, conjugator_inv


@pytest.mark.parametrize("seed", [1, 2])
def test_conjugacy_walk_matches_the_walk_that_stored_inverses(seed):
    group = relabelled_s5(seed)
    assert group.generators != tuple(LARGER_GROUPS["S5"][1])
    classes, reps, conjugator, conjugator_inv = old_conjugacy(group)
    conj = ConjugacyData(group)
    assert conj.classes == classes
    assert conj.reps == reps
    assert conj.conjugator == conjugator
    assert not hasattr(conj, "conjugator_inv")
    assert [perm_inv(x) for x in conj.conjugator] == conjugator_inv


@pytest.mark.parametrize("seed", [1, 2])
def test_read_class_conjugates_by_the_old_stored_inverse(seed, monkeypatch):
    # every x^(-1) h x that _read_class builds, with x^(-1) inverted where
    # it is read, is the one built from the stored inverse of the old walk
    group = relabelled_s5(seed)
    system = WeightSystem(group)
    conj = system.conj
    *_, conjugator_inv = old_conjugacy(group)
    built = []

    def recording(a, b):
        built.append(perm_mul(a, b))
        return built[-1]

    monkeypatch.setattr(weights, "perm_mul", recording)
    moved = 0
    for g in range(group.order):
        a = conj.class_of[g]
        x = conj.conjugator[g]
        table = system.tables[a]
        for h in range(group.order):
            built.clear()
            got = system._read_class(g, h)
            want = perm_mul(conjugator_inv[g], perm_mul(group.elements[h], x))
            if g == conj.reps[a]:
                assert built == [] and want == group.elements[h]
            else:
                assert built[-1] == want
                moved += 1
            k = table.group.index.get(want)
            assert got == (None if k is None else table.conj.class_of[k])
    assert moved == (group.order - conj.count) * group.order


@pytest.mark.parametrize("gens", [[], [[0]]], ids=["no generators", "identity generator"])
def test_degree_one_group_has_one_weight(gens):
    group = FiniteGroup.from_generators(1, gens)
    assert group.elements == ((0,),)
    system = WeightSystem(group)
    assert system.weights == [system.unit]
    assert system.fusion(system.unit, system.unit) == {system.unit: 1}
