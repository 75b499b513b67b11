import random
import weakref
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from doublechar import groups, weights
from doublechar.chartable import CharacterTable
from doublechar.cyclotomic import CYC_ZERO, Cyclotomic, _terms, dot, zeta
from doublechar.errors import InconsistencyError, InputError
from doublechar.graded import KElement
from doublechar.groups import ConjugacyData, FiniteGroup, perm_inv, perm_mul
from doublechar.weights import Weight, WeightSystem, _row_key


def commuting_pairs(group):
    for gi, g in enumerate(group.elements):
        for hi, h in enumerate(group.elements):
            if perm_mul(g, h) == perm_mul(h, g):
                yield gi, hi


def cyclic_system(n):
    gen = tuple(list(range(1, n)) + [0])
    return WeightSystem(FiniteGroup.from_generators(n, [gen]))


def test_s3_census(s3_system):
    rows = s3_system.census()
    assert [r["label"] for r in rows] == [
        "g0r0", "g0r1", "g0r2", "g1r0", "g1r1", "g2r0", "g2r1", "g2r2",
    ]
    assert [r["dim"] for r in rows] == [1, 1, 2, 3, 3, 2, 2, 2]
    assert sum(r["dim"] ** 2 for r in rows) == 36
    for r in rows:
        assert r["dim"] == r["class_size"] * r["irrep_degree"]


def test_pair_characters_are_irreducible(s3_system):
    # the sum of |character|^2 over the commuting variety equals |G|
    group = s3_system.group
    for w in s3_system.weights:
        acc = Cyclotomic.from_rational(0)
        for gi, hi in commuting_pairs(group):
            v = s3_system.pair_char(w, gi, hi)
            if not v.is_zero():
                acc = acc + v * v.conjugate()
        assert acc == group.order


def test_pair_character_support(s3_system):
    w = s3_system.by_label["g1r1"]
    # zero outside the class of w and on non-commuting pairs
    assert s3_system.pair_char(w, 0, 0).is_zero()
    group = s3_system.group
    for gi, g in enumerate(group.elements):
        for hi, h in enumerate(group.elements):
            if perm_mul(g, h) != perm_mul(h, g):
                assert s3_system.pair_char(w, gi, hi).is_zero()


def test_unit_weight(s3_system):
    unit = s3_system.unit
    assert unit.label == "g0r0"
    assert s3_system.dim(unit) == 1
    for w in s3_system.weights:
        assert s3_system.fusion(unit, w) == {w: 1}
        assert s3_system.fusion(w, unit) == {w: 1}


def test_c3_fusion_example(c3_system):
    a = c3_system.by_label["g1r2"]
    b = c3_system.by_label["g2r2"]
    assert c3_system.fusion(a, b) == {c3_system.by_label["g0r1"]: 1}


def test_fusion_dimension_law(s3_system):
    for a in s3_system.weights:
        for b in s3_system.weights:
            n = s3_system.fusion(a, b)
            assert all(m > 0 for m in n.values())
            total = sum(m * s3_system.dim(w) for w, m in n.items())
            assert total == s3_system.dim(a) * s3_system.dim(b)


def test_fusion_commutes(s3_system):
    for a in s3_system.weights:
        for b in s3_system.weights:
            assert s3_system.fusion(a, b) == s3_system.fusion(b, a)


def test_fusion_associativity_sample(s3_system):
    rng = random.Random(2026)
    weights = s3_system.weights
    for _ in range(25):
        a, b, c = (rng.choice(weights) for _ in range(3))
        ab = KElement.of(a).mul(KElement.of(b), s3_system)
        bc = KElement.of(b).mul(KElement.of(c), s3_system)
        left = ab.mul(KElement.of(c), s3_system)
        right = KElement.of(a).mul(bc, s3_system)
        assert left == right


def exponent_of_row(system, n):
    """Map irrep row index -> character exponent at the generator class."""
    z = zeta(n)
    gen_class = 1  # the generator is the second element in sorted order
    out = {}
    for r in range(n):
        val = system.tables[0].values[r][gen_class]
        out[r] = next(s for s in range(n) if val == z**s)
    return out


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_cyclic_duals_negate_both_coordinates(n):
    system = cyclic_system(n)
    row_exp = exponent_of_row(system, n)
    exp_row = {v: k for k, v in row_exp.items()}
    for w in system.weights:
        d = system.dual(w)
        assert d.class_index == (-w.class_index) % n
        assert row_exp[d.irrep_index] == (-row_exp[w.irrep_index]) % n
        assert exp_row[(-row_exp[w.irrep_index]) % n] == d.irrep_index


def test_dual_is_an_involution(s3_system):
    for w in s3_system.weights:
        d = s3_system.dual(w)
        assert s3_system.dual(d) == w
        assert s3_system.dim(d) == s3_system.dim(w)
        # the unit occurs exactly once in w (x) w*
        prod = s3_system.fusion(w, d)
        assert prod[s3_system.unit] == 1


def test_product_with_one_dimensional_matches_fusion(s3_system):
    # fusion composes two invertible weights and projects the rest once;
    # brute_fusion, which averages over every group element, is the
    # independent side, in both factor orders
    for a in s3_system.weights:
        if s3_system.dim(a) != 1:
            continue
        for b in s3_system.weights:
            w = s3_system.fusion(a, b)
            assert list(w.values()) == [1]
            assert brute_fusion(s3_system, a, b) == w == brute_fusion(s3_system, b, a)
            assert s3_system.fusion(b, a) == w


def _refuse(*args):
    raise AssertionError("the projection ran")


@pytest.mark.parametrize("n", [6, 12])
def test_cyclic_fusion_tables_never_project(n, monkeypatch):
    # every weight of a cyclic group is invertible, so each product is
    # one row lookup and the class projection never runs; in Z_n the
    # weights multiply by adding class and character exponents mod n
    monkeypatch.setattr(WeightSystem, "_multiplicities", _refuse)
    system = cyclic_system(n)
    row_exp = exponent_of_row(system, n)
    exp_row = {v: k for k, v in row_exp.items()}
    weights = system.weights
    for k, a in enumerate(weights):
        for b in weights[k:]:
            i = (a.class_index + b.class_index) % n
            j = exp_row[(row_exp[a.irrep_index] + row_exp[b.irrep_index]) % n]
            assert system.fusion(a, b) == {Weight(i, j): 1}


def test_two_dimensional_pairs_still_project(monkeypatch):
    # a product with a factor of dimension above one is projected; when
    # the other factor is invertible, (z, chi) with z central, the class
    # of z holds z alone, so there is one factor pair, one target class
    # and one projection, and the product is a single weight
    projected = []
    real = WeightSystem._multiplicities

    def counting(self, lam, mu, i, factors):
        projected.append((lam, mu))
        return real(self, lam, mu, i, factors)

    monkeypatch.setattr(WeightSystem, "_multiplicities", counting)
    groups = {**ORACLE_GROUPS, **LARGER_GROUPS}
    for name, count in (("S3", 12), ("S4", 38), ("Q8", 112), ("A5", 21)):
        system = WeightSystem(FiniteGroup.from_generators(*groups[name]))
        ones = [w for w in system.weights if system.dim(w) == 1]
        mixed = [(a, b) for a in ones for b in system.weights if system.dim(b) > 1]
        assert len(mixed) == count
        for a, b in mixed:
            projected.clear()
            result = system.fusion(a, b)
            assert projected == [(a, b)]
            assert list(result.values()) == [1]
            assert result == brute_fusion(system, a, b)
    # in S3 a product of two 2-dimensional weights has no closed form
    system = WeightSystem(FiniteGroup.from_generators(*ORACLE_GROUPS["S3"]))
    two = [w for w in system.weights if system.dim(w) == 2]
    assert len(two) == 4
    for k, a in enumerate(two):
        for b in two[k:]:
            projected.clear()
            result = system.fusion(a, b)
            assert projected and set(projected) == {(a, b)}
            assert result == brute_fusion(system, a, b)


def test_parse_label(s3_system):
    assert s3_system.parse_label("g2r1").label == "g2r1"
    # only the canonical spelling: no leading zeros, non-ASCII digits or
    # trailing newline
    for bad in ("g9r0", "g0r9", "x1y2", "g-1r0", "", "g0", "G0R0", "g01r0", "g1r00",
                "g\u0661r0", "g1r0\n"):
        with pytest.raises(InputError):
            s3_system.parse_label(bad)


def test_weight_ordering_and_hash(s3_system):
    ws = s3_system.weights
    assert sorted(ws) == ws
    assert len(set(ws)) == len(ws)
    assert repr(ws[3]) == "g1r0"


# ---- brute-force oracle: averages over every commuting pair ----


def brute_tensor_value(system, lam, mu, g_index, h_index):
    """Pair character of lam (x) mu at (g, h), summed over g1 * g2 = g."""
    group = system.group
    conj = system.conj
    total = CYC_ZERO
    for g1 in conj.classes[lam.class_index]:
        g2 = group.mul_index(group.inverse_index(g1), g_index)
        if conj.class_of[g2] != mu.class_index:
            continue
        v1 = system.pair_char(lam, g1, h_index)
        v2 = system.pair_char(mu, g2, h_index)
        total = total + v1 * v2
    return total


def brute_count(acc, n):
    v = acc / n
    assert v.is_rational()
    q = Fraction(v.to_rational())
    assert q.denominator == 1 and q >= 0
    return int(q)


# system -> class i -> the value rows of its centralizer table at e_G,
# and their conjugates
_ORACLE_ROWS = weakref.WeakKeyDictionary()


def oracle_rows(system, i):
    """The value rows of the centralizer table of class i, embedded into
    Q(zeta_(e_G)) here rather than read through the system, and their
    conjugates; built once per (system, class)."""
    rows = _ORACLE_ROWS.setdefault(system, {})
    if i not in rows:
        e = system.group.exponent()
        values = [[v.embed(e) for v in row] for row in system.tables[i].values]
        rows[i] = values, [[v.conjugate() for v in row] for row in values]
    return rows[i]


def values_at_exponent(system, i):
    return oracle_rows(system, i)[0]


def brute_fusion(system, lam, mu):
    """Project the tensor pair character onto every weight, averaging
    over all g in each class and all c in its centralizer."""
    group = system.group
    conj = system.conj
    support = {
        conj.class_of[group.mul_index(x, y)]
        for x in conj.classes[lam.class_index]
        for y in conj.classes[mu.class_index]
    }
    result = {}
    for i in sorted(support):
        z = system.tables[i].group
        cd = system.tables[i].conj
        sums = [CYC_ZERO] * cd.count
        for g_index in conj.classes[i]:
            x = conj.conjugator[g_index]
            for c in z.elements:
                h_index = group.index[perm_mul(x, perm_mul(c, perm_inv(x)))]
                cls = cd.class_of[z.index[c]]
                sums[cls] = sums[cls] + brute_tensor_value(system, lam, mu, g_index, h_index)
        for j, row in enumerate(oracle_rows(system, i)[1]):
            acc = dot(sums, row)
            mult = 0 if acc.is_zero() else brute_count(acc, group.order)
            if mult:
                result[Weight(i, j)] = mult
    return result


def brute_dual(system, lam):
    """The weight nu whose product with lam holds the unit once, scanning
    every h in G for every candidate."""
    group = system.group
    b = system.conj.inverse_class[lam.class_index]
    found = []
    for nu in system.weights:
        if nu.class_index != b:
            continue
        acc = CYC_ZERO
        for h_index in range(group.order):
            acc = acc + brute_tensor_value(system, lam, nu, group.identity_index, h_index)
        mult = brute_count(acc, group.order)
        assert mult in (0, 1)
        if mult:
            found.append(nu)
    assert len(found) == 1
    return found[0]


# quaternion units 1, -1, i, -i, j, -j, k, -k acting by left multiplication
Q8_GENS = [(2, 3, 1, 0, 6, 7, 5, 4), (4, 5, 7, 6, 1, 0, 2, 3)]

ORACLE_GROUPS = {
    "Z6": (6, [(1, 2, 3, 4, 5, 0)]),
    "S3": (3, [(1, 0, 2), (1, 2, 0)]),
    "D4": (4, [(1, 2, 3, 0), (0, 3, 2, 1)]),
    "Q8": (8, Q8_GENS),
    "S4": (4, [(1, 2, 3, 0), (1, 0, 2, 3)]),
}


def invertible_pairs(system):
    """Every unordered pair of one-dimensional weights, each once."""
    ones = [w for w in system.weights if system.dim(w) == 1]
    return [(a, b) for k, a in enumerate(ones) for b in ones[k:]]


def projection(system, lam, mu):
    """lam (x) mu through the projection, whatever the factors' dimensions."""
    result = {}
    for i, factors in enumerate(system._factor_lists(lam, mu)):
        if factors:
            for j, mult in enumerate(system._multiplicities(lam, mu, i, factors)):
                if mult:
                    result[Weight(i, j)] = mult
    return result


def assert_invertible_routes_agree(system, pairs):
    """Two invertible weights compose through their exponent vectors, in
    both orders, to the weight that the projection and brute_fusion,
    which averages over every group element, find for each of pairs."""
    for a, b in pairs:
        w = system._times_invertibles(a, b)
        assert w == system._times_invertibles(b, a)
        assert projection(system, a, b) == {w: 1}
        assert brute_fusion(system, a, b) == {w: 1}


@pytest.mark.parametrize("name, count", [("Z6", 36), ("S3", 2), ("S4", 2), ("Q8", 8)])
def test_invertible_products_compose_exponent_vectors(name, count):
    # S3 and S4 have a trivial centre, so only their two linear characters
    system = WeightSystem(FiniteGroup.from_generators(*ORACLE_GROUPS[name]))
    pairs = invertible_pairs(system)
    assert len(pairs) == count * (count + 1) // 2
    assert_invertible_routes_agree(system, pairs)


@pytest.mark.parametrize("n", range(2, 13))
def test_cyclic_products_compose_exponent_vectors(n):
    # every weight of Z_n is invertible, and fusion composes every pair by
    # the group law of Z_n x Z_n^, (r1, s1)(r2, s2) = (r1 + r2, s1 + s2);
    # brute force is quartic in n, so past n = 6 it and the projection
    # check only each product with a generator, the class g1 and the
    # faithful character at class 0
    system = cyclic_system(n)
    pairs = invertible_pairs(system)
    assert len(pairs) == n * n * (n * n + 1) // 2
    row_exp = exponent_of_row(system, n)
    exp_row = {k: r for r, k in row_exp.items()}
    for a, b in pairs:
        law = Weight(
            (a.class_index + b.class_index) % n,
            exp_row[(row_exp[a.irrep_index] + row_exp[b.irrep_index]) % n],
        )
        assert system.fusion(a, b) == system.fusion(b, a) == {law: 1}
    if n > 6:
        gens = {Weight(1, 0), Weight(0, exp_row[1])}
        pairs = [(a, b) for a, b in pairs if a in gens or b in gens]
    assert_invertible_routes_agree(system, pairs)


def test_q8_generators_give_the_quaternion_group():
    group = FiniteGroup.from_generators(8, Q8_GENS)
    a, b = Q8_GENS
    assert group.order == 8 and perm_mul(a, b) != perm_mul(b, a)
    involutions = [g for g in group.elements if g != group.identity and perm_mul(g, g) == group.identity]
    assert len(involutions) == 1


@pytest.mark.parametrize("name", sorted(ORACLE_GROUPS))
def test_fusion_and_duals_match_brute_force(name):
    system = WeightSystem(FiniteGroup.from_generators(*ORACLE_GROUPS[name]))
    weights = system.weights
    for w in weights:
        assert system.dual(w) == brute_dual(system, w)
    for k, a in enumerate(weights):
        for b in weights[k:]:
            assert system.fusion(a, b) == brute_fusion(system, a, b)


def textbook_pair_char(system, w, g_index, h_index):
    """Zero unless g lies in the class of w and commutes with h; else
    the Z_i-character of w at h conjugated into the centralizer Z_i,
    embedded into Q(zeta_(e_G))."""
    conj = system.conj
    group = system.group
    i = w.class_index
    if conj.class_of[g_index] != i:
        return CYC_ZERO
    g, h = group.elements[g_index], group.elements[h_index]
    if perm_mul(g, h) != perm_mul(h, g):
        return CYC_ZERO
    x = conj.conjugator[g_index]
    moved = perm_mul(perm_inv(x), perm_mul(h, x))
    table = system.tables[i]
    value = table.values[w.irrep_index][table.conj.class_of[table.group.index[moved]]]
    return value.embed(group.exponent())


@pytest.mark.parametrize("name", ["D4", "Q8", "S4"])
def test_pair_char_matches_textbook_definition(name):
    system = WeightSystem(FiniteGroup.from_generators(*ORACLE_GROUPS[name]))
    n = system.group.order
    for w in system.weights:
        for g in range(n):
            for h in range(n):
                assert system.pair_char(w, g, h) == textbook_pair_char(system, w, g, h)


def _with_duplicated_row(system, i, j, k):
    """Replace row k of the centralizer table of class i by a copy of row j."""
    table = system.tables[i]
    values = list(table.values)
    values[k] = values[j]
    system.tables[i] = CharacterTable(
        table.group, table.exponent, tuple(values), table.degrees
    )


def test_dual_lookup_failure_names_weight_class_and_row():
    # in C3 the dual of g1r1 is g2r2; with row 2 of class 2 gone, no
    # row of that class matches
    system = cyclic_system(3)
    assert system.dual(Weight(1, 1)) == Weight(2, 2)
    system = cyclic_system(3)
    _with_duplicated_row(system, 2, 1, 2)
    with pytest.raises(InconsistencyError) as info:
        system.dual(Weight(1, 1))
    row = [system.pair_char(Weight(1, 1), 1, h).conjugate() for h in (0, 1, 2)]
    assert str(info.value) == (
        f"dual of g1r1: 0 characters of the centralizer of class 2 equal the "
        f"computed row {row}, expected exactly one"
    )
    # the row that now appears twice matches two characters
    with pytest.raises(InconsistencyError, match="dual of g1r2: 2 characters"):
        system.dual(Weight(1, 2))


def test_invertible_value_off_the_roots_of_unity_names_the_weight():
    # row 1 of class 1 of C3 doubled: g1r1 is still one-dimensional, but
    # its character takes 2, which no exponent vector holds
    system = cyclic_system(3)
    table = system.tables[1]
    values = list(table.values)
    values[1] = tuple(v * 2 for v in values[1])
    system.tables[1] = CharacterTable(table.group, table.exponent, tuple(values), table.degrees)
    with pytest.raises(InconsistencyError) as info:
        system.fusion(Weight(1, 1), Weight(2, 0))
    assert str(info.value) == (
        "invertible weight g1r1: its value 2 at class 0 is not a root of unity "
        "of order dividing 3"
    )
    # the untouched rows still compose
    assert system.fusion(Weight(1, 0), Weight(2, 2)) == {Weight(0, 2): 1}


def test_product_lookup_failure_names_both_weights():
    system = cyclic_system(3)
    assert system.fusion(Weight(1, 0), Weight(1, 1)) == {Weight(2, 1): 1}
    system = cyclic_system(3)
    _with_duplicated_row(system, 2, 1, 0)
    with pytest.raises(InconsistencyError) as info:
        system.fusion(Weight(1, 0), Weight(1, 1))
    assert str(info.value).startswith(
        "product of g1r0 and g1r1: 2 characters of the centralizer of class 2 "
        "equal the computed row ["
    )


@pytest.mark.parametrize(
    "scale, verdict",
    [
        (Fraction(1, 2), "inner product 3/2 over centralizer order 3 is 1/2, not a nonnegative integer"),
        # 3 zeta_3 at e_G = 6, where zeta_3 = zeta_6 - 1
        (zeta(3).embed(6), "inner product -3+3*z6 over centralizer order 3 is not rational"),
    ],
)
def test_bad_multiplicity_names_weight_inner_product_and_order(scale, verdict):
    # g2r1 (x) g2r1 holds g2r1 once, an inner product of 3 over the
    # centralizer Z3 of class 2; scaling the weighted rows of class 2
    # scales every inner product there.  Those rows hold each value's
    # terms, so each value is rebuilt as a Cyclotomic at e_G = 6, scaled,
    # and read back as its terms
    system = WeightSystem(FiniteGroup.from_generators(*ORACLE_GROUPS["S3"]))
    a = system.by_label["g2r1"]
    assert system.fusion(a, a) == {Weight(0, 0): 1, Weight(0, 1): 1, a: 1}
    system = WeightSystem(system.group)
    record = system._record(2)

    def times_scale(terms):
        coeffs = [0, 0]
        for t, c in terms:
            coeffs[t] = c
        return tuple(_terms((Cyclotomic(6, coeffs) * scale).coeffs))

    scaled = [[times_scale(terms) for terms in row] for row in record.weighted]
    system._records[system.tables[2]] = record._replace(weighted=scaled)
    with pytest.raises(InconsistencyError) as info:
        system.fusion(a, a)
    assert str(info.value) == f"fusion multiplicity of g2r1 in g2r1 (x) g2r1: {verdict}"


_real_multiplicities = WeightSystem._multiplicities


def _doubled_counts(self, *args):
    return [2 * m for m in _real_multiplicities(self, *args)]


def _two_dimensional(self, *args):
    return next(w for w in self.weights if self.dim(w) == 2)


@pytest.mark.parametrize(
    "lam, mu, patch, fake, total, expected",
    [
        # projection: two 3-dimensional weights with every count doubled
        ("g1r0", "g1r1", "_multiplicities", _doubled_counts, 18, 9),
        # composition: the lookup answers with a 2-dimensional weight, not the unit
        ("g0r1", "g0r1", "_times_invertibles", _two_dimensional, 2, 1),
    ],
)
def test_dimension_law_failure_gives_both_sides(monkeypatch, lam, mu, patch, fake, total, expected):
    system = WeightSystem(FiniteGroup.from_generators(*ORACLE_GROUPS["S3"]))
    monkeypatch.setattr(WeightSystem, patch, fake)
    with pytest.raises(InconsistencyError) as info:
        system.fusion(system.by_label[lam], system.by_label[mu])
    assert str(info.value) == (
        f"fusion of {lam} and {mu} does not preserve dimension: sum of m * dim(w) "
        f"is {total}, dim {lam} * dim {mu} is {expected}"
    )


def test_central_class_reuses_the_group_and_its_classes(monkeypatch):
    # the identity's centralizer is S5 itself, so its table is built on
    # the classes the system already has: one ConjugacyData for S5 and
    # one for each of the 5 other distinct centralizers
    built = []
    real = ConjugacyData.__init__

    def counting(self, group):
        built.append(group.order)
        real(self, group)

    monkeypatch.setattr(ConjugacyData, "__init__", counting)
    system = WeightSystem(FiniteGroup.from_generators(5, [(1, 0, 2, 3, 4), (1, 2, 3, 4, 0)]))
    assert sorted(built) == [4, 5, 6, 8, 12, 120]
    assert system.tables[0].group is system.group
    assert system.tables[0].conj is system.conj


# ---- the closed-form duals and one-dimensional products on random groups ----

# groups of order above the cap are rejected while they are closed, which
# keeps the brute-force dual scan cheap
ORDER_CAP = 24
PROPERTY = settings(max_examples=30, deadline=None, derandomize=True)


@st.composite
def small_groups(draw):
    degree = draw(st.integers(1, 5))
    gens = draw(st.lists(st.permutations(range(degree)), min_size=1, max_size=2))
    try:
        return FiniteGroup.from_generators(degree, [tuple(g) for g in gens], ORDER_CAP)
    except InputError:
        assume(False)


# fixed groups past the reach of small_groups(): random degree-6 pairs
# almost always close above ORDER_CAP, so degree 6 comes in through S6
LARGER_GROUPS = {
    "S5": (5, [(1, 0, 2, 3, 4), (1, 2, 3, 4, 0)]),
    "A5": (5, [(1, 2, 0, 3, 4), (1, 2, 3, 4, 0)]),
    "S6": (6, [(1, 0, 2, 3, 4, 5), (1, 2, 3, 4, 5, 0)]),
}


def old_dual(system, lam):
    """dual as it was while it conjugated every pair-row value through
    Cyclotomic.galois."""
    b = system.conj.inverse_class[lam.class_index]
    g = system.group.inverse_index(system.conj.reps[b])
    row = [v.conjugate() for v in system._pair_row(lam, g, b)]
    (j,) = system._base_record(b).index[_row_key(row)]
    return Weight(b, j)


@pytest.mark.parametrize("name", ["S4", "S5", "Z12"])
def test_duals_read_inverse_classes_with_no_galois_calls(name, monkeypatch):
    gens = {**ORACLE_GROUPS, **LARGER_GROUPS, "Z12": (12, [tuple(range(1, 12)) + (0,)])}
    system = WeightSystem(FiniteGroup.from_generators(*gens[name]))
    calls = []
    galois = Cyclotomic.galois
    monkeypatch.setattr(Cyclotomic, "galois", lambda self, k: calls.append(k) or galois(self, k))
    duals = {w: system.dual(w) for w in system.weights}
    assert calls == []
    assert duals == {w: old_dual(system, w) for w in system.weights}
    assert calls  # the old route does call it


# system -> class i -> the value rows of its centralizer table at e_G,
# conjugated and scaled by class size as Cyclotomic values
_OLD_WEIGHTED = weakref.WeakKeyDictionary()


def old_multiplicities(system, lam, mu, i, factors):
    """_multiplicities as it was while it projected Cyclotomic values: the
    pair rows multiplied by dot per class of Z_i, then dot against the
    rows conjugated and scaled by class size as Cyclotomic values."""
    table = system.tables[i]
    rows = _OLD_WEIGHTED.setdefault(system, {})
    if i not in rows:
        sizes = table.conj.sizes()
        inv = table.conj.inverse_class
        rows[i] = [
            [row[inv[k]] * size for k, size in enumerate(sizes)]
            for row in system._base_record(i).values
        ]
    weighted = rows[i]
    left = [[] for _ in table.conj.reps]
    right = [[] for _ in table.conj.reps]
    for g1, g2 in factors:
        pairs = zip(system._pair_row(lam, g1, i), system._pair_row(mu, g2, i))
        for k, (v1, v2) in enumerate(pairs):
            if not (v1.is_zero() or v2.is_zero()):
                left[k].append(v1)
                right[k].append(v2)
    values = [dot(x, y) for x, y in zip(left, right)]
    return [
        weights._as_count(dot(values, row), table.group.order, lam, mu, i, j)
        for j, row in enumerate(weighted)
    ]


# S4's centralizers have exponents 2, 3 and 4 under e_G = 12, and
# S3 x Z5's values need the 8 power-basis terms of Q(zeta_30)
PROJECTED_GROUPS = {
    **{name: ORACLE_GROUPS[name] for name in ("S3", "S4", "D4", "Q8")},
    "A5": LARGER_GROUPS["A5"],
    "S3xZ5": (8, [(1, 0, 2, 3, 4, 5, 6, 7), (1, 2, 0, 3, 4, 5, 6, 7), (0, 1, 2, 4, 5, 6, 7, 3)]),
}


@pytest.mark.parametrize("name", sorted(PROJECTED_GROUPS))
def test_term_row_projection_matches_the_cyclotomic_one(name):
    # every unordered pair onto every class it reaches; the 20,100 pairs
    # of S3 x Z5 make 24,225 projections, fourteen times as many as the
    # other groups together, so there a fixed sample of 2,000 pairs
    system = WeightSystem(FiniteGroup.from_generators(*PROJECTED_GROUPS[name]))
    exponents = sorted({t.exponent for t in system.tables})
    assert exponents == {"S4": [2, 3, 4, 12], "S3xZ5": [10, 15, 30]}.get(name, exponents)
    ws = system.weights
    pairs = [(lam, mu) for k, lam in enumerate(ws) for mu in ws[k:]]
    if name == "S3xZ5":
        pairs = random.Random(30).sample(pairs, 2000)
    projected = 0
    for lam, mu in pairs:
        for i, factors in enumerate(system._factor_lists(lam, mu)):
            if factors:
                new = system._multiplicities(lam, mu, i, factors)
                assert new == old_multiplicities(system, lam, mu, i, factors)
                projected += 1
    assert projected >= len(pairs)


@pytest.mark.parametrize("name", ["S4", "A5"])
def test_factor_lists_are_built_once_per_class_pair(name, monkeypatch):
    system = WeightSystem(FiniteGroup.from_generators(*PROJECTED_GROUPS[name]))
    calls = []
    real = WeightSystem._factor_lists

    def counted(self, lam, mu):
        calls.append((lam.class_index, mu.class_index))
        return real(self, lam, mu)

    monkeypatch.setattr(WeightSystem, "_factor_lists", counted)
    ws = system.weights
    a, b = ws[-1].class_index, ws[-2].class_index
    pairs = [(x, y) for x in ws for y in ws if (x.class_index, y.class_index) == (a, b)]
    assert len(pairs) > 1
    (x, y), (u, v) = pairs[0], pairs[-1]
    system.fusion(x, y)
    assert calls == [(a, b)]
    system.fusion(u, v)
    assert calls == [(a, b)]
    for x in ws:
        for y in ws:
            system.fusion(x, y)
    assert len(calls) == len(set(calls)) == len(system._factor_cache)
    for (a, b), lists in system._factor_cache.items():
        assert lists == real(system, Weight(a, 0), Weight(b, 0))


@PROPERTY
@given(small_groups())
def test_duals_match_the_projection_and_are_involutions(group):
    system = WeightSystem(group)
    for w in system.weights:
        d = system.dual(w)
        assert d == brute_dual(system, w)
        assert system.dual(d) == w


@PROPERTY
@given(small_groups())
def test_one_dimensional_products_match_fusion(group):
    system = WeightSystem(group)
    for a in system.weights:
        if system.dim(a) != 1:
            continue
        for b in system.weights:
            w = system.fusion(a, b)
            assert list(w.values()) == [1]
            assert brute_fusion(system, a, b) == w == brute_fusion(system, b, a)


@PROPERTY
@given(small_groups())
def test_invertible_routes_agree_on_random_groups(group):
    system = WeightSystem(group)
    assert_invertible_routes_agree(system, invertible_pairs(system))


@PROPERTY
@given(small_groups())
def test_fusion_is_associative(group):
    # products of two invertible weights compose and the rest project,
    # so these chains mix both routes
    system = WeightSystem(group)
    of = [KElement.of(w) for w in system.weights]
    pairs = {(a, b): x.mul(y, system) for a, x in enumerate(of) for b, y in enumerate(of)}
    for (a, b), ab in pairs.items():
        for c, z in enumerate(of):
            assert ab.mul(z, system) == of[a].mul(pairs[b, c], system)


@PROPERTY
@given(small_groups())
def test_fusion_rigidity(group):
    # N_ab^c = N_{a c*}^{b*}
    system = WeightSystem(group)
    weights = system.weights
    for a in weights:
        for b in weights:
            ab = system.fusion(a, b)
            for c in weights:
                acd = system.fusion(a, system.dual(c))
                assert ab.get(c, 0) == acd.get(system.dual(b), 0)


# ---- the row lookup and the cost of invertible products ----


def _scan_lookup(table_rows, i, row):
    """The weights over class i whose centralizer character equals row,
    by comparing with every row of its table at e_G through ==."""
    return [Weight(i, j) for j, values in enumerate(table_rows) if values == row]


def _check_row_lookup(system):
    # every row, its conjugate, and its product with each linear character
    # of G restricted to the centralizer, all at e_G: the products can
    # leave the field of the centralizer's own exponent
    linear = [
        row
        for row, degree in zip(values_at_exponent(system, 0), system.tables[0].degrees)
        if degree == 1
    ]
    for i in range(len(system.tables)):
        reps = system._record(i).reps
        restricted = [[chi[system.conj.class_of[h]] for h in reps] for chi in linear]
        table_rows = values_at_exponent(system, i)
        for values in table_rows:
            rows = [values, [v.conjugate() for v in values]]
            rows += [[x * y for x, y in zip(chi, values)] for chi in restricted]
            for row in rows:
                found = _scan_lookup(table_rows, i, row)
                assert len(found) == 1
                assert system._record(i).index.get(_row_key(row)) == [found[0].irrep_index]


def test_row_lookup_matches_a_scan_on_s4():
    # S4's centralizers have exponents 2, 3 and 4 under the group's 12
    system = WeightSystem(FiniteGroup.from_generators(*ORACLE_GROUPS["S4"]))
    assert sorted({t.exponent for t in system.tables}) == [2, 3, 4, 12]
    _check_row_lookup(system)


@PROPERTY
@given(small_groups())
def test_row_lookup_matches_a_scan(group):
    _check_row_lookup(WeightSystem(group))


def test_each_table_value_is_embedded_once(monkeypatch):
    # the full S4 fusion table and every dual read the centralizer tables
    # at e_G = 12 through one embedded copy of each distinct table
    system = WeightSystem(FiniteGroup.from_generators(*ORACLE_GROUPS["S4"]))
    calls = []
    real = Cyclotomic.embed

    def counted(x, order):
        calls.append(order)
        return real(x, order)

    monkeypatch.setattr(Cyclotomic, "embed", counted)
    ws = system.weights
    assert len([system.fusion(a, b) for k, a in enumerate(ws) for b in ws[k:]]) == 231
    assert len([system.dual(w) for w in ws]) == 21
    values = sum(len(row) for table in set(system.tables) for row in table.values)
    assert len(calls) == values == 91
    assert set(calls) == {12}


def test_every_pair_character_is_read_through_the_cache(monkeypatch):
    # the projection and the duals both read pair characters through
    # _pair_row, so each (g, i) resolves its classes once
    system = WeightSystem(FiniteGroup.from_generators(*ORACLE_GROUPS["S4"]))
    calls = []
    real = WeightSystem._read_class

    def counted(self, g_index, h_index):
        calls.append((g_index, h_index))
        return real(self, g_index, h_index)

    monkeypatch.setattr(WeightSystem, "_read_class", counted)
    ws = system.weights
    assert len([system.fusion(a, b) for k, a in enumerate(ws) for b in ws[k:]]) == 231
    assert len([system.dual(w) for w in ws]) == 21
    assert calls
    assert len(calls) == sum(len(reads) for reads in system._reads_cache.values())


def test_each_read_row_inverts_its_conjugator_once(monkeypatch):
    # the A5 fusion table and every dual build each row of reads (g, i)
    # with one inversion of x_g, and none at a class representative
    system = WeightSystem(FiniteGroup.from_generators(*LARGER_GROUPS["A5"]))
    calls = []
    monkeypatch.setattr(weights, "perm_inv", lambda a: calls.append(a) or perm_inv(a))
    ws = system.weights
    assert len([system.fusion(a, b) for k, a in enumerate(ws) for b in ws[k:]]) == 253
    assert len([system.dual(w) for w in ws]) == 22
    moved = [g for g, i in system._reads_cache if g not in system.conj.reps]
    assert len(calls) == len(moved)
    assert calls == [system.conj.conjugator[g] for g in moved]


@pytest.mark.parametrize("name", ["S4", "Z6"])
def test_each_table_record_is_built_once(monkeypatch, name):
    # classes with equal centralizers share a table, and the table its
    # record: S4 has 5 distinct centralizers, and Z6's 6 classes share G
    system = WeightSystem(FiniteGroup.from_generators(*ORACLE_GROUPS[name]))
    built = []
    real = weights._Record

    def counted(*fields):
        built.append(fields)
        return real(*fields)

    monkeypatch.setattr(weights, "_Record", counted)
    ws = system.weights
    for k, a in enumerate(ws):
        system.dual(a)
        for b in ws[k:]:
            system.fusion(a, b)
    assert len(built) == len(set(system.tables)) == {"S4": 5, "Z6": 1}[name]
    assert len(system._records) == len(built)


def test_cyclic_fusion_table_does_no_group_work_or_row_scan(monkeypatch):
    # once the system is built, each invertible product reads table
    # entries and probes one dict: no permutation product, no ==
    calls = {"perm_mul": 0, "eq": 0}

    def counted(name, real):
        def wrapper(*args):
            calls[name] += 1
            return real(*args)

        return wrapper

    system = cyclic_system(6)
    for module in (groups, weights):
        monkeypatch.setattr(module, "perm_mul", counted("perm_mul", perm_mul))
    monkeypatch.setattr(Cyclotomic, "__eq__", counted("eq", Cyclotomic.__eq__))
    ws = system.weights
    products = [system.fusion(a, b) for k, a in enumerate(ws) for b in ws[k:]]
    assert len(products) == 36 * 37 // 2
    assert calls == {"perm_mul": 0, "eq": 0}


def test_weighted_rows_wait_for_a_projection():
    # duals and products of one-dimensional weights read no weighted row;
    # the first projection onto a class adds them to its table's record
    system = WeightSystem(FiniteGroup.from_generators(*ORACLE_GROUPS["S3"]))
    for w in system.weights:
        system.dual(w)
    for a, b in invertible_pairs(system):
        system.fusion(a, b)
    assert system._records
    assert all(record.weighted is None for record in system._records.values())
    sign, g1r0 = system.by_label["g0r1"], system.by_label["g1r0"]
    assert system.fusion(sign, g1r0) == {system.by_label["g1r1"]: 1}
    assert system._records[system.tables[1]].weighted is not None
    assert system._records[system.tables[0]].weighted is None


S7 = (7, [(1, 2, 3, 4, 5, 6, 0), (1, 0, 2, 3, 4, 5, 6)])


@pytest.mark.parametrize(
    "degree, gens, distinct",
    [(*ORACLE_GROUPS["S4"], 5), (*LARGER_GROUPS["S5"], 6), (*S7, 14)],
    ids=["S4", "S5", "S7"],
)
def test_equal_centralizers_share_one_table(monkeypatch, tmp_path, degree, gens, distinct):
    # tables are shared by the centralizer's elements; the content key
    # names a cache file, so it is built only with a cache, once per table
    keys = []
    real = FiniteGroup.content_key

    def counted(group):
        keys.append(group.order)
        return real(group)

    monkeypatch.setattr(FiniteGroup, "content_key", counted)
    group = FiniteGroup.from_generators(degree, gens)
    system = WeightSystem(group)
    assert len(set(map(id, system.tables))) == distinct
    assert keys == []
    cached = WeightSystem(group, cache_dir=str(tmp_path))
    assert len(set(map(id, cached.tables))) == distinct
    assert len(keys) == distinct
    assert len(list(tmp_path.glob("chartable-*.json"))) == distinct
    assert [t.to_json() for t in cached.tables] == [t.to_json() for t in system.tables]
