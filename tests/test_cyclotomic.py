import cmath
import operator
import random
from fractions import Fraction
from functools import lru_cache
from math import gcd

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from doublechar.cyclotomic import (
    CYC_ONE,
    CYC_ZERO,
    Cyclotomic,
    _convolve,
    _power_table,
    _terms,
    cyclotomic_polynomial,
    dot,
    nullspace,
    rref,
    zeta,
)


def approx(x, power=1):
    """Numeric image of a cyclotomic under zeta_e -> exp(2*pi*i*power/e)."""
    root = cmath.exp(2j * cmath.pi * power / x.order)
    return sum(c * root**k for k, c in enumerate(x.coeffs))


ORDERS = range(1, 31)
# every order 1..30, including the e = 2 mod 4 ones, with random vectors
PROPERTY = settings(max_examples=10, deadline=None, derandomize=True)


def coeff_vectors(e):
    d = len(cyclotomic_polynomial(e)) - 1
    return st.lists(st.integers(-6, 6), min_size=d, max_size=d).map(
        lambda c: Cyclotomic(e, c)
    )


def units(e):
    """Integers k prime to e, negative ones and ones past e included."""
    return st.sampled_from([k for k in range(-2 * e - 1, 2 * e + 2) if gcd(k, e) == 1])


def test_zeta_has_exact_order():
    for n in range(1, 13):
        z = zeta(n)
        assert z**n == 1
        for k in range(1, n):
            assert z**k != 1


def test_minimal_polynomial_vanishes():
    for e in (3, 4, 5, 6, 8, 9, 12):
        phi = cyclotomic_polynomial(e)
        z = zeta(e)
        acc = Cyclotomic.from_rational(0, e)
        for k, c in enumerate(phi):
            acc = acc + z**k * c
        assert acc.is_zero()


def test_known_values():
    assert zeta(1) == 1
    assert zeta(2) == -1
    assert zeta(4) ** 2 == -1
    # 1 + zeta_3 + zeta_3^2 = 0
    assert zeta(3) + zeta(3, 2) == -1
    # full sum of primitive 5th roots
    assert sum((zeta(5, k) for k in range(1, 5)), Cyclotomic.from_rational(0, 5)) == -1


def test_arithmetic_matches_complex_arithmetic():
    rng = random.Random(20260814)
    orders = [1, 2, 3, 4, 5, 6, 8, 12]
    for _ in range(120):
        e = rng.choice(orders)
        d = len(zeta(e).coeffs)
        a = Cyclotomic(e, [rng.randint(-4, 4) for _ in range(d)])
        b = Cyclotomic(e, [rng.randint(-4, 4) for _ in range(d)])
        assert abs(approx(a + b) - (approx(a) + approx(b))) < 1e-9
        assert abs(approx(a - b) - (approx(a) - approx(b))) < 1e-9
        assert abs(approx(a * b) - approx(a) * approx(b)) < 1e-9


def test_conjugate_is_complex_conjugate():
    rng = random.Random(7)
    for _ in range(60):
        e = rng.choice([3, 4, 5, 7, 8, 12])
        d = len(zeta(e).coeffs)
        a = Cyclotomic(e, [rng.randint(-3, 3) for _ in range(d)])
        assert abs(approx(a.conjugate()) - approx(a).conjugate()) < 1e-9
        assert a.conjugate().conjugate() == a


def test_inverse():
    rng = random.Random(99)
    for _ in range(40):
        e = rng.choice([3, 4, 5, 8])
        d = len(zeta(e).coeffs)
        a = Cyclotomic(e, [rng.randint(-3, 3) for _ in range(d)])
        if a.is_zero():
            continue
        assert a * a.inverse() == 1
    with pytest.raises(ZeroDivisionError):
        Cyclotomic.from_rational(0, 5).inverse()


def test_negative_powers():
    z = zeta(7)
    assert z**-1 == z**6
    assert z**-3 == (z**3).inverse()


def test_powers_square_only_while_bits_remain(monkeypatch):
    # x ** -1 is the inverse and nothing more; x ** 4 is two squarings
    x = Cyclotomic(12, (1, 2, 0, -1))
    products = []
    mul = Cyclotomic.__mul__

    def counted(a, b):
        products.append(1)
        return mul(a, b)

    monkeypatch.setattr(Cyclotomic, "__mul__", counted)
    inverse = x.inverse()
    for_inverse = len(products)
    products.clear()
    assert x**-1 == inverse
    assert len(products) == for_inverse
    products.clear()
    x**4
    assert len(products) == 2
    # x ** k takes one squaring per bit past the lowest and one product
    # per set bit past the first
    for k in range(9):
        products.clear()
        power = x**k
        assert len(products) == max(k.bit_length() + k.bit_count() - 2, 0)
        expected = Cyclotomic.from_rational(1, 12)
        for _ in range(k):
            expected = expected * x
        assert power == expected


def test_embedding_preserves_value():
    rng = random.Random(5)
    for _ in range(40):
        e = rng.choice([2, 3, 4, 6])
        target = e * rng.choice([2, 3])
        d = len(zeta(e).coeffs)
        a = Cyclotomic(e, [rng.randint(-3, 3) for _ in range(d)])
        b = a.embed(target)
        assert b.order == target
        assert abs(approx(a) - approx(b)) < 1e-9
    with pytest.raises(ValueError):
        zeta(4).embed(6)


def test_cross_order_equality():
    # values of two orders compare once one is embedded into the other's
    # field; only a rational operand compares as it is
    assert zeta(2).embed(6) == zeta(6) ** 3
    assert zeta(3).embed(12) == zeta(12) ** 4
    assert zeta(4).embed(8) != zeta(8)
    assert zeta(6) ** 3 == Cyclotomic.from_rational(-1) == zeta(6) ** 3 == -1
    with pytest.raises(ValueError):
        zeta(2) == zeta(6) ** 3


def _dot1(x, y):
    return dot([x], [y])


def _dot2(x, y):
    # the second pair mixes the orders, the first one does not
    return dot([x, x], [x, y])


BINARY = [operator.add, operator.sub, operator.eq, operator.mul, _dot1, _dot2]


@pytest.mark.parametrize("op", BINARY)
def test_two_orders_raise_unless_one_is_rational(op):
    x, y = zeta(4) + 1, zeta(6) - 2
    for a, b in ((x, y), (y, x)):
        with pytest.raises(ValueError) as info:
            op(a, b)
        # dot names the orders it found in ascending order
        first, second = (4, 6) if op in (_dot1, _dot2) else (a.order, b.order)
        assert str(info.value) == (
            f"Cyclotomic operands of orders {first} and {second}: neither is rational"
        )


@pytest.mark.parametrize("op", BINARY)
@pytest.mark.parametrize("r", [3, Fraction(-2, 3), Cyclotomic.from_rational(Fraction(5, 2)), CYC_ZERO])
def test_a_rational_operand_joins_any_order_from_either_side(op, r):
    # each result is the one of the same operation with r written at order 12
    value = r.to_rational() if isinstance(r, Cyclotomic) else r
    at12 = Cyclotomic.from_rational(value, 12)
    if op in (_dot1, _dot2):
        r = Cyclotomic.from_rational(value)  # dot takes Cyclotomic operands
    for x in (zeta(12) - 2 * zeta(12, 3), Cyclotomic.from_rational(3, 12)):
        for got, want in ((op(x, r), op(x, at12)), (op(r, x), op(at12, x))):
            if isinstance(want, bool):
                assert got is want
            else:
                assert (got.order, got.coeffs) == (want.order, want.coeffs) and got.order == 12


def test_rationality():
    s = sum((zeta(5, k) for k in range(1, 5)), Cyclotomic.from_rational(0, 5))
    assert s.is_rational()
    assert s.to_rational() == Fraction(-1)
    assert not zeta(5).is_rational()
    with pytest.raises(ValueError):
        zeta(5).to_rational()


def test_coefficient_length_is_enforced():
    with pytest.raises(ValueError):
        Cyclotomic(4, [1, 2, 3])


@pytest.mark.parametrize("e", ORDERS)
@PROPERTY
@given(data=st.data())
def test_inverse_by_norm(e, data):
    a = data.draw(coeff_vectors(e))
    assume(not a.is_zero())
    inv = a.inverse()
    assert inv.order == e
    assert a * inv == 1


@pytest.mark.parametrize("e", ORDERS)
@PROPERTY
@given(data=st.data())
def test_galois_is_evaluation_at_a_power(e, data):
    a = data.draw(coeff_vectors(e))
    k = data.draw(units(e))
    assert abs(approx(a.galois(k)) - approx(a, k)) < 1e-9


@pytest.mark.parametrize("e", ORDERS)
@PROPERTY
@given(data=st.data())
def test_galois_composes_multiplicatively(e, data):
    a = data.draw(coeff_vectors(e))
    j, k = data.draw(units(e)), data.draw(units(e))
    assert a.galois(j).galois(k) == a.galois(j * k)


@pytest.mark.parametrize("e", ORDERS)
@PROPERTY
@given(data=st.data())
def test_conjugate_is_galois_minus_one(e, data):
    a = data.draw(coeff_vectors(e))
    assert a.conjugate() == a.galois(-1)


@pytest.mark.parametrize("e", ORDERS)
@PROPERTY
@given(data=st.data())
def test_dot_is_the_sum_of_products_over_mixed_orders(e, data):
    # operands live at order 1 or e, and a rational one is read as the
    # prefix of an order-e vector; the reference x * y itself runs through
    # the same-order kernel (or scales), so the kernel's independent check
    # is test_same_order_arithmetic_matches_a_reference
    orders = st.sampled_from([1, e])
    n = data.draw(st.integers(0, 5))
    xs = [data.draw(orders.flatmap(coeff_vectors)) for _ in range(n)]
    ys = [data.draw(orders.flatmap(coeff_vectors)) for _ in range(n)]
    total = CYC_ZERO
    for x, y in zip(xs, ys):
        total = total + x * y
    got = dot(xs, ys)
    assert (got.order, got.coeffs) == (total.order, total.coeffs)


def test_galois_needs_a_unit():
    with pytest.raises(ValueError):
        zeta(6).galois(2)


def test_coefficients_must_be_exact():
    # a float or a bool would be stored, printed and compared as it is
    for build in (
        lambda: Cyclotomic(3, [1.5, 0]),
        lambda: Cyclotomic.from_rational(0.1),
        lambda: Cyclotomic.from_rational(True),
        lambda: zeta(4) + True,
    ):
        with pytest.raises(TypeError):
            build()
    assert Cyclotomic(3, [Fraction(4, 2), Fraction(1, 2)]).coeffs == (2, Fraction(1, 2))
    assert type(Cyclotomic.from_rational(Fraction(3, 1), 4).coeffs[0]) is int


def exact_vectors(e):
    """Cyclotomics of order e: int coefficients, up to three of them set
    to Fractions (an integral one is stored as an int)."""
    d = len(cyclotomic_polynomial(e)) - 1
    fractions = st.tuples(
        st.integers(0, d - 1),
        st.builds(Fraction, st.integers(-6, 6), st.integers(2, 4)),
    )

    def build(ints, fracs):
        for i, q in fracs:
            ints[i] = q
        return Cyclotomic(e, ints)

    return st.builds(
        build,
        st.lists(st.integers(-6, 6), min_size=d, max_size=d),
        st.lists(fractions, max_size=3),
    )


def reference_dot(pairs, e):
    """sum a_i b_j * zeta_e^(i + j) over pairs (x, y), read off the table
    of reduced powers; an order-1 operand is the rational at index 0."""
    table = _power_table(e)
    rows = [[(k, r) for k, r in enumerate(row) if r] for row in table]
    acc = [0] * len(table[0])
    for x, y in pairs:
        for i, a in enumerate(x.coeffs):
            for j, b in enumerate(y.coeffs):
                ab = a * b
                if ab:
                    for k, r in rows[(i + j) % e]:
                        acc[k] += ab * r
    return tuple(acc)


def assert_result(got, order, coeffs):
    assert got.order == order
    assert got.coeffs == tuple(coeffs)
    for c in got.coeffs:
        assert type(c) is int or (type(c) is Fraction and c.denominator != 1), c


@pytest.mark.parametrize("e", ORDERS)
@PROPERTY
@given(data=st.data())
def test_same_order_arithmetic_matches_a_reference(e, data):
    vectors = exact_vectors(e)
    x = data.draw(vectors)
    y = data.draw(st.one_of(vectors, st.just(x)))
    assert_result(x * y, e, reference_dot([(x, y)], e))
    assert_result(x + y, e, (a + b for a, b in zip(x.coeffs, y.coeffs)))
    assert_result(x - y, e, (a - b for a, b in zip(x.coeffs, y.coeffs)))
    assert_result(-x, e, (-a for a in x.coeffs))
    assert (x == y) is all(a == b for a, b in zip(x.coeffs, y.coeffs))
    assert x == Cyclotomic(e, [Fraction(c) for c in x.coeffs])
    # an order-1 operand scales the other from either side
    r = data.draw(exact_vectors(1))
    for got in (x * r, r * x):
        assert_result(got, e, reference_dot([(x, r)], e))
    # dot of operands of a single order
    n = data.draw(st.integers(1, 3))
    xs = [data.draw(vectors) for _ in range(n)]
    ys = [data.draw(vectors) for _ in range(n)]
    assert_result(dot(xs, ys), e, reference_dot(zip(xs, ys), e))


def schoolbook(pairs, e):
    """sum x * y over pairs of coefficient vectors: every dense product,
    then the remainder of the sum by long division by Phi_e."""
    phi = cyclotomic_polynomial(e)
    d = len(phi) - 1
    acc = [0] * (2 * d - 1)
    for x, y in pairs:
        for i, a in enumerate(x):
            for j, b in enumerate(y):
                acc[i + j] += a * b
    for top in range(len(acc) - 1, d - 1, -1):
        q = acc[top]
        for j, c in enumerate(phi):
            acc[top - d + j] -= q * c
    assert not any(acc[d:])
    return acc[:d]


@pytest.mark.parametrize("kind", ["int", "Fraction"])
@pytest.mark.parametrize("e", [1, 2, 12, 60, 420])
@PROPERTY
@given(data=st.data())
def test_term_fed_convolve_matches_a_dense_schoolbook_product(e, kind, data):
    # sparse vectors, as character values are; a zero Fraction is no term
    d = len(cyclotomic_polynomial(e)) - 1
    coeff = st.integers(-6, 6)
    if kind == "Fraction":
        coeff = st.builds(Fraction, coeff, st.integers(1, 4))
    vector = st.lists(st.one_of(st.just(0), coeff), min_size=d, max_size=d)
    pairs = data.draw(st.lists(st.tuples(vector, vector), max_size=3))
    got = _convolve(((_terms(x), list(_terms(y))) for x, y in pairs), e)
    assert got == schoolbook(pairs, e)
    # terms extracted once and read again, as _verify reads them
    terms = [(tuple(_terms(x)), tuple(_terms(y))) for x, y in pairs]
    assert _convolve(terms, e) == _convolve(terms, e) == got
    assert _convolve([], e) == [0] * d


def test_one_order_arithmetic_embeds_nothing(monkeypatch):
    # operands of one order, or a rational one, are read as they are;
    # any other pair raises before anything is embedded
    calls = []
    real = Cyclotomic.embed

    def counted(x, order):
        calls.append(order)
        return real(x, order)

    x, y = zeta(12) + 2, zeta(12, 5) - zeta(12, 2)
    monkeypatch.setattr(Cyclotomic, "embed", counted)
    assert x * y == dot([x, y, x], [y, y, x]) - y * y - x * x
    assert 3 * x - CYC_ONE == dot([x, CYC_ONE], [Cyclotomic.from_rational(3), -CYC_ONE])
    for op in BINARY:
        with pytest.raises(ValueError):
            op(x, zeta(4))
    assert calls == []


# ---- the shared exact elimination ----
#
# "Q" draws Fraction entries; an int e draws Cyclotomic entries of order e.
FIELDS = ["Q", 1, 3, 4, 12]
KERNEL_PROPERTY = settings(max_examples=25, deadline=None, derandomize=True)


def field_entries(field):
    """Entries of the field, zero about a third of the time."""
    if field == "Q":
        nonzero = st.builds(Fraction, st.integers(-4, 4), st.integers(1, 3)).filter(bool)
        zero = Fraction(0)
    else:
        nonzero = coeff_vectors(field).filter(bool)
        zero = Cyclotomic.from_rational(0, field)
    return st.one_of(st.just(zero), nonzero, nonzero)


@st.composite
def sparse_matrices(draw, field):
    """(rows, ncols): a few drawn rows plus combinations of them, so the
    rank often falls short, with the zero entries dropped."""
    entries = field_entries(field)
    ncols = draw(st.integers(1, 5))
    base = draw(
        st.lists(st.lists(entries, min_size=ncols, max_size=ncols), min_size=0, max_size=4)
    )
    dense = list(base)
    if base:
        for _ in range(draw(st.integers(0, 2))):
            coeffs = [draw(entries) for _ in base]
            dense.append(
                [sum((c * row[j] for c, row in zip(coeffs, base)), 0 * base[0][0])
                 for j in range(ncols)]
            )
    order = draw(st.permutations(range(len(dense))))
    rows = [{j: x for j, x in enumerate(dense[i]) if x} for i in order]
    return rows, ncols


def _times(row, v):
    return sum((x * v[j] for j, x in row.items() if j in v), 0)


@pytest.mark.parametrize("field", FIELDS)
@KERNEL_PROPERTY
@given(data=st.data())
def test_nullspace_is_the_kernel_and_fills_the_columns(field, data):
    rows, ncols = data.draw(sparse_matrices(field))
    reduced, pivots = rref(rows, ncols)
    basis = nullspace(rows, ncols)
    assert len(basis) + len(pivots) == ncols
    assert pivots == sorted(set(pivots))
    for row, c in zip(reduced, pivots):
        assert row[c] == 1 and min(row) == c
        assert all(row.values())
    for v in basis:
        assert all(v.values())
        for row in rows:
            assert _times(row, v) == 0


@pytest.mark.parametrize("field", FIELDS)
@KERNEL_PROPERTY
@given(data=st.data())
def test_rref_ignores_row_order_and_row_scaling(field, data):
    rows, ncols = data.draw(sparse_matrices(field))
    want = rref(rows, ncols)
    order = data.draw(st.permutations(range(len(rows))))
    assert rref([rows[i] for i in order], ncols) == want
    nonzero = field_entries(field).filter(bool)
    scaled = []
    for row in rows:
        c = data.draw(nonzero)
        scaled.append({j: c * x for j, x in row.items()})
    assert rref(scaled, ncols) == want
    # the input rows are left as they were
    assert rref(rows, ncols) == want


def _dense_rref(aug):
    """The dense Gauss-Jordan elimination over the rationals that the
    composition-matrix certificate ran before the shared kernel, widened
    from square to any shape: the reference for `rref`."""
    aug = [list(row) for row in aug]
    pivots = []
    for c in range(len(aug[0]) if aug else 0):
        r = len(pivots)
        piv = next((i for i in range(r, len(aug)) if aug[i][c]), None)
        if piv is None:
            continue
        aug[r], aug[piv] = aug[piv], aug[r]
        aug[r] = [x / aug[r][c] for x in aug[r]]
        for i in range(len(aug)):
            if i != r and aug[i][c]:
                f = aug[i][c]
                aug[i] = [x - f * y for x, y in zip(aug[i], aug[r])]
        pivots.append(c)
    return aug[: len(pivots)], pivots


@KERNEL_PROPERTY
@given(data=st.data())
def test_rref_matches_the_dense_rational_elimination(data):
    rows, ncols = data.draw(sparse_matrices("Q"))
    dense = [[row.get(j, Fraction(0)) for j in range(ncols)] for row in rows]
    want_rows, want_pivots = _dense_rref(dense)
    reduced, pivots = rref(rows, ncols)
    assert pivots == want_pivots
    assert reduced == [{j: x for j, x in enumerate(row) if x} for row in want_rows]


def _poly_div_exact(num, den):
    """Quotient of integer polynomials (ascending coeffs), den monic, exact."""
    num = list(num)
    dd = len(den) - 1
    q = [0] * (len(num) - dd)
    for i in range(len(num) - dd - 1, -1, -1):
        c = num[i + dd]
        if c:
            q[i] = c
            for j in range(dd + 1):
                num[i + j] -= c * den[j]
    assert not any(num[:dd]), "non-exact polynomial division"
    return q


@lru_cache(maxsize=None)
def reference_cyclotomic_polynomial(e):
    """Phi_e as x^e - 1 divided by Phi_d for every proper divisor d of e:
    the division routine that the Moebius product replaced."""
    if e == 1:
        return (-1, 1)
    poly = [-1] + [0] * (e - 1) + [1]
    for d in range(1, e):
        if e % d == 0:
            poly = _poly_div_exact(poly, reference_cyclotomic_polynomial(d))
    return tuple(poly)


def test_cyclotomic_polynomial_matches_the_division_routine():
    for e in [*range(1, 301), 420, 840]:
        assert cyclotomic_polynomial(e) == reference_cyclotomic_polynomial(e), e
