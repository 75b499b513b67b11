import cmath
import random
from fractions import Fraction

from math import gcd

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from doublechar.cyclotomic import CYC_ZERO, Cyclotomic, cyclotomic_polynomial, dot, zeta


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
    assert zeta(2) == zeta(6) ** 3
    assert zeta(3) == zeta(12) ** 4
    assert zeta(4) != zeta(8)


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
    # operands live at the divisors of e, so some share the lcm order
    # and some are embedded first
    divisors = st.sampled_from([d for d in range(1, e + 1) if e % d == 0])
    n = data.draw(st.integers(0, 5))
    xs = [data.draw(divisors.flatmap(coeff_vectors)) for _ in range(n)]
    ys = [data.draw(divisors.flatmap(coeff_vectors)) for _ in range(n)]
    total = CYC_ZERO
    for x, y in zip(xs, ys):
        total = total + x * y
    got = dot(xs, ys)
    assert (got.order, got.coeffs) == (total.order, total.coeffs)


def test_galois_needs_a_unit():
    with pytest.raises(ValueError):
        zeta(6).galois(2)
