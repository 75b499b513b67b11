import random

import pytest

from doublechar.laurent import LaurentInt


def ref_mul(a, b):
    """Dict convolution, kept independent of the class under test."""
    out = {}
    for da, ca in a.items():
        for db, cb in b.items():
            out[da + db] = out.get(da + db, 0) + ca * cb
    return {d: c for d, c in out.items() if c}


def rand_poly(rng):
    return {rng.randint(-5, 5): rng.randint(-9, 9) for _ in range(rng.randint(0, 5))}


def test_normalization_drops_zero_terms():
    assert LaurentInt({2: 0, 0: 1}) == LaurentInt.one()
    assert LaurentInt({}) == LaurentInt.zero()
    assert not LaurentInt.zero()
    assert LaurentInt.monomial(3, -2).terms == {-2: 3}


def test_ring_ops_match_dict_reference():
    rng = random.Random(1234)
    for _ in range(200):
        ta, tb = rand_poly(rng), rand_poly(rng)
        a, b = LaurentInt(ta), LaurentInt(tb)
        assert (a * b).terms == ref_mul(a.terms, b.terms)
        assert (a + b - b) == a
        assert a * b == b * a
        assert a * LaurentInt.one() == a
        assert a * LaurentInt.zero() == LaurentInt.zero()


def test_int_coercion():
    # a Laurent polynomial meets only its own type in +, - and ==, so it
    # never equals an int whose hash it does not share; ints still scale
    t = LaurentInt.monomial(1, 1)
    assert LaurentInt.one() != 1
    assert len({LaurentInt.one(), 1}) == 2
    with pytest.raises(TypeError):
        t + 1
    with pytest.raises(TypeError):
        1 - t
    assert 2 * t == LaurentInt({1: 2})
    assert t * 2 == LaurentInt({1: 2})


def test_shift_and_bar():
    p = LaurentInt({-1: 2, 3: 1})
    assert p.shift(2).terms == {1: 2, 5: 1}
    assert p.bar().terms == {1: 2, -3: 1}
    assert p.bar().bar() == p
    rng = random.Random(42)
    for _ in range(50):
        a, b = LaurentInt(rand_poly(rng)), LaurentInt(rand_poly(rng))
        # bar is a ring automorphism
        assert (a * b).bar() == a.bar() * b.bar()
        assert (a + b).bar() == a.bar() + b.bar()


def test_eval_one_and_degrees():
    p = LaurentInt({-2: 1, 0: -3, 4: 2})
    assert p.eval_one() == 0
    assert p.min_degree() == -2
    assert p.max_degree() == 4
    assert LaurentInt.zero().min_degree() is None
    assert LaurentInt.zero().max_degree() is None
    assert LaurentInt({0: 1, 1: 2}).is_nonnegative()
    assert not p.is_nonnegative()


def test_str_rendering():
    assert str(LaurentInt.zero()) == "0"
    assert str(LaurentInt.one()) == "1"
    assert str(LaurentInt.monomial(1, 1)) == "t"
    assert str(LaurentInt({2: 2, 1: 1, 0: -3})) == "2*t^2 + t - 3"
    assert str(LaurentInt.monomial(-1, -2)) == "-t^-2"


def test_hash_consistency():
    a = LaurentInt({1: 1, 0: 2})
    b = LaurentInt({0: 2, 1: 1, 3: 0})
    assert a == b and hash(a) == hash(b)
    with pytest.raises(TypeError):
        LaurentInt({0: "x"})
