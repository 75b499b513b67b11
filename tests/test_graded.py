import random

import pytest

from doublechar.errors import InputError
from doublechar.graded import GradedChar, KElement, gc_dual, gc_mul
from doublechar.laurent import LaurentInt


def rand_k(rng, system, virtual=True):
    lo = -3 if virtual else 0
    terms = {}
    for _ in range(rng.randint(0, 4)):
        terms[rng.choice(system.weights)] = rng.randint(lo, 3)
    return KElement(terms)


def rand_char(rng, system, virtual=True):
    return GradedChar(
        {d: rand_k(rng, system, virtual) for d in rng.sample(range(-4, 5), rng.randint(0, 3))}
    )


def test_kelement_basics(s3_system):
    w = s3_system.weights
    a = KElement({w[0]: 1, w[3]: 0})
    assert a == KElement.of(w[0])
    assert a.multiplicity(w[3]) == 0
    assert (a - a).is_zero()
    assert not KElement.zero()
    assert (2 * KElement.of(w[3])).dim(s3_system) == 6
    assert list((KElement.of(w[3]) + KElement.of(w[1])).items()) == [
        (w[1], 1),
        (w[3], 1),
    ]
    assert KElement({w[1]: -1}).is_nonnegative() is False


def test_kelement_product_is_dimension_homomorphism(s3_system):
    rng = random.Random(314)
    for _ in range(30):
        a = rand_k(rng, s3_system)
        b = rand_k(rng, s3_system)
        ab = a.mul(b, s3_system)
        assert ab.dim(s3_system) == a.dim(s3_system) * b.dim(s3_system)
        assert ab == b.mul(a, s3_system)


def test_kelement_dual(s3_system):
    rng = random.Random(15)
    for _ in range(20):
        a = rand_k(rng, s3_system)
        assert a.dual(s3_system).dual(s3_system) == a
        assert a.dual(s3_system).dim(s3_system) == a.dim(s3_system)
    unit = KElement.of(s3_system.unit)
    assert unit.dual(s3_system) == unit


def test_graded_char_layers(s3_system):
    w = s3_system.weights
    ch = GradedChar({0: KElement.of(w[2]), -2: KElement.of(w[1]), 3: KElement.zero()})
    assert ch.degrees() == [-2, 0]
    assert ch.min_degree() == -2
    assert ch.max_degree() == 0
    assert ch.layer(3).is_zero()
    assert ch.layer(0) == KElement.of(w[2])
    assert GradedChar.of(w[1], deg=-2) + GradedChar.of(w[2]) == ch
    with pytest.raises(InputError):
        GradedChar.zero().min_degree()


def test_shift_scale_eval(s3_system):
    w = s3_system.weights
    ch = GradedChar.of(w[2]) + GradedChar.of(w[1], deg=-1)
    assert ch.shift(2).degrees() == [1, 2]
    assert ch.shift(2).shift(-2) == ch
    t = LaurentInt.monomial(1, 1)
    assert ch.scale(t) == ch.shift(1)
    assert ch.scale(2).eval_one() == KElement({w[2]: 2, w[1]: 2})
    assert ch.scale(LaurentInt({0: 1, 2: 1})) == ch + ch.shift(2)
    assert ch.dim(s3_system) == 3
    assert ch.scale(0).is_zero()


def test_weight_series(s3_system):
    w = s3_system.weights
    ch = GradedChar.of(w[1]) + GradedChar.of(w[1], deg=2) + GradedChar.of(w[4], deg=-1)
    assert ch.series(w[1]) == LaurentInt({0: 1, 2: 1})
    assert ch.series(w[4]) == LaurentInt.monomial(1, -1)
    rng = random.Random(7)
    for _ in range(15):
        ch = rand_char(rng, s3_system, virtual=True)
        # the weight-major view, built layer by layer
        view = {}
        for d in ch.degrees():
            for weight, m in ch.layer(d).items():
                view.setdefault(weight, {})[d] = m
        for weight in w:
            got = ch.series(weight)
            if weight in view:
                assert got == LaurentInt(view[weight])
            else:
                assert got is None


def test_gc_mul(s3_system):
    rng = random.Random(88)
    unit = GradedChar.of(s3_system.unit)
    for _ in range(15):
        a = rand_char(rng, s3_system, virtual=False)
        b = rand_char(rng, s3_system, virtual=False)
        ab = gc_mul(a, b, s3_system)
        assert ab == gc_mul(b, a, s3_system)
        assert gc_mul(a, unit, s3_system) == a
        assert ab.eval_one() == a.eval_one().mul(b.eval_one(), s3_system)
        if not a.is_zero() and not b.is_zero():
            assert ab.min_degree() == a.min_degree() + b.min_degree()
            assert ab.max_degree() == a.max_degree() + b.max_degree()


def test_gc_dual_and_shift_interchange(s3_system):
    rng = random.Random(99)
    for _ in range(25):
        a = rand_char(rng, s3_system)
        k = rng.randint(-3, 3)
        assert gc_dual(a.shift(k), s3_system) == gc_dual(a, s3_system).shift(-k)
        assert gc_dual(gc_dual(a, s3_system), s3_system) == a


def test_json_round_trip(s3_system):
    rng = random.Random(5)
    for _ in range(20):
        a = rand_char(rng, s3_system)
        assert GradedChar.from_json(a.to_json(), s3_system) == a
    obj = GradedChar.of(s3_system.weights[1]).to_json()
    obj["char"].append(dict(obj["char"][0]))
    with pytest.raises(InputError):
        GradedChar.from_json(obj, s3_system)


def test_nonnegativity(s3_system):
    w = s3_system.weights
    good = GradedChar.of(w[0]) + GradedChar.of(w[1], deg=-1)
    assert good.is_nonnegative()
    bad = good - GradedChar.of(w[2], deg=-1)
    assert not bad.is_nonnegative()
