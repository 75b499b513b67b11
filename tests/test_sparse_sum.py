"""The additive rules LaurentInt, KElement and GradedChar share.

All three are sparse sums (a map key -> nonzero coefficient), so each
must be an abelian group under +, store no zero, hash equal values
equally and refuse assignment.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from doublechar.graded import GradedChar, KElement
from doublechar.laurent import LaurentInt

PROPERTY = settings(max_examples=40, deadline=None, derandomize=True)


def laurents():
    return st.dictionaries(st.integers(-5, 5), st.integers(-4, 4), max_size=6).map(
        LaurentInt
    )


def kelements(system):
    return st.dictionaries(
        st.sampled_from(system.weights), st.integers(-3, 3), max_size=5
    ).map(KElement)


def graded_chars(system):
    return st.dictionaries(st.integers(-3, 3), kelements(system), max_size=4).map(
        GradedChar
    )


def check_sparse_sum(a, b, c):
    zero = type(a).zero()
    # abelian group
    assert (a + b) + c == a + (b + c)
    assert a + b == b + a
    assert a + zero == a == zero + a
    assert a + (-a) == zero
    assert -(-a) == a
    assert a - b == a + (-b)
    # x - x is the empty map, and no sum stores a zero coefficient
    diff = a - a
    assert diff == zero
    assert diff.terms == {}
    assert diff.is_zero() and not diff
    for x in (a + b, a - b, (a + b) - b, -a):
        assert all(x.terms.values())
    # equal values hash equal, however they were reached
    back = (a + b) - b
    assert back == a and hash(back) == hash(a)
    reordered = type(a)(dict(reversed(list(a.terms.items()))))
    assert reordered == a and hash(reordered) == hash(a)
    assert hash(diff) == hash(zero)
    # immutable
    with pytest.raises(AttributeError):
        a.terms = {}
    with pytest.raises(AttributeError):
        a.extra = 1


@PROPERTY
@given(laurents(), laurents(), laurents())
def test_laurent_int_is_a_sparse_sum(a, b, c):
    check_sparse_sum(a, b, c)


@PROPERTY
@given(data=st.data())
def test_kelement_is_a_sparse_sum(s3_system, data):
    a, b, c = (data.draw(kelements(s3_system)) for _ in range(3))
    check_sparse_sum(a, b, c)


@PROPERTY
@given(data=st.data())
def test_graded_char_is_a_sparse_sum(s3_system, data):
    a, b, c = (data.draw(graded_chars(s3_system)) for _ in range(3))
    check_sparse_sum(a, b, c)


def test_kinds_do_not_mix(s3_system):
    w = s3_system.weights[1]
    k = KElement.of(w)
    assert k != GradedChar.of(w)
    assert LaurentInt.one() != KElement.of(w)
    with pytest.raises(TypeError):
        k + GradedChar.of(w)
    with pytest.raises(TypeError):
        GradedChar({0: {w: 1}})
