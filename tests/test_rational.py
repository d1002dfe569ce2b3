from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from oracles import is_rat
from sublap.rational import Rat, rat, rat_str


def test_rat_from_int():
    assert rat(3) == Rat(3)
    assert rat(-7) == Rat(-7)


def test_rat_from_string():
    assert rat("3/4") == Rat(3, 4)
    assert rat("-5/2") == Rat(-5, 2)
    assert rat("12") == Rat(12)


def test_rat_two_argument():
    assert rat(3, 4) == Rat(3, 4)


def test_rat_from_fraction():
    assert rat(Fraction(2, 6)) == Rat(1, 3)


def test_float_rejected():
    with pytest.raises(TypeError):
        rat(0.5)


def test_garbage_rejected():
    with pytest.raises(ValueError):
        rat("3/4/5")
    with pytest.raises(ValueError):
        rat("abc")


def test_is_rat():
    assert is_rat(rat(1))
    assert not is_rat("3")
    assert not is_rat(0.5)


@given(st.integers(-10**6, 10**6), st.integers(1, 10**6))
def test_rat_str_round_trip(num, den):
    q = Rat(num, den)
    assert rat(rat_str(q)) == q


@given(st.integers(-100, 100), st.integers(1, 50),
       st.integers(-100, 100), st.integers(1, 50))
def test_field_arithmetic(a, b, c, d):
    x = Rat(a, b)
    y = Rat(c, d)
    assert x + y == y + x
    assert x * y == y * x
    assert x + y - y == x
    if y != 0:
        assert (x / y) * y == x
