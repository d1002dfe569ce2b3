from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sublap import linalg
from sublap.rational import Rat, is_rat

rationals = st.fractions(min_value=-5, max_value=5, max_denominator=6).map(
    lambda f: Rat(f.numerator, f.denominator))
# zeros weighted up, signs and denominators up to 40 mixed in one matrix
sparse_rationals = st.one_of(
    st.just(Fraction(0)),
    st.fractions(min_value=-30, max_value=30, max_denominator=40),
).map(lambda f: Rat(f.numerator, f.denominator))


def square(n):
    return st.lists(st.lists(rationals, min_size=n, max_size=n),
                    min_size=n, max_size=n).map(lambda r: tuple(map(tuple, r)))


def test_identity_inverse():
    i3 = linalg.identity(3)
    assert linalg.inverse(i3) == i3


def test_solve_known():
    a = linalg.mat(((2, 1), (1, 3)))
    x = linalg.solve(a, (Rat(5), Rat(10)))
    assert linalg.mat_vec(a, x) == (Rat(5), Rat(10))


def test_singular_raises():
    a = linalg.mat(((1, 2), (2, 4)))
    with pytest.raises(ValueError):
        linalg.inverse(a)


@settings(max_examples=60, deadline=None)
@given(square(3))
def test_inverse_round_trip(a):
    if linalg.rank(a) < 3:
        with pytest.raises(ValueError):
            linalg.inverse(a)
    else:
        assert linalg.mat_mul(a, linalg.inverse(a)) == linalg.identity(3)


def matrices(nrows, ncols):
    return st.lists(st.lists(sparse_rationals, min_size=ncols, max_size=ncols),
                    min_size=nrows, max_size=nrows).map(lambda r: tuple(map(tuple, r)))


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 4), st.integers(1, 4), st.integers(1, 4), st.data())
def test_mat_mul_equals_naive_fraction_sum(n, k, m, data):
    a = data.draw(matrices(n, k))
    b = data.draw(matrices(k, m))
    product = linalg.mat_mul(a, b)
    naive = tuple(
        tuple(sum((Fraction(a[i][t]) * Fraction(b[t][j]) for t in range(k)), Fraction(0))
              for j in range(m))
        for i in range(n))
    assert all(is_rat(x) for row in product for x in row)
    assert tuple(tuple(Fraction(x) for x in row) for row in product) == naive
    assert linalg.mat_vec(a, linalg.transpose(b)[0]) == tuple(row[0] for row in product)


@settings(max_examples=60, deadline=None)
@given(square(3))
def test_rank_nullity(a):
    assert linalg.rank(a) + len(linalg.nullspace(a)) == 3


@settings(max_examples=60, deadline=None)
@given(square(3))
def test_nullspace_annihilates(a):
    for v in linalg.nullspace(a):
        assert linalg.mat_vec(a, v) == (Rat(0),) * 3


def test_pivot_rows_span():
    a = linalg.mat(((1, 0), (2, 0), (0, 1)))
    rows = linalg.pivot_rows(a)
    assert len(rows) == 2
    sub = tuple(a[i] for i in rows)
    assert linalg.rank(sub) == 2


@settings(max_examples=40, deadline=None)
@given(square(3))
def test_ldl_positive_definite(a):
    # G = A^T A + I is always symmetric positive definite
    g = linalg.mat_add(linalg.mat_mul(linalg.transpose(a), a), linalg.identity(3))
    l, d = linalg.ldl_pd(g)
    assert all(x > 0 for x in d)
    dm = tuple(tuple(d[i] if i == j else Rat(0) for j in range(3)) for i in range(3))
    assert linalg.mat_mul(linalg.mat_mul(l, dm), linalg.transpose(l)) == g
    assert linalg.is_positive_definite(g)


def test_ldl_rejects_indefinite():
    with pytest.raises(ValueError):
        linalg.ldl_pd(((1, 0), (0, -1)))
    with pytest.raises(ValueError):
        linalg.ldl_pd(((0, 1), (1, 0)))
    with pytest.raises(ValueError):
        linalg.ldl_pd(((1, 2), (3, 4)))  # not symmetric


def test_span_equal():
    a = ((1, 0, 0), (0, 1, 0))
    b = ((1, 1, 0), (1, -1, 0))
    c = ((1, 0, 0), (0, 0, 1))
    assert linalg.span_equal(a, b)
    assert not linalg.span_equal(a, c)


@settings(max_examples=40, deadline=None)
@given(square(3), square(3))
def test_left_nullspace(a, b):
    for y in linalg.left_nullspace(a):
        out = tuple(sum((y[i] * a[i][j] for i in range(3)), Rat(0)) for j in range(3))
        assert out == (Rat(0),) * 3
