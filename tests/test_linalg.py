import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import fraction_ldl, fraction_rref, is_rat, ldl_pd, madd, pivot_rows, span_equal
from sublap import linalg
from sublap.rational import Rat

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


def test_mat_vec_and_mat_sub_reject_mismatched_shapes():
    a = linalg.mat(((1, 2, 3), (4, 5, 6)))
    for v in ((1, 1), (1, 1, 1, 1)):
        with pytest.raises(ValueError, match="shape mismatch 2x3 @ %d" % len(v)):
            linalg.mat_vec(a, linalg.mat((v,))[0])
    for b in (((1, 2), (4, 5)), ((1, 2, 3, 4), (4, 5, 6, 7)), ((1, 2, 3),)):
        with pytest.raises(ValueError, match="shape mismatch 2x3 - "):
            linalg.mat_sub(a, linalg.mat(b))
    assert linalg.mat_vec(a, linalg.mat(((1, 1, 1),))[0]) == (Rat(6), Rat(15))


def test_matrix_without_rows_multiplies_any_width():
    # () is a 0 x k matrix for every k: its products have no rows, with no
    # shape mismatch, while a matrix with rows still checks its width
    b = linalg.mat(((1, 2), (3, 4), (5, 6)))
    assert linalg.mat_mul((), b) == ()
    assert linalg.mat_mul((), linalg.mat(((1, 2, 3),))) == ()
    assert linalg.mat_vec((), linalg.mat(((1, -1, 2),))[0]) == ()
    assert linalg.mat_vec((), ()) == ()
    with pytest.raises(ValueError, match="shape mismatch 3x2 @ 0x0"):
        linalg.mat_mul(b, ())


def fraction_product(a, b, n, k, m):
    """a @ b on Fractions for an n x k and a k x m matrix, shapes given
    because an empty matrix does not carry its width."""
    return tuple(tuple(sum((Fraction(a[i][t]) * Fraction(b[t][j]) for t in range(k)), Fraction(0))
                       for j in range(m)) for i in range(n))


@pytest.mark.parametrize("n, k, m", [(0, 0, 0), (3, 0, 0), (2, 3, 0), (1, 3, 0), (1, 1, 1),
                                     (0, 3, 2), (0, 1, 0)])
def test_products_and_rref_on_edge_shapes_match_fraction_oracle(n, k, m):
    # 0 x k, k x 0 and 1 x 1; a matrix with no rows is (), whatever its width,
    # so a k x 0 matrix times one is k x 0, and a 0 x k one times a k x m is ()
    a = tuple(tuple(Rat(i + 2 * t - 1, t + 1) for t in range(k)) for i in range(n))
    b = tuple(tuple(Rat(3 * t - j, j + 2) for j in range(m)) for t in range(k))
    product = linalg.mat_mul(a, b)
    assert product == fraction_product(a, b, n, k, m)
    assert all(is_rat(x) for row in product for x in row)
    v = tuple(row[0] for row in b) if m else (Rat(-2, 3),) * k
    vec = linalg.mat_vec(a, v)
    assert vec == tuple(row[0] for row in fraction_product(a, tuple((x,) for x in v), n, k, 1))
    assert all(is_rat(x) for x in vec)
    for x in (a, b):
        assert linalg.rref(x) == fraction_rref(x)


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
    rows = pivot_rows(a)
    assert len(rows) == 2
    sub = tuple(a[i] for i in rows)
    assert linalg.rank(sub) == 2


@settings(max_examples=40, deadline=None)
@given(square(3))
def test_ldl_positive_definite(a):
    # G = A^T A + I is always symmetric positive definite
    g = madd(linalg.mat_mul(linalg.transpose(a), a), linalg.identity(3))
    l, d = ldl_pd(g)
    assert all(x > 0 for x in d)
    dm = tuple(tuple(d[i] if i == j else Rat(0) for j in range(3)) for i in range(3))
    assert linalg.mat_mul(linalg.mat_mul(l, dm), linalg.transpose(l)) == g
    assert linalg.is_positive_definite(g)


def test_ldl_rejects_indefinite():
    with pytest.raises(ValueError, match="not positive definite"):
        linalg._bareiss_pd(linalg.mat(((1, 0), (0, -1))))
    with pytest.raises(ValueError, match="not positive definite"):
        linalg._bareiss_pd(linalg.mat(((0, 1), (1, 0))))
    with pytest.raises(ValueError, match="not symmetric"):
        linalg._bareiss_pd(linalg.mat(((1, 2), (3, 4))))
    # a matrix that is not square is not symmetric either, whatever its entries
    for a in (((1, 0),), ((1,), (0,)), ((1, 0, 0), (0, 1, 0))):
        with pytest.raises(ValueError, match="not symmetric"):
            linalg._bareiss_pd(linalg.mat(a))
        assert not linalg.is_positive_definite(linalg.mat(a))


def test_span_equal():
    a = ((1, 0, 0), (0, 1, 0))
    b = ((1, 1, 0), (1, -1, 0))
    c = ((1, 0, 0), (0, 0, 1))
    # the rank oracle
    assert span_equal(a, b)
    assert not span_equal(a, c)


def test_echelon_basis_keeps_its_own_rows():
    # the caller's row may change after it is inserted: the basis must not
    # see it
    row = [1, 2, 3]
    basis = linalg.EchelonBasis()
    assert basis.insert_row(row)
    row[0] = 0
    assert not basis.insert_row([1, 2, 3])
    assert len(basis) == 1


@settings(max_examples=40, deadline=None)
@given(square(3), square(3))
def test_left_nullspace(a, b):
    for y in linalg.left_nullspace(a):
        out = tuple(sum((y[i] * a[i][j] for i in range(3)), Rat(0)) for j in range(3))
        assert out == (Rat(0),) * 3


# -- the fraction-free integer code against plain Fraction elimination ---------

# the same spread as sparse_rationals, drawn as numerator and denominator,
# which hypothesis generates several times faster than st.fractions
int_ratios = st.one_of(st.just(Rat(0)), st.builds(Rat, st.integers(-30, 30), st.integers(1, 40)))


def int_matrices(nrows, ncols):
    return st.lists(st.lists(int_ratios, min_size=ncols, max_size=ncols),
                    min_size=nrows, max_size=nrows).map(lambda r: tuple(map(tuple, r)))


@st.composite
def eliminable(draw):
    """Matrices up to 4 x 4: full random ones, or products C B with B of k
    rows (rank at most k, k = 0 gives the zero matrix), so rank-deficient
    matrices, zero rows and negative pivots all occur."""
    nrows = draw(st.integers(1, 4))
    ncols = draw(st.integers(1, 4))
    if draw(st.booleans()):
        return draw(int_matrices(nrows, ncols))
    k = draw(st.integers(0, min(nrows, ncols)))
    base = draw(int_matrices(k, ncols))
    comb = draw(int_matrices(nrows, k))
    return tuple(tuple(sum((comb[i][t] * base[t][j] for t in range(k)), Rat(0))
                       for j in range(ncols)) for i in range(nrows))


def oracle_nullspace(a):
    red, pivots = fraction_rref(a)
    ncols = len(a[0])
    basis = []
    for f in (c for c in range(ncols) if c not in pivots):
        v = [Fraction(0)] * ncols
        v[f] = Fraction(1)
        for r, c in enumerate(pivots):
            v[c] = -red[r][f]
        basis.append(tuple(v))
    return tuple(basis)


def outcome(fn, *args):
    try:
        return ("value", fn(*args))
    except ValueError as exc:
        return ("error", str(exc))


@settings(max_examples=100, deadline=None)
@given(eliminable())
def test_rref_rank_nullspace_match_fraction_oracle(a):
    red, pivots = linalg.rref(a)
    assert (red, pivots) == fraction_rref(a)
    assert all(is_rat(x) for row in red for x in row)
    assert linalg.rank(a) == len(pivots)
    assert pivot_rows(a) == fraction_rref(linalg.transpose(a))[1]
    assert linalg.nullspace(a) == oracle_nullspace(a)


@st.composite
def symmetric(draw):
    """B^T D B with D positive diagonal, in three kinds: plus D itself
    (positive definite), or with one entry of D set to zero (semidefinite)
    or to -1 (indefinite when B is nonsingular); now and then the result
    is made non-symmetric."""
    n = draw(st.integers(1, 4))
    b = draw(int_matrices(n, n))
    diag = draw(st.lists(st.builds(Rat, st.integers(1, 9), st.integers(1, 9)),
                         min_size=n, max_size=n))
    kind = draw(st.sampled_from((None, Rat(0), Rat(-1))))
    if kind is not None:
        diag[draw(st.integers(0, n - 1))] = kind
    s = [[sum((b[t][i] * diag[t] * b[t][j] for t in range(n)), Rat(0)) for j in range(n)]
         for i in range(n)]
    if kind is None:
        for i in range(n):
            s[i][i] += diag[i]
    if n > 1 and draw(st.integers(0, 9)) == 0:
        s[0][1] += 1
    return tuple(map(tuple, s))


@settings(max_examples=120, deadline=None)
@given(symmetric())
def test_ldl_matches_fraction_oracle(a):
    got = outcome(ldl_pd, a)
    assert got == outcome(fraction_ldl, a)
    kernel = outcome(linalg._bareiss_pd, a)
    assert kernel[0] == got[0]
    if kernel[0] == "value":
        # the kernel's integers against the oracle's Fractions: the scale s,
        # the leading minors p_{k+1} = s^(k+1) d_0 ... d_k of M = s a on the
        # diagonal, and the multipliers f_ik = L_ik p_{k+1} below it
        s, tri = kernel[1]
        lower, d = fraction_ldl(a)
        assert s == math.lcm(*(int(x.denominator) for row in a for x in row))
        minor = Fraction(1)
        for k, row in enumerate(tri):
            minor *= s * d[k]
            assert len(row) == k + 1 and row[k] == minor
        assert all(tri[i][k] == lower[i][k] * tri[k][k]
                   for i in range(len(tri)) for k in range(i))
    else:
        assert kernel == got
    assert linalg.is_positive_definite(a) == (got[0] == "value")
    if got[0] == "value":
        assert all(is_rat(x) for row in got[1][0] for x in row)
        assert all(is_rat(x) for x in got[1][1])


@settings(max_examples=60, deadline=None)
@given(eliminable())
def test_echelon_basis_rank_follows_rank(a):
    # the rows, with each one's negative and a zero row appended, inserted
    # one by one: the basis grows exactly when the rank of the prefix does
    rows = a + tuple(tuple(-x for x in row) for row in a) + ((Rat(0),) * len(a[0]),)
    basis = linalg.EchelonBasis()
    before = 0
    for t, row in enumerate(rows, start=1):
        grew = basis.insert(row)
        after = len(fraction_rref(rows[:t])[1])
        assert grew == (after > before)
        assert len(basis) == after
        before = after


@st.composite
def integer_rows(draw):
    """Integer matrices up to 5 x 5 as lists of rows, products C B with B of
    k rows (rank at most k, k = 0 gives the zero matrix); now and then one
    row or one column is set to zero."""
    nrows, ncols = draw(st.integers(1, 5)), draw(st.integers(1, 5))
    k = draw(st.integers(0, min(nrows, ncols)))
    entries = st.integers(-4, 4)
    base = [[draw(entries) for _ in range(ncols)] for _ in range(k)]
    comb = [[draw(entries) for _ in range(k)] for _ in range(nrows)]
    rows = [[sum(comb[i][t] * base[t][j] for t in range(k)) for j in range(ncols)]
            for i in range(nrows)]
    if draw(st.booleans()):
        rows[draw(st.integers(0, nrows - 1))] = [0] * ncols
    if draw(st.booleans()):
        c = draw(st.integers(0, ncols - 1))
        for row in rows:
            row[c] = 0
    return rows


def divided(red):
    """The rows of reduced(), each divided by its pivot, as Fractions."""
    return [tuple(Fraction(x, row[c]) for x in row) for c, row in red.items()]


@settings(max_examples=100, deadline=None)
@given(integer_rows())
def test_echelon_basis_reduced_is_the_rref(rows):
    # reduced() gives the primitive rows of the rref, each a multiple of
    # its Fraction row, and leaves the basis as it was: re-inserting the
    # rows adds nothing, and unit vectors grow it with the rank
    ncols = len(rows[0])
    basis = linalg.EchelonBasis(rows)
    own = {c: list(row) for c, row in basis._rows.items()}
    red = basis.reduced()
    ref, pivots = fraction_rref(rows)
    assert tuple(red) == pivots and len(basis) == len(pivots)
    assert divided(red) == list(ref[:len(pivots)])
    assert all(math.gcd(*row) == 1 for row in red.values())
    assert basis._rows == own
    assert not any(map(basis.insert_row, rows))
    units = [[int(i == j) for i in range(ncols)] for j in range(ncols)]
    for j, unit in enumerate(units):
        before = len(basis)
        assert basis.insert_row(unit) == (len(fraction_rref(rows + units[:j + 1])[1]) > before)
    assert len(basis) == ncols
    assert divided(basis.reduced()) == list(map(tuple, units))
