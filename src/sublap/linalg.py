"""Exact linear algebra over the rationals.

Small dense matrices only (dimensions here are Lie-algebra dimensions, so
single digits).  Matrices are tuples of tuples of Rat, vectors are tuples of
Rat; every routine returns exact results or raises.

Everything runs in one private integer form, ``(rows, den)``: integer rows
over one common positive denominator, the matrix being rows / den
entrywise.  ``_to_rows``, the one scaling helper, takes a matrix to it with
one lcm of its denominators; ``_from_rows`` builds each Rat once on the way
back.  ``_rows_mul``, ``_rows_transpose``, ``_inverse_rows`` and
``_nullspace_rows`` multiply, transpose, invert and take kernels in the
form; ``_rows_equal`` compares two matrices in it and ``_scalar_multiple``
finds the positive c with a == c b, cross-multiplied.  ``mat_mul``,
``inverse`` and ``nullspace`` are wrappers of those kernels, and deciders
that chain products, inverses and comparisons call the kernels directly,
so a chain builds a Rat only for what it returns.

Elimination is fraction-free, runs on Python ints, and has two kernels, one
per kind of job.  ``EchelonBasis`` keeps primitive integer rows keyed by
pivot column, dividing every updated row by the gcd of its entries: it
serves every rank, span, reduced-echelon and inverse job, so ``rank`` is
one forward pass, and ``_nullspace_rows`` and ``_inverse_rows`` read its
``reduced()`` rows.  ``_bareiss_pd`` is Bareiss's elimination of
a symmetric positive definite matrix, with no row exchanges and on the
lower triangle only, whose exact division by the previous pivot keeps the
entries minors of the scaled matrix: it takes and returns integers and
builds no Rat, and the Metric and the Gram check of the homothety deciders
read their verdicts and factors off it.  The backend is touched only
through ``.numerator``, ``.denominator`` and ``Rat(n, d)``.
"""

from __future__ import annotations

from math import gcd, lcm
from operator import mul

from .rational import ZERO, Rat, rat

Matrix = tuple


def mat(rows) -> Matrix:
    """Coerce a nested sequence (ints / "p/q" strings / Rats) to a Matrix."""
    out = tuple(tuple(rat(x) for x in row) for row in rows)
    if out and any(len(row) != len(out[0]) for row in out):
        raise ValueError("ragged rows")
    return out


def shape(a: Matrix) -> tuple:
    return (len(a), len(a[0]) if a else 0)


def transpose(a: Matrix) -> Matrix:
    return tuple(zip(*a)) if a else ()


def mat_scale(c, a: Matrix) -> Matrix:
    c = rat(c)
    return tuple(tuple(c * x for x in row) for row in a)


def _ratio(num: int, den: int):
    return Rat(num, den) if num else ZERO


def mat_mul(a: Matrix, b: Matrix) -> Matrix:
    """a @ b, one lcm per operand.  A matrix with no rows is stored as ()
    whatever its width, so it is taken to fit any b: the product has no
    rows either."""
    if not a:
        return ()
    n, k = shape(a)
    k2, m = shape(b)
    if k != k2:
        raise ValueError("shape mismatch %sx%s @ %sx%s" % (n, k, k2, m))
    return _from_rows(*_rows_mul(_to_rows(a), _to_rows(b)))


def _primitive(row: list) -> list:
    g = gcd(*row)
    return [x // g for x in row] if g > 1 else row


class EchelonBasis:
    """A growing list of vectors in echelon form: primitive integer rows
    keyed by pivot column (the first nonzero entry of each row, a column no
    other row has as its pivot), built from integer rows at any scale.
    insert() reduces a vector against the rows and keeps the remainder when
    it is nonzero; len() is the rank of everything inserted so far."""

    __slots__ = ("_rows",)

    def __init__(self, rows=()):
        self._rows = {}
        for row in rows:
            self.insert_row(row)

    def __len__(self) -> int:
        return len(self._rows)

    def insert(self, v) -> bool:
        """Add v; True when it is independent of the vectors already in."""
        return self.insert_row(_to_rows((v,))[0][0])

    def insert_row(self, row) -> bool:
        """insert() for a vector given by integer entries, at any scale.  The
        basis keeps a row of its own, never the one passed in."""
        rows = self._rows
        for c in range(len(row)):
            x = row[c]
            if not x:
                continue
            prow = rows.get(c)
            if prow is None:
                rows[c] = _primitive(list(row))
                return True
            # prow vanishes left of c, so columns before c stay zero
            p = prow[c]
            row = _primitive([p * y - x * z for y, z in zip(row, prow)])
        return False

    def reduced(self) -> dict:
        """The rows by increasing pivot column, each cleared bottom-up in
        every other pivot column and kept primitive; the basis's own rows
        are not changed (a row that needs no clearing is returned as is)."""
        rows = self._rows
        pivots = sorted(rows)
        red = {}
        for c in reversed(pivots):
            row = rows[c]
            # the rows in red vanish left of their pivots, which lie right of c
            for d, drow in red.items():
                x = row[d]
                if x:
                    p = drow[d]
                    row = _primitive([p * y - x * z for y, z in zip(row, drow)])
            red[c] = row
        return {c: red[c] for c in pivots}


def rank(a: Matrix) -> int:
    return len(EchelonBasis(_to_rows(a)[0]))


def inverse(a: Matrix) -> Matrix:
    n, m = shape(a)
    if n != m:
        raise ValueError("inverse needs a square matrix")
    return _from_rows(*_inverse_rows(_to_rows(a)))


# -- the integer form (rows, den) --------------------------------------------


def _to_rows(a: Matrix) -> tuple:
    """(rows, den) with a == rows / den: den the lcm of every denominator."""
    den = 1
    for row in a:
        for x in row:
            # most entries share a denominator, so most skip the lcm
            if den % x.denominator:
                den = lcm(den, int(x.denominator))
    if den == 1:
        return [[int(x.numerator) for x in row] for row in a], 1
    return [[int(x.numerator) * (den // int(x.denominator)) for x in row] for row in a], den


def _from_rows(rows, den: int) -> Matrix:
    """The Matrix rows / den, one Rat per entry."""
    return tuple(tuple(_ratio(x, den) for x in row) for row in rows)


def _rows_transpose(a: tuple) -> tuple:
    rows, den = a
    return [list(col) for col in zip(*rows)], den


def _rows_mul(a: tuple, b: tuple) -> tuple:
    """The product of two (rows, den) matrices, in the same form."""
    (ra, da), (rb, db) = a, b
    cols = tuple(zip(*rb))
    return [[sum(map(mul, row, col)) for col in cols] for row in ra], da * db


def _rows_equal(a: tuple, b: tuple) -> bool:
    """Whether two (rows, den) matrices of one shape are equal."""
    (ra, da), (rb, db) = a, b
    return all(x * db == y * da for row_a, row_b in zip(ra, rb) for x, y in zip(row_a, row_b))


def _scalar_multiple(a: tuple, b: tuple):
    """The c > 0 with a == c b, for two (rows, den) matrices of one shape, as
    a Rat; None when there is none (or b is 0).  c is read at the first
    nonzero entry b_0 of b, and a_ij b_0 == a_0 b_ij is tested on integers,
    in one pass that stops at the first entry off the multiple."""
    (ra, da), (rb, db) = a, b
    a0 = b0 = 0
    for row_a, row_b in zip(ra, rb):
        for x, y in zip(row_a, row_b):
            if b0:
                if x * b0 != a0 * y:
                    return None
            elif y:
                if x * y <= 0:
                    return None
                a0, b0 = x, y
            elif x:
                return None
    if not b0:
        return None
    if b0 < 0:
        a0, b0 = -a0, -b0
    return Rat(a0 * db, da * b0)


def _identity_rows(n: int) -> tuple:
    """The n x n identity as (rows, den)."""
    return [[0] * i + [1] + [0] * (n - 1 - i) for i in range(n)], 1


def _inverse_rows(a: tuple) -> tuple:
    """The inverse of a square nonsingular (rows, den), in the same form, by
    the reduced echelon form of [rows | 1]: pivot row r is (p_r e_r | R_r),
    so rows^{-1} has row R_r / p_r and a^{-1} = den rows^{-1}."""
    rows, den = a
    n = len(rows)
    work = EchelonBasis([list(row) + [0] * i + [1] + [0] * (n - 1 - i)
                         for i, row in enumerate(rows)]).reduced()
    # [rows | 1] has rank n; its pivots are 0..n-1 exactly when rows is nonsingular
    if list(work) != list(range(n)):
        raise ValueError("singular matrix")
    common = lcm(*(work[r][r] for r in range(n)))
    g = gcd(common, den)
    out = []
    for r in range(n):
        f = common // work[r][r] * (den // g)
        out.append([f * x for x in work[r][n:]])
    return out, common // g


def nullspace(a: Matrix):
    """Basis (tuple of vectors) for the right nullspace of a: one vector per
    free column f of the reduced echelon form, with 1 at f and 0 at every
    other free column."""
    return _from_rows(*_nullspace_rows(_to_rows(a)[0]))


def _nullspace_rows(rows) -> tuple:
    """The basis of nullspace() for the integer rows of a matrix, as
    (basis rows, den): for each free column f of the reduced echelon form,
    den e_f minus, at each pivot column c, den / p_c times the entry in
    column f of the reduced row with pivot p_c at c."""
    ncols = len(rows[0]) if rows else 0
    red = EchelonBasis(rows).reduced()
    den = lcm(*(row[c] for c, row in red.items()))
    basis = []
    for f in range(ncols):
        if f not in red:
            v = [0] * ncols
            v[f] = den
            for c, row in red.items():
                v[c] = -row[f] * (den // row[c])
            basis.append(v)
    return basis, den


def left_nullspace(a: Matrix):
    """Basis of row vectors y with y @ a = 0."""
    return nullspace(transpose(a))


def _bareiss_pd(a: tuple) -> tuple:
    """Bareiss elimination of a symmetric positive definite matrix a, given
    as (rows, s): (s, tri) with tri the integer lower triangle of the
    elimination of M = rows = s a.  Raises ValueError if a is not symmetric
    positive definite.

    With indices from 0 and p_0 = 1, step k divides exactly by the previous
    pivot p_k, so the pivot tri[k][k] = p_{k+1} is the leading principal
    minor of order k + 1 of M, and a nonpositive pivot is exactly the PD
    failure.  Below the diagonal tri[i][k] is the multiplier f_ik, M_ik as
    read at step k; column k is never written after step k.  So
    M = L diag(s d) L^T with L_ik = f_ik / p_{k+1} and
    d_k = p_{k+1} / (p_k s).
    """
    rows, s = a
    n = len(rows)
    if any(len(row) != n for row in rows) or \
            any(rows[i][j] != rows[j][i] for i in range(n) for j in range(i)):
        raise ValueError("matrix is not symmetric")
    # the lower triangle is all that is read or written
    tri = [row[:i + 1] for i, row in enumerate(rows)]
    prev = 1
    for k in range(n):
        piv = tri[k][k]
        if piv <= 0:
            raise ValueError("matrix is not positive definite")
        for i in range(k + 1, n):
            wi = tri[i]
            f = wi[k]
            # with f = 0 and piv = prev the update leaves the row as it is
            if f or piv != prev:
                for j in range(k + 1, i + 1):
                    wi[j] = (piv * wi[j] - f * tri[j][k]) // prev
        prev = piv
    return s, tuple(map(tuple, tri))
