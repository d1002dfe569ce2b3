"""Exact linear algebra over the rationals.

Small dense matrices only (dimensions here are Lie-algebra dimensions, so
single digits).  Matrices are tuples of tuples of Rat, vectors are tuples of
Rat; every routine returns exact results or raises.

Everything runs in one private integer form, ``(rows, den)``: integer rows
over one common positive denominator, the matrix being rows / den
entrywise.  ``_to_rows``, the one scaling helper, takes a matrix to it with
one lcm of its denominators; ``_from_rows`` builds each Rat once on the way
back.  ``_rows_mul``, ``_rows_transpose`` and ``_inverse_rows`` multiply,
transpose and invert in the form, and ``_rows_equal`` compares two matrices
in it.  ``mat_mul``, ``mat_vec`` and ``inverse`` are wrappers of those
kernels, and deciders that chain products, inverses and comparisons call
the kernels directly, so each Rat of a chain is built once.

Elimination is fraction-free, runs on Python ints, and has two kernels, one
per kind of job.  ``EchelonBasis`` keeps primitive integer rows keyed by
pivot column, dividing every updated row by the gcd of its entries: it
serves every rank, span, reduced-echelon and inverse job, so ``rank`` is
one forward pass, and ``rref`` (with the nullspaces) and ``_inverse_rows``
read its ``reduced()`` rows.  ``_bareiss_pd`` is Bareiss's elimination of
a symmetric positive definite matrix, with no row exchanges and on the
lower triangle only, whose exact division by the previous pivot keeps the
entries minors of the scaled matrix: it returns those integers and builds
no Rat, and ``is_positive_definite`` and the Metric read their verdicts
and factors off it.  The backend is touched only through ``.numerator``,
``.denominator`` and ``Rat(n, d)``.
"""

from __future__ import annotations

from math import gcd, lcm
from operator import mul

from .rational import ONE, ZERO, Rat, rat

Matrix = tuple
Vector = tuple


def mat(rows) -> Matrix:
    """Coerce a nested sequence (ints / "p/q" strings / Rats) to a Matrix."""
    out = tuple(tuple(rat(x) for x in row) for row in rows)
    if out and any(len(row) != len(out[0]) for row in out):
        raise ValueError("ragged rows")
    return out


def identity(n: int) -> Matrix:
    return tuple(tuple(Rat(1) if i == j else Rat(0) for j in range(n)) for i in range(n))


def shape(a: Matrix) -> tuple:
    return (len(a), len(a[0]) if a else 0)


def transpose(a: Matrix) -> Matrix:
    return tuple(zip(*a)) if a else ()


def mat_sub(a: Matrix, b: Matrix) -> Matrix:
    if shape(a) != shape(b):
        raise ValueError("shape mismatch %sx%s - %sx%s" % (shape(a) + shape(b)))
    return tuple(tuple(x - y for x, y in zip(ra, rb)) for ra, rb in zip(a, b))


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


def mat_vec(a: Matrix, v: Vector) -> Vector:
    """a @ v, as the product with the one-column matrix of v; () when a
    has no rows (see mat_mul)."""
    if not a:
        return ()
    n, k = shape(a)
    if k != len(v):
        raise ValueError("shape mismatch %sx%s @ %s" % (n, k, len(v)))
    rows, den = _rows_mul(_to_rows(a), _to_rows(tuple((x,) for x in v)))
    # with k = 0 the one-column matrix has no rows, so the product no column
    return tuple(_ratio(row[0], den) if row else ZERO for row in rows)


def _primitive(row: list) -> list:
    g = gcd(*row)
    return [x // g for x in row] if g > 1 else row


def _divided(row: list, c: int) -> tuple:
    """row / row[c] as Rats (row[c] is the pivot)."""
    p = row[c]
    return tuple(ONE if j == c else _ratio(x, p) for j, x in enumerate(row))


def rref(a: Matrix):
    """Reduced row echelon form.  Returns (rref_matrix, pivot_column_indices)."""
    ncols = len(a[0]) if a else 0
    red = EchelonBasis(_to_rows(a)[0]).reduced()
    out = [_divided(row, c) for c, row in red.items()]
    out += [(ZERO,) * ncols] * (len(a) - len(red))
    return tuple(out), tuple(red)


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
    """Basis (tuple of vectors) for the right nullspace of a."""
    red, pivots = rref(a)
    ncols = shape(a)[1]
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for f in free:
        v = [Rat(0)] * ncols
        v[f] = Rat(1)
        for r, c in enumerate(pivots):
            v[c] = -red[r][f]
        basis.append(tuple(v))
    return tuple(basis)


def left_nullspace(a: Matrix):
    """Basis of row vectors y with y @ a = 0."""
    return nullspace(transpose(a))


def _bareiss_pd(a: Matrix) -> tuple:
    """Bareiss elimination of a symmetric positive definite matrix: (s, tri)
    with s the lcm of the denominators of a and tri the integer lower
    triangle of the elimination of M = s a.  Raises ValueError if a is not
    symmetric positive definite.

    With indices from 0 and p_0 = 1, step k divides exactly by the previous
    pivot p_k, so the pivot tri[k][k] = p_{k+1} is the leading principal
    minor of order k + 1 of M, and a nonpositive pivot is exactly the PD
    failure.  Below the diagonal tri[i][k] is the multiplier f_ik, M_ik as
    read at step k; column k is never written after step k.  So
    M = L diag(s d) L^T with L_ik = f_ik / p_{k+1} and
    d_k = p_{k+1} / (p_k s).
    """
    rows, s = _to_rows(a)
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


def is_positive_definite(a: Matrix) -> bool:
    try:
        _bareiss_pd(a)
        return True
    except ValueError:
        return False
