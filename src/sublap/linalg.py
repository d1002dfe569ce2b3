"""Exact linear algebra over the rationals.

Small dense matrices only (dimensions here are Lie-algebra dimensions, so
single digits).  Matrices are tuples of tuples of Rat, vectors are tuples of
Rat; every routine returns exact results or raises.
"""

from __future__ import annotations

from math import lcm

from .rational import Rat, rat

Matrix = tuple
Vector = tuple


def mat(rows) -> Matrix:
    """Coerce a nested sequence (ints / "p/q" strings / Rats) to a Matrix."""
    out = tuple(tuple(rat(x) for x in row) for row in rows)
    if out and any(len(row) != len(out[0]) for row in out):
        raise ValueError("ragged rows")
    return out


def vec(entries) -> Vector:
    return tuple(rat(x) for x in entries)


def identity(n: int) -> Matrix:
    return tuple(tuple(Rat(1) if i == j else Rat(0) for j in range(n)) for i in range(n))


def shape(a: Matrix) -> tuple:
    return (len(a), len(a[0]) if a else 0)


def transpose(a: Matrix) -> Matrix:
    return tuple(zip(*a)) if a else ()


def mat_add(a: Matrix, b: Matrix) -> Matrix:
    return tuple(tuple(x + y for x, y in zip(ra, rb)) for ra, rb in zip(a, b))


def mat_sub(a: Matrix, b: Matrix) -> Matrix:
    return tuple(tuple(x - y for x, y in zip(ra, rb)) for ra, rb in zip(a, b))


def mat_scale(c, a: Matrix) -> Matrix:
    c = rat(c)
    return tuple(tuple(c * x for x in row) for row in a)


def dot(u: Vector, v: Vector):
    """sum u_i v_i, with every product scaled to one common denominator: the
    integer numerators are summed and one Rat is built at the end."""
    num, den = 0, 1
    for x, y in zip(u, v):
        if x and y:
            n = int(x.numerator) * int(y.numerator)
            d = int(x.denominator) * int(y.denominator)
            if d == den:
                num += n
            else:
                common = lcm(den, d)
                num = num * (common // den) + n * (common // d)
                den = common
    return Rat(num, den)


def mat_mul(a: Matrix, b: Matrix) -> Matrix:
    n, k = shape(a)
    k2, m = shape(b)
    if k != k2:
        raise ValueError("shape mismatch %sx%s @ %sx%s" % (n, k, k2, m))
    bt = transpose(b)
    return tuple(tuple(dot(row, col) for col in bt) for row in a)


def mat_vec(a: Matrix, v: Vector) -> Vector:
    return tuple(dot(row, v) for row in a)


def is_symmetric(a: Matrix) -> bool:
    n, m = shape(a)
    return n == m and all(a[i][j] == a[j][i] for i in range(n) for j in range(i))


def rref(a: Matrix):
    """Reduced row echelon form.  Returns (rref_matrix, pivot_column_indices)."""
    rows = [list(row) for row in a]
    nrows = len(rows)
    ncols = len(rows[0]) if rows else 0
    pivots = []
    r = 0
    for c in range(ncols):
        pivot = next((i for i in range(r, nrows) if rows[i][c] != 0), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        inv = 1 / rows[r][c]
        rows[r] = [x * inv for x in rows[r]]
        for i in range(nrows):
            if i != r and rows[i][c] != 0:
                f = rows[i][c]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return tuple(tuple(row) for row in rows), tuple(pivots)


def rank(a: Matrix) -> int:
    return len(rref(a)[1])


def solve(a: Matrix, b: Vector) -> Vector:
    """Solve a @ x = b for square nonsingular a."""
    return tuple(row[0] for row in solve_matrix(a, tuple((bi,) for bi in b)))


def solve_matrix(a: Matrix, b: Matrix) -> Matrix:
    """Solve a @ X = b (a square nonsingular) by one elimination on [a | b]."""
    n, m = shape(a)
    if n != m or len(b) != n:
        raise ValueError("solve needs a square system")
    red, pivots = rref(tuple(tuple(ra) + tuple(rb) for ra, rb in zip(a, b)))
    # a is nonsingular exactly when its own columns hold all n pivots
    if pivots[:n] != tuple(range(n)):
        raise ValueError("singular matrix")
    return tuple(row[n:] for row in red)


def inverse(a: Matrix) -> Matrix:
    return solve_matrix(a, identity(len(a)))


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


def pivot_rows(a: Matrix):
    """Indices of a maximal independent set of rows, greedy in input order."""
    return rref(transpose(a))[1]


def span_equal(basis_a, basis_b) -> bool:
    a, b = tuple(basis_a), tuple(basis_b)
    ra, rb = rank(a) if a else 0, rank(b) if b else 0
    return ra == rb == (rank(a + b) if a + b else 0)


def ldl_pd(a: Matrix):
    """LDL^T factorization of a symmetric positive definite matrix.

    Returns (L unit lower triangular, d tuple of positive pivots) with
    a == L @ diag(d) @ L^T exactly.  Raises ValueError if a is not symmetric
    positive definite (a nonpositive pivot is exactly the PD failure:
    positive leading principal minors are equivalent to PD).
    """
    if not is_symmetric(a):
        raise ValueError("matrix is not symmetric")
    n = len(a)
    work = [list(row) for row in a]
    lower = [[Rat(1) if i == j else Rat(0) for j in range(n)] for i in range(n)]
    d = []
    for k in range(n):
        piv = work[k][k]
        if piv <= 0:
            raise ValueError("matrix is not positive definite")
        d.append(piv)
        for i in range(k + 1, n):
            f = work[i][k] / piv
            lower[i][k] = f
            for j in range(k, n):
                work[i][j] -= f * work[k][j]
    return tuple(tuple(row) for row in lower), tuple(d)


def is_positive_definite(a: Matrix) -> bool:
    try:
        ldl_pd(a)
        return True
    except ValueError:
        return False
