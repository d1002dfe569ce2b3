"""Classification of Heisenberg sub-Laplacians by the symplectic spectrum.

The horizontal data of a Heisenberg group is a symplectic form omega and a
positive inner product G on the same even-dimensional space.  The operator
A = G^{-1} omega has purely imaginary spectrum {+-i mu_1, ..., +-i mu_n}; the
invariants r_i = sqrt(mu_i), listed in increasing order, classify the pair up
to linear symplectic-conformal isometry.  The computation reduces A to an
orthonormal gauge, where the problem becomes a symmetric eigenvalue problem
solved in floating point.  The reduction is exact and runs on integers: the
fraction-free elimination of G that the Metric's check made gives
G = L diag(d) L^T, and L^{-1} omega L^{-T} comes from two triangular
products; each float is then one division of integers.  numpy is imported
inside the float functions only, so importing this module (and every exact
command of the CLI) does not load it.
"""

from __future__ import annotations

import math
import sys
from collections import namedtuple
from dataclasses import dataclass, field
from operator import mul

from . import linalg
from .algebra import LieAlgebra, Metric, SubRiemannianGroup, subriemannian_group
from .rational import Rat, rat


class NoIsometry(ValueError):
    """The two pairs have different normalized spectra."""


@dataclass(frozen=True)
class SymplecticForm:
    """An antisymmetric nondegenerate matrix.  rows is its integer form
    (rows, den) of linalg, the one its checks ran on."""

    matrix: tuple
    rows: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        m = linalg.mat(self.matrix)
        object.__setattr__(self, "matrix", m)
        size = len(m)
        if size == 0 or size % 2 != 0:
            raise ValueError("symplectic form needs even positive dimension")
        if any(len(row) != size for row in m):
            raise ValueError("symplectic form must be square")
        rows, den = linalg._to_rows(m)
        if any(rows[i][j] + rows[j][i] for i in range(size) for j in range(i + 1)):
            raise ValueError("symplectic form must be antisymmetric")
        if len(linalg.EchelonBasis(rows)) < size:
            raise ValueError("symplectic form must be nondegenerate")
        object.__setattr__(self, "rows", (tuple(map(tuple, rows)), den))

    @property
    def dim(self) -> int:
        return len(self.matrix)


def standard_symplectic(n: int) -> SymplecticForm:
    """omega(X_i, Y_i) = 1 on the basis (X_1..X_n, Y_1..Y_n)."""
    size = 2 * n
    rows = []
    for i in range(size):
        row = [Rat(0)] * size
        if i < n:
            row[n + i] = Rat(1)
        else:
            row[i - n] = Rat(-1)
        rows.append(tuple(row))
    return SymplecticForm(tuple(rows))


def _coerce_pair(omega, gram):
    """(SymplecticForm, Metric), a raw matrix coerced once, by its constructor."""
    if not isinstance(omega, SymplecticForm):
        omega = SymplecticForm(omega)
    if not isinstance(gram, Metric):
        gram = Metric(gram)
    if omega.dim != len(gram.gram):
        raise ValueError("omega and gram have different sizes")
    return omega, gram


def operator_a(omega, gram) -> tuple:
    """The exact matrix A = G^{-1} omega; satisfies G A = -A^T G."""
    omega, gram = _coerce_pair(omega, gram)
    return linalg.mat_mul(linalg.inverse(gram.gram), omega.matrix)


@dataclass(frozen=True)
class SymplecticSpectrum:
    """Invariants r_1 <= ... <= r_n with +-i r_k^2 the eigenvalues of A."""

    r: tuple
    tolerance: float

    @property
    def n(self) -> int:
        return len(self.r)


# Exact data whose largest magnitude lies within 2^+-_FLOAT_RANGE is converted
# to floats as it is: the skew matrix then stays within 2^+-400 and its
# square within the float range.  Larger or smaller data is first divided by
# a power of four, so no float() overflows or underflows.
_FLOAT_RANGE = 200


def _power_of_four(pairs) -> int:
    """a with the largest magnitude of the nonzero numbers num / den of the
    integer pairs (den > 0), divided by 4^a, in (1/2, 4); 0 when that
    magnitude is already within range.

    The magnitude is read off the bit lengths of the lowest terms.  Common
    factors move the difference of the bit lengths by at most one, so data
    that is within range by a margin of one needs no gcd.
    """
    pairs = [(num, den) for num, den in pairs if num]
    e = max(num.bit_length() - den.bit_length() for num, den in pairs)
    if abs(e) < _FLOAT_RANGE:
        return 0
    e = max((num // g).bit_length() - (den // g).bit_length()
            for num, den in pairs for g in (math.gcd(num, den),))
    return 0 if abs(e) <= _FLOAT_RANGE else e // 2


def _shifted(num: int, den: int, k: int) -> tuple:
    """(num', den') with num' / den' = num 2^k / den exactly."""
    return (num << k, den) if k >= 0 else (num, den << -k)


def _float_shifted(num: int, den: int, k: int) -> float:
    """float(num 2^k / den): exact scaling, one correctly rounded division."""
    num, den = _shifted(num, den, k)
    return num / den


def _reduction(omega, gram) -> tuple:
    """The exact reduction of the pair by the elimination (s, tri) of
    M = s G that the Metric keeps, on integers: (s, p, r, y, den) with

    * p[k] the leading principal minor of order k of M (p[0] = 1), so the
      pivots of G = L diag(d) L^T are d_i = p[i+1] / (p[i] s);
    * r the rows of the integer lower triangular R = diag(p[:-1]) L^{-1},
      row i of length i + 1, so L^{-1} has row r[i] / p[i];
    * y the strict lower triangle of the skew Y = R W R^T, with
      omega = W / den, so mid = L^{-1} omega L^{-T} has
      mid_ij = y[i][j] / (p[i] p[j] den) below the diagonal.

    R is the elimination replayed on the identity: step k takes row i > k
    to (p[k+1] R_i - f_ik R_k) / p[k], exactly, with the multiplier
    f_ik = tri[i][k] the elimination recorded, so row i gains the entry
    -f_ik in column k and its diagonal ends at p[i].  Y is two triangular
    products, R W and then (R W) R^T below the diagonal.
    """
    s, tri = gram.bareiss
    w, den = omega.rows
    size = len(tri)
    p = [1] + [tri[k][k] for k in range(size)]
    r = [[0] * i + [p[i]] for i in range(size)]
    for k in range(size):
        rk, piv, prev = r[k], p[k + 1], p[k]
        for i in range(k + 1, size):
            ri, f = r[i], tri[i][k]
            # R_k vanishes right of column k and R_i between k and i
            for j in range(k):
                ri[j] = (piv * ri[j] - f * rk[j]) // prev
            ri[k] = -f
    cols = tuple(zip(*w))
    # map stops at the shorter operand: the rows of R are triangular
    rw = [[sum(map(mul, ri, col)) for col in cols] for ri in r]
    y = [[sum(map(mul, rwi, r[j])) for j in range(i)] for i, rwi in enumerate(rw)]
    return s, p, r, y, den


def _orthonormal_skew(omega, gram):
    """Float matrix of omega in a G-orthonormal basis, from the exact
    _reduction, with the shift that scales the skew matrix's invariants r_i
    back to the pair's and the factors ((r, p), b, scale) of the change of
    basis, L^{-1} given as its rows r[i] over p[i].

    Each float is one correctly rounded division of integers, rescaled
    exactly by powers of four, so it depends on the rational only, not on
    how it is written: each pivot d_i = 4^b_i d'_i, so
    s_ij = part_ij / sqrt(d'_i d'_j) with part_ij = mid_ij 2^-(b_i + b_j);
    the skew matrix returned is s / 4^a, whose invariants are the pair's
    divided by 2^a, so shift = a.  Data within range is not divided at all.
    Only the lower triangle of mid is converted: s_ji is -part_ij / 4^a
    (the float of -x is -x) times the two scales in its own order, and the
    diagonal is exactly zero.
    """
    import numpy as np

    sg, p, r, y, den = _reduction(omega, gram)
    size = omega.dim
    d = [(p[i + 1], p[i] * sg) for i in range(size)]
    b = [_power_of_four((x,)) for x in d]
    scale = [1.0 / math.sqrt(_float_shifted(*x, -2 * bi)) for x, bi in zip(d, b)]
    # mirrored entries of the skew mid have equal magnitudes
    a = _power_of_four(_shifted(x, p[i] * p[j] * den, -b[i] - b[j])
                       for i, row in enumerate(y) for j, x in enumerate(row))
    s = np.zeros((size, size))
    for i, row in enumerate(y):
        for j, x in enumerate(row):
            if x:
                t = _float_shifted(x, p[i] * p[j] * den, -b[i] - b[j] - 2 * a)
                s[i, j] = t * scale[i] * scale[j]
                s[j, i] = -t * scale[j] * scale[i]
    return s, a, ((r, p), b, scale)


_NormalForm = namedtuple("_NormalForm", "r s w v guard factors")


def _normal_form(omega, gram, tolerance) -> _NormalForm:
    """Reduce the pair once: the invariants r, the orthonormal-gauge skew
    matrix s with the factors ((r, p), b, scale) of its change of basis, the
    increasing eigenvalues w and orthonormal eigenvectors v of s^T s, and the
    guard tolerance * w_max they were checked with.

    SymplecticForm and Metric have decided nondegeneracy and positive
    definiteness exactly; these are the only guards on the float
    eigenvalues.  Relative to w_max, they give a pair and its multiples the
    same kind of verdict, and refuse w_0 < -guard, a pair (w_2k, w_2k+1)
    further apart than the guard, a smallest mu^2 = r^4 below it (so
    r_max / r_min over tolerance^(-1/4)) and an r outside the float range.
    """
    import numpy as np

    omega, gram = _coerce_pair(omega, gram)
    s, shift, factors = _orthonormal_skew(omega, gram)
    w, v = np.linalg.eigh(s.T @ s)
    guard = tolerance * float(w[-1])
    if w[0] < -guard:
        raise ValueError("negative squared eigenvalue; inconsistent input")
    r = []
    for k in range(omega.dim // 2):
        a, b = w[2 * k], w[2 * k + 1]
        if abs(a - b) > guard:
            raise ValueError("eigenvalues do not pair within tolerance")
        mu_sq = (a + b) / 2.0
        if mu_sq <= guard:
            raise ValueError("smallest squared eigenvalue is below the tolerance "
                             "relative to the largest")
        try:
            value = math.ldexp(mu_sq**0.25, shift)
        except OverflowError:
            value = math.inf
        if not 0 < value < math.inf:
            raise ValueError("spectrum lies outside the float range")
        r.append(value)
    return _NormalForm(tuple(r), s, w, v, guard, factors)


def symplectic_spectrum(omega, gram, tolerance: float = 1e-9) -> SymplecticSpectrum:
    """The increasing invariants r_i of the pair (omega, G).  Raises
    ValueError when the float eigenvalues fail the guards of _normal_form."""
    return SymplecticSpectrum(_normal_form(omega, gram, tolerance).r, tolerance)


def _ratio(r1, r2, tolerance):
    """The comparison of isometry_decision on the invariants r1 and r2."""
    if len(r1) != len(r2):
        return None
    rho = r1[0] / r2[0]
    if not 0 < rho < math.inf:
        raise ValueError("conformal ratio lies outside the float range")
    guard = tolerance * max(r1)
    if any(abs(a - rho * b) > guard for a, b in zip(r1, r2)):
        return None
    return rho


def isometry_decision(omega1, gram1, omega2, gram2, tolerance: float = 1e-9):
    """Conformal ratio rho with r1 = rho * r2 (componentwise within the
    tolerance, relative to the largest r1), or None when the normalized
    spectra differ.  Raises ValueError when rho leaves the float range."""
    return _ratio(_normal_form(omega1, gram1, tolerance).r,
                  _normal_form(omega2, gram2, tolerance).r, tolerance)


def _basis_entry(num: int, den: int, k: int) -> float:
    """float(num 2^k / den) for num != 0, or ValueError when it has no
    normal float."""
    try:
        value = _float_shifted(num, den, k)
    except OverflowError:
        value = math.inf
    if not sys.float_info.min <= abs(value) < math.inf:
        raise ValueError("normal-form basis lies outside the float range")
    return value


def _change_of_basis(linv, b, scale):
    """The floats of L^{-T} D^{-1/2}, the change of basis to the orthonormal
    gauge: column j is row j of L^{-1}, the integer row rows[j] over
    dens[j] (zero right of the diagonal), times 2^-b_j scale_j."""
    import numpy as np

    rows, dens = linv
    q = np.zeros((len(rows), len(rows)))
    for j, (row, den) in enumerate(zip(rows, dens)):
        for i, x in enumerate(row):
            if x:
                q[i, j] = _basis_entry(x, den, -b[j]) * scale[j]
    return q


def _normal_form_basis(form: _NormalForm):
    """Basis U with U^T G U = 1 and U^T omega U = [[0, D], [-D, 0]],
    D = diag(r_i^2) increasing, as floats, from the pair's reduction.  Its
    guards leave each (w_2k, w_2k+1) within the guard, so a cluster of equal
    eigenvalues starts only at an even index; every column left to split
    into planes has norm above 1e-6."""
    import numpy as np

    _, s, w, v, guard, factors = form
    size = len(w)
    bounds = [0] + [i for i in range(2, size, 2) if w[i] - w[i - 1] > guard] + [size]
    xs, ys, mus = [], [], []
    for lo, hi in zip(bounds, bounds[1:]):
        mu = math.sqrt(float(np.mean(w[lo:hi])))
        cols = [v[:, i].copy() for i in range(lo, hi)]
        while cols:
            x = cols[0] / np.linalg.norm(cols[0])
            y = (s @ x) / mu
            # invariant plane found: omega(y, x) = mu in the orthonormal gauge
            xs.append(y)
            ys.append(x)
            mus.append(mu)
            cols = [c - (c @ x) * x - (c @ y) * y for c in cols]
            cols = [c for c in cols if np.linalg.norm(c) > 1e-6]
    order = np.argsort(mus, kind="stable")
    wmat = np.column_stack([xs[i] for i in order] + [ys[i] for i in order])
    return _change_of_basis(*factors) @ wmat


def build_isometry(omega1, gram1, omega2, gram2, tolerance: float = 1e-9):
    """Matrix Psi and ratio rho with Psi^T G1 Psi = G2 and
    Psi^T omega1 Psi = rho^2 omega2 (up to the tolerance), mapping the
    second structure to the first.  Raises NoIsometry when the normalized
    spectra differ."""
    import numpy as np

    form1 = _normal_form(omega1, gram1, tolerance)
    form2 = _normal_form(omega2, gram2, tolerance)
    rho = _ratio(form1.r, form2.r, tolerance)
    if rho is None:
        raise NoIsometry("normalized symplectic spectra differ")
    psi = _normal_form_basis(form1) @ np.linalg.inv(_normal_form_basis(form2))
    return psi, rho


# ---------------------------------------------------------------------------
# Heisenberg groups with parameterized metrics


def heisenberg_algebra(n: int) -> LieAlgebra:
    """Basis (X_1..X_n, Y_1..Y_n, Z) with [X_i, Y_i] = Z."""
    if n < 1:
        raise ValueError("n must be positive")
    return LieAlgebra.from_brackets(
        2 * n + 1, {(i, n + i): {2 * n: 1} for i in range(n)})


def heisenberg_group(n: int, rbar) -> SubRiemannianGroup:
    """The Heisenberg group whose metric makes (r_i X_i, r_i Y_i) orthonormal.

    rbar must be a nondecreasing tuple of positive rationals of length n; the
    resulting sub-Laplacian is sum_i r_i^2 (X_i~^2 + Y_i~^2) and its
    symplectic spectrum is rbar itself.
    """
    rbar = tuple(rat(v) for v in rbar)
    if len(rbar) != n or n < 1:
        raise ValueError("rbar must have length n >= 1")
    if any(v <= 0 for v in rbar):
        raise ValueError("rbar entries must be positive")
    if any(rbar[i] > rbar[i + 1] for i in range(n - 1)):
        raise ValueError("rbar must be nondecreasing")
    dim = 2 * n + 1
    alg = heisenberg_algebra(n)
    basis = tuple(tuple(Rat(1) if j == i else Rat(0) for j in range(dim))
                  for i in range(2 * n))
    gram = tuple(
        tuple((1 / rbar[i % n] ** 2) if i == j else Rat(0) for j in range(2 * n))
        for i in range(2 * n)
    )
    return subriemannian_group(alg, basis, gram)


def heisenberg_pair(n: int, rbar):
    """The (omega, G) data of heisenberg_group(n, rbar) on the horizontal
    space: standard omega and the group's own diagonal Metric, checked once
    by the group's constructor."""
    return standard_symplectic(n), heisenberg_group(n, rbar).metric
