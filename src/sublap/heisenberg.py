"""Classification of Heisenberg sub-Laplacians by the symplectic spectrum.

The horizontal data of a Heisenberg group is a symplectic form omega and a
positive inner product G on the same even-dimensional space.  The operator
A = G^{-1} omega has purely imaginary spectrum {+-i mu_1, ..., +-i mu_n}; the
invariants r_i = sqrt(mu_i), listed in increasing order, classify the pair up
to linear symplectic-conformal isometry.  The computation reduces A to an
orthonormal gauge (exact LDL^T of G), where the problem becomes a symmetric
eigenvalue problem solved in floating point.  numpy is imported inside the
float functions only, so importing this module (and every exact command of
the CLI) does not load it.
"""

from __future__ import annotations

import math
import sys
from collections import namedtuple
from dataclasses import dataclass

from . import linalg
from .algebra import LieAlgebra, Metric, SubRiemannianGroup, subriemannian_group
from .rational import Rat, rat


class NoIsometry(ValueError):
    """The two pairs have different normalized spectra."""


@dataclass(frozen=True)
class SymplecticForm:
    matrix: tuple

    def __post_init__(self):
        m = linalg.mat(self.matrix)
        object.__setattr__(self, "matrix", m)
        size = len(m)
        if size == 0 or size % 2 != 0:
            raise ValueError("symplectic form needs even positive dimension")
        if any(len(row) != size for row in m):
            raise ValueError("symplectic form must be square")
        for i in range(size):
            for j in range(size):
                if m[i][j] != -m[j][i]:
                    raise ValueError("symplectic form must be antisymmetric")
        if linalg.rank(m) != size:
            raise ValueError("symplectic form must be nondegenerate")

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
    if not isinstance(omega, SymplecticForm):
        omega = SymplecticForm(omega)
    if not isinstance(gram, Metric):
        gram = Metric(linalg.mat(gram))
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


def _power_of_four(values) -> int:
    """a with the largest magnitude of the nonzero Rats values, divided by
    4^a, in (1/2, 4); 0 when that magnitude is already within range."""
    e = max(int(x.numerator).bit_length() - int(x.denominator).bit_length()
            for x in values if x)
    return 0 if abs(e) <= _FLOAT_RANGE else e // 2


def _float_over(x, a: int) -> float:
    """float(x / 4^a), the division exact."""
    return float(x / Rat(4) ** a) if a else float(x)


def _orthonormal_skew(omega, gram):
    """Float matrix of omega in a G-orthonormal basis, via exact LDL^T, with
    the shift that scales the skew matrix's invariants r_i back to the
    pair's and the factors (L^{-1}, b, scale) of the change of basis.

    The floats come from copies rescaled exactly by powers of four: each
    pivot d_i = 4^b_i d'_i, so s_ij = part_ij / sqrt(d'_i d'_j) with
    part_ij = mid_ij 2^-(b_i + b_j) and mid = L^{-1} omega L^{-T}; the skew
    matrix returned is s / 4^a, whose invariants are the pair's divided by
    2^a, so shift = a.  Data within range is not divided at all.  Column j
    of the change of basis L^{-T} D^{-1/2} is column j of L^{-T} times
    2^-b_j scale_j, with scale_j = 1/sqrt(d'_j).
    """
    import numpy as np

    l, d = linalg.ldl_pd(gram.gram)
    linv = linalg.inverse(l)
    mid = linalg.mat_mul(linalg.mat_mul(linv, omega.matrix), linalg.transpose(linv))
    size = omega.dim
    b = [_power_of_four((x,)) for x in d]
    scale = [1.0 / math.sqrt(_float_over(x, bi)) for x, bi in zip(d, b)]
    part = mid if not any(b) else [[x / Rat(2) ** (b[i] + b[j]) for j, x in enumerate(row)]
                                   for i, row in enumerate(mid)]
    a = _power_of_four(x for row in part for x in row)
    s = np.empty((size, size))
    for i in range(size):
        for j in range(size):
            s[i, j] = _float_over(part[i][j], a) * scale[i] * scale[j]
    return s, a, (linv, b, scale)


_NormalForm = namedtuple("_NormalForm", "r s w v guard factors")


def _normal_form(omega, gram, tolerance) -> _NormalForm:
    """Reduce the pair once: the invariants r, the orthonormal-gauge skew
    matrix s with the factors (L^{-1}, b, scale) of its change of basis, the
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


def _basis_entry(x) -> float:
    """float(x), or ValueError when a nonzero x has no normal float."""
    try:
        value = float(x)
    except OverflowError:
        value = math.inf
    if x and not sys.float_info.min <= abs(value) < math.inf:
        raise ValueError("normal-form basis lies outside the float range")
    return value


def _normal_form_basis(form: _NormalForm):
    """Basis U with U^T G U = 1 and U^T omega U = [[0, D], [-D, 0]],
    D = diag(r_i^2) increasing, as floats, from the pair's reduction.  Its
    guards leave each (w_2k, w_2k+1) within the guard, so a cluster of equal
    eigenvalues starts only at an even index; every column left to split
    into planes has norm above 1e-6."""
    import numpy as np

    _, s, w, v, guard, (linv, b, scale) = form
    size = len(w)
    q = np.empty((size, size))
    for i, row in enumerate(linalg.transpose(linv)):
        for j, x in enumerate(row):
            q[i, j] = _basis_entry(x / Rat(2) ** b[j] if b[j] else x) * scale[j]
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
    return q @ wmat


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
    space: standard omega and the diagonal metric."""
    group = heisenberg_group(n, rbar)
    return standard_symplectic(n), Metric(group.metric.gram)
