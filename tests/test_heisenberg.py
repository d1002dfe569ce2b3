import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import coordinate_sublaplacian, fraction_ldl, madd, rat_orthonormal_gauge
from sublap import heisenberg, linalg
from sublap.algebra import Metric
from sublap.heisenberg import (NoIsometry, SymplecticForm, build_isometry,
                               heisenberg_algebra, heisenberg_group, heisenberg_pair,
                               isometry_decision, operator_a,
                               standard_symplectic, symplectic_spectrum)
from sublap.operators import sublaplacian
from sublap.polynomial import Polynomial
from sublap.rational import Rat


def rmat(rows):
    return tuple(tuple(Rat(x) for x in row) for row in rows)


def to_float(m):
    return np.array([[float(x) for x in row] for row in m])


# ---------------------------------------------------------------------------
# the operator A = G^{-1} omega


def test_symplectic_form_validation():
    with pytest.raises(ValueError, match="antisymmetric"):
        SymplecticForm(rmat([[0, 1], [1, 0]]))
    with pytest.raises(ValueError, match="even"):
        SymplecticForm(rmat([[0, 1, 0], [-1, 0, 0], [0, 0, 0]]))
    with pytest.raises(ValueError, match="nondegenerate"):
        SymplecticForm(rmat([[0, 0, 0, 1], [0, 0, 0, 0],
                             [0, 0, 0, 0], [-1, 0, 0, 0]]))
    with pytest.raises(ValueError, match="sizes"):
        operator_a(standard_symplectic(2), rmat([[1, 0], [0, 1]]))


@pytest.mark.parametrize("rows, message", [
    ([], "needs even positive dimension"),
    ([[0, 1, 0], [-1, 0, 0], [0, 0, 0]], "needs even positive dimension"),
    ([[0, 1, 0, 0], [-1, 0, 0, 0]], "must be square"),
    # one entry off: omega_23 = 1/2 against omega_32 = -1/3
    ([[0, 1, 0, 0], [-1, 0, Rat(1, 2), 0], [0, Rat(-1, 3), 0, 1], [0, 0, -1, 0]],
     "must be antisymmetric"),
    # antisymmetric off the diagonal, but omega_33 = 1/3
    ([[0, 1, 0, 0], [-1, 0, 0, 0], [0, 0, Rat(1, 3), 1], [0, 0, -1, 0]],
     "must be antisymmetric"),
    # Pfaffian 2 * 1 + 4 * (-1/2) = 0
    ([[0, 2, 0, 4], [-2, 0, Rat(-1, 2), 0], [0, Rat(1, 2), 0, 1], [-4, 0, -1, 0]],
     "must be nondegenerate"),
])
def test_symplectic_form_messages(rows, message):
    with pytest.raises(ValueError, match="^symplectic form %s$" % message):
        SymplecticForm(rmat(rows))


def test_operator_a_example():
    a = operator_a(standard_symplectic(1), rmat([[1, 0], [0, 4]]))
    assert a == rmat([[0, 1], [Rat(-1, 4), 0]])


def test_operator_a_on_heisenberg_pairs():
    n = 2
    rbar = (Rat(1), Rat(3))
    omega, gram = heisenberg_pair(n, rbar)
    a = operator_a(omega, gram)
    for i, r in enumerate(rbar):
        ei = tuple(Rat(1) if k == i else Rat(0) for k in range(2 * n))
        fi = tuple(Rat(1) if k == n + i else Rat(0) for k in range(2 * n))
        assert linalg.mat_vec(a, ei) == tuple(-r**2 * x for x in fi)
        assert linalg.mat_vec(a, linalg.mat_vec(a, ei)) == \
            tuple(-r**4 * x for x in ei)


def test_operator_a_skew_symmetry_wrt_gram():
    # G A = -A^T G holds structurally for every admissible pair
    rng = random.Random(31337)
    for _ in range(100):
        size = rng.choice((2, 4, 6))
        while True:
            m = [[Rat(rng.randint(-5, 5)) for _ in range(size)] for _ in range(size)]
            omega = tuple(tuple(m[i][j] - m[j][i] for j in range(size))
                          for i in range(size))
            if linalg.rank(omega) == size:
                break
        a = [[Rat(rng.randint(-3, 3)) for _ in range(size)] for _ in range(size)]
        gram = madd(linalg.mat_mul(linalg.transpose(a), a),
                    linalg.identity(size))
        op = operator_a(omega, gram)
        lhs = linalg.mat_mul(gram, op)
        rhs = linalg.mat_scale(Rat(-1), linalg.mat_mul(linalg.transpose(op), gram))
        assert lhs == rhs


# ---------------------------------------------------------------------------
# spectrum


def test_spectrum_example():
    spec = symplectic_spectrum(standard_symplectic(1), rmat([[1, 0], [0, 4]]))
    assert spec.n == 1
    assert abs(spec.r[0] - 2 ** -0.5) < 1e-12


def test_spectrum_of_heisenberg_pairs():
    for n, rbar in ((1, (3,)), (2, (1, 2)), (3, (1, 1, 5))):
        omega, gram = heisenberg_pair(n, rbar)
        spec = symplectic_spectrum(omega, gram)
        assert spec.n == n
        for got, want in zip(spec.r, rbar):
            assert abs(got - float(want)) < 1e-9


def test_heisenberg_metric_example():
    group = heisenberg_group(2, (1, 2))
    assert group.metric.gram == rmat([
        [1, 0, 0, 0],
        [0, Rat(1, 4), 0, 0],
        [0, 0, 1, 0],
        [0, 0, 0, Rat(1, 4)],
    ])


def test_spectrum_scale_law():
    omega, gram = heisenberg_pair(2, (1, 2))
    scaled = linalg.mat_scale(Rat(9), gram.gram)
    spec = symplectic_spectrum(omega, scaled)
    base = symplectic_spectrum(omega, gram)
    for a, b in zip(spec.r, base.r):
        assert abs(a - b / 3.0) < 1e-9


def test_spectrum_is_conjugation_invariant():
    rng = random.Random(5)
    omega, gram = heisenberg_pair(2, (1, 3))
    while True:
        p = tuple(tuple(Rat(rng.randint(-3, 3)) for _ in range(4)) for _ in range(4))
        if linalg.rank(p) == 4:
            break
    conj_omega = linalg.mat_mul(linalg.mat_mul(linalg.transpose(p), omega.matrix), p)
    conj_gram = linalg.mat_mul(linalg.mat_mul(linalg.transpose(p), gram.gram), p)
    spec = symplectic_spectrum(conj_omega, conj_gram)
    base = symplectic_spectrum(omega, gram)
    for a, b in zip(spec.r, base.r):
        assert abs(a - b) < 1e-8


def test_spectrum_positive_on_random_pairs():
    rng = random.Random(777)
    for _ in range(100):
        size = rng.choice((2, 4))
        while True:
            m = [[Rat(rng.randint(-4, 4)) for _ in range(size)] for _ in range(size)]
            omega = tuple(tuple(m[i][j] - m[j][i] for j in range(size))
                          for i in range(size))
            if linalg.rank(omega) == size:
                break
        a = [[Rat(rng.randint(-2, 2)) for _ in range(size)] for _ in range(size)]
        gram = madd(linalg.mat_mul(linalg.transpose(a), a),
                    linalg.identity(size))
        spec = symplectic_spectrum(omega, gram)
        assert len(spec.r) == size // 2
        assert all(r > 0 for r in spec.r)
        assert all(spec.r[i] <= spec.r[i + 1] + 1e-12 for i in range(spec.n - 1))


# ---------------------------------------------------------------------------
# isometry decision and construction


def test_isometry_decision_examples():
    o1, g1 = heisenberg_pair(2, (1, 2))
    o2, g2 = heisenberg_pair(2, (2, 4))
    rho = isometry_decision(o1, g1, o2, g2)
    assert abs(rho - 0.5) < 1e-9
    assert abs(isometry_decision(o1, g1, o1, g1) - 1.0) < 1e-12
    o3, g3 = heisenberg_pair(2, (1, 1))
    assert isometry_decision(o3, g3, o1, g1) is None
    o4, g4 = heisenberg_pair(1, (1,))
    assert isometry_decision(o4, g4, o1, g1) is None


def _isometry_residuals(psi, rho, o1, g1, o2, g2):
    psi_t = psi.T
    res_g = psi_t @ to_float(g1.gram) @ psi - to_float(g2.gram)
    res_o = psi_t @ to_float(o1.matrix) @ psi - rho**2 * to_float(o2.matrix)
    return np.abs(res_g).max(), np.abs(res_o).max()


def test_build_isometry_identity_case():
    o, g = heisenberg_pair(2, (1, 2))
    psi, rho = build_isometry(o, g, o, g)
    assert abs(rho - 1.0) < 1e-12
    assert np.allclose(psi, np.eye(4), atol=1e-9)


def test_build_isometry_scaled_pair():
    o1, g1 = heisenberg_pair(2, (1, 2))
    o2, g2 = heisenberg_pair(2, (2, 4))
    psi, rho = build_isometry(o1, g1, o2, g2)
    assert abs(rho - 0.5) < 1e-9
    res_g, res_o = _isometry_residuals(psi, rho, o1, g1, o2, g2)
    assert res_g < 1e-8 and res_o < 1e-8


def test_build_isometry_with_multiplicity():
    o1, g1 = heisenberg_pair(2, (1, 1))
    o2, g2 = heisenberg_pair(2, (3, 3))
    psi, rho = build_isometry(o1, g1, o2, g2)
    assert abs(rho - 1.0 / 3.0) < 1e-9
    res_g, res_o = _isometry_residuals(psi, rho, o1, g1, o2, g2)
    assert res_g < 1e-8 and res_o < 1e-8


def test_build_isometry_after_conjugation():
    rng = random.Random(11)
    o1, g1 = heisenberg_pair(2, (1, 2))
    while True:
        p = tuple(tuple(Rat(rng.randint(-3, 3)) for _ in range(4)) for _ in range(4))
        if linalg.rank(p) == 4:
            break
    o2 = SymplecticForm(linalg.mat_mul(linalg.mat_mul(linalg.transpose(p),
                                                      o1.matrix), p))
    g2 = Metric(linalg.mat_mul(linalg.mat_mul(linalg.transpose(p), g1.gram), p))
    psi, rho = build_isometry(o1, g1, o2, g2)
    assert abs(rho - 1.0) < 1e-8
    res_g, res_o = _isometry_residuals(psi, rho, o1, g1, o2, g2)
    assert res_g < 1e-7 and res_o < 1e-7


def test_build_isometry_rejects_different_spectra():
    o1, g1 = heisenberg_pair(2, (1, 1))
    o2, g2 = heisenberg_pair(2, (1, 2))
    with pytest.raises(NoIsometry):
        build_isometry(o1, g1, o2, g2)


# ---------------------------------------------------------------------------
# group constructors and the coordinate operator


def test_heisenberg_group_shape():
    group = heisenberg_group(2, (1, 2))
    assert group.dim == 5 and group.rank == 4 and group.step == 2
    assert tuple(len(s) for s in group.strata) == (4, 1)
    alg = heisenberg_algebra(2)
    x1, y1 = alg.basis_vector(0), alg.basis_vector(2)
    assert alg.bracket(x1, y1) == alg.basis_vector(4)
    assert alg.bracket(alg.basis_vector(0), alg.basis_vector(3)) == \
        (Rat(0),) * 5


def test_heisenberg_group_validation():
    with pytest.raises(ValueError, match="length"):
        heisenberg_group(2, (1,))
    with pytest.raises(ValueError, match="positive"):
        heisenberg_group(1, (0,))
    with pytest.raises(ValueError, match="positive"):
        heisenberg_group(1, (-2,))
    with pytest.raises(ValueError, match="nondecreasing"):
        heisenberg_group(2, (2, 1))
    with pytest.raises(ValueError):
        heisenberg_algebra(0)


def test_coordinate_sublaplacian_matches_frame_construction():
    for n, rbar in ((1, (1,)), (2, (1, 2)), (2, (1, 3))):
        direct = coordinate_sublaplacian(n, rbar)
        framed = sublaplacian(heisenberg_group(n, rbar))
        assert direct == framed


def test_coordinate_sublaplacian_values():
    op = coordinate_sublaplacian(1, (3,))
    assert op.apply(Polynomial.parse("x1^2 + x2^2", 3)) == \
        Polynomial.constant(Rat(36), 3)
    assert op.apply(Polynomial.parse("x3", 3)).is_zero


def test_coordinate_sublaplacian_scaling():
    base = coordinate_sublaplacian(2, (1, 2))
    doubled = coordinate_sublaplacian(2, (2, 4))
    for row_b, row_d in zip(base.second_order, doubled.second_order):
        for b, d in zip(row_b, row_d):
            assert d == b * Rat(4)


def test_spectrum_beyond_the_float_range_is_rescaled_exactly():
    # omega and G scaled by 4^300 are brought back by powers of four before
    # any float is taken, so r moves by exactly 2^300 and 2^-300
    omega, gram = heisenberg_pair(2, (1, 3))
    r = symplectic_spectrum(omega, gram).r
    big = Rat(4) ** 300

    def scaled(m):
        return tuple(tuple(x * big for x in row) for row in m)

    assert symplectic_spectrum(scaled(omega.matrix), gram).r == \
        tuple(math.ldexp(v, 300) for v in r)
    assert symplectic_spectrum(omega, Metric(scaled(gram.gram))).r == \
        tuple(math.ldexp(v, -300) for v in r)
    with pytest.raises(ValueError, match="float range"):
        symplectic_spectrum(scaled(scaled(scaled(scaled(omega.matrix)))), gram)


@pytest.mark.parametrize("k", [50, 101])
def test_isometry_of_rescaled_pairs_satisfies_its_identities(k):
    # within the float window (k = 50) and beyond it (k = 101), Psi maps the
    # second structure to the first up to the tolerance, relative to the data
    omega1, gram = heisenberg_pair(2, (1, 3))
    gram1 = Metric(tuple(tuple(x * Rat(4) ** k for x in row) for row in gram.gram))
    omega2, gram2 = heisenberg_pair(2, (2, 6))
    psi, rho = build_isometry(omega1, gram1, omega2, gram2)
    assert rho == pytest.approx(2.0 ** -(k + 1), rel=1e-9)

    def floats(m):
        return np.array([[float(x) for x in row] for row in m])

    assert np.abs(psi.T @ floats(gram1.gram) @ psi - floats(gram2.gram)).max() < 1e-8
    assert np.abs(psi.T @ floats(omega1.matrix) @ psi / rho ** 2
                  - floats(omega2.matrix)).max() < 1e-8
    omega3, gram3 = heisenberg_pair(2, (1, 5))
    gram3 = Metric(tuple(tuple(x * Rat(4) ** k for x in row) for row in gram3.gram))
    with pytest.raises(NoIsometry):
        build_isometry(omega1, gram1, omega3, gram3)


def test_isometry_ratio_outside_the_float_range_is_an_error():
    omega, gram = heisenberg_pair(1, (1,))
    big = Rat(10) ** 400
    with pytest.raises(ValueError, match="ratio lies outside the float range"):
        isometry_decision(tuple(tuple(x * big for x in row) for row in omega.matrix), gram,
                          tuple(tuple(x / big for x in row) for row in omega.matrix), gram)


def test_each_pair_is_reduced_once(monkeypatch):
    # one exact elimination of G and one eigendecomposition per pair, shared
    # by the Metric's positive-definiteness check, the spectrum, the ratio
    # and the normal-form basis, and no inverse or reduced echelon form at
    # all.  The pairs are raw (omega, gram) tuples, as the CLI and the
    # benchmark hand them over, so the Metric is built, and its elimination
    # counted, inside each call; each raw matrix is coerced once, by the
    # constructor that checks it
    pairs = [heisenberg_pair(2, rbar) for rbar in ((1, 2), (2, 4))]
    (o1, g1), (o2, g2) = [(omega.matrix, gram.gram) for omega, gram in pairs]
    assert not isinstance(g1, Metric) and not isinstance(o1, SymplecticForm)
    calls = []

    def counted(name, original):
        def wrapper(*args, **kwargs):
            calls.append(name)
            return original(*args, **kwargs)
        return wrapper

    def refused(*args, **kwargs):
        raise AssertionError("a Heisenberg pair is reduced without inverting")

    monkeypatch.setattr(linalg, "_bareiss_pd", counted("bareiss", linalg._bareiss_pd))
    monkeypatch.setattr(linalg, "mat", counted("mat", linalg.mat))
    monkeypatch.setattr(linalg, "_inverse_rows", refused)
    monkeypatch.setattr(linalg.EchelonBasis, "reduced", refused)
    for name in ("eig", "eigh", "eigvals", "eigvalsh"):
        monkeypatch.setattr(np.linalg, name, counted("eig", getattr(np.linalg, name)))
    for call, pairs in ((lambda: symplectic_spectrum(o1, g1), 1),
                        (lambda: isometry_decision(o1, g1, o2, g2), 2),
                        (lambda: build_isometry(o1, g1, o2, g2), 2)):
        calls.clear()
        call()
        assert sorted(calls) == ["bareiss"] * pairs + ["eig"] * pairs + ["mat"] * (2 * pairs)


# ---------------------------------------------------------------------------
# the integer reduction against the Rat chain


# binary exponents around the float window 2^+-200 and beyond it, where the
# reduction rescales by powers of four
WINDOW_EXPONENTS = (0, 1, -1, 198, -198, 199, -199, 200, -200, 201, -201, 202, -202,
                    300, -300, 451, -451)
exponents = st.one_of(st.sampled_from(WINDOW_EXPONENTS), st.integers(-520, 520))
small = st.builds(Rat, st.integers(-6, 6), st.integers(1, 5))


@st.composite
def scaled_pairs(draw):
    """(omega, gram) as raw Rat tuples: omega = P^T J P for the standard J and
    a unit upper triangular P, G = A^T A + 1, of size 2, 4 or 6, each times
    its own power of two."""
    n = draw(st.integers(1, 3))
    size = 2 * n
    p = tuple(tuple(Rat(1) if i == j else draw(small) if j > i else Rat(0)
                    for j in range(size)) for i in range(size))
    omega = linalg.mat_mul(linalg.mat_mul(linalg.transpose(p), standard_symplectic(n).matrix), p)
    a = tuple(tuple(draw(small) for _ in range(size)) for _ in range(size))
    gram = madd(linalg.mat_mul(linalg.transpose(a), a), linalg.identity(size))
    fo, fg = Rat(2) ** draw(exponents), Rat(2) ** draw(exponents)
    return (tuple(tuple(x * fo for x in row) for row in omega),
            tuple(tuple(x * fg for x in row) for row in gram))


def assert_reduction_matches_the_rat_chain(omega, gram):
    d, linv, mid, s, a, b, scale, q = rat_orthonormal_gauge(omega, gram)
    form, metric = SymplecticForm(omega), Metric(gram)
    sg, p, r, y, den = heisenberg._reduction(form, metric)
    size = len(omega)
    # exact values, each a Rat of the reduction's integers: d_i, the rows
    # R_i / p_i of L^{-1} and mid_ij below the diagonal, mid being skew
    assert tuple(Rat(p[i + 1], p[i] * sg) for i in range(size)) == d
    assert all(len(row) == i + 1 for i, row in enumerate(r))
    assert tuple(tuple(Rat(row[j], p[i]) if j <= i else Rat(0) for j in range(size))
                 for i, row in enumerate(r)) == linv
    assert all(len(row) == i for i, row in enumerate(y))
    assert all(mid[i][i] == 0 for i in range(size))
    assert all(Rat(x, p[i] * p[j] * den) == mid[i][j] == -mid[j][i]
               for i, row in enumerate(y) for j, x in enumerate(row))
    # R L = diag(p_0, ..., p_{n-1}) exactly, L from plain Fraction elimination
    lower, _ = fraction_ldl(gram)
    assert all(sum(row[k] * lower[k][j] for k in range(j, i + 1)) == (p[i] if i == j else 0)
               for i, row in enumerate(r) for j in range(i + 1))
    got_s, got_a, (got_linv, got_b, got_scale) = heisenberg._orthonormal_skew(form, metric)
    assert got_linv == (r, p)
    assert (got_a, got_b, got_scale) == (a, b, scale)
    assert np.array_equal(got_s, s)
    if q is None:
        with pytest.raises(ValueError, match="float range"):
            heisenberg._change_of_basis(got_linv, got_b, got_scale)
    else:
        assert np.array_equal(heisenberg._change_of_basis(got_linv, got_b, got_scale), q)


@settings(max_examples=80, deadline=None)
@given(scaled_pairs())
def test_integer_reduction_matches_the_rat_chain(pair):
    assert_reduction_matches_the_rat_chain(*pair)


@pytest.mark.parametrize("eo, eg, rescaled", [
    (0, 0, False), (300, 0, True), (0, -300, True), (-451, 451, True), (520, -520, True),
    (201, 199, None), (-202, -200, None)])
def test_rescaled_reduction_matches_the_rat_chain(eo, eg, rescaled):
    # the power-of-four path on a fixed conjugated pair, whatever hypothesis
    # draws; rescaled says whether the data leaves the float window (None:
    # at its edge, either way)
    omega, gram = heisenberg_pair(2, (1, 3))
    p = rmat([[1, 2, 0, -1], [0, 1, 3, 0], [1, 0, 1, 2], [0, -1, 0, 1]])
    fo, fg = Rat(2) ** eo, Rat(2) ** eg
    omega = linalg.mat_scale(fo, linalg.mat_mul(linalg.mat_mul(linalg.transpose(p),
                                                               omega.matrix), p))
    gram = linalg.mat_scale(fg, linalg.mat_mul(linalg.mat_mul(linalg.transpose(p),
                                                              gram.gram), p))
    _, a, (_, b, _) = heisenberg._orthonormal_skew(SymplecticForm(omega), Metric(gram))
    assert rescaled is None or (a != 0 or any(b)) == rescaled
    assert_reduction_matches_the_rat_chain(omega, gram)
