import random
from functools import lru_cache
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import analyzer_rejections, gallery_maps, random_rational, seeded_homomorphisms
from oracles import (madd, poly_analyze_commutation, poly_gradient_fields,
                     poly_horizontal_differential, poly_lie_differential, poly_pushforward_first,
                     poly_pushforward_second, probe_residuals, scalar_orthogonal_witness,
                     span_equal, trace_drift)
from sublap import linalg
from sublap.calculus import (NotNilpotent, dilation, horizontal_differential, left_translation,
                             lie_differential)
from sublap.catalog import abelian_group, engel_group, sl2_algebra
from sublap.algebra import LieAlgebra, subriemannian_group
from sublap.heisenberg import heisenberg_group
import sublap.calculus
import sublap.conformal
from sublap.conformal import (PROBE_BUDGET, CommutationReport, FrameDecision,
                              NotConformal, ProbeBudgetExceeded,
                              analyze_commutation, b_vector,
                              commutation_residuals, frames_equivalent,
                              homothetic_characterizations,
                              is_homothetic_projection)
from sublap.operators import _polarization_residuals, _pullback_tables, cometric, gradient, \
    pullback_operator, sublaplacian
from sublap.polynomial import Polynomial, PolyMap, _from_prows, _to_prows, linear_combination, \
    monomials_up_to
from sublap.rational import Rat

EYE = linalg.identity


def rmat(rows):
    return tuple(tuple(Rat(x) for x in row) for row in rows)


# ---------------------------------------------------------------------------
# homothetic projections


def test_projection_is_homothety():
    l = rmat([[1, 0, 0], [0, 1, 0]])
    assert is_homothetic_projection(l, EYE(3), EYE(2)) == 1


def test_scaled_projection():
    l = rmat([[2, 0, 0], [0, 2, 0]])
    assert is_homothetic_projection(l, EYE(3), EYE(2)) == 4


def test_unequal_scaling_is_not_homothety():
    l = rmat([[1, 0], [0, 2]])
    assert is_homothetic_projection(l, EYE(2), EYE(2)) is None


def test_homothety_depends_on_the_grams():
    # diag(1, 2) becomes a homothety once the target metric reweighs axis 2
    l = rmat([[1, 0], [0, 2]])
    gw = rmat([[1, 0], [0, Rat(1, 4)]])
    assert is_homothetic_projection(l, EYE(2), gw) == 1


def test_rank_deficient_map_is_rejected():
    l = rmat([[1, 1], [1, 1]])
    assert is_homothetic_projection(l, EYE(2), EYE(2)) is None
    chars = homothetic_characterizations(l, EYE(2), EYE(2))
    assert set(chars) == {"cometric_identity", "dual_cometric",
                          "adjoint_embedding", "kernel_projection",
                          "restricted_isometry"}
    assert all(v is None for v in chars.values())


def test_gram_validation():
    l = rmat([[1, 0], [0, 1]])
    with pytest.raises(ValueError, match="positive definite"):
        is_homothetic_projection(l, rmat([[1, 2], [2, 1]]), EYE(2))
    with pytest.raises(ValueError, match="2 x 2"):
        is_homothetic_projection(l, EYE(3), EYE(2))


def _random_pd(rng, n):
    a = tuple(tuple(random_rational(rng, 3, 3) for _ in range(n)) for _ in range(n))
    return madd(linalg.mat_mul(linalg.transpose(a), a), EYE(n))


def test_characterizations_agree_on_random_inputs():
    rng = random.Random(4242)
    shapes = [(1, 2), (2, 2), (2, 3), (3, 4)]
    seen_positive = 0
    for trial in range(40):
        m, n = shapes[trial % len(shapes)]
        l = tuple(tuple(random_rational(rng, 3, 2) for _ in range(n)) for _ in range(m))
        gv = _random_pd(rng, n)
        gw = _random_pd(rng, m)
        expected = is_homothetic_projection(l, gv, gw)
        chars = homothetic_characterizations(l, gv, gw)
        assert all(v == expected for v in chars.values()), (l, gv, gw, chars)
        if expected is not None:
            seen_positive += 1
            # a nonzero map to a line is always a homothety off its kernel;
            # for m >= 2 random inputs are essentially never homothetic
            assert m == 1
    assert seen_positive == 10


def test_characterizations_agree_on_engineered_homotheties():
    rng = random.Random(99)
    for m, n in [(1, 3), (2, 3), (2, 4), (3, 5)]:
        for _ in range(5):
            while True:
                l = tuple(tuple(random_rational(rng, 3, 2) for _ in range(n))
                          for _ in range(m))
                if linalg.rank(l) == m:
                    break
            gv = _random_pd(rng, n)
            lam_sq = Rat(rng.randint(1, 16), rng.randint(1, 16))
            middle = linalg.mat_mul(linalg.mat_mul(l, linalg.inverse(gv)),
                                    linalg.transpose(l))
            gw = linalg.inverse(linalg.mat_scale(1 / lam_sq, middle))
            assert is_homothetic_projection(l, gv, gw) == lam_sq
            chars = homothetic_characterizations(l, gv, gw)
            assert all(v == lam_sq for v in chars.values())


# ---------------------------------------------------------------------------
# frame equivalence


def test_identical_frames():
    fx = rmat([[1, 0, 0], [0, 1, 0]])
    decision = frames_equivalent(fx, fx)
    assert decision.equivalent
    assert decision.witness == EYE(2)


def test_rotated_frame_is_equivalent():
    fx = rmat([[1, 0, 0], [0, 1, 0]])
    a = rmat([[Rat(3, 5), Rat(4, 5)], [Rat(-4, 5), Rat(3, 5)]])
    fy = linalg.mat_mul(a, fx)
    decision = frames_equivalent(fx, fy)
    assert decision.equivalent
    assert decision.witness == a


def test_stretched_frame_is_not_equivalent():
    fx = rmat([[1, 0], [0, 1]])
    fy = rmat([[1, 0], [0, 2]])
    decision = frames_equivalent(fx, fy)
    assert not decision.equivalent
    assert decision.witness is None


def test_scaled_heisenberg_frames_differ():
    # orthonormal frames of g_(1,1) and g_(1,2) on the same coordinates
    fx = EYE(4)
    fy = rmat([[1, 0, 0, 0], [0, 2, 0, 0], [0, 0, 1, 0], [0, 0, 0, 2]])
    assert not frames_equivalent(fx, fy).equivalent


def test_redundant_frame_witness():
    fx = rmat([[1, 0], [0, 1], [1, 1]])
    a = linalg.mat_scale(Rat(1, 3), rmat([[2, -2, 1], [1, 2, 2], [2, 1, -2]]))
    assert linalg.mat_mul(linalg.transpose(a), a) == EYE(3)
    fy = linalg.mat_mul(a, fx)
    decision = frames_equivalent(fx, fy)
    assert decision.equivalent
    w = decision.witness
    assert linalg.mat_mul(w, fx) == fy
    assert linalg.mat_mul(linalg.transpose(w), w) == EYE(3)


def test_frame_errors():
    # frames of one size in one space are decided, whatever they span
    assert frames_equivalent(rmat([[1, 0]]), rmat([[0, 1]])) == FrameDecision(False, None)
    with pytest.raises(ValueError, match="sizes"):
        frames_equivalent(rmat([[1, 0], [0, 1]]), rmat([[1, 0], [0, 1], [1, 1]]))
    with pytest.raises(ValueError, match="ambient"):
        frames_equivalent(rmat([[1, 0]]), rmat([[1, 0, 0]]))


def test_frame_equivalence_is_symmetric():
    fx = rmat([[2, 1], [1, 2], [0, 1]])
    a = linalg.mat_scale(Rat(1, 3), rmat([[2, -2, 1], [1, 2, 2], [2, 1, -2]]))
    fy = linalg.mat_mul(a, fx)
    assert frames_equivalent(fx, fy).equivalent
    assert frames_equivalent(fy, fx).equivalent
    fz = rmat([[2, 1], [1, 2], [1, 1]])
    assert not frames_equivalent(fx, fz).equivalent
    assert not frames_equivalent(fz, fx).equivalent


@st.composite
def rotated_frames(draw):
    """(fx, A fx): a random n x n rational frame, n in 2..8, and A a product
    of one to three rational reflections 1 - 2 u u^T / (u^T u)."""
    n = draw(st.integers(2, 8))
    entries = st.one_of(st.just(Rat(0)), st.builds(Rat, st.integers(-9, 9), st.integers(1, 6)))
    fx = tuple(tuple(draw(entries) for _ in range(n)) for _ in range(n))
    a = EYE(n)
    for _ in range(draw(st.integers(1, 3))):
        u = draw(st.lists(st.integers(-3, 3), min_size=n, max_size=n)
                 .filter(lambda u: any(u)))
        uu = sum(x * x for x in u)
        reflection = tuple(tuple(Rat(int(i == j)) - Rat(2 * u[i] * u[j], uu)
                                 for j in range(n)) for i in range(n))
        a = linalg.mat_mul(reflection, a)
    return fx, linalg.mat_mul(a, fx)


@settings(max_examples=60, deadline=None)
@given(rotated_frames())
def test_orthogonal_witness_matches_scalar_update(frames):
    fx, fy = frames
    rows = linalg._to_rows(fx), linalg._to_rows(fy)
    assert sublap.conformal._orthogonal_witness(*rows) == scalar_orthogonal_witness(fx, fy)


@st.composite
def frame_pairs(draw):
    """Two n x d rational frames, n and d in 1..4, with entries from a small
    set so that equal spans occur; half the time the second is a signed
    permutation of the first, which has the same cometric."""
    n, d = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    entries = st.sampled_from((Rat(0), Rat(0), Rat(1), Rat(-1), Rat(1, 2), Rat(2)))
    fx = tuple(tuple(draw(entries) for _ in range(d)) for _ in range(n))
    if draw(st.booleans()):
        order = draw(st.permutations(range(n)))
        signs = draw(st.lists(st.sampled_from((1, -1)), min_size=n, max_size=n))
        return fx, tuple(tuple(s * x for x in fx[i]) for i, s in zip(order, signs))
    return fx, tuple(tuple(draw(entries) for _ in range(d)) for _ in range(n))


@settings(max_examples=100, deadline=None)
@given(frame_pairs())
def test_frames_are_decided_on_their_cometrics(frames):
    # the verdict is the equality X^T X = Y^T Y, with a witness exactly when
    # it holds; equal cometrics have equal ranges, the row spaces of X and
    # Y, so frames of different spans are never equivalent
    fx, fy = frames
    decision = frames_equivalent(fx, fy)
    x, y = linalg.transpose(fx), linalg.transpose(fy)
    assert decision.equivalent == (linalg.mat_mul(x, fx) == linalg.mat_mul(y, fy))
    assert (decision.witness is not None) == decision.equivalent
    if not span_equal(fx, fy):
        assert not decision.equivalent


# ---------------------------------------------------------------------------
# commutation analysis


def horizontal_projection():
    # H^1 -> R^2 onto the horizontal coordinates
    return PolyMap.parse(["x1", "x2"], 3)


def test_horizontal_projection_commutes(h1, r2):
    report = analyze_commutation(horizontal_projection(), h1, r2)
    assert report.contact and report.conformal
    assert report.lambda_sq == Polynomial.constant(Rat(1), 3)
    assert all(c.is_zero for c in report.b)
    assert report.residuals == () and report.reason == ""


def test_forgetting_a_horizontal_pair_is_not_contact(h1, h2):
    # dropping (x2, y2): H^2 -> H^1 on coordinates is not even contact,
    # since moving along the forgotten pair still displaces the center
    report = analyze_commutation(PolyMap.parse(["x1", "x3", "x5"], 5), h2, h1)
    assert not report.contact
    assert report.reason == "differential leaves the polarization"


def test_dilation_commutes(h1):
    report = analyze_commutation(dilation(h1, 2), h1, h1)
    assert report.conformal
    assert report.lambda_sq == Polynomial.constant(Rat(4), 3)
    assert all(c.is_zero for c in report.b)


def test_left_translation_commutes(engel):
    la = left_translation(engel, (Rat(1), Rat(-1), Rat(1, 2), Rat(2)))
    report = analyze_commutation(la, engel, engel)
    assert report.conformal
    assert report.lambda_sq == Polynomial.constant(Rat(1), 4)
    assert all(c.is_zero for c in report.b)


def test_vertical_projection_has_polynomial_factor(h1):
    # projecting to the center: lambda^2 = (x1^2 + x2^2)/4, a genuine
    # non-constant conformal factor
    r1 = abelian_group(1)
    report = analyze_commutation(PolyMap.parse(["x3"], 3), h1, r1)
    assert report.contact and report.conformal
    assert report.lambda_sq == Polynomial.parse("1/4*x1^2 + 1/4*x2^2", 3)
    assert all(c.is_zero for c in report.b)


def test_cubed_coordinate_fails_conformality(h1):
    r3 = abelian_group(3)
    report = analyze_commutation(PolyMap.parse(["x1", "x2^3", "x3"], 3), h1, r3)
    assert report.contact
    assert not report.conformal
    assert report.reason == "cometric image is not a multiple of the target cometric"
    assert Polynomial.parse("9*x2^4 - 1", 3) in report.residuals


def test_axis_squash_fails(r2):
    report = analyze_commutation(PolyMap.parse(["x1", "2*x2"], 2), r2, r2)
    assert report.contact and not report.conformal
    assert report.residuals == (Polynomial.constant(Rat(3), 2),)


def test_vertical_shear_breaks_contact(h1):
    report = analyze_commutation(PolyMap.parse(["x1", "x2", "x3 + x1"], 3), h1, h1)
    assert not report.contact and not report.conformal
    assert report.reason == "differential leaves the polarization"
    assert report.residuals


def test_constant_map_has_zero_factor(r2):
    report = analyze_commutation(PolyMap.parse(["1", "2"], 2), r2, r2)
    assert report.contact and not report.conformal
    assert report.reason == "conformal factor is not positive"


def test_analyze_argument_checks(h1, r2):
    with pytest.raises(ValueError, match="probe_degree"):
        analyze_commutation(PolyMap.identity(3), h1, h1, probe_degree=1)
    with pytest.raises(ValueError, match="shape"):
        analyze_commutation(PolyMap.identity(3), h1, r2)
    sl2 = sl2_algebra()
    bad = subriemannian_group(
        sl2, (sl2.basis_vector(0), sl2.basis_vector(1)),
        ((Rat(1), Rat(0)), (Rat(0), Rat(1))))
    with pytest.raises(NotNilpotent):
        analyze_commutation(PolyMap.identity(3), bad, bad)


def test_complex_square_is_conformal(h1, r2):
    f = PolyMap.parse(["x1^2 - x2^2", "2*x1*x2"], 3)
    report = analyze_commutation(f, h1, r2)
    assert report.conformal
    assert report.lambda_sq == Polynomial.parse("4*x1^2 + 4*x2^2", 3)
    assert all(c.is_zero for c in report.b)


def test_radial_square_has_drift(r2):
    r1 = abelian_group(1)
    f = PolyMap.parse(["x1^2 + x2^2"], 2)
    report = analyze_commutation(f, r2, r1)
    assert report.conformal
    assert report.lambda_sq == Polynomial.parse("4*x1^2 + 4*x2^2", 2)
    assert report.b == (Polynomial.constant(Rat(4), 2),)


# ---------------------------------------------------------------------------
# residual machinery and the drift vector


def test_residuals_flag_wrong_factor(h1, r2):
    f = horizontal_projection()
    zero_b = (Polynomial.zero(3), Polynomial.zero(3))
    assert commutation_residuals(f, 1, zero_b, h1, r2, 3) == ()
    bad = commutation_residuals(f, 2, zero_b, h1, r2, 3)
    assert bad
    probes, residuals = zip(*bad)
    assert all(r for r in residuals)


def test_residuals_flag_wrong_drift(h1, r2):
    f = horizontal_projection()
    b = (Polynomial.constant(Rat(1), 3), Polynomial.zero(3))
    bad = commutation_residuals(f, 1, b, h1, r2, 3)
    assert bad


def test_residuals_reject_nonhorizontal_drift(h1):
    f = PolyMap.identity(3)
    vertical = (Polynomial.zero(3), Polynomial.zero(3), Polynomial.constant(Rat(1), 3))
    with pytest.raises(ValueError, match="polarization"):
        commutation_residuals(f, 1, vertical, h1, h1, 3)
    with pytest.raises(ValueError, match="probe_degree"):
        commutation_residuals(f, 1, (Polynomial.zero(3),) * 3, h1, h1, 1)
    # lambda_sq and b live on the source; other variable counts are refused
    with pytest.raises(ValueError, match="3 source variables"):
        commutation_residuals(f, Polynomial.constant(1, 2), (Polynomial.zero(3),) * 3, h1, h1, 3)
    with pytest.raises(ValueError, match="3 source variables"):
        commutation_residuals(f, 1, (Polynomial.zero(4),) * 3, h1, h1, 3)


def test_probe_budget(h1, r2):
    f = horizontal_projection()
    zero2, zero3 = (Polynomial.zero(3),) * 2, (Polynomial.zero(3),) * 3
    # a holding identity runs no probe, so no degree is over the budget
    assert commutation_residuals(f, 1, zero2, h1, r2, 500) == ()
    assert commutation_residuals(dilation(h1, 2), 4, zero3, h1, h1, 60) == ()
    degree = next(k for k in range(2, 200) if comb(3 + k, k) > PROBE_BUDGET)
    with pytest.raises(ProbeBudgetExceeded) as info:
        commutation_residuals(dilation(h1, 2), 5, zero3, h1, h1, degree)
    assert (info.value.probe_degree, info.value.probes, info.value.budget) == \
        (degree, comb(3 + degree, degree), PROBE_BUDGET)
    assert isinstance(info.value, ValueError)
    # the failing identity carries the witnesses of the highest degree that
    # fits the budget, and the count of the probes above it
    assert info.value.witnesses == \
        commutation_residuals(dilation(h1, 2), 5, zero3, h1, h1, degree - 1)
    assert info.value.unlisted == comb(3 + degree, degree) - comb(2 + degree, degree - 1)
    # a target with more than PROBE_BUDGET probes of degree <= 2 lists none
    big = abelian_group(44)
    with pytest.raises(ProbeBudgetExceeded) as info:
        commutation_residuals(PolyMap.identity(44), 2, (0,) * 44, big, big, 2)
    assert (info.value.witnesses, info.value.unlisted) == ((), comb(46, 2))


def test_probe_counter_binding(h1, r2, engel, monkeypatch):
    # bench/tracer.py counts the conformal.probes metric by wrapping the
    # sublap.conformal.monomials_up_to binding; witness listing must draw its
    # probes through that binding, or the metric silently reads 0
    drawn = []

    def counting(nvars, degree):
        probes = monomials_up_to(nvars, degree)
        drawn.append(len(probes))
        return probes

    monkeypatch.setattr(sublap.conformal, "monomials_up_to", counting)
    f = horizontal_projection()
    zero2 = (Polynomial.zero(3),) * 2
    assert commutation_residuals(f, 1, zero2, h1, r2, 4) == ()
    assert drawn == []
    assert commutation_residuals(f, 2, zero2, h1, r2, 4)
    assert drawn == [comb(2 + 4, 4)]
    zero4 = (Polynomial.zero(4),) * 4
    assert commutation_residuals(dilation(engel, 2), 4, zero4, engel, engel, 3) == ()
    assert commutation_residuals(dilation(engel, 2), 5, zero4, engel, engel, 3)
    assert drawn == [comb(2 + 4, 4), comb(4 + 3, 3)]


def test_holding_identity_builds_no_coordinate_table(h1, r2, engel, monkeypatch):
    # a stated identity is decided on the frame stages, a constant map with
    # lambda_sq = 0 too; the coordinate tables are built only to list the
    # witnesses of a failing one
    def refuse(*args):
        raise AssertionError("coordinate table built")

    monkeypatch.setattr(sublap.conformal, "_compose_rows", refuse)
    monkeypatch.setattr(sublap.conformal, "_chain_rule_tables", refuse)
    la = left_translation(engel, (Rat(1), Rat(-1), Rat(1, 2), Rat(2)))
    radial = PolyMap.parse(["x1^2 + x2^2"], 2)
    for F, lam_sq, b, source, target in (
            (dilation(h1, 2), 4, (0, 0, 0), h1, h1),
            (horizontal_projection(), 1, (0, 0), h1, r2),
            (la, 1, (0, 0, 0, 0), engel, engel),
            (radial, Polynomial.parse("4*x1^2 + 4*x2^2", 2), (Polynomial.constant(4, 2),),
             r2, abelian_group(1)),
            (PolyMap.parse(["1", "2"], 2), 0, (0, 0), r2, r2)):
        assert commutation_residuals(F, lam_sq, b, source, target, 3) == ()
    with pytest.raises(AssertionError, match="coordinate table"):
        commutation_residuals(dilation(h1, 2), 5, (0, 0, 0), h1, h1, 3)


def test_each_call_reads_the_map_once(h1, r2, engel, monkeypatch):
    # analyze_commutation and commutation_residuals, holding or failing, on
    # the integer and the polynomial stages alike: one shape check and one
    # conversion of F's components, wherever the package binds them
    calls = []

    def counted(name, original, counts=lambda *args: True):
        def wrapper(*args):
            if counts(*args):
                calls.append(name)
            return original(*args)
        return wrapper

    for module in (sublap.calculus, sublap.conformal, sublap.operators):
        if hasattr(module, "_check_map"):
            monkeypatch.setattr(module, "_check_map",
                                counted("check", sublap.calculus._check_map))
        if hasattr(module, "_to_prows"):
            monkeypatch.setattr(module, "_to_prows",
                                counted("convert", _to_prows, lambda a: a == (F.components,)))
    la = left_translation(engel, (Rat(1), Rat(-1), Rat(1, 2), Rat(2)))
    radial = PolyMap.parse(["x1^2 + x2^2"], 2)
    four = Polynomial.parse("4*x1^2 + 4*x2^2", 2)
    for F, lam_sq, b, source, target in (
            (dilation(h1, 2), 4, (0, 0, 0), h1, h1),
            (dilation(h1, 2), 5, (0, 0, 0), h1, h1),
            (la, 1, (0, 0, 0, 0), engel, engel),
            (la, 2, (0, 0, 0, 0), engel, engel),
            (radial, four, (Polynomial.constant(4, 2),), r2, abelian_group(1)),
            (radial, four, (Polynomial.constant(5, 2),), r2, abelian_group(1)),
            (PolyMap.parse(["x1", "2*x2"], 2), 1, (0, 0), r2, r2),
            (PolyMap.parse(["x1^3", "x2"], 2), 1, (0, 0), r2, r2)):
        calls.clear()
        analyze_commutation(F, source, target)
        assert calls == ["check", "convert"], F
        calls.clear()
        commutation_residuals(F, lam_sq, b, source, target, 3)
        assert calls == ["check", "convert"], F


# ---------------------------------------------------------------------------
# the table decision against the direct probe oracle


def _forced_identity(F, source, target):
    """The only (lambda_sq, b) the commutation identity can hold with: the
    second-order table forces lambda_sq = second / Q_H at any nonzero entry of
    Q_H, and the first-order table forces b = first."""
    pulled = pullback_operator(F, source, target)
    qh = cometric(target).matrix
    c, d = next((c, d) for c, row in enumerate(qh) for d, q in enumerate(row) if q)
    lam_sq = pulled.second[c][d] * (1 / qh[c][d])
    return lam_sq, pulled.first


def test_analysis_agrees_with_degree_4_probes():
    cases = gallery_maps() + analyzer_rejections()
    assert len(cases) == 32
    verdicts = []
    for F, source, target in cases:
        report = analyze_commutation(F, source, target)
        lam_sq, b = _forced_identity(F, source, target)
        try:
            commutes = not probe_residuals(F, lam_sq, b, source, target, 4)
        except ValueError:  # the forced drift leaves the polarization
            commutes = False
        assert report.conformal == commutes, F
        if report.conformal:
            assert (report.lambda_sq, report.b) == (lam_sq, b)
        verdicts.append(report.conformal)
    assert verdicts.count(True) == 8


def test_drift_is_horizontal_once_contact_holds():
    # b_c = sum_jk g^{jk} v_k~((DF B_G)_cj): contact puts DF B_G, and so every
    # derivative of it, in span B_H, which is why analyze_commutation checks
    # no horizontality of b
    for F, source, target in gallery_maps() + analyzer_rejections():
        report = analyze_commutation(F, source, target)
        if report.conformal:
            assert _polarization_residuals(_to_prows((report.b,)), target, source.dim) == (), F
        if report.contact:
            drift = pullback_operator(F, source, target).first
            assert _polarization_residuals(_to_prows((drift,)), target, source.dim) == (), F


def test_pullback_first_order_matches_trace_oracle():
    # conformal or not, the first-order table is the cometric trace of D2F
    for F, source, target in gallery_maps() + analyzer_rejections():
        assert pullback_operator(F, source, target).first == \
            trace_drift(F, source, target), F


def test_residuals_match_probe_oracle(h1, h2, engel):
    r1, r2, r4 = abelian_group(1), abelian_group(2), abelian_group(4)
    x1, x2 = Polynomial.variable(0, 2), Polynomial.variable(1, 2)

    def const(value, n):
        return Polynomial.constant(Rat(value), n)

    def zero_b(n, m):
        return (Polynomial.zero(n),) * m

    radial = PolyMap.parse(["x1^2 + x2^2"], 2)
    radial_lam = (x1 * x1 + x2 * x2) * 4
    square = PolyMap.parse(["x1^2 - x2^2", "2*x1*x2"], 3)
    square_lam = Polynomial.parse("4*x1^2 + 4*x2^2", 3)
    _, _, _, fil5, fil5b = _pipeline_groups()
    engel_shift = left_translation(engel, (1, -1, Rat(1, 2), 2))
    fil_shift = left_translation(fil5, (Rat(1, 2), -1, 1, 2, Rat(-1, 3)))
    fil_skew_shift = left_translation(fil5b, (1, 1, -1, Rat(1, 2), 3))
    # (map, source, target, lambda_sq, b, holds, probe degree)
    cases = [
        (dilation(h1, 2), h1, h1, const(4, 3), zero_b(3, 3), True, 4),
        (dilation(h1, 2), h1, h1, const(Rat(29, 7), 3), zero_b(3, 3), False, 4),
        (dilation(h1, 2), h1, h1, const(4, 3) + Polynomial.variable(0, 3),
         zero_b(3, 3), False, 4),
        (dilation(h1, 2), h1, h1, const(4, 3),
         (const(1, 3), Polynomial.zero(3), Polynomial.zero(3)), False, 4),
        (left_translation(h1, (1, -2, Rat(1, 3))), h1, h1, const(1, 3), zero_b(3, 3),
         True, 4),
        (left_translation(h1, (1, -2, Rat(1, 3))), h1, h1, const(Rat(6, 5), 3),
         zero_b(3, 3), False, 4),
        (dilation(engel, Rat(3, 2)), engel, engel, const(Rat(9, 4), 4), zero_b(4, 4),
         True, 3),
        (dilation(engel, Rat(3, 2)), engel, engel, const(Rat(5, 2), 4), zero_b(4, 4),
         False, 3),
        (PolyMap.parse(["x1", "x2", "x3", "x4"], 5), h2, r4, const(1, 5), zero_b(5, 4),
         True, 3),
        (PolyMap.parse(["x1", "x2", "x3", "x4"], 5), h2, r4, const(1, 5),
         (Polynomial.variable(0, 5),) + zero_b(5, 3), False, 3),
        (square, h1, r2, square_lam, zero_b(3, 2), True, 4),
        (square, h1, r2, square_lam * Rat(1, 2), zero_b(3, 2), False, 4),
        (radial, r2, r1, radial_lam, (const(4, 2),), True, 4),
        (radial, r2, r1, radial_lam, (const(Rat(21, 5), 2),), False, 4),
        (radial, r2, r1, radial_lam + x1, (const(4, 2),), False, 4),
        # a nonzero horizontal drift into h1 and Engel
        (dilation(h1, 2), h1, h1, const(4, 3),
         (Polynomial.variable(0, 3), const(Rat(-1, 2), 3), Polynomial.zero(3)), False, 3),
        (dilation(engel, 2), engel, engel, const(4, 4),
         (const(1, 4), Polynomial.variable(1, 4)) + zero_b(4, 2), False, 3),
        # Engel and filiform-5 targets, whose sub-Laplacians have a nonzero
        # first-order table; a left translation holds with lambda_sq = 1
        (engel_shift, engel, engel, const(1, 4), zero_b(4, 4), True, 3),
        (engel_shift, engel, engel, const(Rat(6, 5), 4), zero_b(4, 4), False, 3),
        (fil_shift, fil5, fil5, const(1, 5), zero_b(5, 5), True, 3),
        (fil_shift, fil5, fil5, const(Rat(2, 3), 5), zero_b(5, 5), False, 2),
        (fil_skew_shift, fil5b, fil5b, const(3, 5), zero_b(5, 5), False, 2),
        # a polynomial lambda_sq into non-abelian targets
        (engel_shift, engel, engel, const(1, 4) + Polynomial.parse("x2^2", 4), zero_b(4, 4),
         False, 3),
        (fil_shift, fil5, fil5, Polynomial.parse("1 + x1*x2", 5),
         (Polynomial.variable(2, 5),) + zero_b(5, 4), False, 2),
        # |grad F_1|^2 = |grad F_2|^2 = lambda_sq, but grad F_1 . grad F_2 != 0:
        # only the off-diagonal entry of the second-order table fails
        (PolyMap.parse(["3/5*x1 + 4/5*x2", "x1"], 2), r2, r2, const(1, 2), zero_b(2, 2),
         False, 3),
        # probe degrees 2 to 6
        (dilation(h1, 2), h1, h1, const(Rat(29, 7), 3), zero_b(3, 3), False, 2),
        (dilation(h1, 2), h1, h1, const(Rat(29, 7), 3), zero_b(3, 3), False, 5),
        (left_translation(h1, (1, -2, Rat(1, 3))), h1, h1, const(Rat(6, 5), 3), zero_b(3, 3),
         False, 6),
        (square, h1, r2, square_lam * Rat(1, 2), zero_b(3, 2), False, 6),
        (radial, r2, r1, radial_lam, (const(Rat(21, 5), 2),), False, 6),
    ]
    for F, source, target, lam_sq, b, holds, degree in cases:
        expected = probe_residuals(F, lam_sq, b, source, target, degree)
        assert (not expected) == holds, (F, lam_sq, b)
        assert commutation_residuals(F, lam_sq, b, source, target, degree) == expected


def _similarity_automorphism():
    # 2 x rotation on the horizontal layer, det on the center
    m = ((Rat(6, 5), Rat(8, 5)), (Rat(-8, 5), Rat(6, 5)))
    return PolyMap.linear((
        (m[0][0], m[0][1], Rat(0)),
        (m[1][0], m[1][1], Rat(0)),
        (Rat(0), Rat(0), Rat(4)),
    ))


def test_b_vector_of_similarity_automorphism(h1):
    f = _similarity_automorphism()
    assert b_vector(f, 4, h1, h1) == (Polynomial.zero(3),) * 3
    report = analyze_commutation(f, h1, h1)
    assert report.conformal and report.lambda_sq == Polynomial.constant(Rat(4), 3)


def test_b_vector_of_translated_automorphism(h1):
    f = left_translation(h1, (1, 2, Rat(-1, 2))).compose(_similarity_automorphism())
    assert b_vector(f, 4, h1, h1) == (Polynomial.zero(3),) * 3


def test_b_vector_matches_pullback_trace(h1, r2):
    r1 = abelian_group(1)
    cases = [
        (PolyMap.parse(["x1^2 + x2^2"], 2), Polynomial.parse("4*x1^2 + 4*x2^2", 2), r2, r1),
        (PolyMap.parse(["x1^2 - x2^2", "2*x1*x2"], 3),
         Polynomial.parse("4*x1^2 + 4*x2^2", 3), h1, r2),
        (horizontal_projection(), 1, h1, r2),
    ]
    for f, lam_sq, source, target in cases:
        b = b_vector(f, lam_sq, source, target)
        assert b == trace_drift(f, source, target)
        report = analyze_commutation(f, source, target)
        assert report.b == b


def test_b_vector_rejects_wrong_factor(r2):
    r1 = abelian_group(1)
    f = PolyMap.parse(["x1^2 + x2^2"], 2)
    with pytest.raises(NotConformal, match="cometric image"):
        b_vector(f, 3, r2, r1)


def test_b_vector_rejects_constant_map(h1):
    # DF = 0 is contact and its cometric image is 0 Q_H, but a zero factor
    # is not conformal; b_vector agrees with the analyzer
    f = PolyMap.parse(["1", "2", "3"], 3)
    assert analyze_commutation(f, h1, h1).reason == "conformal factor is not positive"
    with pytest.raises(NotConformal, match="conformal factor is not positive"):
        b_vector(f, 0, h1, h1)


def test_b_vector_rejects_broken_contact(h1):
    f = PolyMap.parse(["x1", "x2", "x3 + x1"], 3)
    with pytest.raises(NotConformal, match="polarization"):
        b_vector(f, 1, h1, h1)


@pytest.mark.parametrize("components, residuals", [
    (["x1", "x2 + x1*x2", "x3 + x2^2", "x4 + x1^2"],
     ["-1/2*x1^2 + 2*x2", "1/2*x2^2 + 2*x1", "1/6*x1^3 - x1*x2"]),
    (["x1", "x2", "x3 + x1^2", "x4 + x2^2"], ["2*x1", "-1/2*x1^2", "2*x2"]),
])
def test_contact_residual_order(engel, components, residuals):
    # Engel has two annihilators of its polarization; the witnesses are
    # listed annihilator by annihilator, and within each column by column of
    # DF B_G
    report = analyze_commutation(PolyMap.parse(components, 4), engel, engel)
    assert not report.contact
    assert [str(r) for r in report.residuals] == residuals


def test_second_analysis_derives_no_metric_constants(monkeypatch):
    # the annihilators, left inverse, G^{-1} and Q of a group are built once,
    # in its GroupTables; a second analysis on the same groups reuses them
    h1, engel = heisenberg_group(1, (1,)), engel_group()
    dil = dilation(h1, Rat(2))
    shear = PolyMap.parse(["x1", "x2", "x3 + x1"], 3)
    bend = PolyMap.parse(["x1", "x2", "x3 + x1^2", "x4 + x2^2"], 4)
    zero = (0, 0, 0)

    def analyses():
        analyze_commutation(dil, h1, h1)
        analyze_commutation(shear, h1, h1)
        analyze_commutation(bend, engel, engel)
        commutation_residuals(dil, 4, zero, h1, h1, 3)
        commutation_residuals(dil, 5, zero, h1, h1, 3)

    calls = []

    def counted(name, original):
        def wrapper(*args):
            calls.append(name)
            return original(*args)
        return wrapper

    analyses()
    for name in ("left_nullspace", "inverse"):
        monkeypatch.setattr(linalg, name, counted(name, getattr(linalg, name)))
    analyses()
    assert calls == []


def test_homomorphism_shortcut_changes_no_report(monkeypatch):
    # with the homomorphism check refusing every map, the differential runs
    # the Lambda_H(F)^{-1} series; reports and differentials are the same
    cases = gallery_maps() + analyzer_rejections()
    for seed in (1, 2, 3):
        cases += [(F, source, target) for _, F, source, target in seeded_homomorphisms(seed)]
    taken = []
    check = sublap.calculus._homomorphism_rows

    def counted(*args):
        found = check(*args)
        taken.append(found is not None)
        return found

    monkeypatch.setattr(sublap.calculus, "_homomorphism_rows", counted)
    shortcut = [(analyze_commutation(F, source, target),
                 horizontal_differential(F, source, target), lie_differential(F, source, target))
                for F, source, target in cases]
    # 57 seeded homomorphisms, and 6 of the gallery and 6 of the shapes,
    # each checked once per call above
    assert len(cases) == 89 and sum(taken) == 3 * 69
    monkeypatch.setattr(sublap.calculus, "_homomorphism_rows", lambda *args: None)
    series = [(analyze_commutation(F, source, target),
               horizontal_differential(F, source, target), lie_differential(F, source, target))
              for F, source, target in cases]
    assert shortcut == series


def _seeded_homomorphism_cases():
    return [(F, source, target) for seed in (1, 2, 3)
            for _, F, source, target in seeded_homomorphisms(seed)]


def test_homomorphisms_take_the_integer_stages(monkeypatch):
    # a linear Lie homomorphism has the constant DB = M B_G, so analyze-map
    # and verify decide its stages on integer matrices: none of the
    # polynomial stage kernels runs, and no drift table is built or reduced,
    # while any other map still reaches them
    def refuse(*args):
        raise AssertionError("polynomial stage kernel")

    for name in ("_prows_congruence", "_pushforward_first", "_polarization_residuals",
                 "_from_prows"):
        monkeypatch.setattr(sublap.conformal, name, refuse)
    cases = _seeded_homomorphism_cases()
    verdicts = []
    for F, source, target in cases:
        report = analyze_commutation(F, source, target)
        verdicts.append(report.conformal)
        lam_sq = report.lambda_sq if report.conformal else Polynomial.constant(1, source.dim)
        b = report.b if report.conformal else (0,) * target.dim
        assert (commutation_residuals(F, lam_sq, b, source, target, 2) == ()) == \
            report.conformal, F
        assert commutation_residuals(F, lam_sq + 1, b, source, target, 2), F
    # the dilations, similarities and quotients of each seed
    assert len(cases) == 57 and verdicts.count(True) == 3 * 11
    h1 = heisenberg_group(1, (1,))
    with pytest.raises(AssertionError, match="polynomial stage kernel"):
        analyze_commutation(left_translation(h1, (Rat(1), Rat(2), Rat(3))), h1, h1)


def test_integer_stages_match_polynomial_analysis():
    cases = _seeded_homomorphism_cases() + gallery_maps() + analyzer_rejections()
    assert len(cases) == 57 + 12 + 20
    for F, source, target in cases:
        assert analyze_commutation(F, source, target) == \
            poly_analyze_commutation(F, source, target), F


def test_failing_identity_on_a_conformal_map_differentiates_once(monkeypatch):
    # once the frame stages pass with the true (lambda_sq, b), the residual
    # tables of a stated identity are (lambda_sq - stated) (H o F) and
    # Lambda_H(F) (b - stated b): no chain-rule table is built, and the
    # witnesses are those of the direct probe oracle
    def refuse(*args):
        raise AssertionError("chain-rule table built")

    cases = [case for case in gallery_maps() + _seeded_homomorphism_cases()[:19]
             if analyze_commutation(*case).conformal]
    assert len(cases) == 8 + 11
    monkeypatch.setattr(sublap.conformal, "_chain_rule_tables", refuse)
    for F, source, target in cases:
        report = analyze_commutation(F, source, target)
        n = source.dim
        shift = tuple(Polynomial.constant(x, n) * Rat(-3, 2)
                      for x in target.polarization.basis[0])
        for lam_sq, b in ((report.lambda_sq + Rat(1, 2), report.b),
                          (report.lambda_sq, tuple(map(Polynomial.__add__, report.b, shift))),
                          (report.lambda_sq * 2, tuple(map(Polynomial.__add__, report.b, shift)))):
            got = commutation_residuals(F, lam_sq, b, source, target, 2)
            assert got and got == probe_residuals(F, lam_sq, b, source, target, 2), F
    with pytest.raises(AssertionError, match="chain-rule table"):
        commutation_residuals(PolyMap.parse(["x1", "2*x2"], 2), 1, (0, 0),
                              abelian_group(2), abelian_group(2), 2)


# ---------------------------------------------------------------------------
# the integer pipeline against the Polynomial-level composition


@lru_cache(maxsize=None)
def _pipeline_groups():
    """h1, h2 with unequal r_i, Engel, the model filiform-5, and filiform-5
    polarized by (e1, e2 - e1) with a non-diagonal Gram matrix, whose
    cometric has a negative entry."""
    fil = LieAlgebra.from_brackets(5, {(0, k): {k + 1: 1} for k in range(1, 4)})
    return (heisenberg_group(1, (1,)), heisenberg_group(2, (1, Rat(3, 2))), engel_group(),
            subriemannian_group(fil, fil.basis()[:2], ((1, 0), (0, 1))),
            subriemannian_group(fil, ((1, 0, 0, 0, 0), (-1, 1, 0, 0, 0)), ((3, 1), (1, 2))))


SMALL = st.sampled_from((Rat(-2), Rat(-1), Rat(-1, 2), Rat(1, 3), Rat(1), Rat(3, 2), Rat(2)))


@st.composite
def pipeline_maps(draw, targets=None):
    """(F, source, target): random components of degree <= 2, or, on one
    group, the identity, a dilation or a left translation with one component
    perturbed (possibly by zero).  targets, when given, are the indices into
    _pipeline_groups the target is drawn from."""
    groups = _pipeline_groups()
    allowed = groups if targets is None else tuple(groups[i] for i in targets)
    same = draw(st.booleans())
    source = draw(st.sampled_from(allowed if same else groups))
    n = source.dim
    monomials = monomials_up_to(n, 2)

    def poly():
        terms = draw(st.lists(st.tuples(st.sampled_from(monomials), SMALL), max_size=3))
        return linear_combination(n, [(c, u) for u, c in terms])

    if same:
        target = source
        base = draw(st.sampled_from(("identity", "dilation", "translation")))
        if base == "dilation":
            F = dilation(source, draw(SMALL))
        elif base == "translation":
            F = left_translation(source, tuple(draw(SMALL) for _ in range(n)))
        else:
            F = PolyMap.identity(n)
        comps = list(F.components)
        i = draw(st.integers(0, n - 1))
        comps[i] = comps[i] + poly()
    else:
        target = draw(st.sampled_from(allowed))
        comps = [poly() for _ in range(target.dim)]
    return PolyMap(n, tuple(comps)), source, target


@settings(max_examples=60, deadline=None)
@given(pipeline_maps())
def test_pipeline_matches_polynomial_composition(case):
    F, source, target = case
    db = horizontal_differential(F, source, target)
    assert db == poly_horizontal_differential(F, source, target)
    assert lie_differential(F, source, target) == poly_lie_differential(F, source, target)
    second, first = _pullback_tables(_to_prows(db), source)
    n = source.dim
    assert _from_prows(second, n) == \
        poly_pushforward_second(db, linalg.inverse(source.metric.gram))
    assert tuple(row[0] for row in _from_prows(first, n)) == \
        poly_pushforward_first(db, poly_gradient_fields(source))
    assert analyze_commutation(F, source, target) == poly_analyze_commutation(F, source, target)


# h1, Engel and the two filiform-5 groups
CHAIN_RULE_TARGETS = (0, 2, 3, 4)


@settings(max_examples=30, deadline=None)
@given(pipeline_maps(CHAIN_RULE_TARGETS), st.data())
def test_pullback_is_the_coordinate_chain_rule(case, data):
    # Delta_G(u o F) = sum_kl Gamma(F_k, F_l) (d_k d_l u) o F
    #                  + sum_k (Delta_G F_k) (d_k u) o F,
    # Gamma(f, g) = <grad f, grad g> the carre du champ of the source
    F, source, target = case
    n, comps = source.dim, F.components
    gram, lap = source.metric.gram, sublaplacian(source)
    grads = [gradient(f, source) for f in comps]

    def carre(a, b):
        return linear_combination(n, [(gram[j][k], grads[a][j] * grads[b][k])
                                      for j in range(source.rank)
                                      for k in range(source.rank) if gram[j][k]])

    pulled = pullback_operator(F, source, target)
    probes = monomials_up_to(target.dim, 3)
    for u in data.draw(st.lists(st.sampled_from(probes), min_size=1, max_size=4)):
        expected = linear_combination(n, [(1, carre(k, l) * u.diff(k).diff(l).subs(comps))
                                          for k in range(target.dim)
                                          for l in range(target.dim)])
        expected = expected + linear_combination(n, [(1, lap.apply(comps[k]) * u.diff(k).subs(comps))
                                                     for k in range(target.dim)])
        assert pulled.apply(u) == expected, (F, u)


def test_residuals_with_zero_factor_list_the_pullback():
    # with lambda_sq = 0 and b = 0 the residual of a probe is Delta_G(u o F)
    # itself, so verify's witness listing and PullbackOperator.apply must
    # give the same polynomials
    groups = _pipeline_groups()
    cases = gallery_maps()
    for target, point in ((groups[2], (1, Rat(-2, 3), Rat(1, 2), 3)),
                          (groups[3], (Rat(1, 2), -1, 2, Rat(-3, 4), 1)),
                          (groups[4], (-1, Rat(1, 3), 0, 2, Rat(5, 2)))):
        cases.append((left_translation(target, point), target, target))
    # a constant map: its pullback is 0, so lambda_sq = 0 and b = 0 hold
    source, target = groups[2], groups[3]
    constant = PolyMap(source.dim, [Polynomial.constant(c, source.dim)
                                    for c in (1, -2, 0, Rat(1, 2), 3)])
    cases.append((constant, source, target))
    for F, source, target in cases:
        pulled = pullback_operator(F, source, target)
        zero = (Polynomial.zero(source.dim),) * target.dim
        for degree in (2, 3):
            expected = [(u, r) for u in monomials_up_to(target.dim, degree)
                        if (r := pulled.apply(u))]
            assert list(commutation_residuals(F, 0, zero, source, target, degree)) == \
                expected, (F, degree)
    zero = (Polynomial.zero(source.dim),) * target.dim
    assert commutation_residuals(constant, 0, zero, source, target, 3) == ()
    # with lambda_sq = 1 the residual of a probe is -(Delta_H u) o F
    listed = commutation_residuals(constant, 1, zero, source, target, 3)
    assert listed and listed == probe_residuals(constant, 1, zero, source, target, 3)


@st.composite
def stated_identities(draw):
    """(F, source, target, lambda_sq, b): a map from pipeline_maps with the
    identity the analyzer finds when it is conformal, else (and sometimes
    also then) a stated lambda_sq (a constant, possibly plus a polynomial)
    and a horizontal drift b = B_H gamma with random source polynomials
    gamma."""
    F, source, target = draw(pipeline_maps())
    n = source.dim
    report = analyze_commutation(F, source, target)
    if report.conformal and draw(st.booleans()):
        return F, source, target, report.lambda_sq, report.b
    monomials = monomials_up_to(n, 1)

    def poly():
        terms = draw(st.lists(st.tuples(st.sampled_from(monomials), SMALL), max_size=2))
        return linear_combination(n, [(c, u) for u, c in terms])

    lam_sq = Polynomial.constant(draw(SMALL), n) + poly()
    gamma = [poly() for _ in range(target.rank)]
    basis = target.polarization.basis
    b = tuple(linear_combination(n, [(basis[j][i], gamma[j]) for j in range(target.rank)])
              for i in range(target.dim))
    return F, source, target, lam_sq, b


@settings(max_examples=30, deadline=None)
@given(stated_identities(), st.sampled_from((2, 3)))
def test_residuals_match_probe_oracle_on_random_identities(case, degree):
    F, source, target, lam_sq, b = case
    expected = probe_residuals(F, lam_sq, b, source, target, degree)
    got = commutation_residuals(F, lam_sq, b, source, target, degree)
    assert [u for u, _ in got] == [u for u, _ in expected]
    assert got == expected
