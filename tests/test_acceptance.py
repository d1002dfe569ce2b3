"""Release acceptance checks.

Each test exercises one end-to-end guarantee of the package, asserts it
exactly (or within the pinned float tolerance), and enforces a wall-clock
budget.  A one-line PASS/FAIL verdict per criterion is printed in the
terminal summary at the end of the run.
"""

import math
import random
import time
from contextlib import contextmanager

import numpy as np

import conftest
from oracles import trace_drift
from sublap.algebra import LieAlgebra, validate
from sublap.calculus import bch_product, dilation, left_invariant_field, left_translation
from sublap.catalog import abelian_group, engel_group, sl2_algebra
from sublap.conformal import (analyze_commutation, b_vector, frames_equivalent,
                              homothetic_characterizations, is_homothetic_projection)
from sublap.heisenberg import (build_isometry, heisenberg_group, heisenberg_pair,
                               isometry_decision, symplectic_spectrum)
from sublap.linalg import (identity, inverse, mat_mul, mat_scale, mat_sub, rank,
                           transpose)
from sublap.operators import sublaplacian
from sublap.polynomial import PolyMap, monomials_up_to
from sublap.rational import Rat


@contextmanager
def criterion(number, title, budget):
    start = time.monotonic()
    try:
        yield
    except BaseException:
        elapsed = time.monotonic() - start
        conftest.ACCEPTANCE_LINES.append(
            "criterion %2d FAIL  %-58s %5.2fs / %gs" % (number, title, elapsed, budget))
        raise
    elapsed = time.monotonic() - start
    ok = elapsed <= budget
    conftest.ACCEPTANCE_LINES.append(
        "criterion %2d %s  %-58s %5.2fs / %gs"
        % (number, "PASS" if ok else "FAIL", title, elapsed, budget))
    assert ok, "criterion %d blew its %gs budget (%.2fs)" % (number, budget, elapsed)


def rr(rng, max_num=9, max_den=9):
    return Rat(rng.randint(-max_num, max_num), rng.randint(1, max_den))


def catalog_triple():
    return (heisenberg_group(1, (1,)),
            heisenberg_group(2, (1, 1)),
            engel_group())


# rational cos/sin pairs, for exact orthogonal matrices
PYTHAGOREAN = ((Rat(3, 5), Rat(4, 5)), (Rat(5, 13), Rat(12, 13)),
               (Rat(8, 17), Rat(15, 17)), (Rat(7, 25), Rat(24, 25)))


def random_orthogonal(rng, size):
    a = identity(size)
    for _ in range(size + 2):
        if size < 2:
            break
        i, j = rng.sample(range(size), 2)
        c, s = rng.choice(PYTHAGOREAN)
        if rng.random() < 0.5:
            s = -s
        g = [[Rat(1) if p == q else Rat(0) for q in range(size)] for p in range(size)]
        g[i][i], g[i][j], g[j][i], g[j][j] = c, s, -s, c
        a = mat_mul(tuple(tuple(row) for row in g), a)
    if rng.random() < 0.3:
        flip = tuple(tuple(Rat(-1) if p == q == 0 else (Rat(1) if p == q else Rat(0))
                           for q in range(size)) for p in range(size))
        a = mat_mul(flip, a)
    return a


def test_criterion_01_algebra_validator():
    """Catalog algebras validate; any single-entry corruption is rejected."""
    rng = random.Random(1001)
    with criterion(1, "algebra validator vs 50 random mutations each", 1.0):
        algebras = [heisenberg_group(1, (1,)).algebra,
                    heisenberg_group(2, (1, 1)).algebra,
                    engel_group().algebra,
                    sl2_algebra()]
        for alg in algebras:
            assert validate(alg).valid
            full = alg.full_table()
            keys = sorted(full)
            for _ in range(50):
                key = rng.choice(keys)
                old = full[key]
                while True:
                    new = rr(rng, 5, 3)
                    if new != 0 and new != old:
                        break
                bad = dict(full)
                bad[key] = new
                report = validate(LieAlgebra.from_table(alg.dim, bad))
                assert not report.valid, (key, old, new)


def test_criterion_02_bch_group_law():
    """Exact associativity and inverses of the polynomial group product."""
    rng = random.Random(1002)
    with criterion(2, "group law: 100 associativity triples per group", 2.0):
        for group in catalog_triple():
            alg = group.algebra
            n = alg.dim
            for _ in range(100):
                p, q, s = (tuple(rr(rng) for _ in range(n)) for _ in range(3))
                left = bch_product(bch_product(p, q, alg), s, alg)
                right = bch_product(p, bch_product(q, s, alg), alg)
                assert left == right
                minus_p = tuple(-x for x in p)
                assert all(c == 0 for c in bch_product(p, minus_p, alg))


def test_criterion_03_field_bracket_compatibility():
    """Brackets of the induced invariant fields match algebra brackets."""
    with criterion(3, "invariant-field brackets match algebra brackets", 1.0):
        for group in catalog_triple():
            alg = group.algebra
            fields = [left_invariant_field(v, group) for v in alg.basis()]
            for i in range(alg.dim):
                for j in range(alg.dim):
                    expected = left_invariant_field(
                        alg.bracket(alg.basis_vector(i), alg.basis_vector(j)), group)
                    assert fields[i].bracket(fields[j]) == expected, (i, j)


def test_criterion_04_left_invariance():
    """The operator commutes with every left translation, exactly."""
    rng = random.Random(1004)
    with criterion(4, "left invariance on all deg<=4 monomials, 20 points", 5.0):
        for group in catalog_triple():
            op = sublaplacian(group)
            n = group.dim
            probes = list(monomials_up_to(n, 4))
            images = [op.apply(u) for u in probes]
            for _ in range(20):
                g = tuple(rr(rng) for _ in range(n))
                lg = left_translation(group, g).components
                for u, du in zip(probes, images):
                    assert op.apply(u.subs(lg)) == du.subs(lg)


def test_criterion_05_dilation_covariance():
    """Composing with the dilation rescales the operator by lambda^2."""
    with criterion(5, "dilation covariance for lambda in {1/2, 2, 3}", 5.0):
        for group in catalog_triple():
            op = sublaplacian(group)
            n = group.dim
            probes = list(monomials_up_to(n, 4))
            images = [op.apply(u) for u in probes]
            for lam in (Rat(1, 2), Rat(2), Rat(3)):
                dl = dilation(group, lam).components
                factor = lam ** 2
                for u, du in zip(probes, images):
                    assert op.apply(u.subs(dl)) == du.subs(dl) * factor


def test_criterion_06_quotient_commutation():
    """Forgetting the center is conformal with unit factor and no drift."""
    with criterion(6, "horizontal projection: conformal, factor 1, b = 0", 2.0):
        for n in (1, 2):
            source = heisenberg_group(n, (1,) * n)
            proj = PolyMap.parse(["x%d" % (i + 1) for i in range(2 * n)], 2 * n + 1)
            report = analyze_commutation(proj, source, abelian_group(2 * n))
            assert report.contact and report.conformal
            assert report.lambda_sq.is_constant
            assert report.lambda_sq.constant_value() == 1
            assert all(bi.is_zero for bi in report.b)
            assert report.residuals == ()


def _scaled_frame(n, rbar):
    size = 2 * n
    return tuple(tuple(rbar[i % n] if j == i else Rat(0) for j in range(size))
                 for i in range(size))


def test_criterion_07_frame_equivalence_decider():
    """Frame verdicts are exact and agree with the spectral decision."""
    rng = random.Random(1007)
    with criterion(7, "frame equivalence agrees with spectral verdicts", 5.0):
        # rotated copies of a frame are accepted with an exact orthogonal witness
        base = _scaled_frame(2, (Rat(1), Rat(2)))
        for _ in range(5):
            a = random_orthogonal(rng, 4)
            decision = frames_equivalent(base, mat_mul(a, base))
            assert decision.equivalent
            w = decision.witness
            assert mat_mul(w, transpose(w)) == identity(4)
            assert w == a  # a square invertible frame pins the witness down

        # unequally scaled frames are told apart
        assert not frames_equivalent(_scaled_frame(2, (Rat(1), Rat(1))),
                                     _scaled_frame(2, (Rat(1), Rat(2)))).equivalent

        # 50 random diagonal metrics: frame verdict == "spectra match with rho = 1"
        values = [Rat(1), Rat(1, 2), Rat(2), Rat(3, 2), Rat(3), Rat(4), Rat(5, 2)]
        for trial in range(50):
            n = rng.randint(1, 3)
            ra = tuple(sorted(rng.choice(values) for _ in range(n)))
            rb = ra if trial % 2 == 0 else tuple(sorted(rng.choice(values)
                                                        for _ in range(n)))
            fa = mat_mul(random_orthogonal(rng, 2 * n), _scaled_frame(n, ra))
            fb = mat_mul(random_orthogonal(rng, 2 * n), _scaled_frame(n, rb))
            decision = frames_equivalent(fa, fb)
            if decision.equivalent:
                w = decision.witness
                assert mat_mul(w, transpose(w)) == identity(2 * n)
            rho = isometry_decision(*heisenberg_pair(n, ra), *heisenberg_pair(n, rb))
            spectral = rho is not None and abs(rho - 1.0) <= 1e-9
            assert decision.equivalent == spectral, (trial, ra, rb, rho)


def test_criterion_08_homothety_characterizations():
    """Five formulations of the homothety property always agree."""
    rng = random.Random(1008)
    with criterion(8, "homothety: 100 positives + 100 negatives, 5 ways", 2.0):

        def random_instance(min_rows):
            m = rng.randint(min_rows, 3)
            n = m + rng.randint(0, 2)
            while True:
                l = tuple(tuple(rr(rng, 3, 2) for _ in range(n)) for _ in range(m))
                if rank(l) == m:
                    break
            a = tuple(tuple(rr(rng, 2, 2) for _ in range(n)) for _ in range(n))
            gv = mat_sub(mat_mul(transpose(a), a), mat_scale(Rat(-1), identity(n)))
            lam = Rat(rng.randint(1, 4), rng.randint(1, 4))  # in [1/4, 4]
            lam_sq = lam ** 2
            gw = inverse(mat_scale(1 / lam_sq,
                                   mat_mul(l, mat_mul(inverse(gv), transpose(l)))))
            return l, gv, gw, lam_sq

        for _ in range(100):
            l, gv, gw, lam_sq = random_instance(1)
            assert is_homothetic_projection(l, gv, gw) == lam_sq
            chars = homothetic_characterizations(l, gv, gw)
            assert all(v == lam_sq for v in chars.values()), chars

        negatives = 0
        while negatives < 100:
            # a single row is a homothety onto its image whenever it is nonzero,
            # so genuine counterexamples need at least two rows
            l, gv, gw, _ = random_instance(2)
            row = rng.randrange(len(l))
            col = rng.randrange(len(l[0]))
            eps = Rat(rng.choice([-1, 1]) * rng.randint(1, 3), rng.randint(7, 11))
            bad = tuple(tuple(v + eps if (i, j) == (row, col) else v
                              for j, v in enumerate(rowvals))
                        for i, rowvals in enumerate(l))
            verdict = is_homothetic_projection(bad, gv, gw)
            chars = homothetic_characterizations(bad, gv, gw)
            assert all(v == verdict for v in chars.values()), chars
            if verdict is None:
                negatives += 1


def test_criterion_09_spectrum_ground_truth():
    """Computed spectra reproduce the defining parameters and scale law."""
    rng = random.Random(1009)
    with criterion(9, "spectrum recovers parameters; sqrt scale law", 3.0):
        for _ in range(50):
            n = rng.randint(1, 4)
            rbar = tuple(sorted(Rat(rng.randint(2, 16), 4) for _ in range(n)))
            omega, gram = heisenberg_pair(n, rbar)
            spectrum = symplectic_spectrum(omega, gram)
            assert all(abs(s - float(r)) <= 1e-9 for s, r in zip(spectrum.r, rbar))
            zeta = Rat(rng.choice([-1, 1]) * rng.randint(1, 12), rng.randint(1, 4))
            scaled = symplectic_spectrum(mat_scale(zeta, omega.matrix), gram)
            root = math.sqrt(abs(float(zeta)))
            assert all(abs(s - root * base) <= 1e-9
                       for s, base in zip(scaled.r, spectrum.r))


def test_criterion_10_isometry_constructor():
    """Whenever a ratio is found, the constructed map realizes it."""
    rng = random.Random(1010)
    with criterion(10, "constructed isometries: residuals below 1e-8", 3.0):
        values = [Rat(1), Rat(1), Rat(2), Rat(3, 2), Rat(4)]
        for trial in range(50):
            n = rng.randint(1, 3)
            rbar = tuple(sorted(rng.choice(values) for _ in range(n)))
            omega, gram = heisenberg_pair(n, rbar)
            size = 2 * n

            def random_invertible():
                while True:
                    p = tuple(tuple(rr(rng, 2, 2) for _ in range(size))
                              for _ in range(size))
                    if rank(p) == size:
                        return p

            p1, p2 = random_invertible(), random_invertible()
            o1 = mat_mul(transpose(p1), mat_mul(omega.matrix, p1))
            g1 = mat_mul(transpose(p1), mat_mul(gram.gram, p1))
            t = Rat(rng.randint(1, 8), rng.randint(1, 8))
            o2 = mat_mul(transpose(p2), mat_mul(omega.matrix, p2))
            g2 = mat_mul(transpose(p2), mat_mul(mat_scale(t, gram.gram), p2))
            assert isometry_decision(o1, g1, o2, g2) is not None
            psi, rho = build_isometry(o1, g1, o2, g2)
            f1 = np.array([[float(v) for v in row] for row in g1])
            f2 = np.array([[float(v) for v in row] for row in g2])
            w1 = np.array([[float(v) for v in row] for row in o1])
            w2 = np.array([[float(v) for v in row] for row in o2])
            metric_residual = np.abs(psi.T @ f1 @ psi - f2).max()
            symplectic_residual = np.abs(psi.T @ w1 @ psi - rho ** 2 * w2).max()
            assert metric_residual <= 1e-8, (trial, rbar, t, metric_residual)
            assert symplectic_residual <= 1e-8, (trial, rbar, t, symplectic_residual)


def test_criterion_11_analyzer_rejections():
    """Twenty broken maps are all refused with a nonzero residual."""
    with criterion(11, "20 non-contact / non-conformal maps rejected", 3.0):
        cases = conftest.analyzer_rejections()
        assert len(cases) == 20
        for mapping, source, target in cases:
            report = analyze_commutation(mapping, source, target)
            assert not report.conformal, mapping
            assert report.residuals, mapping
            assert any(not res.is_zero for res in report.residuals), mapping
            assert report.reason, mapping


def _plane_rotation(n, plane, c, s):
    size = 2 * n + 1
    m = [[Rat(1) if p == q else Rat(0) for q in range(size)] for p in range(size)]
    m[plane][plane] = c
    m[plane][n + plane] = s
    m[n + plane][plane] = -s
    m[n + plane][n + plane] = c
    return tuple(tuple(row) for row in m)


def test_criterion_12_drift_consistency():
    """The drift agrees with the cometric trace of D2F, assembled apart from
    the pullback tables, exactly."""
    rng = random.Random(1012)
    with criterion(12, "drift = cometric trace of D2F; zero for affine maps", 2.0):
        cases = []
        for group in catalog_triple():
            for lam in (Rat(1, 2), Rat(2), Rat(3)):
                cases.append((dilation(group, lam), lam ** 2, group, group))
        for n in (1, 2):
            source = heisenberg_group(n, (1,) * n)
            proj = PolyMap.parse(["x%d" % (i + 1) for i in range(2 * n)], 2 * n + 1)
            cases.append((proj, Rat(1), source, abelian_group(2 * n)))
        values = [Rat(1), Rat(1, 2), Rat(2), Rat(3, 2)]
        for _ in range(6):
            n = rng.randint(1, 2)
            rbar = tuple(sorted(rng.choice(values) for _ in range(n)))
            group = heisenberg_group(n, rbar)
            size = 2 * n + 1
            s = rng.choice([Rat(1, 2), Rat(2), Rat(3, 2), Rat(3)])
            auto = [[s if p == q and p < 2 * n else Rat(0) for q in range(size)]
                    for p in range(size)]
            auto[2 * n][2 * n] = s ** 2
            m = tuple(tuple(row) for row in auto)
            for plane in range(n):
                c, sn = rng.choice(PYTHAGOREAN)
                m = mat_mul(m, _plane_rotation(n, plane, c, sn))
            shift = tuple(Rat(rng.randint(-3, 3), rng.randint(1, 3))
                          for _ in range(size))
            composed = left_translation(group, shift).compose(PolyMap.linear(m))
            cases.append((composed, s ** 2, group, group))
        for mapping, lam_sq, source, target in cases:
            b = b_vector(mapping, lam_sq, source, target)
            assert tuple(b) == trace_drift(mapping, source, target)
            assert all(p.is_zero for p in b)  # every case above is affine

        # non-affine control: the drift is nonzero but the equality still holds
        r1, r2 = abelian_group(1), abelian_group(2)
        radial = PolyMap.parse(["x1^2 + x2^2"], 2)
        report = analyze_commutation(radial, r2, r1)
        assert report.conformal
        b = b_vector(radial, report.lambda_sq, r2, r1)
        assert tuple(b) == trace_drift(radial, r2, r1)
        assert not b[0].is_zero
