import importlib
import importlib.util
from pathlib import Path

import pytest

from conftest import filiform_group, random_rational, random_vector
from oracles import horizontal_inner, pivot_row_frame_components
from sublap import linalg
from sublap.algebra import LieAlgebra, subriemannian_group
from sublap.calculus import (NotNilpotent, dilation, left_invariant_field,
                             left_translation, left_translation_jacobian, lie_derivative)
from sublap.catalog import engel_algebra, sl2_algebra
from sublap.conformal import analyze_commutation
from sublap.heisenberg import heisenberg_algebra, heisenberg_group
from sublap.operators import (Cometric, DifferentialOperator, cometric,
                              divergence, frame_components,
                              gradient, pullback_operator,
                              sublaplacian)
from sublap.polynomial import Polynomial, PolyMap, monomials_up_to
from sublap.rational import Rat

EYE2 = ((Rat(1), Rat(0)), (Rat(0), Rat(1)))


def p3(s):
    return Polynomial.parse(s, 3)


# ---------------------------------------------------------------------------
# cometric


def test_cometric_heisenberg(h1):
    q = cometric(h1)
    assert q.dim == 3
    assert q.rank() == 2
    assert q.matrix == (
        (Rat(1), Rat(0), Rat(0)),
        (Rat(0), Rat(1), Rat(0)),
        (Rat(0), Rat(0), Rat(0)),
    )


def test_cometric_scales_with_metric():
    group = heisenberg_group(1, (2,))
    assert group.metric.gram == ((Rat(1, 4), Rat(0)), (Rat(0), Rat(1, 4)))
    q = cometric(group).matrix
    assert q == ((Rat(4), Rat(0), Rat(0)), (Rat(0), Rat(4), Rat(0)),
                 (Rat(0), Rat(0), Rat(0)))


def _h1_with_frame(basis, gram):
    from sublap.heisenberg import heisenberg_algebra
    return subriemannian_group(heisenberg_algebra(1), basis, gram)


def test_cometric_is_frame_independent(h1):
    # new basis (X + Y, Y) with gram transported by the change of basis
    other = _h1_with_frame(((1, 1, 0), (0, 1, 0)),
                           ((Rat(2), Rat(1)), (Rat(1), Rat(1))))
    assert cometric(other).matrix == cometric(h1).matrix
    assert sublaplacian(other) == sublaplacian(h1)


# ---------------------------------------------------------------------------
# the sub-Laplacian


def test_sublaplacian_heisenberg_tables(h1):
    op = sublaplacian(h1)
    expect = [
        ["1", "0", "-1/2*x2"],
        ["0", "1", "1/2*x1"],
        ["-1/2*x2", "1/2*x1", "1/4*x1^2 + 1/4*x2^2"],
    ]
    for row, erow in zip(op.second_order, expect):
        assert list(row) == [p3(s) for s in erow]
    assert all(c.is_zero for c in op.first_order)
    assert op.zero_order.is_zero


def test_sublaplacian_heisenberg_values(h1):
    op = sublaplacian(h1)
    assert op.apply(p3("x3")).is_zero
    assert op.apply(p3("x1^2 + x2^2")) == p3("4")
    assert op.apply(p3("x1*x2")).is_zero
    assert op.apply(p3("x3^2")) == p3("1/2*x1^2 + 1/2*x2^2")
    assert op.apply(p3("7")).is_zero


def _skewed_engel():
    """Engel with polarization basis (e1 + e2, e2) and a non-diagonal gram."""
    return subriemannian_group(engel_algebra(), ((1, 1, 0, 0), (0, 1, 0, 0)),
                               ((2, 1), (1, 1)))


def _filiform5(basis=((1, 0, 0, 0, 0), (0, 1, 0, 0, 0)), gram=EYE2):
    """The step-4 filiform algebra [e1, e_k] = e_{k+1}, k = 2, 3, 4."""
    algebra = LieAlgebra.from_brackets(5, {(0, k): {k + 1: 1} for k in range(1, 4)})
    return subriemannian_group(algebra, basis, gram)


def test_sublaplacian_is_sum_of_frame_squares(h2, engel):
    # Delta u = sum_jk g^{jk} v_j~(v_k~ u), one left-invariant field at a
    # time, apart from the pushforward assembly; the last two groups have
    # step >= 3, a non-orthonormal polarization basis and a non-diagonal gram
    groups = (
        h2, engel, _skewed_engel(),
        _filiform5(((1, 0, 0, 0, 0), (1, 1, 0, 0, 0)), ((3, 1), (1, 2))),
    )
    for group in groups:
        op = sublaplacian(group)
        ginv = linalg.inverse(group.metric.gram)
        basis = group.polarization.basis
        for u in monomials_up_to(group.dim, 3):
            expect = Polynomial.zero(group.dim)
            for j, vj in enumerate(basis):
                for k, vk in enumerate(basis):
                    if ginv[j][k]:
                        expect = expect + lie_derivative(
                            lie_derivative(u, vk, group), vj, group) * ginv[j][k]
            assert op.apply(u) == expect, (group, u)


def _full_differential_tables(group):
    """The sub-Laplacian's tables assembled on the full field matrix
    Lambda = left_translation_jacobian and the cometric Q = B G^-1 B^T, both
    built here: second = Lambda Q Lambda^T and first_c = sum_ab Q_ab
    e_b~(Lambda_ca), with e_b~ = sum_k Lambda_kb d_k."""
    b = group.polarization.matrix()
    q = linalg.mat_mul(linalg.mat_mul(b, linalg.inverse(group.metric.gram)), linalg.transpose(b))
    lam = left_translation_jacobian(group)
    n = group.dim
    second = [[Polynomial.zero(n)] * n for _ in range(n)]
    first = [Polynomial.zero(n)] * n
    for a in range(n):
        for e in range(n):
            if not q[a][e]:
                continue
            for c in range(n):
                for d in range(n):
                    second[c][d] = second[c][d] + lam[c][a] * lam[d][e] * q[a][e]
                for k in range(n):
                    first[c] = first[c] + lam[k][e] * lam[c][a].diff(k) * q[a][e]
    return tuple(map(tuple, second)), tuple(first)


def test_sublaplacian_matches_full_differential_assembly(h1, h2, engel):
    # the assembly on the horizontal frame Lambda B against the one on the
    # full Lambda it replaced
    groups = (
        h1, h2, heisenberg_group(3, (1, Rat(3, 2), 2)), engel, _filiform5(),
        _filiform5(((1, 0, 0, 0, 0), (1, 1, 0, 0, 0)), ((3, 1), (1, 2))),
    )
    for group in groups:
        op = sublaplacian(group)
        assert (op.second_order, op.first_order) == _full_differential_tables(group), group


def test_mirrored_entries_are_one_polynomial(h2):
    # a symmetric table is summed on its upper triangle and each entry is
    # reduced once, so a mirrored pair is one shared (immutable) Polynomial;
    # the skewed filiform group has a non-diagonal cometric, so its pullback
    # table has nonzero off-diagonal entries
    skewed = _filiform5(((1, 0, 0, 0, 0), (1, 1, 0, 0, 0)), ((3, 1), (1, 2)))
    a = (Rat(1), Rat(-2), Rat(1, 3), Rat(2), Rat(-1, 2))
    tables = (sublaplacian(h2).second_order, sublaplacian(filiform_group(6)).second_order,
              pullback_operator(left_translation(h2, a[:5]), h2, h2).second,
              pullback_operator(left_translation(skewed, a), skewed, skewed).second)
    for table in tables:
        assert all(table[i][j] is table[j][i]
                   for i in range(len(table)) for j in range(i + 1, len(table)))
    assert any(table[0][1] for table in tables[2:])


def _rebased(group, p):
    """The group with polarization basis B P and Gram matrix P^T G P: the
    same V_1 and the same metric on it, in another basis."""
    basis = linalg.transpose(linalg.mat_mul(group.polarization.matrix(), p))
    gram = linalg.mat_mul(linalg.mat_mul(linalg.transpose(p), group.metric.gram), p)
    return subriemannian_group(group.algebra, basis, gram)


def test_sublaplacian_is_independent_of_the_polarization_basis(engel):
    # the sub-Laplacian, hence the commutation verdict, depends on the
    # metric on V_1 only: the identity between two descriptions of one
    # metric is conformal with lambda_sq = 1 and b = 0
    p2 = linalg.mat(((2, 1), (Rat(-1, 3), 1)))
    p4 = linalg.mat(((1, 2, 0, -1), (0, Rat(1, 2), 1, 0), (0, 0, 3, Rat(2, 3)),
                     (0, 0, 0, -1)))
    cases = ((heisenberg_group(2, (1, 2)), p4), (engel, p2),
             (_filiform5(gram=((2, 1), (1, 1))), p2))
    for group, p in cases:
        other = _rebased(group, p)
        assert other.polarization != group.polarization
        assert other.metric != group.metric
        op, rebased = sublaplacian(group), sublaplacian(other)
        assert rebased.second_order == op.second_order
        assert rebased.first_order == op.first_order
        n = group.dim
        for source, target in ((group, other), (other, group)):
            report = analyze_commutation(PolyMap.identity(n), source, target)
            assert report.conformal, report.reason
            assert report.lambda_sq == Polynomial.constant(1, n)
            assert all(v.is_zero for v in report.b)


def test_sublaplacian_scaled_metric_orthonormal_frame():
    # gram = diag(1/4, 1/4): the orthonormal frame is (2X, 2Y)
    group = heisenberg_group(1, (2,))
    op = sublaplacian(group)
    for u in monomials_up_to(3, 3):
        expect = Polynomial.zero(3)
        for vec in ((2, 0, 0), (0, 2, 0)):
            expect = expect + lie_derivative(lie_derivative(u, vec, group), vec, group)
        assert op.apply(u) == expect


def test_sublaplacian_left_invariance(engel, rng):
    op = sublaplacian(engel)
    for _ in range(3):
        a = random_vector(rng, 4, 3, 3)
        la = left_translation(engel, a).components
        for u in (Polynomial.parse("x3*x4", 4), Polynomial.parse("x1^2*x2", 4)):
            assert op.apply(u.subs(la)) == op.apply(u).subs(la)


def test_sublaplacian_dilation_covariance(h1, engel):
    lam = Rat(3)
    for group in (h1, engel):
        op = sublaplacian(group)
        d = dilation(group, lam).components
        for u in monomials_up_to(group.dim, 2):
            assert op.apply(u.subs(d)) == op.apply(u).subs(d) * lam**2


def test_sublaplacian_requires_nilpotency():
    sl2 = sl2_algebra()
    group = subriemannian_group(sl2, (sl2.basis_vector(0), sl2.basis_vector(1)), EYE2)
    with pytest.raises(NotNilpotent):
        sublaplacian(group)


# ---------------------------------------------------------------------------
# the caches the benchmark tracer reads


def test_bench_tracer_caches_resolve():
    # bench/tracer.py reads cache_info() of these lru_caches by name, so a
    # cache renamed or removed here breaks the traced benchmark run
    path = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("bench_tracer", path)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    assert tracer.LRU_CACHES
    for module, name in tracer.LRU_CACHES:
        fn = getattr(importlib.import_module("sublap." + module), name)
        assert callable(fn) and callable(fn.cache_info), (module, name)


def test_bench_tracer_restores_every_binding():
    # Tracer.install() wraps every public function at each module binding,
    # the lru_caches, the hot Polynomial methods, DifferentialOperator.apply
    # and cli._emit by name; a rename of any of them fails install() here,
    # and uninstall() must put every original back
    import sys
    from sublap import cli, operators, polynomial
    path = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("bench_tracer", path)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    for name in tracer.TRACED_MODULES:
        importlib.import_module("sublap." + name)
    owners = [m for name, m in sys.modules.items()
              if name == "sublap" or name.startswith("sublap.")]
    owners += [polynomial.Polynomial, DifferentialOperator]
    before = [(owner, dict(vars(owner))) for owner in owners]
    emit, mul, apply = cli._emit, polynomial.Polynomial.__mul__, DifferentialOperator.apply
    t = tracer.Tracer()
    try:
        t.install()
        assert cli._emit.__wrapped_original__ is emit
        assert polynomial.Polynomial.__mul__.__wrapped_original__ is mul
        assert DifferentialOperator.apply.__wrapped_original__ is apply
        assert operators.sublaplacian.__wrapped_original__ is sublaplacian
    finally:
        t.uninstall()
    for owner, attrs in before:
        after = vars(owner)
        assert set(after) == set(attrs), owner
        assert all(after[k] is v for k, v in attrs.items()), owner


def test_equal_groups_share_cache_entries():
    # groups built separately but equal hash equal, so the per-group caches
    # keep one entry for both
    a, b = heisenberg_group(2, (Rat(2, 3), 5)), heisenberg_group(2, (Rat(2, 3), 5))
    assert a is not b and a == b
    assert a.algebra is not b.algebra and hash(a.algebra) == hash(b.algebra)
    assert hash(a) == hash(b)
    op = sublaplacian(a)
    before = sublaplacian.cache_info()
    assert sublaplacian(b) is op
    after = sublaplacian.cache_info()
    assert (after.hits, after.misses, after.currsize) == \
        (before.hits + 1, before.misses, before.currsize)
    assert heisenberg_group(2, (Rat(2, 3), 6)) != a


def test_per_group_caches_keep_a_bounded_number_of_groups():
    # the caches keyed on a group are bounded, so groups a caller drops are
    # freed once the caches have moved past them
    import gc
    import weakref
    from sublap.calculus import group_product_map, left_translation_jacobian
    caches = (sublaplacian, left_translation_jacobian, group_product_map)
    bound = max(cache.cache_parameters()["maxsize"] for cache in caches)
    basis = ((1, 0, 0), (0, 1, 0))
    refs = []
    for i in range(200):
        group = subriemannian_group(heisenberg_algebra(1), basis, ((1 + i, 0), (0, 1)))
        for cache in caches:
            cache(group)
        refs.append(weakref.ref(group))
    del group
    gc.collect()
    assert 0 < sum(ref() is not None for ref in refs) <= bound < 200


# ---------------------------------------------------------------------------
# gradient, pairing, frame components, divergence


def test_gradient_examples(h1):
    assert gradient(p3("x3"), h1) == (p3("-1/2*x2"), p3("1/2*x1"))
    assert gradient(p3("x1"), h1) == (p3("1"), p3("0"))
    with pytest.raises(ValueError):
        gradient(Polynomial.parse("x1", 2), h1)


def test_gradient_pairing_identity(h1, rng):
    # <grad u, gamma> = sum gamma_j (v_j~ u) for any frame components gamma
    u = p3("x1^2*x3 + x2")
    grad = gradient(u, h1)
    gamma = (p3("x2"), p3("x1*x3"))
    lhs = horizontal_inner(grad, gamma, h1)
    rhs = gamma[0] * lie_derivative(u, (1, 0, 0), h1) + \
        gamma[1] * lie_derivative(u, (0, 1, 0), h1)
    assert lhs == rhs


def test_gradient_respects_metric():
    group = heisenberg_group(1, (2,))
    # gram = diag(1/4): gradient components are 4 * frame derivatives
    assert gradient(p3("x1"), group) == (p3("4"), p3("0"))
    # but |grad u|^2 pairs back through the gram
    sq = horizontal_inner(gradient(p3("x1"), group), gradient(p3("x1"), group), group)
    assert sq == p3("4")


def test_frame_components(h1):
    assert frame_components((p3("x2"), p3("x1"), p3("0")), h1) == (p3("x2"), p3("x1"))
    assert frame_components((1, 2, 0), h1) == (
        Polynomial.constant(Rat(1), 3), Polynomial.constant(Rat(2), 3))
    with pytest.raises(ValueError, match="polarization"):
        frame_components((p3("0"), p3("0"), p3("1")), h1)
    with pytest.raises(ValueError, match="components"):
        frame_components((p3("1"), p3("0")), h1)


def test_frame_components_foreign_variables(h2):
    # entries may live over another coordinate system (e.g. a map's source)
    two_var = Polynomial.parse("x1*x2", 2)
    vec = (two_var, Polynomial.zero(2), Polynomial.zero(2), Polynomial.zero(2),
           Polynomial.zero(2))
    assert frame_components(vec, h2)[0] == two_var


def _random_poly(rng, nvars):
    return Polynomial(nvars, {tuple(rng.randint(0, 2) for _ in range(nvars)):
                              random_rational(rng) for _ in range(rng.randint(0, 3))})


@pytest.mark.parametrize("name", ["h1", "h2", "engel", "skewed engel", "filiform5", "r2"])
def test_frame_components_matches_pivot_row_solve(name, request, rng):
    # vectors in the span are solved as the pivot-row solve does, in the
    # group's own variables, in fewer and in more; vectors moved off the span
    # are refused by both
    group = {"skewed engel": _skewed_engel, "filiform5": _filiform5}.get(
        name, lambda: request.getfixturevalue(name))()
    bmat = group.polarization.matrix()
    for nvars in (group.dim, 1, group.dim + 2):
        for _ in range(10):
            gamma = tuple(_random_poly(rng, nvars) for _ in range(group.rank))
            vec = tuple(sum((g * b for g, b in zip(gamma, row) if b), Polynomial.zero(nvars))
                        for row in bmat)
            assert frame_components(vec, group) == pivot_row_frame_components(vec, group) \
                == gamma
            off = random_vector(rng, group.dim)
            if linalg.rank(group.polarization.basis + (off,)) == group.rank:
                continue  # off lies in the span
            shift = _random_poly(rng, nvars) or Polynomial.constant(1, nvars)
            moved = tuple(v + shift * x for v, x in zip(vec, off))
            for solve in (frame_components, pivot_row_frame_components):
                with pytest.raises(ValueError, match="polarization"):
                    solve(moved, group)
    coeffs = random_vector(rng, group.rank)
    constant = linalg.mat_vec(bmat, coeffs)
    assert frame_components(constant, group) == pivot_row_frame_components(constant, group) \
        == tuple(Polynomial.constant(c, group.dim) for c in coeffs)


def test_divergence(engel, rng):
    for _ in range(5):
        x = random_vector(rng, 4)
        assert divergence(left_invariant_field(x, engel), engel).is_zero
    quad = (Polynomial.parse("x1^2", 4), Polynomial.zero(4),
            Polynomial.zero(4), Polynomial.zero(4))
    assert divergence(quad, engel) == Polynomial.parse("2*x1", 4)


# ---------------------------------------------------------------------------
# DifferentialOperator container rules


def test_operator_requires_symmetric_table():
    z = Polynomial.zero(2)
    one = Polynomial.constant(Rat(1), 2)
    with pytest.raises(ValueError, match="symmetric"):
        DifferentialOperator(2, ((z, one), (z, z)), (z, z), z)
    with pytest.raises(ValueError, match="second-order"):
        DifferentialOperator(2, ((z, z),), (z, z), z)
    op = DifferentialOperator(2, ((one, z), (z, one)), (z, z), z)
    with pytest.raises(ValueError, match="variables"):
        op.apply(p3("x1"))


def test_operator_zero_order_term():
    one = Polynomial.constant(Rat(1), 1)
    z = Polynomial.zero(1)
    op = DifferentialOperator(1, ((z,),), (z,), one + one)
    assert op.apply(Polynomial.parse("x1", 1)) == Polynomial.parse("2*x1", 1)


# ---------------------------------------------------------------------------
# pullback decomposition


def test_pullback_of_identity(h1):
    pull = pullback_operator(PolyMap.identity(3), h1, h1)
    q = cometric(h1).matrix
    for c in range(3):
        for d in range(3):
            assert pull.second[c][d] == Polynomial.constant(q[c][d], 3)
    assert all(c.is_zero for c in pull.first)
    for u in monomials_up_to(3, 3):
        assert pull.apply(u) == sublaplacian(h1).apply(u)


def test_pullback_of_left_translation(h1):
    a = (Rat(1), Rat(-2), Rat(1, 3))
    la = left_translation(h1, a)
    pull = pullback_operator(la, h1, h1)
    q = cometric(h1).matrix
    for c in range(3):
        for d in range(3):
            assert pull.second[c][d] == Polynomial.constant(q[c][d], 3)
    assert all(c.is_zero for c in pull.first)
    op = sublaplacian(h1)
    for u in monomials_up_to(3, 2):
        assert pull.apply(u) == op.apply(u).subs(la.components)


def test_pullback_of_dilation(h1):
    lam = Rat(2)
    d = dilation(h1, lam)
    pull = pullback_operator(d, h1, h1)
    q = cometric(h1).matrix
    for c in range(3):
        for e in range(3):
            assert pull.second[c][e] == Polynomial.constant(lam**2 * q[c][e], 3)
    assert all(c.is_zero for c in pull.first)
    op = sublaplacian(h1)
    for u in monomials_up_to(3, 2):
        assert pull.apply(u) == op.apply(u).subs(d.components) * lam**2


def test_pullback_of_constant_map(h1):
    f = PolyMap.parse(["1", "2", "3"], 3)
    pull = pullback_operator(f, h1, h1)
    assert all(e.is_zero for row in pull.second for e in row)
    assert all(c.is_zero for c in pull.first)
    assert pull.apply(p3("x1^2 + x3")).is_zero


def test_pullback_matches_direct_composition(h1, h2, engel):
    # Delta_G(u o F) for maps that are not group maps at all, and for left
    # translations of step >= 3 targets, whose frame Lambda is nonlinear so
    # that apply() needs the derivatives e_d~ Lambda_kc of the frame
    skewed, filiform5 = _skewed_engel(), _filiform5()
    cases = [
        (PolyMap.parse(["x1", "x2", "x3 + x1^2"], 3), h1, h1),
        (PolyMap.parse(["x1 + x2^2", "x2", "x3", "x1*x2", "x3 - x1"], 3), h1, h2),
        (left_translation(engel, (1, Rat(-2, 3), Rat(1, 2), 3)), engel, engel),
        (left_translation(skewed, (Rat(3, 4), 2, -1, Rat(1, 5))), skewed, skewed),
        (left_translation(filiform5, (Rat(1, 2), -1, 2, Rat(-3, 4), 1)),
         filiform5, filiform5),
        (PolyMap.parse(["x1 + x2^2", "x2 - x1*x3", "1/2*x3", "x1^3 + x2"], 3), h1, engel),
        (PolyMap.parse(["x1*x2", "x2 + x3", "x4 - 2/3*x1^2", "x5"], 5), filiform5, skewed),
    ]
    several = {
        3: ["1/2*x1^2*x3 - 3/5*x2*x3 + 2*x2^3 - x1 + 7/3"],
        4: ["1/2*x1^2*x2 - 3/5*x3*x4 + 2*x2^3 - x4 + 7/3",
            "x1*x2*x3 + 4/7*x4^2 - 1/3*x1^3 + 5/2*x2*x4"],
        5: ["2/3*x1*x5 - x3^2*x4 + 1/2*x2^3 + 5 - 3/7*x1*x2*x4",
            "x4*x5 - 5/3*x1^2*x3 + 1/4*x2^2"],
    }
    # one degree-8 u on each target, whose terms need the powers of F up to 8
    several[3].append("x1^3*x2^2*x3^3 - 2/5*x2^8 + x1*x3^4 - 3")
    several[4].append("x1^2*x2^3*x3*x4^2 - 2/5*x3^8 + x1*x4^5 - 3")
    several[5].append("x1^2*x2*x3*x4^2*x5^2 - 2/5*x5^8 + x2^4*x4 - 3")
    for f, source, target in cases:
        pull = pullback_operator(f, source, target)
        op = sublaplacian(source)
        probes = list(monomials_up_to(target.dim, 2))
        probes += [Polynomial.parse(s, target.dim) for s in several[target.dim]]
        for u in probes:
            assert pull.apply(u) == op.apply(u.subs(f.components)), (f, u)


def test_pullback_apply_checks_variables(h1):
    pull = pullback_operator(PolyMap.identity(3), h1, h1)
    with pytest.raises(ValueError):
        pull.apply(Polynomial.parse("x1", 2))
