"""The BCH layer is checked against two independent oracles before anything
downstream relies on it: exact log(exp X exp Y) in strictly upper triangular
matrix algebras (which kill all brackets beyond their size), and exact
Lagrange differentiation of polynomial curves through rational points."""

import functools
import itertools
import random
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (bch_left_translation_jacobian, bch_lie_differential, curve_derivative,
                     dynkin_product, heisenberg_rep, engel_rep, mmul, mscale, madd,
                     nilpotent_exp, nilpotent_log, poly_mat_eval, poly_matrix_product,
                     rep_product, second_lie_differential)
from conftest import filiform_group, gallery_maps, random_rational, random_vector, \
    seeded_homomorphisms
from sublap.algebra import LieAlgebra, NotStratifiable, subriemannian_group
from sublap.calculus import (NotNilpotent, _homomorphism_rows, bch_product, bernoulli_numbers,
                             dilation, dynkin_terms, group_product_map, horizontal_differential,
                             left_invariant_field, left_translation,
                             left_translation_jacobian,
                             lie_derivative, lie_differential, require_step,
                             right_translation)
from sublap.catalog import engel_group, abelian_group, sl2_algebra
from sublap.heisenberg import heisenberg_group
from sublap.polynomial import Polynomial, PolyMap, _to_prows, monomials_up_to
from sublap.rational import Rat


def det(m):
    n = len(m)
    total = Rat(0)
    for perm in itertools.permutations(range(n)):
        sign = Rat(1)
        for i in range(n):
            for j in range(i + 1, n):
                if perm[i] > perm[j]:
                    sign = -sign
        prod = sign
        for i in range(n):
            prod = prod * m[i][perm[i]]
        total = total + prod
    return total


# ---------------------------------------------------------------------------
# the Dynkin expansion itself, against matrix log(exp X exp Y)


def _word_value_matrix(word, mats):
    val = mats[word[-1]]
    for letter in reversed(word[:-1]):
        a = mats[letter]
        val = madd(mmul(a, val), mscale(Rat(-1), mmul(val, a)))
    return val


def _dynkin_eval(step, x, y):
    n = len(x)
    total = [[Rat(0)] * n for _ in range(n)]
    for coeff, word in dynkin_terms(step):
        total = madd(total, mscale(coeff, _word_value_matrix(word, (x, y))))
    return tuple(tuple(row) for row in total)


def _random_strictly_upper(rng, n):
    return tuple(
        tuple(random_rational(rng, 4, 4) if j > i else Rat(0) for j in range(n))
        for i in range(n)
    )


@pytest.mark.parametrize("size,step", [(5, 4), (6, 5)])
def test_dynkin_matches_matrix_logarithm(size, step):
    # products of `size` strictly upper matrices vanish, so the exact
    # log(exp X exp Y) equals the Dynkin sum through degree size - 1
    rng = random.Random(100 + size)
    for _ in range(3):
        x = _random_strictly_upper(rng, size)
        y = _random_strictly_upper(rng, size)
        exact = nilpotent_log(mmul(nilpotent_exp(x), nilpotent_exp(y)))
        assert _dynkin_eval(step, x, y) == exact


def test_dynkin_low_degree_coefficients():
    table = {word: coeff for coeff, word in dynkin_terms(4)}
    assert table[(0,)] == 1
    assert table[(1,)] == 1
    assert table[(0, 1)] == Rat(1, 2)
    assert table[(0, 0, 1)] == Rat(1, 12)
    assert table[(1, 0, 1)] == Rat(-1, 12)
    degree4 = {w: c for w, c in table.items() if len(w) == 4}
    assert degree4 == {(0, 1, 0, 1): Rat(-1, 48), (1, 0, 0, 1): Rat(-1, 48)}
    assert all(w[-2] < w[-1] for w in table if len(w) >= 2)  # canonical innermost pair


# ---------------------------------------------------------------------------
# bch_product against faithful representations


def test_bch_matches_heisenberg_representation(h1, h2, rng):
    for group, n in ((h1, 1), (h2, 2)):
        embed, extract = heisenberg_rep(n)
        for _ in range(10):
            p = random_vector(rng, group.dim)
            q = random_vector(rng, group.dim)
            assert bch_product(p, q, group.algebra) == rep_product(embed, extract, p, q)


def test_bch_matches_engel_representation(engel, rng):
    embed, extract = engel_rep()
    for _ in range(10):
        p = random_vector(rng, 4)
        q = random_vector(rng, 4)
        assert bch_product(p, q, engel.algebra) == rep_product(embed, extract, p, q)


def test_engel_generator_product(engel):
    e1 = (1, 0, 0, 0)
    e2 = (0, 1, 0, 0)
    assert bch_product(e1, e2, engel.algebra) == (1, 1, Rat(1, 2), Rat(1, 12))


def test_heisenberg_symbolic_product(h1):
    prod = group_product_map(h1)
    expect = [
        Polynomial.parse("x1 + x4", 6),
        Polynomial.parse("x2 + x5", 6),
        Polynomial.parse("x3 + x6 + 1/2*x1*x5 - 1/2*x2*x4", 6),
    ]
    assert list(prod.components) == expect


def test_group_axioms(engel, h2, rng):
    for group in (engel, h2):
        zero = tuple(Rat(0) for _ in range(group.dim))
        for _ in range(6):
            p = random_vector(rng, group.dim, 5, 5)
            q = random_vector(rng, group.dim, 5, 5)
            r = random_vector(rng, group.dim, 5, 5)
            assert bch_product(p, zero, group.algebra) == p
            assert bch_product(zero, p, group.algebra) == p
            inv = tuple(-x for x in p)
            assert bch_product(p, inv, group.algebra) == zero
            left = bch_product(bch_product(p, q, group.algebra), r, group.algebra)
            right = bch_product(p, bch_product(q, r, group.algebra), group.algebra)
            assert left == right


def test_bch_requires_nilpotency():
    with pytest.raises(NotNilpotent):
        bch_product((1, 0, 0), (0, 1, 0), sl2_algebra())


def _oracle_groups(h1, h2, engel):
    """Heisenberg groups, Engel, a filiform-5 polarized off its axes, and the
    model filiform groups of dimension 4 to 9 (steps 3 to 8)."""
    filiforms = [filiform_group(n) for n in range(4, 10)]
    return [h1, h2, heisenberg_group(3, (1, Rat(3, 2), 2)), engel, _skewed_filiform5()] + \
        filiforms


def _skewed_filiform5():
    """The model filiform-5 group polarized by (e1, e1 + e2), Gram ((3, 1), (1, 2))."""
    return subriemannian_group(filiform_group(5).algebra, ((1, 0, 0, 0, 0), (1, 1, 0, 0, 0)),
                               ((3, 1), (1, 2)))


def test_bch_matches_the_dynkin_sum(h1, h2, engel, rng):
    # the Bernoulli recursion against Dynkin's word sum, exactly, on rational
    # points, on the symbolic product and on both translations by a point
    for group in _oracle_groups(h1, h2, engel):
        alg, n, step = group.algebra, group.dim, group.step
        for _ in range(3):
            p, q = random_vector(rng, n), random_vector(rng, n)
            assert bch_product(p, q, alg) == dynkin_product(p, q, alg, step)
        xs = PolyMap.identity(2 * n).components
        assert group_product_map(group).components == \
            dynkin_product(xs[:n], xs[n:], alg, step), group
        a, xs = random_vector(rng, n), PolyMap.identity(n).components
        assert left_translation(group, a).components == dynkin_product(a, xs, alg, step)
        assert right_translation(group, a).components == dynkin_product(xs, a, alg, step)


def test_a_polynomial_entry_makes_every_entry_polynomial(h1):
    x1 = Polynomial.variable(0, 3)
    prod = bch_product((1, x1, 0), (0, 1, 0), h1.algebra)
    assert all(isinstance(c, Polynomial) for c in prod)
    assert prod == tuple(Polynomial.parse(c, 3) for c in ("1", "x1 + 1", "1/2"))


def test_products_compute_the_step_once_per_algebra(monkeypatch):
    # bch_product without a step reads LieAlgebra.step, which runs
    # nilpotency_step on first use only
    import sublap.algebra
    import sublap.calculus
    calls = []
    original = sublap.algebra.nilpotency_step

    def counted(algebra):
        calls.append(algebra)
        return original(algebra)

    monkeypatch.setattr(sublap.algebra, "nilpotency_step", counted)
    monkeypatch.setattr(sublap.calculus, "nilpotency_step", counted, raising=False)
    algebra = engel_group().algebra
    fresh = LieAlgebra(algebra.dim, algebra.structure_constants)
    p, q = (1, Rat(-1, 2), 2, 3), (Rat(1, 3), 0, -1, 1)
    for _ in range(1000):
        assert bch_product(p, q, fresh) == bch_product(p, q, algebra, step=3)
    assert calls == [fresh]


def test_products_never_read_the_dynkin_table(engel):
    dynkin_terms.cache_clear()
    a = (1, Rat(-1, 2), 2, 3)
    bch_product(a, a, engel.algebra)
    group_product_map.__wrapped__(engel)  # past the cache, so the product is built
    left_translation(engel, a)
    right_translation(engel, a)
    info = dynkin_terms.cache_info()
    assert (info.hits, info.misses) == (0, 0)


def test_left_translation_at_high_step_is_fast():
    # the model filiform-12 group has step 11; building Dynkin's expansion to
    # that degree took seconds, the recursion takes hundredths
    group = filiform_group(12)
    a = (1,) * 12
    start = time.perf_counter()
    translation = left_translation(group, a)
    assert time.perf_counter() - start < 1.0
    assert translation((0,) * 12) == a


# ---------------------------------------------------------------------------
# left-invariant frame


def test_left_translation_jacobian_heisenberg(h1):
    lam = left_translation_jacobian(h1)
    expect = [
        ["1", "0", "0"],
        ["0", "1", "0"],
        ["-1/2*x2", "1/2*x1", "1"],
    ]
    for row, erow in zip(lam, expect):
        for entry, s in zip(row, erow):
            assert entry == Polynomial.parse(s, 3)


def test_bernoulli_numbers():
    assert bernoulli_numbers(11) == tuple(Rat(x) for x in (
        1, Rat(1, 2), Rat(1, 6), 0, Rat(-1, 30), 0, Rat(1, 42), 0, Rat(-1, 30), 0, Rat(5, 66)))


def test_jacobian_matches_bch_oracle(h1, h2, engel):
    # the Bernoulli series ad_p / (1 - e^{-ad_p}) against the derivative of
    # the symbolic BCH product p * q in q at q = 0
    for group in _oracle_groups(h1, h2, engel):
        assert left_translation_jacobian(group) == bch_left_translation_jacobian(group), group


def test_jacobian_is_identity_at_origin(h2, engel):
    for group in (h2, engel):
        lam = left_translation_jacobian(group)
        origin = tuple(Rat(0) for _ in range(group.dim))
        assert poly_mat_eval(lam, origin) == tuple(
            tuple(Rat(1) if i == j else Rat(0) for j in range(group.dim))
            for i in range(group.dim)
        )


def test_jacobian_is_unimodular(h2, engel, rng):
    # Lebesgue measure is Haar: the frame change has determinant one
    for group in (h2, engel):
        lam = left_translation_jacobian(group)
        for _ in range(5):
            p = random_vector(rng, group.dim)
            assert det(poly_mat_eval(lam, p)) == 1


def test_left_invariant_fields_heisenberg(h1):
    x = left_invariant_field((1, 0, 0), h1)
    assert [str(c) for c in x.components] == ["1", "0", "-1/2*x2"]
    y = left_invariant_field((0, 1, 0), h1)
    assert [str(c) for c in y.components] == ["0", "1", "1/2*x1"]
    z = left_invariant_field((0, 0, 1), h1)
    assert [str(c) for c in z.components] == ["0", "0", "1"]
    # the frame closes the bracket relations of the algebra
    assert x.bracket(y).components == z.components


def test_left_invariant_fields_abelian(r2):
    v = left_invariant_field((3, Rat(1, 2)), r2)
    assert [str(c) for c in v.components] == ["3", "1/2"]


def test_left_invariant_field_by_curve_oracle(engel, rng):
    # d/dt at 0 of p * (t x) equals the field at p; the curve is polynomial
    # of degree < 4 in t, so five nodes differentiate it exactly
    for _ in range(20):
        p = random_vector(rng, 4, 5, 5)
        x = random_vector(rng, 4, 3, 3)
        field = left_invariant_field(x, engel)
        symbolic = tuple(c.evaluate(p) for c in field.components)

        def curve(t):
            return bch_product(p, tuple(t * xi for xi in x), engel.algebra)

        assert symbolic == curve_derivative(curve, 4)


def test_field_at_origin_is_the_vector(engel, rng):
    origin = (Rat(0),) * 4
    for _ in range(5):
        x = random_vector(rng, 4)
        field = left_invariant_field(x, engel)
        assert tuple(c.evaluate(origin) for c in field.components) == x


def test_lie_derivative(h1):
    z = Polynomial.parse("x3", 3)
    assert lie_derivative(z, (1, 0, 0), h1) == Polynomial.parse("-1/2*x2", 3)
    assert lie_derivative(z, (0, 1, 0), h1) == Polynomial.parse("1/2*x1", 3)
    u = Polynomial.parse("x1*x3", 3)
    v = Polynomial.parse("x2", 3)
    x = (1, 2, 3)
    lhs = lie_derivative(u * v, x, h1)
    assert lhs == lie_derivative(u, x, h1) * v + u * lie_derivative(v, x, h1)


# ---------------------------------------------------------------------------
# translations and dilations


def test_translations(engel, rng):
    for _ in range(5):
        a = random_vector(rng, 4, 5, 5)
        p = random_vector(rng, 4, 5, 5)
        la = left_translation(engel, a)
        ra = right_translation(engel, a)
        assert la(p) == bch_product(a, p, engel.algebra)
        assert ra(p) == bch_product(p, a, engel.algebra)
        zero = (Rat(0),) * 4
        assert la(zero) == a and ra(zero) == a


def test_left_translation_composition(h2, rng):
    a = random_vector(rng, 5, 4, 4)
    b = random_vector(rng, 5, 4, 4)
    ab = bch_product(a, b, h2.algebra)
    assert left_translation(h2, a).compose(left_translation(h2, b)) == \
        left_translation(h2, ab)


def test_dilation_matrices(h1, engel):
    d2 = dilation(h1, 2)
    p = (Rat(1), Rat(1), Rat(1))
    assert d2(p) == (2, 2, 4)
    d3 = dilation(engel, 3)
    assert d3((1, 1, 1, 1)) == (3, 3, 9, 27)


def test_dilation_is_automorphism(engel, rng):
    lam = Rat(3, 2)
    d = dilation(engel, lam)
    for _ in range(5):
        p = random_vector(rng, 4, 4, 4)
        q = random_vector(rng, 4, 4, 4)
        assert d(bch_product(p, q, engel.algebra)) == \
            bch_product(d(p), d(q), engel.algebra)


def test_dilation_requires_stratification():
    sl2 = sl2_algebra()
    eye2 = ((Rat(1), Rat(0)), (Rat(0), Rat(1)))
    group = subriemannian_group(sl2, (sl2.basis_vector(0), sl2.basis_vector(1)), eye2)
    with pytest.raises(NotNilpotent):
        require_step(group)
    with pytest.raises(NotStratifiable):
        dilation(group, 2)


def test_nonstratified_nilpotent_group_has_no_dilation():
    # polarization spans the algebra of step 2: generates but does not grade
    alg = LieAlgebra.from_brackets(3, {(0, 1): {2: 1}})
    eye3 = tuple(tuple(Rat(1) if i == j else Rat(0) for j in range(3)) for i in range(3))
    group = subriemannian_group(alg, alg.basis(), eye3)
    assert group.step == 2 and group.strata is None
    with pytest.raises(NotStratifiable):
        dilation(group, 2)


# ---------------------------------------------------------------------------
# intrinsic differential


def _const_matrix_of(df):
    out = []
    for row in df:
        orow = []
        for entry in row:
            assert entry.is_constant
            orow.append(entry.constant_value())
        out.append(tuple(orow))
    return tuple(out)


def test_differential_of_identity(h2):
    ident = PolyMap.identity(5)
    df = lie_differential(ident, h2, h2)
    assert _const_matrix_of(df) == tuple(
        tuple(Rat(1) if i == j else Rat(0) for j in range(5)) for i in range(5)
    )


def test_differential_of_automorphism_is_constant(h1):
    # blockdiag(M, det M) is an automorphism of the Heisenberg group
    m = ((Rat(2), Rat(1)), (Rat(1), Rat(1)))
    a = (
        (m[0][0], m[0][1], Rat(0)),
        (m[1][0], m[1][1], Rat(0)),
        (Rat(0), Rat(0), Rat(1)),  # det M = 1
    )
    f = PolyMap.linear(a)
    df = lie_differential(f, h1, h1)
    assert _const_matrix_of(df) == a


def test_differential_of_left_translation_is_identity(engel, rng):
    for _ in range(3):
        a = random_vector(rng, 4, 4, 4)
        df = lie_differential(left_translation(engel, a), engel, engel)
        assert _const_matrix_of(df) == tuple(
            tuple(Rat(1) if i == j else Rat(0) for j in range(4)) for i in range(4)
        )


def test_differential_of_dilation_is_weight_diagonal(engel):
    lam = Rat(5, 3)
    df = lie_differential(dilation(engel, lam), engel, engel)
    weights = (1, 1, 2, 3)
    assert _const_matrix_of(df) == tuple(
        tuple(lam**w if i == j else Rat(0) for j, w in enumerate(weights))
        for i, _ in enumerate(weights)
    )


def test_differential_by_nested_curve_oracle(h1, rng):
    # F is not a morphism, so DF is genuinely point dependent
    f = PolyMap.parse(["x1 + x2^2", "x2", "x3"], 3)
    df = lie_differential(f, h1, h1)
    alg = h1.algebra
    for _ in range(6):
        p = random_vector(rng, 3, 4, 4)
        fp_inv = tuple(-c for c in f(p))
        for j in range(3):
            ej = tuple(Rat(1) if i == j else Rat(0) for i in range(3))

            def curve(t):
                moved = bch_product(p, tuple(t * e for e in ej), alg)
                return bch_product(fp_inv, f(moved), alg)

            oracle = curve_derivative(curve, 6)
            symbolic = tuple(df[c][j].evaluate(p) for c in range(3))
            assert symbolic == oracle


def test_differential_chain_rule(h1):
    f = PolyMap.parse(["x1 + x2^2", "x2", "x3"], 3)
    g = PolyMap.parse(["x1", "x2 + x1^2", "x3"], 3)
    df = lie_differential(f, h1, h1)
    dg = lie_differential(g, h1, h1)
    dgf = lie_differential(g.compose(f), h1, h1)
    # (DG o F) . DF
    comp = tuple(tuple(e.subs(f.components) for e in row) for row in dg)
    product = tuple(
        tuple(
            sum((comp[c][k] * df[k][j] for k in range(3)), Polynomial.zero(3))
            for j in range(3)
        )
        for c in range(3)
    )
    assert dgf == product


def _random_map(rng, source_dim, target_dim):
    """Each component a sum of four random monomials of degree <= 2."""
    monomials = monomials_up_to(source_dim, 2)
    comps = []
    for _ in range(target_dim):
        comp = Polynomial.zero(source_dim)
        for u in rng.sample(monomials, 4):
            comp = comp + u * random_rational(rng, 5, 4)
        comps.append(comp)
    return PolyMap(source_dim, tuple(comps))


def test_differential_matches_bch_oracle(h1, h2, engel, r2):
    # the closed form Lambda_H(F)^-1 JF Lambda_G against the derivative of the
    # BCH curve (-F(p)) * F(p * t e_j), symbolically, across group pairs
    groups = (h1, h2, engel, filiform_group(5), r2, abelian_group(3))
    rng = random.Random(3030)
    cases = [(_random_map(rng, s.dim, t.dim), s, t)
             for s in groups for t in groups for _ in range(2)]
    cases += gallery_maps()
    assert len(cases) == 84
    for f, source, target in cases:
        assert lie_differential(f, source, target) == \
            bch_lie_differential(f, source, target), (f, source.dim, target.dim)


def test_horizontal_differential_is_differential_on_polarization(h1, h2, engel, r2):
    # DF B_G built without DF, on the 84 cases of the BCH-oracle test above
    groups = (h1, h2, engel, filiform_group(5), r2, abelian_group(3))
    rng = random.Random(3030)
    cases = [(_random_map(rng, s.dim, t.dim), s, t)
             for s in groups for t in groups for _ in range(2)]
    cases += gallery_maps()
    assert len(cases) == 84
    for f, source, target in cases:
        b = tuple(tuple(Polynomial.constant(x, source.dim) for x in row)
                  for row in source.polarization.matrix())
        assert horizontal_differential(f, source, target) == \
            poly_matrix_product(lie_differential(f, source, target), b), \
            (f, source.dim, target.dim)


def test_differential_rejects_shape_mismatch(h1, engel):
    with pytest.raises(ValueError):
        lie_differential(PolyMap.identity(3), h1, engel)
    with pytest.raises(ValueError):
        horizontal_differential(PolyMap.identity(3), h1, engel)


# ---------------------------------------------------------------------------
# linear Lie homomorphisms: DF is the map's matrix, without the series


@functools.lru_cache(maxsize=None)
def _law_groups():
    return (heisenberg_group(1, (1,)), heisenberg_group(2, (1, 1)), engel_group(),
            filiform_group(5), abelian_group(2), abelian_group(3), abelian_group(4))


def _homomorphism(F, source, target):
    (comps,), den = _to_prows((F.components,))
    return _homomorphism_rows(comps, den, source, target)


def _preserves_products(F, source, target):
    """F(p * q) == F(p) * F(q), symbolically in the 2n coordinates of (p, q)."""
    n = source.dim
    xs = PolyMap.identity(2 * n).components
    fp = tuple(c.subs(xs[:n]) for c in F.components)
    fq = tuple(c.subs(xs[n:]) for c in F.components)
    product = bch_product(fp, fq, target.algebra, target.step)
    return F.compose(group_product_map(source)).components == product


ENTRIES = st.sampled_from((0, 0, 0, 1, -1, 2))


@st.composite
def linear_maps(draw):
    """(matrix, source, target): a seeded homomorphism with one entry moved
    by -1, 0 or 1, or a matrix of small integers between two of the
    groups."""
    if draw(st.booleans()):
        _, F, source, target = draw(st.sampled_from(seeded_homomorphisms(7)))
        matrix = [[c.constant_value() for c in row] for row in F.jacobian()]
        i, j = draw(st.integers(0, target.dim - 1)), draw(st.integers(0, source.dim - 1))
        matrix[i][j] += draw(st.integers(-1, 1))
    else:
        source, target = draw(st.sampled_from(_law_groups())), draw(st.sampled_from(_law_groups()))
        matrix = [[Rat(draw(ENTRIES)) for _ in range(source.dim)] for _ in range(target.dim)]
    return tuple(map(tuple, matrix)), source, target


@settings(max_examples=60, deadline=None)
@given(linear_maps())
def test_homomorphism_check_is_the_group_law(case):
    matrix, source, target = case
    F = PolyMap.linear(matrix)
    found = _homomorphism(F, source, target)
    assert (found is not None) == _preserves_products(F, source, target)
    if found is not None:
        rows, den = found
        assert tuple(tuple(Rat(row.get(k, 0), den) for k in range(source.dim))
                     for row in rows) == matrix


def test_homomorphism_check_examples(h1, h2, engel, r2):
    # dilations, similarities and quotient projections are homomorphisms
    for kind, F, source, target in seeded_homomorphisms(11):
        assert _homomorphism(F, source, target) is not None, kind
        assert _preserves_products(F, source, target), kind
    refused = [(PolyMap.parse(["x1", "x2", "2*x3"], 3), h1, h1),
               (PolyMap.parse(["x1", "x3", "x5"], 5), h2, h1),
               (PolyMap.parse(["x1", "x2", "x3", "x3"], 4), engel, engel),
               (PolyMap.parse(["x1", "x2", "0"], 2), r2, h1),
               # degree 1 in every component is not enough: a constant or a
               # square term refuses at once
               (PolyMap.parse(["x1 + 1", "x2", "x3"], 3), h1, h1),
               (PolyMap.parse(["x1", "x2", "x3 + x1^2"], 3), h1, h1),
               (left_translation(engel, (1, 2, 3, 4)), engel, engel)]
    for F, source, target in refused:
        assert _homomorphism(F, source, target) is None, F
        assert not _preserves_products(F, source, target), F


def test_homomorphism_differentials_match_the_bch_oracle():
    # the shortcut's constant DF and DF B_G against the BCH curve derivative
    cases = seeded_homomorphisms(5)
    skewed = _skewed_filiform5()
    cases.append(("dilation", dilation(skewed, Rat(-3, 2)), skewed, skewed))
    for kind, F, source, target in cases:
        assert _homomorphism(F, source, target) is not None, kind
        df = lie_differential(F, source, target)
        assert df == bch_lie_differential(F, source, target), kind
        b = tuple(tuple(Polynomial.constant(x, source.dim) for x in row)
                  for row in source.polarization.matrix())
        assert horizontal_differential(F, source, target) == poly_matrix_product(df, b), kind


# ---------------------------------------------------------------------------
# second differential


def test_second_differential_of_morphism_vanishes(h1):
    a = (
        (Rat(2), Rat(0), Rat(0)),
        (Rat(0), Rat(3), Rat(0)),
        (Rat(0), Rat(0), Rat(6)),
    )
    d2 = second_lie_differential(PolyMap.linear(a), h1, h1)
    for row in d2:
        for vec in row:
            assert all(c.is_zero for c in vec)


def test_second_differential_is_iterated_frame_derivative(h1):
    r1 = abelian_group(1)
    u = Polynomial.parse("x1^2*x3 + x2*x3", 3)
    f = PolyMap(3, (u,))
    d2 = second_lie_differential(f, h1, r1)
    for i in range(3):
        ei = tuple(Rat(1) if k == i else Rat(0) for k in range(3))
        for j in range(3):
            ej = tuple(Rat(1) if k == j else Rat(0) for k in range(3))
            expect = lie_derivative(lie_derivative(u, ei, h1), ej, h1)
            assert d2[i][j][0] == expect


def test_second_differential_antisymmetric_part_is_bracket(h1):
    # v_j v_i u - v_i v_j u = [v_j, v_i]~ u with [e_j, e_i] from the algebra
    r1 = abelian_group(1)
    u = Polynomial.parse("x3^2 + x1*x2*x3", 3)
    f = PolyMap(3, (u,))
    d2 = second_lie_differential(f, h1, r1)
    for i in range(3):
        for j in range(3):
            gap = d2[i][j][0] - d2[j][i][0]
            ei = tuple(Rat(1) if k == i else Rat(0) for k in range(3))
            ej = tuple(Rat(1) if k == j else Rat(0) for k in range(3))
            commutator = h1.algebra.bracket(ej, ei)
            assert gap == lie_derivative(u, commutator, h1)


def test_second_differential_by_nested_curve_oracle(h1, rng):
    f = PolyMap.parse(["x1", "x2", "x3 + x1^2"], 3)
    d2 = second_lie_differential(f, h1, h1)
    alg = h1.algebra

    def df_column_at(q, i):
        ei = tuple(Rat(1) if k == i else Rat(0) for k in range(3))
        fq_inv = tuple(-c for c in f(q))

        def inner(t):
            moved = bch_product(q, tuple(t * e for e in ei), alg)
            return bch_product(fq_inv, f(moved), alg)

        return curve_derivative(inner, 6)

    for _ in range(2):
        p = random_vector(rng, 3, 3, 3)
        for i in range(3):
            for j in range(3):
                ej = tuple(Rat(1) if k == j else Rat(0) for k in range(3))

                def outer(s):
                    moved = bch_product(p, tuple(s * e for e in ej), alg)
                    return df_column_at(moved, i)

                oracle = curve_derivative(outer, 6)
                symbolic = tuple(d2[i][j][c].evaluate(p) for c in range(3))
                assert symbolic == oracle
