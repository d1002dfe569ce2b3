from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import coeff_of, dense_poly_rat_mat_mul, is_rat, pad, reference_str, truncate
from sublap import linalg
from sublap.polynomial import (COEFF_BIT_BUDGET, TERM_BUDGET, MapPowers, Polynomial, PolyMap,
                               PolyVectorField, _from_prows, _prows_combination, _prows_mul,
                               _prows_rat_mul, _to_prows, linear_combination, monomials_up_to)
from sublap.rational import Rat

coeffs = st.fractions(min_value=-4, max_value=4, max_denominator=5).map(
    lambda f: Rat(f.numerator, f.denominator))


def polys(nvars=2, max_degree=3, max_terms=5):
    exponent = st.tuples(*([st.integers(0, max_degree)] * nvars))
    return st.dictionaries(exponent, coeffs, max_size=max_terms).map(
        lambda terms: Polynomial(nvars, terms))


def test_parse_and_str():
    p = Polynomial.parse("x1^2*x2 + 3*x1 - 1/2", 2)
    assert str(p) == "x1^2*x2 + 3*x1 - 1/2"
    assert p.coefficient((2, 1)) == 1
    assert p.coefficient((1, 0)) == 3
    assert p.coefficient((0, 0)) == Rat(-1, 2)


def test_parse_parentheses_and_unary_minus():
    p = Polynomial.parse("-(x1 - 2)*(x1 + 2)", 1)
    assert p == Polynomial.parse("4 - x1^2", 1)


def test_parse_rejects_unknown_variable():
    with pytest.raises(ValueError):
        Polynomial.parse("x3 + 1", 2)


def test_parse_term_budget():
    # a t-term base to the k may have C(t + k - 1, k) terms: (x1+x2+x3)^50
    # has 1326, under the budget, and the 100th and 200th powers are refused
    # before they are computed
    assert len(Polynomial.parse("(x1+x2+x3)^50", 3).terms) == 1326 <= TERM_BUDGET
    for power in (100, 200):
        with pytest.raises(ValueError, match="term budget of %d" % TERM_BUDGET):
            Polynomial.parse("(x1+x2+x3)^%d" % power, 3)
    # a one-term base stays one term, whatever the power
    assert Polynomial.parse("x1^99999999", 1).degree() == 99999999
    assert Polynomial.parse("(2*x1)^3 * (x1 + 1)^0", 1) == Polynomial.parse("8*x1^3", 1)
    # a product of a t_a-term and a t_b-term factor takes t_a * t_b term products
    def sum_of_powers(var, count):
        return "(%s)" % " + ".join("%s^%d" % (var, i) for i in range(count))

    right = sum_of_powers("x2", 50)
    with pytest.raises(ValueError, match="2000 term products"):
        Polynomial.parse(sum_of_powers("x1", 40) + "*" + right, 2)
    assert len(Polynomial.parse(sum_of_powers("x1", 30) + "*" + right, 2).terms) == 1500


def test_parse_coefficient_budget():
    # the k-th power of p may have coefficients of k * ceil(log2(s d)) bits
    # (s the sum of p's absolute numerators, d its denominator), a product
    # the sum of its factors' bounds; for 2*x1 and its powers the bounds are
    # exact
    assert Polynomial.parse("(2*x1)^2048", 1) == Polynomial.parse("%d*x1^2048" % 2 ** 2048, 1)
    assert Polynomial.parse("(2*x1)^1024 * (2*x1)^1024", 1) == \
        Polynomial.parse("(2*x1)^2048", 1)
    for text, bits in (("(2*x1)^2049", 2049), ("(2*x1)^1024 * (2*x1)^1025", 2049),
                       ("(x1+10^100)^300", 99900), ("(3*x1)^9999999", 19999998)):
        with pytest.raises(ValueError, match="coefficients of %d bits, over the coefficient "
                                             "budget of %d bits" % (bits, COEFF_BIT_BUDGET)):
            Polynomial.parse(text, 1)
    # ceil(log2 1) = 0: a one-term power with a unit coefficient is never refused
    assert Polynomial.parse("x1^99999999", 1).degree() == 99999999
    assert len(Polynomial.parse("(x1+1)^1499", 1).terms) == 1500


def test_parse_rejects_garbage():
    with pytest.raises(ValueError):
        Polynomial.parse("x1 +* 2", 2)
    with pytest.raises(ValueError):
        Polynomial.parse("x1^-2", 2)


@pytest.mark.parametrize("text", ["x1 + 1/0", "x1^2/00", "1/0*x1"])
def test_parse_refuses_a_zero_denominator(text):
    # rat("1/0") raised ZeroDivisionError, which no caller expected
    with pytest.raises(ValueError, match="cannot tokenize polynomial at '/0"):
        Polynomial.parse(text, 2)
    assert Polynomial.parse("3/010*x1", 2) == Polynomial.parse("3/10*x1", 2)


@pytest.mark.parametrize("text", ["(" * 300 + "x1" + ")" * 300, "x1*" + "-" * 2000 + "x2",
                                  "x1 + " + "(" * 400 + "1" + ")" * 400],
                         ids=["parentheses", "unary-minus", "sum"])
def test_parse_refuses_deep_nesting(text):
    # the recursive descent raised RecursionError
    with pytest.raises(ValueError, match="nested too deeply"):
        Polynomial.parse(text, 2)


def test_parse_keeps_moderate_nesting():
    assert Polynomial.parse("(" * 200 + "x1" + ")" * 200, 2) == Polynomial.variable(0, 2)
    assert Polynomial.parse("x1*" + "-" * 200 + "x2", 2) == Polynomial.parse("x1*x2", 2)


def test_parse_tokenizer_edges():
    with pytest.raises(ValueError, match=r"cannot tokenize polynomial at '\$ 2'"):
        Polynomial.parse("x1 $ 2", 2)
    assert Polynomial.parse("x1 + 2   ", 2) == Polynomial.parse("x1+2", 2)


def test_prows_combination_leaves_out_all_zero_parts():
    x1, x2 = Polynomial.variable(0, 2), Polynomial.variable(1, 2)
    zero = Polynomial.constant(0, 2)
    a = _to_prows(((x1, Polynomial.constant(Rat(1, 2), 2)), (zero, x1 * x2)))
    empty = _to_prows(((zero, zero), (zero, zero)))
    # a single nonzero part of weight 1 is returned as is
    assert _prows_combination([(1, a), (-1, empty)]) is a
    assert _prows_combination([(-1, empty), (1, a), (2, empty)]) is a
    # with every part zero the table keeps its shape
    for parts in ([(-1, empty)], [(1, empty), (3, empty)]):
        assert _from_prows(_prows_combination(parts), 2) == ((zero, zero), (zero, zero))
    twice = _prows_combination([(1, a), (1, empty), (1, a)])
    assert _from_prows(twice, 2) == ((2 * x1, Polynomial.constant(1, 2)), (zero, 2 * x1 * x2))


@settings(max_examples=80, deadline=None)
@given(polys())
def test_str_parse_round_trip(p):
    assert Polynomial.parse(str(p), p.nvars) == p


@settings(max_examples=200, deadline=None)
@given(polys(nvars=3, max_degree=4, max_terms=8), st.integers(1, 12))
def test_str_matches_the_rat_terms_text(p, k):
    # one pass over the integer numerators prints what the Rat terms print,
    # including over a denominator shared with some numerators only
    for q in (p, p * Rat(1, k), -p * Rat(k, 7)):
        assert str(q) == reference_str(q)


@settings(max_examples=60, deadline=None)
@given(polys(), polys(), polys())
def test_ring_axioms(p, q, r):
    assert p + q == q + p
    assert p * q == q * p
    assert (p + q) * r == p * r + q * r
    assert p + q - q == p


@settings(max_examples=60, deadline=None)
@given(polys(), polys())
def test_diff_product_rule(p, q):
    for i in range(2):
        lhs = (p * q).diff(i)
        rhs = p.diff(i) * q + p * q.diff(i)
        assert lhs == rhs


def test_no_zero_terms_stored():
    p = Polynomial.parse("x1 - x1", 2)
    assert p.is_zero
    assert not p.terms
    q = Polynomial.parse("x1^2 + x1", 1) - Polynomial.parse("x1", 1)
    assert all(c != 0 for c in q.terms.values())


@settings(max_examples=60, deadline=None)
@given(polys(), st.integers(1, 30))
def test_scaling_by_a_fraction_and_back(p, k):
    assert (p * Rat(1, k)) * k == p


@settings(max_examples=60, deadline=None)
@given(polys())
def test_self_difference_has_no_terms(p):
    assert (p - p).terms == {}


@settings(max_examples=60, deadline=None)
@given(polys(), st.integers(1, 12), st.integers(1, 12))
def test_equal_through_different_denominators(p, j, k):
    # p/j + p/k reached over the denominators j, k and j*k in turn
    lhs = p * Rat(1, j) + p * Rat(1, k)
    rhs = (p * (j + k)) / (j * k)
    assert lhs == rhs
    assert str(lhs) == str(rhs)
    assert Polynomial(p.nvars, lhs.terms) == rhs


@settings(max_examples=60, deadline=None)
@given(polys(), polys())
def test_terms_are_nonzero_rats(p, q):
    for r in (p, p + q, p - q, p * q, p.diff(0), p * Rat(3, 7)):
        assert all(is_rat(c) and c != 0 for c in r.terms.values())


@settings(max_examples=40, deadline=None)
@given(polys(nvars=2, max_degree=2, max_terms=4))
def test_evaluate_matches_subs(p):
    point = (Rat(2, 3), Rat(-1, 2))
    consts = tuple(Polynomial.constant(v, 2) for v in point)
    assert Polynomial.constant(p.evaluate(point), 2) == p.subs(consts)


def test_subs_composition():
    u = Polynomial.parse("x1^2 + x2", 2)
    f = (Polynomial.parse("x1 + x2", 2), Polynomial.parse("x1*x2", 2))
    g = (Polynomial.parse("2*x1", 2), Polynomial.parse("x2 - 1", 2))
    lhs = u.subs(f).subs(g)
    rhs = u.subs(tuple(c.subs(g) for c in f))
    assert lhs == rhs


def test_coeff_of_and_truncate():
    p = Polynomial.parse("x1*x3 + 2*x3^2 + x2", 3)
    c1 = coeff_of(p, 2, 1)
    assert truncate(c1, 2) == Polynomial.parse("x1", 2)
    c0 = coeff_of(p, 2, 0)
    assert truncate(c0, 2) == Polynomial.parse("x2", 2)
    assert truncate(pad(c0, 4), 3) == c0


def test_truncate_guards_against_living_variables():
    p = Polynomial.parse("x3", 3)
    with pytest.raises(ValueError):
        truncate(p, 2)


def test_degree():
    assert Polynomial.zero(2).degree() == -1
    assert Polynomial.parse("5", 2).degree() == 0
    assert Polynomial.parse("x1*x2^2", 2).degree() == 3


def test_divide_by_scalar_only():
    p = Polynomial.parse("2*x1", 1)
    assert p / 2 == Polynomial.parse("x1", 1)
    with pytest.raises(ValueError):
        p / Polynomial.parse("x1", 1)


def test_monomials_up_to():
    ms = monomials_up_to(2, 2)
    assert len(ms) == 6  # 1, x1, x2, x1^2, x1*x2, x2^2
    assert all(m.degree() <= 2 for m in ms)
    assert len(set(str(m) for m in ms)) == 6


def test_polymap_compose():
    f = PolyMap.parse(["x1 + x2", "x1*x2"], 2)
    g = PolyMap.parse(["x1^2", "x2 - 1"], 2)
    h = f.compose(g)
    pt = (Rat(3), Rat(2))
    assert h(pt) == f(g(pt))


def test_map_powers():
    # the cached powers on integer term dicts against ** on the components:
    # powers[beta] is prod_i num_i^beta_i, over den(beta) = prod_i den_i^beta_i
    f = PolyMap.parse(["x1 + 1/2*x2", "x1*x2 - 3", "2/3*x2^2", "5"], 2)
    powers = MapPowers(f)
    comps = f.components
    for beta in ((0, 0, 0, 0), (2, 0, 1, 0), (0, 3, 0, 0), (1, 1, 2, 1), (3, 0, 0, 2)):
        num, den, value = Polynomial.constant(1, 2), 1, Polynomial.constant(1, 2)
        for comp, e in zip(comps, beta):
            num = num * Polynomial(2, comp._num) ** e
            den *= comp._den ** e
            value = value * comp ** e
        assert powers[beta] == {e: int(c) for e, c in num.terms.items()}, beta
        assert powers.den(beta) == den
        assert Polynomial(2, {e: Rat(c, den) for e, c in powers[beta].items()}) == value
    assert powers[(2, 0, 1, 0)] is powers[(2, 0, 1, 0)]
    for beta in ((1, -1, 0, 0), (1, 0), (0, 0, 0, 0, 0), (-1, 0, 0, 0)):
        with pytest.raises(ValueError, match="exponent tuple"):
            powers[beta]


def test_polymap_jacobian():
    f = PolyMap.parse(["x1^2*x2", "x2"], 2)
    jac = f.jacobian()
    assert jac[0][0] == Polynomial.parse("2*x1*x2", 2)
    assert jac[0][1] == Polynomial.parse("x1^2", 2)
    assert jac[1][0].is_zero


def test_vector_field_bracket_antisymmetry():
    x = PolyVectorField(tuple(Polynomial.parse(s, 2) for s in ("x2", "1")))
    y = PolyVectorField(tuple(Polynomial.parse(s, 2) for s in ("x1^2", "x1*x2")))
    b = x.bracket(y)
    c = y.bracket(x)
    assert all(p == -q for p, q in zip(b.components, c.components))


def test_vector_field_apply_is_derivation():
    x = PolyVectorField(tuple(Polynomial.parse(s, 2) for s in ("x2", "x1")))
    u = Polynomial.parse("x1*x2", 2)
    v = Polynomial.parse("x1 + x2^2", 2)
    assert x.apply(u * v) == x.apply(u) * v + u * x.apply(v)


# ---------------------------------------------------------------------------
# the integer kernels: linear combinations and matrix products


def in_normal_form(p):
    """No zero numerator is stored, and the numerators share no factor with
    the denominator."""
    return all(p._num.values()) and gcd(p._den, *p._num.values()) == 1


def matrices(rows, cols):
    return st.lists(st.lists(polys(max_degree=2, max_terms=3), min_size=cols, max_size=cols),
                    min_size=rows, max_size=rows)


def naive_sum(terms):
    total = Polynomial.zero(2)
    for t in terms:
        total = total + t
    return total


@settings(max_examples=50, deadline=None)
@given(st.lists(st.tuples(st.one_of(st.just(Rat(0)), coeffs), polys()), max_size=5))
def test_linear_combination_matches_naive_sum(pairs):
    got = linear_combination(2, pairs)
    assert got == naive_sum(p * w for w, p in pairs)
    assert in_normal_form(got)


def test_linear_combination_empty_and_cancelling():
    x = Polynomial.variable(0, 2)
    assert linear_combination(2, ()) == Polynomial.zero(2)
    cancelled = linear_combination(2, [(Rat(1, 3), x), (Rat(-2, 6), x), (Rat(5), Polynomial.zero(2))])
    assert cancelled.is_zero and cancelled._den == 1
    with pytest.raises(ValueError):
        linear_combination(2, [(1, Polynomial.variable(0, 3))])


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 3), st.integers(1, 3), st.integers(1, 3), st.integers(1, 12),
       st.data())
def test_poly_mat_mul_matches_naive_product(m, k, n, den, data):
    a = data.draw(matrices(m, k))
    b = data.draw(matrices(k, n))
    rows, d = _prows_mul(_to_prows(a), _to_prows(b))
    got = _from_prows((rows, d * den), 2)
    assert len(got) == m and all(len(row) == n for row in got)
    for i in range(m):
        for j in range(n):
            expect = naive_sum(a[i][l] * b[l][j] for l in range(k)) * Rat(1, den)
            assert got[i][j] == expect
            assert in_normal_form(got[i][j])


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 3), st.integers(1, 3), st.integers(1, 3), st.data())
def test_poly_rat_mat_mul_matches_naive_product(m, k, n, data):
    a = data.draw(matrices(m, k))
    r = data.draw(st.lists(st.lists(st.one_of(st.just(Rat(0)), coeffs), min_size=n, max_size=n),
                           min_size=k, max_size=k))
    got = _from_prows(_prows_rat_mul(_to_prows(a), linalg._to_rows(r)), 2)
    for i in range(m):
        for j in range(n):
            expect = naive_sum(a[i][l] * r[l][j] for l in range(k))
            assert got[i][j] == expect
            assert in_normal_form(got[i][j])


mixed_rats = st.fractions(min_value=-3, max_value=3, max_denominator=12).map(
    lambda f: Rat(f.numerator, f.denominator))


@settings(max_examples=50, deadline=None)
@given(st.integers(1, 4), st.integers(1, 4), st.integers(1, 4), st.data())
def test_sparse_poly_rat_mat_mul_matches_the_dense_product(m, k, n, data):
    # zero polynomials and zero rationals among the entries, whole zero rows
    # and columns on both sides, and coefficients over mixed denominators
    zero = Polynomial.zero(2)
    entry = st.one_of(st.just(zero), polys(max_degree=2, max_terms=3))
    a = [data.draw(st.lists(entry, min_size=k, max_size=k)) for _ in range(m)]
    r = [data.draw(st.lists(st.one_of(st.just(Rat(0)), mixed_rats), min_size=n, max_size=n))
         for _ in range(k)]
    for i in data.draw(st.sets(st.integers(0, m - 1))):
        a[i] = [zero] * k
    for j in data.draw(st.sets(st.integers(0, k - 1))):
        for row in a:
            row[j] = zero
    for i in data.draw(st.sets(st.integers(0, k - 1))):
        r[i] = [Rat(0)] * n
    for j in data.draw(st.sets(st.integers(0, n - 1))):
        for row in r:
            row[j] = Rat(0)
    got = _from_prows(_prows_rat_mul(_to_prows(a), linalg._to_rows(r)), 2)
    assert got == dense_poly_rat_mat_mul(a, r)
    assert len(got) == m and all(len(row) == n for row in got)
    assert all(in_normal_form(p) for row in got for p in row)
