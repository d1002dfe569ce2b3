"""Exact group calculus on simply connected nilpotent Lie groups.

Everything happens in exponential coordinates of the first kind: a point of
the group is its logarithm's coordinate vector, exp and log are the identity
on coordinates, the group product is the truncated BCH series, and Lebesgue
measure is the Haar measure.  All operations are exact (rational
coefficients); floating point never enters.

The BCH series serves only products: bch_product, group_product_map and the
two translations.  Everything built on the differential of exp comes from
finite series in a nilpotent ad matrix (_ad_series): the left-invariant
fields from the Bernoulli series Lambda_G(p) = ad_p / (1 - e^{-ad_p}), and
the differential of a map from its inverse series Lambda_H(q)^{-1} =
(1 - e^{-ad_q}) / ad_q.
"""

from __future__ import annotations

from functools import lru_cache
from math import comb, factorial

from . import linalg
from .algebra import LieAlgebra, NotStratifiable, SubRiemannianGroup, nilpotency_step
from .polynomial import Polynomial, PolyMap, PolyVectorField, poly_mat_mul, poly_rat_mat_mul
from .rational import Rat, rat


class NotNilpotent(ValueError):
    """Coordinate calculus requires a nilpotent algebra."""


def require_step(group: SubRiemannianGroup) -> int:
    if group.step is None:
        raise NotNilpotent("group is not nilpotent; no exponential coordinate calculus")
    return group.step


@lru_cache(maxsize=None)
def dynkin_terms(step: int) -> tuple:
    """Dynkin's BCH expansion truncated at total degree ``step``.

    Returns ((coeff, word), ...) where word is a tuple over {0, 1} (0 = first
    argument, 1 = second) and the word's value is its right-nested bracket
    [w_0, [w_1, [... [w_{m-2}, w_{m-1}]]]].  The degree-1 words X and Y carry
    coefficient 1 and are included.  Words whose two innermost letters agree
    are dropped (their bracket vanishes identically); coefficients of equal
    words arising from different block splits are consolidated.
    """
    words = {}

    def emit(word, coeff):
        if len(word) >= 2:
            if word[-1] == word[-2]:
                return
            if word[-2] > word[-1]:  # innermost [b, a] rewritten as -[a, b]
                word = word[:-2] + (word[-1], word[-2])
                coeff = -coeff
        words[word] = words.get(word, Rat(0)) + coeff

    for n in range(1, step + 1):
        sign = Rat(1) if n % 2 == 1 else Rat(-1)

        def blocks(i, budget, word, fact_prod):
            if i == n:
                m = len(word)
                emit(word, sign / (n * m * fact_prod))
                return
            slots_after = n - i - 1
            for r in range(budget + 1):
                for s in range(budget - r + 1):
                    if r + s == 0 or budget - r - s < slots_after:
                        continue
                    blocks(i + 1, budget - r - s, word + (0,) * r + (1,) * s,
                           fact_prod * factorial(r) * factorial(s))

        blocks(0, step, (), 1)
    out = [(c, w) for w, c in words.items() if c != 0]
    out.sort(key=lambda t: (len(t[1]), t[1]))
    return tuple(out)


def _coerce_vector(p, dim: int):
    if isinstance(p, PolyMap):
        p = p.components
    p = tuple(p)
    if len(p) != dim:
        raise ValueError("point has length %d, expected %d" % (len(p), dim))
    return tuple(x if isinstance(x, Polynomial) else rat(x) for x in p)


def _add_scaled(total, coeff, v):
    out = []
    for t, x in zip(total, v):
        term = x * coeff if isinstance(x, Polynomial) else coeff * x
        if isinstance(term, Polynomial) and not term:
            out.append(t)
        elif isinstance(t, Polynomial) or isinstance(term, Polynomial):
            out.append(term + t if isinstance(term, Polynomial) else t + term)
        else:
            out.append(t + term)
    return tuple(out)


def bch_product(p, q, algebra: LieAlgebra, step: int = None):
    """Group product p * q in exponential coordinates (truncated BCH/Dynkin).

    Arguments may be rational vectors, vectors of Polynomial, or PolyMaps
    (whose components are taken), mixed freely.  The inverse of p is -p and
    the identity is 0.
    """
    if step is None:
        step = nilpotency_step(algebra)
        if step is None:
            raise NotNilpotent("BCH product requires a nilpotent algebra")
    p = _coerce_vector(p, algebra.dim)
    q = _coerce_vector(q, algebra.dim)
    args = (p, q)
    memo = {(0,): p, (1,): q}

    def word_value(word):
        got = memo.get(word)
        if got is None:
            inner = word_value(word[1:])
            got = algebra.bracket(args[word[0]], inner)
            memo[word] = got
        return got

    total = _add_scaled(p, Rat(1), q)
    for coeff, word in dynkin_terms(step):
        if len(word) == 1:
            continue  # the X + Y part is the initializer above
        total = _add_scaled(total, coeff, word_value(word))
    return total


@lru_cache(maxsize=None)
def group_product_map(group: SubRiemannianGroup) -> PolyMap:
    """The product as a PolyMap in 2n variables (x1..xn, then the second
    factor's coordinates)."""
    step = require_step(group)
    n = group.dim
    pvars = [Polynomial.variable(i, 2 * n) for i in range(n)]
    qvars = [Polynomial.variable(n + i, 2 * n) for i in range(n)]
    return PolyMap(2 * n, bch_product(pvars, qvars, group.algebra, step=step))


def bernoulli_numbers(count: int) -> tuple:
    """B_0, ..., B_{count-1} with B_1 = +1/2: the coefficients of
    x / (1 - e^{-x}) = sum_k B_k x^k / k!."""
    out = []
    for m in range(count):
        out.append(Rat(1) - sum((comb(m, j) * b / (m - j + 1) for j, b in enumerate(out)),
                                Rat(0)))
    return tuple(out)


@lru_cache(maxsize=None)
def left_translation_jacobian(group: SubRiemannianGroup) -> tuple:
    """The matrix of dL_p: column j holds the coordinate components of the
    left-invariant field of e_j at p.  Entries are Polynomial in p; the value
    at p = 0 is the identity matrix.

    In exponential coordinates d/dt log(e^p e^{tX}) at t = 0 is
    Lambda_G(p) X with Lambda_G(p) = ad_p / (1 - e^{-ad_p})
    = sum_k B_k ad_p^k / k!, which stops after k = s - 1 (s the step)
    because ad_p is nilpotent; ad_p is linear in the coordinates of p.
    """
    step = require_step(group)
    n = group.dim
    ad = group.algebra.ad_matrix(tuple(Polynomial.variable(i, n) for i in range(n)))
    one, zero = Polynomial.constant(1, n), Polynomial.zero(n)
    identity = tuple(tuple(one if i == j else zero for j in range(n)) for i in range(n))
    return _ad_series(ad, identity, bernoulli_numbers(step), 0)


def _ad_series(ad, term, weights, shift: int) -> tuple:
    """sum_k weights[k] ad^k term / ((k + shift)! / shift!) over k < len(weights),
    for a nilpotent matrix ad and a matrix term of Polynomials in one number
    of variables; weights[0] is 1.  Each power is one poly_mat_mul with the
    next factor of the factorial as its denominator, and the sum stops at the
    first power that vanishes."""
    out = term
    for k in range(1, len(weights)):
        term = poly_mat_mul(ad, term, k + shift)
        if not any(any(row) for row in term):
            break
        w = weights[k]
        if w:
            out = tuple(tuple(a + (b if w == 1 else b * w) if b else a for a, b in zip(ra, rb))
                        for ra, rb in zip(out, term))
    return out


def left_invariant_field(x, group: SubRiemannianGroup) -> PolyVectorField:
    """The left-invariant vector field extending the algebra vector x."""
    require_step(group)
    x = tuple(rat(v) for v in x)
    if len(x) != group.dim:
        raise ValueError("vector has length %d, expected %d" % (len(x), group.dim))
    column = poly_rat_mat_mul(left_translation_jacobian(group), tuple((v,) for v in x))
    return PolyVectorField(tuple(row[0] for row in column))


def lie_derivative(u: Polynomial, x, group: SubRiemannianGroup) -> Polynomial:
    """Derivative of the scalar u along the left-invariant field of x."""
    return left_invariant_field(x, group).apply(u)


def left_translation(group: SubRiemannianGroup, a) -> PolyMap:
    """L_a(p) = a * p as a PolyMap."""
    step = require_step(group)
    n = group.dim
    avec = tuple(rat(v) for v in a)
    pvars = [Polynomial.variable(i, n) for i in range(n)]
    return PolyMap(n, bch_product(avec, pvars, group.algebra, step=step))


def right_translation(group: SubRiemannianGroup, a) -> PolyMap:
    """R_a(p) = p * a as a PolyMap."""
    step = require_step(group)
    n = group.dim
    avec = tuple(rat(v) for v in a)
    pvars = [Polynomial.variable(i, n) for i in range(n)]
    return PolyMap(n, bch_product(pvars, avec, group.algebra, step=step))


def dilation(group: SubRiemannianGroup, lam) -> PolyMap:
    """The Carnot dilation acting by lam^k on the k-th stratum."""
    if group.strata is None:
        raise NotStratifiable("group carries no stratification; dilations are undefined")
    lam = rat(lam)
    cols = []
    weights = []
    for k, layer in enumerate(group.strata, start=1):
        for v in layer:
            cols.append(v)
            weights.append(k)
    change = linalg.transpose(tuple(cols))  # columns are strata vectors
    scale = tuple(
        tuple(lam**w if i == j else Rat(0) for j, w in enumerate(weights))
        for i, _ in enumerate(weights)
    )
    matrix = linalg.mat_mul(linalg.mat_mul(change, scale), linalg.inverse(change))
    return PolyMap.linear(matrix)


def _check_map(F: PolyMap, source: SubRiemannianGroup, target: SubRiemannianGroup):
    require_step(source)
    require_step(target)
    if F.source_dim != source.dim or F.target_dim != target.dim:
        raise ValueError(
            "map has shape %d->%d, groups have dims %d->%d"
            % (F.source_dim, F.target_dim, source.dim, target.dim)
        )


def lie_differential(F: PolyMap, source: SubRiemannianGroup, target: SubRiemannianGroup) -> tuple:
    """DF as a target_dim x source_dim matrix of Polynomial in the source
    coordinates: column j is the t-derivative at 0 of (-F(p)) * F(p * (t e_j)).

    Taken in closed form, DF(p) = Lambda_H(F(p))^{-1} JF(p) Lambda_G(p), with
    JF the coordinate Jacobian of F and Lambda_G = left_translation_jacobian
    of the source.  In exponential coordinates d/dt log(e^q e^{tX}) at t = 0
    is ad_q / (1 - e^{-ad_q}) X, so Lambda_H(q)^{-1} is the series
    sum_k (-ad_q)^k / (k+1)!, which stops after k = s_H - 1 (s_H the target's
    step) because ad_q is nilpotent; ad_{F(p)} is linear in the components
    of F.
    """
    _check_map(F, source, target)
    return _differential(F, target, left_translation_jacobian(source))


def horizontal_differential(F: PolyMap, source: SubRiemannianGroup,
                            target: SubRiemannianGroup) -> tuple:
    """DF B_G, the target_dim x rank matrix of Polynomial in the source
    coordinates whose column j is DF applied to the j-th polarization basis
    vector of the source.  Taken as Lambda_H(F)^{-1} JF (Lambda_G B_G), the
    closed form of lie_differential on the source's horizontal frame
    (GroupTables.horizontal_frame), without building the full DF."""
    _check_map(F, source, target)
    return _differential(F, target, source.tables.horizontal_frame)


def _differential(F: PolyMap, target: SubRiemannianGroup, columns) -> tuple:
    """Lambda_H(F)^{-1} JF columns, for a matrix columns of Polynomial in the
    source coordinates with one row per source coordinate."""
    neg_ad = target.algebra.ad_matrix(tuple(-c for c in F.components))
    return _ad_series(neg_ad, poly_mat_mul(F.jacobian(), columns), (1,) * target.step, 1)
