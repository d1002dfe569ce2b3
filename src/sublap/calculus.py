"""Exact group calculus on simply connected nilpotent Lie groups.

Everything happens in exponential coordinates of the first kind: a point of
the group is its logarithm's coordinate vector, exp and log are the identity
on coordinates, the group product is log(e^p e^q), and Lebesgue measure is
the Haar measure.  All operations are exact (rational coefficients);
floating point never enters.

The group law and the differential of exp both come from the Bernoulli
series Lambda(p) = ad_p / (1 - e^{-ad_p}), finite because ad_p is nilpotent:
p * q solves z' = Lambda(z) q degree by degree (bch_product, which
group_product_map and the two translations call), the left-invariant fields
are Lambda_G(p), and the differential of a map takes the inverse series
Lambda_H(q)^{-1} = (1 - e^{-ad_q}) / ad_q, both finite series in an ad
matrix (_ad_series).  Both series run on polynomial's private (rows, den)
form, integer term dicts over one common denominator: ad comes from the
group's bracket table scaled to integers (_ad_rows), JF from the term dicts
of the map's components by polynomial's one derivative kernel (_diff_num),
and lie_differential, horizontal_differential and left_translation_jacobian
build one reduced Polynomial per entry of the result.  Every differential, DF or DF B_G, starts at _map_rows, which
checks the map against the two groups and then tests it once for a linear
Lie homomorphism (_homomorphism_rows).  Such an M skips the inverse
series: F(p * q) = F(p) * F(q) makes DF = M at every point, so the two
differentials are the constants M and M B_G, read from the term dicts once
an integer check of M [x, y]_G = [M x, M y]_H on both bracket tables has
passed, and formed as linalg's integer matrices (_constant_differential);
any other map takes the series (_series_differential).  _differential, the
entry of the two public differentials and operators.PullbackOperator,
returns either in the (rows, den) form of polynomial;
conformal.analyze_commutation calls the branches itself, so that it decides
a homomorphism's frame stages on the integer matrix.  Dynkin's form of the
series, dynkin_terms, is the reference the tests check products against; no
product reads it.
"""

from __future__ import annotations

from functools import lru_cache
from math import comb, factorial

from . import linalg
from .algebra import (LieAlgebra, NotStratifiable, SubRiemannianGroup, _ad_apply, _ad_columns,
                      _one_kind)
from .polynomial import Polynomial, PolyMap, PolyVectorField, _diff_num, _from_prows, \
    _nonzero, _prows_combination, _prows_mul, _prows_rat_mul, _to_prows
from .rational import Rat, rat


# The caches keyed on a group keep at most this many groups alive, so a
# caller that builds groups without end does not keep every one.
_GROUP_CACHE_SIZE = 64


class NotNilpotent(ValueError):
    """Coordinate calculus requires a nilpotent algebra."""


def require_step(group: SubRiemannianGroup) -> int:
    if group.step is None:
        raise NotNilpotent("group is not nilpotent; no exponential coordinate calculus")
    return group.step


@lru_cache(maxsize=None)
def dynkin_terms(step: int) -> tuple:
    """Dynkin's BCH expansion truncated at total degree ``step``: the
    reference form of the group law, which bch_product does not read.

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


@lru_cache(maxsize=None)
def _bch_weights(step: int) -> tuple:
    """weights[m - 1][k] = B_k / (k! m) of bch_product, for 1 <= m < max(step, 2)."""
    bernoulli = bernoulli_numbers(step)
    return tuple(tuple(b / (factorial(k) * m) for k, b in enumerate(bernoulli))
                 for m in range(1, max(step, 2)))


def bch_product(p, q, algebra: LieAlgebra, step: int = None):
    """Group product p * q in exponential coordinates.

    z(t) = log(e^p e^{tq}) solves z' = Lambda(z) q, z(0) = p, for the
    Bernoulli series Lambda(z) = sum_k (B_k / k!) ad_z^k of
    left_translation_jacobian.  For z = sum_m c_m t^m, m c_m is the t^(m-1)
    coefficient of Lambda(z) q; it reads only c_0 .. c_{m-1}, through
    powers[k][j] = [t^j] ad_z^k q = sum_{i <= j} [c_i, powers[k-1][j-i]].
    For m >= 2, c_m is a sum of brackets of length at least m + 1, so on a
    step-s algebra p * q = z(1) = c_0 + c_1 + ... + c_{max(s, 2) - 1}.

    Arguments may be rational vectors, vectors of Polynomial, or PolyMaps
    (whose components are taken); a Polynomial entry in either makes every
    entry of the result a Polynomial.  The inverse of p is -p and the
    identity is 0.
    """
    if step is None:
        step = algebra.step
        if step is None:
            raise NotNilpotent("BCH product requires a nilpotent algebra")
    dim = algebra.dim
    p, q, zero = _one_kind(dim, *(tuple(v.components if isinstance(v, PolyMap) else v)
                                  for v in (p, q)))
    # powers[0][j] is q at j = 0 and zero after; ads[i] is the sparse ad_{c_i}
    powers = [[q] + [(zero,) * dim] * step] + [[] for _ in range(1, step)]
    c, ads, total = p, [], list(p)
    for m, weights in enumerate(_bch_weights(step), 1):
        ads.append(_ad_columns(algebra, c))
        for k in range(1, step):
            out = {}
            for i, ad in enumerate(ads):
                _ad_apply(ad, powers[k - 1][m - 1 - i], out)
            powers[k].append(tuple(out.get(r, zero) for r in range(dim)))
        out = {}
        for w, power in zip(weights, powers):
            if w:
                for r, x in enumerate(power[m - 1]):
                    if x:
                        x = x if w == 1 else x * w
                        out[r] = out[r] + x if r in out else x
        c = tuple(out.get(r, zero) for r in range(dim))
        for r, x in out.items():
            total[r] = total[r] + x
    return tuple(total)


@lru_cache(maxsize=_GROUP_CACHE_SIZE)
def group_product_map(group: SubRiemannianGroup) -> PolyMap:
    """The product as a PolyMap in 2n variables (x1..xn, then the second
    factor's coordinates)."""
    n = group.dim
    xs = PolyMap.identity(2 * n).components
    return PolyMap(2 * n, bch_product(xs[:n], xs[n:], group.algebra, require_step(group)))


@lru_cache(maxsize=None)
def bernoulli_numbers(count: int) -> tuple:
    """B_0, ..., B_{count-1} with B_1 = +1/2: the coefficients of
    x / (1 - e^{-x}) = sum_k B_k x^k / k!."""
    out = []
    for m in range(count):
        out.append(Rat(1) - sum((comb(m, j) * b / (m - j + 1) for j, b in enumerate(out)),
                                Rat(0)))
    return tuple(out)


@lru_cache(maxsize=_GROUP_CACHE_SIZE)
def left_translation_jacobian(group: SubRiemannianGroup) -> tuple:
    """The matrix of dL_p: column j holds the coordinate components of the
    left-invariant field of e_j at p.  Entries are Polynomial in p; the value
    at p = 0 is the identity matrix.

    In exponential coordinates d/dt log(e^p e^{tX}) at t = 0 is
    Lambda_G(p) X with Lambda_G(p) = ad_p / (1 - e^{-ad_p})
    = sum_k B_k ad_p^k / k!, which stops after k = s - 1 (s the step)
    because ad_p is nilpotent; ad_p is linear in the coordinates of p.
    GroupTables.jacobian keeps the series in the (rows, den) form of
    polynomial (_left_translation_rows).
    """
    require_step(group)
    return _from_prows(group.tables.jacobian, group.dim)


def _left_translation_rows(group: SubRiemannianGroup) -> tuple:
    """left_translation_jacobian in the (rows, den) form of polynomial: the
    Bernoulli series of ad_p, p the coordinate variables."""
    n = group.dim
    one = (0,) * n
    variables = tuple({one[:i] + (1,) + one[i + 1:]: 1} for i in range(n))
    identity = tuple(tuple({one: 1} if i == j else {} for j in range(n)) for i in range(n))
    return _frame_at(variables, 1, group, (identity, 1))


def _frame_at(point: tuple, den: int, group: SubRiemannianGroup, term: tuple) -> tuple:
    """Lambda(q) term at q = point / den, for point a tuple of integer term
    dicts (one per coordinate of the group) and term a matrix in the
    (rows, den) form of polynomial with one row per coordinate: the
    Bernoulli series sum_k B_k ad_q^k term / k!.  At the coordinate
    variables and the identity it is left_translation_jacobian; at the
    components of a map F it is Lambda(F) term, without composing."""
    return _ad_series(_ad_rows(group.tables.brackets, point, den), term,
                      bernoulli_numbers(require_step(group)), 0)


def _ad_rows(brackets: tuple, vector, den: int) -> tuple:
    """ad_v in the (rows, den) form of polynomial, for v = vector / den with
    vector a tuple of integer term dicts and brackets the algebra's table
    {i: {j: {k: c}}} as integers over one denominator (GroupTables.brackets):
    entry (k, j) is sum_i v_i c_ij^k."""
    table, dc = brackets
    n = len(vector)
    ad = [[{} for _ in range(n)] for _ in range(n)]
    for i, vi in enumerate(vector):
        if vi and i in table:
            for j, comps in table[i].items():
                for k, c in comps.items():
                    acc = ad[k][j]
                    get = acc.get
                    for e, x in vi.items():
                        acc[e] = get(e, 0) + x * c
    return tuple(tuple(_nonzero(acc) for acc in row) for row in ad), den * dc


def _ad_series(ad: tuple, term: tuple, weights, shift: int) -> tuple:
    """sum_k weights[k] ad^k term / ((k + shift)! / shift!) over k < len(weights),
    for a nilpotent ad and a term, both polynomial matrices in the
    (rows, den) form of polynomial; weights[0] is 1.  Each power is one
    _prows_mul whose denominator takes the next factor of the factorial, the
    powers stop at the first that vanishes, and the weighted powers are
    added in one _prows_combination; nothing is divided."""
    parts = [(1, term)]
    for k in range(1, len(weights)):
        rows, den = _prows_mul(ad, term)
        if not any(any(row) for row in rows):
            break
        term = rows, den * (k + shift)
        if weights[k]:
            parts.append((weights[k], term))
    return _prows_combination(parts)


def left_invariant_field(x, group: SubRiemannianGroup) -> PolyVectorField:
    """The left-invariant vector field extending the algebra vector x."""
    require_step(group)
    x = tuple(rat(v) for v in x)
    if len(x) != group.dim:
        raise ValueError("vector has length %d, expected %d" % (len(x), group.dim))
    column = _prows_rat_mul(group.tables.jacobian, linalg._to_rows(tuple((v,) for v in x)))
    return PolyVectorField(tuple(row[0] for row in _from_prows(column, group.dim)))


def lie_derivative(u: Polynomial, x, group: SubRiemannianGroup) -> Polynomial:
    """Derivative of the scalar u along the left-invariant field of x."""
    return left_invariant_field(x, group).apply(u)


def left_translation(group: SubRiemannianGroup, a) -> PolyMap:
    """L_a(p) = a * p as a PolyMap."""
    p = PolyMap.identity(group.dim)
    return PolyMap(group.dim, bch_product(a, p, group.algebra, require_step(group)))


def right_translation(group: SubRiemannianGroup, a) -> PolyMap:
    """R_a(p) = p * a as a PolyMap."""
    p = PolyMap.identity(group.dim)
    return PolyMap(group.dim, bch_product(p, a, group.algebra, require_step(group)))


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
    of F.  When F is a linear Lie homomorphism M (every term of degree 1,
    M [x, y]_G = [M x, M y]_H), F(p * q) = F(p) * F(q) and DF = M at every
    point: the matrix is returned without the series (_homomorphism_rows).
    """
    return _from_prows(_differential(F, source, target, False), source.dim)


def horizontal_differential(F: PolyMap, source: SubRiemannianGroup,
                            target: SubRiemannianGroup) -> tuple:
    """DF B_G, the target_dim x rank matrix of Polynomial in the source
    coordinates whose column j is DF applied to the j-th polarization basis
    vector of the source.  Taken as Lambda_H(F)^{-1} JF (Lambda_G B_G), the
    closed form of lie_differential on the source's horizontal frame
    (GroupTables.horizontal_frame), without building the full DF; for a
    linear Lie homomorphism M it is the constant M B_G."""
    return _from_prows(_differential(F, source, target, True), source.dim)


def _differential(F: PolyMap, source: SubRiemannianGroup, target: SubRiemannianGroup,
                  horizontal: bool) -> tuple:
    """DF, or DF B_G when horizontal, in the (rows, den) form of polynomial,
    after _check_map: the entry of lie_differential, horizontal_differential
    and PullbackOperator.

    A linear Lie homomorphism M gives the constant M (B_G) of
    _constant_differential, each nonzero entry as a one-term dict; any other
    map the series of _series_differential."""
    comps, den, matrix = _map_rows(F, source, target)
    if matrix is None:
        return _series_differential(comps, den, source, target, horizontal)
    rows, den = _constant_differential(matrix, source, horizontal)
    one = (0,) * source.dim
    return tuple(tuple({one: x} if x else {} for x in row) for row in rows), den


def _map_rows(F: PolyMap, source: SubRiemannianGroup, target: SubRiemannianGroup) -> tuple:
    """(comps, den, matrix) after _check_map: F's components as integer term
    dicts comps over den, and matrix = _homomorphism_rows(comps, den, ...),
    None unless F is a linear Lie homomorphism."""
    _check_map(F, source, target)
    (comps,), den = _to_prows((F.components,))
    return comps, den, _homomorphism_rows(comps, den, source, target)


def _constant_differential(matrix: tuple, source: SubRiemannianGroup, horizontal: bool) -> tuple:
    """The differential M, or M B_G when horizontal, of a linear Lie
    homomorphism given as _homomorphism_rows returns it, as linalg's integer
    (rows, den); B_G is read from its sparse rows (polarization_rows)."""
    rows, den = matrix
    if not horizontal:
        n = source.dim
        return [[row.get(j, 0) for j in range(n)] for row in rows], den
    b, bden = source.tables.polarization_rows
    r = source.rank
    product = []
    for row in rows:
        acc = [0] * r
        for k, c in row.items():
            for j, w in b[k]:
                acc[j] += c * w
        product.append(acc)
    return product, den * bden


def _series_differential(comps: tuple, den: int, source: SubRiemannianGroup,
                         target: SubRiemannianGroup, horizontal: bool) -> tuple:
    """Lambda_H(F)^{-1} JF columns, columns = Lambda_G (B_G) from the
    source's tables, in the (rows, den) form of polynomial, for a map whose
    components are the integer term dicts comps over den: JF and -ad_F are
    read from those dicts, ad through the target's integer bracket table."""
    neg_ad = _ad_rows(target.tables.brackets,
                      tuple({e: -c for e, c in x.items()} for x in comps), den)
    tables = source.tables
    columns = tables.horizontal_frame if horizontal else tables.jacobian
    return _ad_series(neg_ad, _prows_mul(_jacobian_rows(comps, den, source.dim), columns),
                      (1,) * target.step, 1)


def _homomorphism_rows(comps: tuple, den: int, source: SubRiemannianGroup,
                       target: SubRiemannianGroup):
    """(rows, den) with F = rows / den when F is a linear Lie homomorphism,
    else None, for a map whose components are the integer term dicts comps
    over den: row r of the matrix M as {column: nonzero integer entry}.

    Every term must have degree exactly 1 (checked first, so a map with a
    constant or a nonlinear term costs one scan up to that term); then F is
    the matrix M = rows / den, and M is a homomorphism when
    M [e_i, e_j]_G = [M e_i, M e_j]_H for every i < j.  Both sides are
    taken on integers from the bracket tables (GroupTables.brackets), each
    only where it can be nonzero: the left at the source's nonzero
    brackets, the right as sum_{a<b} (M_ai M_bj - M_bi M_aj) [e_a, e_b]_H
    over the target's.  In exponential coordinates the group law is a
    series of brackets, so such an M is also a group homomorphism."""
    n = source.dim
    rows = []  # row r of M as {column: entry}
    cols = [[] for _ in range(n)]  # column k of M as (row, entry) pairs
    for r, x in enumerate(comps):
        row = {}
        for e, c in x.items():
            if sum(e) != 1:
                return None
            k = e.index(1)
            row[k] = c
            cols[k].append((r, c))
        rows.append(row)
    (tg, dg), (th, dh) = source.tables.brackets, target.tables.brackets
    image = {}  # (i, j) -> [M e_i, M e_j]_H times den^2 dh
    for a, table in th.items():
        if ra := rows[a]:
            for b, out in table.items():
                if b > a and (rb := rows[b]):
                    for i, x in ra.items():
                        for j, y in rb.items():
                            if i != j:
                                w, key = (x * y, (i, j)) if i < j else (-x * y, (j, i))
                                acc = image.setdefault(key, {})
                                for k, c in out.items():
                                    acc[k] = acc.get(k, 0) + w * c
    # M c / (den dg) against image / (den^2 dh), both times den^2 dg dh
    left, right = den * dh, dg
    for i, table in tg.items():
        for j, out in table.items():
            if j > i:
                acc = {}
                for k, c in out.items():
                    for r, m in cols[k]:
                        acc[r] = acc.get(r, 0) + c * m
                if {r: v * left for r, v in acc.items() if v} != \
                        {k: v * right for k, v in image.pop((i, j), {}).items() if v}:
                    return None
    if any(any(acc.values()) for acc in image.values()):
        return None
    return rows, den


def _jacobian_rows(comps: tuple, den: int, nvars: int) -> tuple:
    """JF in the (rows, den) form of polynomial, for a map in nvars
    variables whose components are the integer term dicts comps over den:
    entry (i, j) is polynomial._diff_num of component i in variable j."""
    return tuple(tuple(_diff_num(x, j) for j in range(nvars)) for x in comps), den
