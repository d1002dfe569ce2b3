"""Horizontal differential operators with exact polynomial coefficients.

The sub-Laplacian is the divergence-form operator sum_jk X_j(g^{jk} X_k u)
built from the left-invariant frame v_1~, ..., v_r~ of the polarization,
with respect to Lebesgue measure (= Haar in exponential coordinates).  With
w_j = sum_k g^{jk} v_k~ it reads sum_j v_j~ w_j.  One assembly
(_pullback_tables) pushes that operator through a matrix DB of horizontal
derivatives, one column per basis vector v_j: the second-order table is
DB G^{-1} DB^T (DF Q DF^T for DB = DF B and the cometric Q = B G^{-1} B^T),
the first-order table first_c = sum_j w_j(DB_cj).
At DB = Lambda_G B (GroupTables.horizontal_frame) it gives the sub-Laplacian,
at DB = horizontal_differential(F) the frame tables of its pullback along a
map F, and at J = JF (Lambda_G B_G) the tables (Gamma(F_k, F_l), Delta_G F_k)
of the coordinate chain rule (_chain_rule_tables), on which one jet evaluator
(_add_jet) runs PullbackOperator.apply and lists the witnesses of an
identity that conformal's verify finds failing at a frame stage.  The full
differential DF is never built.

The assembly runs in polynomial's private (rows, den) form, integer term
dicts over one common denominator (_pullback_tables):
DB arrives in that form from calculus, the group's tables (G^{-1}, the
frame, the fields w_j, the annihilators) are kept in it by GroupTables, and
a Polynomial is built once per entry only where a table leaves the module:
the sub-Laplacian and the PullbackOperator frame tables.

There is no drift term.  The coordinate calculus requires a nilpotent group
(require_step), and a nilpotent group is unimodular (tr ad_x = 0): Haar
measure is bi-invariant, every left-invariant field is divergence free, and
the divergence-form operator is exactly sum_jk g^{jk} v_j~ v_k~.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
from math import gcd, lcm, prod
from operator import add

from . import linalg
from .algebra import SubRiemannianGroup
from .calculus import _GROUP_CACHE_SIZE, _check_map, _differential, _jacobian_rows, \
    _left_translation_rows, group_product_map, require_step
from .polynomial import MapPowers, Polynomial, PolyMap, _diff_num, _from_prows, _mul_into, \
    _nonzero, _prows_congruence, _prows_mul, _prows_rat_mul, _prows_transpose, _reduced, \
    _to_prows, linear_combination, sum_of_products
from .rational import rat


@dataclass(frozen=True)
class Cometric:
    """The symmetric bilinear form on covectors induced by a polarized metric:
    Q = B G^{-1} B^T with B the polarization's column matrix."""

    matrix: tuple

    @property
    def dim(self) -> int:
        return len(self.matrix)

    def rank(self) -> int:
        return linalg.rank(self.matrix)


def cometric(group: SubRiemannianGroup) -> Cometric:
    return Cometric(linalg._from_rows(*group.tables.cometric_rows))


class GroupTables:
    """The constants of one group, each built on first use.
    SubRiemannianGroup.tables keeps the instance, so each is built once per
    group and lives as long as the group does.

    With B the polarization's column matrix and G the Gram matrix, the
    rational constants are G^{-1}, the cometric Q = B G^{-1} B^T, the
    annihilators y of B (y B = 0) and a left inverse L of B (L B = 1); the
    others are polynomial tables built from them and the left-translation
    Jacobian Lambda.  The tables the commutation pipeline reads (gram_inverse,
    cometric_rows, annihilators, polarization_rows, brackets, jacobian,
    horizontal_frame, gradient_fields, sublaplacian_tables) are kept in the
    integer forms: linalg's (rows, den) for rational matrices, polynomial's
    for polynomial ones.  A linear Lie homomorphism is checked and decided
    on sparse forms of four of them, their nonzero entries over the same
    denominator: polarization_rows, gram_inverse_entries,
    annihilator_entries and bracket_pairs; a left translate of one is
    compared with the group law kept as product_rows.  The
    public cometric(group) builds its Rats from cometric_rows on each call.
    """

    def __init__(self, group: SubRiemannianGroup):
        self.group = group

    @cached_property
    def gram_inverse(self) -> tuple:
        """G^{-1} as linalg's integer (rows, den)."""
        return linalg._inverse_rows(linalg._to_rows(self.group.metric.gram))

    @cached_property
    def gram_inverse_entries(self) -> tuple:
        """gram_inverse with row j as its nonzero (column, entry) pairs, over
        its denominator: the sparse form in which conformal forms
        DB G^{-1} DB^T for a constant DB."""
        g, den = self.gram_inverse
        return tuple(tuple((k, w) for k, w in enumerate(row) if w) for row in g), den

    @cached_property
    def cometric_rows(self) -> tuple:
        """Q = B G^{-1} B^T as linalg's integer (rows, den)."""
        b = linalg._to_rows(self.group.polarization.matrix())
        return linalg._rows_mul(linalg._rows_mul(b, self.gram_inverse), linalg._rows_transpose(b))

    @cached_property
    def annihilators(self) -> tuple:
        """The row vectors y with y B = 0, a basis of them, as the columns of
        linalg's integer (rows, den): a vector lies in the polarization
        exactly when every y pairs with it to zero."""
        return linalg._rows_transpose(
            linalg._to_rows(linalg.left_nullspace(self.group.polarization.matrix())))

    @cached_property
    def annihilator_entries(self) -> tuple:
        """The annihilators as their nonzero (row, entry) pairs, one tuple
        per column of annihilators, over its denominator: the sparse form in
        which conformal pairs them with a constant DB."""
        y, den = self.annihilators
        return tuple(tuple((i, w) for i, w in enumerate(col) if w) for col in zip(*y)), den

    @cached_property
    def left_inverse(self) -> tuple:
        """L = (B^T B)^{-1} B^T, so L B = 1 (B has independent columns)."""
        bt = linalg.transpose(self.group.polarization.matrix())
        return linalg.mat_mul(linalg.inverse(linalg.mat_mul(bt, linalg.transpose(bt))), bt)

    @cached_property
    def polarization_rows(self) -> tuple:
        """B as integer rows over one denominator, row k as its nonzero
        (column, entry) pairs: the sparse form in which calculus multiplies
        the matrix of a linear Lie homomorphism M into M B."""
        rows, den = linalg._to_rows(self.group.polarization.matrix())
        return tuple(tuple((j, w) for j, w in enumerate(row) if w) for row in rows), den

    @cached_property
    def brackets(self) -> tuple:
        """The algebra's bracket table {i: {j: {k: c}}} (LieAlgebra._brackets)
        scaled to integers over one denominator, as (table, den)."""
        table = self.group.algebra._brackets
        den = lcm(*(int(c.denominator) for row in table.values()
                    for comps in row.values() for c in comps.values()))
        return {i: {j: {k: int(c.numerator) * (den // int(c.denominator))
                        for k, c in comps.items()} for j, comps in row.items()}
                for i, row in table.items()}, den

    @cached_property
    def bracket_pairs(self) -> tuple:
        """The brackets [e_a, e_b] with a < b that the brackets table holds,
        as (a, b, {k: c}) triples, over its denominator: the sparse form in
        which calculus checks a linear map for a Lie homomorphism."""
        table, den = self.brackets
        return tuple((a, b, out) for a, row in table.items() for b, out in row.items()
                     if b > a), den

    @cached_property
    def product_rows(self) -> tuple:
        """group_product_map in the (rows, den) form of polynomial, each
        component's terms c x^alpha y^beta (x the first factor, y the
        second) grouped by beta as (beta, |beta|, ((alpha, |alpha|, c), ...)),
        by falling |beta|: the form in which calculus compares a map with a
        left translate a * (M p) of a linear map."""
        n = self.group.dim
        (comps,), den = _to_prows((group_product_map(self.group).components,))
        out = []
        for x in comps:
            split = {}
            for e, c in x.items():
                split.setdefault(e[n:], []).append((e[:n], sum(e[:n]), c))
            out.append(tuple(sorted(((beta, sum(beta), tuple(alphas))
                                     for beta, alphas in split.items()),
                                    key=lambda group: -group[1])))
        return tuple(out), den

    @cached_property
    def jacobian(self) -> tuple:
        """left_translation_jacobian in the (rows, den) form of polynomial."""
        return _left_translation_rows(self.group)

    @cached_property
    def horizontal_frame(self) -> tuple:
        """Lambda B, dim x rank, in the (rows, den) form of polynomial: column
        j holds the coordinate components of the left-invariant field v_j~
        of the j-th polarization basis vector."""
        return _prows_rat_mul(self.jacobian, linalg._to_rows(self.group.polarization.matrix()))

    @cached_property
    def gradient_fields(self) -> tuple:
        """Row j holds the coordinate components of w_j = sum_k g^{jk} v_k~,
        the columns of Lambda B G^{-1}, in the (rows, den) form of
        polynomial.  w_j u is the j-th frame component of the horizontal
        gradient of u."""
        return _prows_transpose(_prows_rat_mul(self.horizontal_frame, self.gram_inverse))

    @cached_property
    def sublaplacian_tables(self) -> tuple:
        """(second, first), the coordinate tables of the sub-Laplacian
        sum_kl second_kl d_k d_l + sum_k first_k d_k: the pushforward tables
        at the horizontal frame, in the (rows, den) form of polynomial (first
        a one-column matrix)."""
        return _pullback_tables(self.horizontal_frame, self.group)

    @cached_property
    def sublaplacian_degree(self) -> int:
        """The total degree of the sublaplacian_tables, -1 if both are zero."""
        return max((sum(e) for table in self.sublaplacian_tables for row in table[0]
                    for x in row for e in x), default=-1)


@dataclass(frozen=True)
class DifferentialOperator:
    """Second-order operator sum c2[i][j] d_i d_j + sum c1[i] d_i + c0 with
    Polynomial coefficients; c2 is stored symmetric."""

    dim: int
    second_order: tuple
    first_order: tuple
    zero_order: Polynomial

    def __post_init__(self):
        n = self.dim
        c2 = self.second_order
        if len(c2) != n or any(len(row) != n for row in c2):
            raise ValueError("second-order table must be %d x %d" % (n, n))
        if len(self.first_order) != n:
            raise ValueError("first-order table must have length %d" % n)
        if any(c2[i][j] != c2[j][i] for i in range(n) for j in range(i + 1, n)):
            raise ValueError("second-order table must be symmetric")

    def apply(self, u: Polynomial) -> Polynomial:
        if u.nvars != self.dim:
            raise ValueError("argument has %d variables, expected %d" % (u.nvars, self.dim))
        n = self.dim
        du = [u.diff(c) for c in range(n)]
        pairs = [(self.zero_order, u)]
        pairs += [(self.first_order[c], du[c]) for c in range(n)]
        pairs += [(coeff, du[c].diff(d)) for c, d, coeff in self._upper_second_order if du[c]]
        return sum_of_products(n, pairs)

    @cached_property
    def _upper_second_order(self) -> tuple:
        """(c, d, coefficient) for the nonzero entries with c <= d, the
        off-diagonal ones doubled, so apply() visits each symmetric pair once."""
        n = self.dim
        return tuple((c, d, coeff if c == d else coeff * 2)
                     for c in range(n) for d in range(c, n)
                     if (coeff := self.second_order[c][d]))


def _pushforward_first(db: tuple, fields: tuple) -> tuple:
    """The first-order table of Delta_G pushed through DB, for DB and the
    fields w_j (GroupTables.gradient_fields) in the (rows, den) form of
    polynomial, as a one-column matrix in that form: entry c is
    sum_j w_j(DB[c][j]) = sum_jk fields[j][k] d_k DB[c][j]."""
    (rows, den), (comps, dw) = db, fields
    out = []
    for entries in rows:
        acc = {}
        for x, field in zip(entries, comps):
            if x:
                for k, w in enumerate(field):
                    if w and (d := _diff_num(x, k)):
                        if len(w) > len(d):
                            _mul_into(acc, d, w)
                        else:
                            _mul_into(acc, w, d)
        out.append((_nonzero(acc),))
    return tuple(out), den * dw


@lru_cache(maxsize=_GROUP_CACHE_SIZE)
def sublaplacian(group: SubRiemannianGroup) -> DifferentialOperator:
    """The horizontal Laplacian sum_{jk} g^{jk} v_j~ v_k~ in coordinates: the
    pushforward tables at the horizontal frame DB = Lambda B, since
    v_j~ = sum_k (Lambda B)[k][j] d_k (GroupTables.sublaplacian_tables)."""
    require_step(group)
    n = group.dim
    second, first = group.tables.sublaplacian_tables
    return DifferentialOperator(n, _from_prows(second, n),
                                tuple(row[0] for row in _from_prows(first, n)), Polynomial.zero(n))


def gradient(u: Polynomial, group: SubRiemannianGroup) -> tuple:
    """Horizontal gradient in frame components: the tuple gamma with
    grad u = sum_j gamma_j v_j, gamma = G^{-1} (v_1~ u, ..., v_r~ u), that
    is gamma_j = w_j u."""
    require_step(group)
    n = group.dim
    if u.nvars != n:
        raise ValueError("argument has %d variables, expected %d" % (u.nvars, n))
    du = _to_prows(tuple((u.diff(k),) for k in range(n)))
    return tuple(row[0] for row in _from_prows(_prows_mul(group.tables.gradient_fields, du), n))


def _polarization_residuals(vectors: tuple, group: SubRiemannianGroup, nvars: int) -> tuple:
    """The nonzero pairings y . v of the group's annihilators y with the rows
    v of a (rows, den) form of polynomial in nvars variables, annihilator by
    annihilator, then row by row: empty exactly when every v takes values in
    the polarization.  A Polynomial is built only for a nonzero pairing."""
    rows, den = _prows_rat_mul(vectors, group.tables.annihilators)
    return tuple(_reduced(nvars, x, den) for t in range(len(rows[0]))
                 for row in rows if (x := row[t]))


def frame_components(vector, group: SubRiemannianGroup) -> tuple:
    """Solve B gamma = vector for a vector with values in the polarization.

    vector is a tuple of Polynomial (or rationals) of length dim; the
    polynomial entries may be in any number of variables (for instance the
    coordinates of another group when the vector is a drift field along a
    map).  Raises ValueError if the vector does not lie in the span of the
    polarization; otherwise gamma = L vector with L the left inverse of B.
    """
    column, nvars = _horizontal_vector(vector, group, group.dim)
    vec = tuple(row[0] for row in _from_prows(column, nvars))
    return tuple(linear_combination(nvars, zip(row, vec)) for row in group.tables.left_inverse)


def _horizontal_vector(vector, group: SubRiemannianGroup, nvars: int) -> tuple:
    """(column, nv): the vector as a one-column matrix in the (rows, den)
    form of polynomial, in the nv variables of its first Polynomial entry
    (else nvars; rationals become constants), after ValueError for a wrong
    length and then for a vector outside the polarization
    (_polarization_residuals, run on a nonzero vector only)."""
    if len(vector) != group.dim:
        raise ValueError("vector has %d components, expected %d"
                         % (len(vector), group.dim))
    nv = next((v.nvars for v in vector if isinstance(v, Polynomial)), nvars)
    if not any(vector):
        return (tuple(({},) for _ in vector), 1), nv
    column = _to_prows(tuple((v if isinstance(v, Polynomial) else Polynomial.constant(rat(v), nv),)
                             for v in vector))
    if _polarization_residuals(_prows_transpose(column), group, nv):
        raise ValueError("vector does not take values in the polarization")
    return column, nv


def divergence(X, group: SubRiemannianGroup) -> Polynomial:
    """Coordinate divergence (with respect to Haar = Lebesgue measure)."""
    require_step(group)
    comps = X.components if hasattr(X, "components") else tuple(X)
    if len(comps) != group.dim:
        raise ValueError("field has %d components, expected %d" % (len(comps), group.dim))
    parts = (comp.diff(c) for c, comp in enumerate(comps) if isinstance(comp, Polynomial))
    return linear_combination(group.dim, [(1, part) for part in parts if part])


@dataclass(frozen=True)
class PullbackOperator:
    """Decomposition of u -> Delta_G(u o F) into frame derivatives on the
    target: second[c][d] multiplies (e_d~ e_c~ u) o F and first[c]
    multiplies (e_c~ u) o F.  Coefficients are Polynomial over the source
    coordinates; second is symmetric.  Both are the pushforward tables at
    DB = horizontal_differential(F), built on first read.

    apply() evaluates the coordinate chain rule instead,
        Delta_G(u o F) = sum_kl Gamma(F_k, F_l) (d_k d_l u) o F + sum_k (Delta_G F_k) (d_k u) o F,
    on the tables verify reads (_chain_rule_tables): for a term x^alpha of u
    each derivative is an integer multiple of a power of F, taken from one
    MapPowers kept on the operator (_add_jet).
    """

    map: PolyMap
    source: SubRiemannianGroup
    target: SubRiemannianGroup

    @cached_property
    def _frame_tables(self) -> tuple:
        n = self.source.dim
        second, first = _pullback_tables(_differential(self.map, self.source, self.target, True),
                                         self.source)
        return _from_prows(second, n), tuple(row[0] for row in _from_prows(first, n))

    @property
    def second(self) -> tuple:
        return self._frame_tables[0]

    @property
    def first(self) -> tuple:
        return self._frame_tables[1]

    @cached_property
    def _jets(self) -> tuple:
        """(powers, entries, common): the powers of F and the chain-rule
        tables as _jet_table scales them."""
        powers = MapPowers(self.map)
        (comps,), den = _to_prows((self.map.components,))
        return (powers, *_jet_table(*_chain_rule_tables(comps, den, self.source), powers.dens))

    def apply(self, u: Polynomial) -> Polynomial:
        if u.nvars != self.target.dim:
            raise ValueError("argument has %d variables, expected %d"
                             % (u.nvars, self.target.dim))
        powers, entries, common = self._jets
        # the jet of x^alpha sits over common den(alpha); scale each to the
        # lcm of those over the terms of u
        top = lcm(*map(powers.den, u._num))
        out = {}
        for alpha, c in u._num.items():
            _add_jet(out, entries, _jet_weights(alpha), powers, c * (top // powers.den(alpha)))
        return _reduced(self.source.dim, _nonzero(out), u._den * common * top)


def pullback_operator(F: PolyMap, source: SubRiemannianGroup,
                      target: SubRiemannianGroup) -> PullbackOperator:
    """Push Delta_G through a polynomial map F: G -> H: the pushforward
    tables at DB = horizontal_differential(F, source, target), frame-indexed
    on the target, second = DB G^{-1} DB^T and first_c = sum_j w_j(DB_cj)."""
    _check_map(F, source, target)
    return PullbackOperator(F, source, target)


def _pullback_tables(db: tuple, source: SubRiemannianGroup) -> tuple:
    """(second, first), the pushforward tables of the source's sub-Laplacian
    at DB, in the (rows, den) form of polynomial."""
    tables = source.tables
    return (_prows_congruence(db, tables.gram_inverse),
            _pushforward_first(db, tables.gradient_fields))


def _chain_rule_tables(comps: tuple, den: int, source: SubRiemannianGroup) -> tuple:
    """(Gam, Delta_G F) for a map whose components are the integer term dicts
    comps over den: the pushforward tables at J = JF (Lambda_G B_G), the
    horizontal derivatives of F, so Gam = J G^{-1} J^T is the carre du champ
    Gamma(F_k, F_l) and Delta_G F_k = sum_j w_j(J_kj)."""
    return _pullback_tables(
        _prows_mul(_jacobian_rows(comps, den, source.dim), source.tables.horizontal_frame), source)


def _jet_weights(alpha: tuple) -> dict:
    """{index: (beta, w)} for the nonzero coordinate derivatives of x^alpha:
    d_k d_l x^alpha = w x^beta for index (k, l), k <= l (w doubled when
    k < l, since a symmetric second-order table is visited once per pair),
    and d_k x^alpha = w x^beta for index (k,)."""
    out = {}
    m = len(alpha)
    for k in range(m):
        a = alpha[k]
        if not a:
            continue
        beta = alpha[:k] + (a - 1,) + alpha[k + 1:]
        out[k,] = beta, a
        for l in range(k, m):
            if b := beta[l]:
                out[k, l] = beta[:l] + (b - 1,) + beta[l + 1:], a * b if k == l else 2 * a * b
    return out


def _jet_table(second: tuple, first: tuple, dens: tuple) -> tuple:
    """(entries, common): (index, x) per nonzero entry of the coordinate
    tables second and first (a one-column matrix) in the (rows, den) form of
    polynomial, index (k, l) with k <= l or (k,), scaled so that the jet of
    x^alpha, sum x w powers[beta] over the (beta, w) of _jet_weights(alpha),
    sits over common den(alpha) for the denominators dens of F's components.
    An entry over its least denominator t_I is scaled by common den_I / t_I,
    den_I = den_k den_l or den_k the part of den(alpha) its derivative drops;
    common is the least number that makes every such scale an integer."""
    (s_rows, s_den), (f_rows, f_den) = second, first
    m = len(f_rows)
    cells = [((k, l), s_rows[k][l], s_den) for k in range(m) for l in range(k, m)]
    cells += [((k,), row[0], f_den) for k, row in enumerate(f_rows)]
    entries = []
    for index, x, den in cells:
        if x:
            g = gcd(den, *x.values())
            entries.append((index, x, g, den // g, prod(dens[i] for i in index)))
    common = lcm(*(t // gcd(t, d) for _, _, _, t, d in entries))
    return tuple((index, {e: c // g * (common * d // t) for e, c in x.items()})
                 for index, x, g, t, d in entries), common


def _add_jet(out: dict, entries: tuple, weights: dict, powers: MapPowers, k: int) -> dict:
    """out += k times the jet of x^alpha, for the entries of _jet_table,
    weights = _jet_weights(alpha) and the powers of F, on integer term
    dicts; cancelled entries stay as zeros."""
    get, plus = out.get, add
    for index, x in entries:
        if (item := weights.get(index)) is None:
            continue
        beta, w = item
        w *= k
        y = powers[beta]
        a, c = (y, x) if len(x) > len(y) else (x, y)
        for ea, ca in a.items():
            ca *= w
            for ec, cc in c.items():
                key = tuple(map(plus, ea, ec))
                out[key] = get(key, 0) + ca * cc
    return out
