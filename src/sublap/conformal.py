"""Deciders for metric compatibility questions.

Three related questions live here:

* when does a linear map between inner-product spaces act as a homothety off
  its kernel (equivalently, when is its cometric image a multiple of the
  target cometric),
* when do two spanning families induce the same cometric, together with an
  exact orthogonal change of frame whenever they do,
* when does a polynomial group map intertwine two sub-Laplacians up to a
  conformal factor and a drift term.  That is a condition on the coefficient
  tables of u -> Delta_G(u o F), not on any particular u, so the verdict is
  exact: it compares those tables and never samples test functions.
  Both deciders read them in the target's frame, on the horizontal
  differential (_frame_stages), which for a linear Lie homomorphism, or a
  left translate of one, is constant and is decided on its sparse integer
  rows, with no dense product (_constant_stages).  commutation_residuals then
  lists the witnesses of a failing stated identity in target coordinates:
  probe monomials, all of them in one integer pass through the jet
  evaluator of operators over one polynomial.MapPowers, on the residual
  tables.  When the stages pass, those are the stated identity's distance
  from the true one; when they fail, the chain-rule tables of operators
  (the ones PullbackOperator.apply evaluates) minus the stated identity.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from math import comb, gcd
from operator import mul
from typing import Optional

from . import linalg
from .algebra import SubRiemannianGroup
from .calculus import _constant_differential, _frame_at, _map_rows, _series_differential, \
    require_step
from .operators import _add_jet, _chain_rule_tables, _horizontal_vector, _jet_table, \
    _jet_weights, _polarization_residuals, _pushforward_first
from .polynomial import MapPowers, Polynomial, PolyMap, _from_prows, _monomials, _nonzero, \
    _prows_combination, _prows_congruence, _prows_times, _prows_transpose, _reduced, \
    monomials_up_to
from .rational import Rat, rat


class NotConformal(ValueError):
    """Raised when a drift vector is requested for a non-commuting map."""


# The most probe monomials a failing commutation_residuals evaluates: a
# target of dimension m at probe degree k has C(m + k, k) of them.  Each
# witness grows with the powers of F, so the cost per probe depends on the
# map: on the Fraction backend and a 2-vCPU host (best of 3), a dilation of
# h1 lists 969 probes (degree 16) in 0.01 s, a left translation of h1 the
# same 969 in 1.0 s, and one of Engel 715 (degree 9) in 1.4 s but 1365
# (degree 11, over the budget) in 7.2 s.
PROBE_BUDGET = 1000


class ProbeBudgetExceeded(ValueError):
    """Raised when listing the witnesses of a failing identity would take more
    than PROBE_BUDGET probes.  The identity fails: witnesses are those of the
    highest degree whose probes fit the budget (none below 2), and unlisted
    counts the probes left out."""

    def __init__(self, probe_degree: int, probes: int, witnesses: tuple, unlisted: int):
        self.probe_degree, self.probes, self.budget = probe_degree, probes, PROBE_BUDGET
        self.witnesses, self.unlisted = witnesses, unlisted
        super().__init__("probe degree %d needs %d probes, over the budget of %d"
                         % (probe_degree, probes, PROBE_BUDGET))


# ---------------------------------------------------------------------------
# homothetic projections of inner-product spaces


def _coerce_gram(g, size: int, name: str) -> tuple:
    """The Gram matrix g as linalg's (rows, den), converted once and checked
    size x size and positive definite on those integers."""
    g = linalg.mat(g)
    if linalg.shape(g) != (size, size):
        raise ValueError("%s must be %d x %d" % (name, size, size))
    g = linalg._to_rows(g)
    try:
        linalg._bareiss_pd(g)
    except ValueError:
        raise ValueError("%s must be symmetric positive definite" % name) from None
    return g


def _homothety_inputs(matrix, gram_v, gram_w) -> Optional[tuple]:
    """L, G_V and G_W for the homothety deciders, each checked and converted
    once to linalg's (rows, den); None when L has rows but no columns, as
    L = 0 is not surjective."""
    l = linalg.mat(matrix)
    m, n = linalg.shape(l)
    if not m:
        raise ValueError("matrix must have at least one row")
    gv = _coerce_gram(gram_v, n, "gram_v")
    gw = _coerce_gram(gram_w, m, "gram_w")
    if not n:
        return None
    return linalg._to_rows(l), gv, gw


def _cometric_identity(cometric: tuple, gw: tuple) -> Optional[Rat]:
    """The c > 0 with (L G_V^{-1} L^T) G_W = c 1, for the cometric image and
    G_W as (rows, den); else None."""
    return linalg._scalar_multiple(linalg._rows_mul(cometric, gw),
                                   linalg._identity_rows(len(gw[0])))


def is_homothetic_projection(matrix, gram_v, gram_w) -> Optional[Rat]:
    """Decide whether L: V -> W scales the cometric: L G_V^{-1} L^T = c G_W^{-1}.

    Returns the factor c = lambda^2 > 0 if so, else None.  Equivalently L is,
    modulo its kernel, a surjective homothety of ratio lambda.  Raises
    ValueError when L has no rows.
    """
    inputs = _homothety_inputs(matrix, gram_v, gram_w)
    if inputs is None:
        return None
    l, gv, gw = inputs
    return _cometric_identity(
        linalg._rows_mul(linalg._rows_mul(l, linalg._inverse_rows(gv)), linalg._rows_transpose(l)),
        gw)


# the keys of homothetic_characterizations, formulations (1) to (5)
_FORMULATIONS = ("cometric_identity", "dual_cometric", "adjoint_embedding", "kernel_projection",
                 "restricted_isometry")


def homothetic_characterizations(matrix, gram_v, gram_w) -> dict:
    """Evaluate five independent formulations of the homothety property.

    Each entry holds the factor lambda^2 (or None).  They agree for every
    input; the separate code paths exist so that agreement is checkable.
    Inputs are built once and shared, comparisons are not: L Gv^{-1} L^T by
    (1) and (2), the metric adjoint T = Gv^{-1} L^T Gw by (3) and (4), a
    kernel basis K and K^T Gv by (4) and (5).  (1) is
    is_homothetic_projection's test.  Every chain runs on linalg's
    (rows, den) form.  Raises ValueError when L has no rows.
    """
    inputs = _homothety_inputs(matrix, gram_v, gram_w)
    if inputs is None:
        return dict.fromkeys(_FORMULATIONS)
    prod, tr, multiple = linalg._rows_mul, linalg._rows_transpose, linalg._scalar_multiple
    l, gv, gw = inputs
    m, n = len(l[0]), len(l[0][0])
    gv_inv = linalg._inverse_rows(gv)
    lt = tr(l)
    cometric = prod(prod(l, gv_inv), lt)
    adjoint = prod(prod(gv_inv, lt), gw)
    kernel = linalg._nullspace_rows(l[0])
    dim_ker = len(kernel[0])
    kt_g = prod(kernel, gv)
    out = dict.fromkeys(_FORMULATIONS)

    # (1) cometric image: L Gv^{-1} L^T Gw is a positive multiple of the identity
    out["cometric_identity"] = _cometric_identity(cometric, gw)

    # (2) dual cometric: L Gv^{-1} L^T is the same multiple of Gw^{-1}
    out["dual_cometric"] = multiple(cometric, linalg._inverse_rows(gw))

    # (3) the metric adjoint T = Gv^{-1} L^T Gw is a homothetic embedding:
    #     T^T Gv T is a positive multiple of Gw
    out["adjoint_embedding"] = multiple(prod(prod(tr(adjoint), gv), adjoint), gw)

    # (4) surjectivity (rank n - dim ker = m) plus L^*L equal to a multiple of
    #     the Gv-orthogonal projection onto the orthocomplement of the kernel
    if n - dim_ker == m:
        proj = linalg._identity_rows(n)
        if dim_ker:
            # 1 - K (K^T Gv K)^{-1} K^T Gv, with the kernel basis as columns of K
            k = tr(kernel)
            pk, den = prod(prod(k, linalg._inverse_rows(prod(kt_g, k))), kt_g)
            proj = [[den * (i == j) - x for j, x in enumerate(row)]
                    for i, row in enumerate(pk)], den
        out["kernel_projection"] = multiple(prod(adjoint, l), proj)

    # (5) isometry-up-to-scale on a (nullspace, so independent) basis of the
    #     Gv-orthocomplement of the kernel: the w with k^T Gv w = 0 for kernel k
    comp = linalg._nullspace_rows(kt_g[0]) if dim_ker else linalg._identity_rows(n)
    if len(comp[0]) == m:
        p = tr(comp)                                  # n x m, columns span ker^perp
        lp = prod(l, p)
        out["restricted_isometry"] = multiple(prod(prod(tr(lp), gw), lp), prod(prod(comp, gv), p))

    return out


# ---------------------------------------------------------------------------
# frame equivalence


@dataclass(frozen=True)
class FrameDecision:
    equivalent: bool
    witness: Optional[tuple]  # orthogonal N x N matrix A with Y = A X, or None


def frames_equivalent(frame_x, frame_y) -> FrameDecision:
    """Do two spanning families induce the same cometric F^T F?

    Both frames are given as sequences of vectors (rows).  Raises ValueError
    if the two families have different sizes or ambient dimensions; frames
    that span different subspaces are not equivalent, as the range of F^T F
    is the row space of F.  On a positive verdict the witness is an exact
    orthogonal matrix A (a product of rational reflections) with
    frame_y[i] = sum_j A[i][j] frame_x[j].
    """
    fx = linalg.mat(frame_x)
    fy = linalg.mat(frame_y)
    nx, dx = linalg.shape(fx)
    ny, dy = linalg.shape(fy)
    if dx != dy:
        raise ValueError("frames live in different ambient dimensions")
    if nx != ny:
        raise ValueError("frames have different sizes (%d vs %d)" % (nx, ny))
    x, y = linalg._to_rows(fx), linalg._to_rows(fy)
    if linalg._rows_equal(linalg._rows_mul(linalg._rows_transpose(x), x),
                          linalg._rows_mul(linalg._rows_transpose(y), y)):
        return FrameDecision(True, _orthogonal_witness(x, y))
    return FrameDecision(False, None)


def _orthogonal_witness(fx: tuple, fy: tuple) -> tuple:
    """Orthogonal A with A fx = fy, as a product of reflections, for two
    frames given as linalg's integer rows (rows, den).

    Works column by column: the j-th columns of fx and fy have equal pairings
    with everything already matched (the Gram matrices agree), so a single
    reflection in their difference aligns them without disturbing previous
    columns.  A = N / D stays on integers: the reflection 1 - 2 v v^T / vv
    does not change when v is rescaled, so v is the integer difference of
    the two columns, and it takes N to vv N - 2 v (v^T N) and D to D vv.
    """
    (x, dx), (y, dy) = fx, fy
    # num is rebuilt by every reflection, never updated in place
    one = linalg._identity_rows(len(x))
    num, den = one
    for col_x, col_y in zip(zip(*x), zip(*y)):
        # A col_x / dx - col_y / dy, times D dx dy
        scale = den * dx
        v = [dy * sum(map(mul, row, col_x)) - scale * h for row, h in zip(num, col_y)]
        if not any(v):
            continue
        vv = sum(vi * vi for vi in v)
        w = [2 * sum(map(mul, v, col)) for col in zip(*num)]
        num = [[vv * a - vi * wk for a, wk in zip(row, w)] if vi else [vv * a for a in row]
               for row, vi in zip(num, v)]
        den *= vv
        g = gcd(den, *(a for row in num for a in row))
        if g > 1:
            num = [[a // g for a in row] for row in num]
            den //= g
    a = (num, den)
    assert linalg._rows_equal(linalg._rows_mul(a, fx), fy)
    assert linalg._rows_equal(linalg._rows_mul(linalg._rows_transpose(a), a), one)
    return linalg._from_rows(num, den)


# ---------------------------------------------------------------------------
# commutation analysis for polynomial group maps


@dataclass(frozen=True)
class CommutationReport:
    """Outcome of the sub-Laplacian commutation analysis.

    contact: DF maps the source polarization into the target polarization.
    conformal: additionally DF Q_G DF^T = lambda_sq * Q_H and the identity
    Delta_G(u o F) = lambda_sq (Delta_H u) o F + <b, (grad u) o F> holds for
    every test function u; the verdict is exact.  lambda_sq and b
    (target-algebra valued, entries Polynomial over the source) are populated
    only when conformal.  residuals holds the witnesses of whichever stage
    failed: nonzero polynomials for contact and for the split
    DF Q_G DF^T = lambda_sq Q_H, and (lambda_sq,), which is zero, for
    "conformal factor is not positive" (a constant map).  probe_degree is
    the validated request, echoed; the verdict does not depend on it.
    """

    contact: bool
    conformal: bool
    lambda_sq: Optional[Polynomial]
    b: Optional[tuple]
    probe_degree: int
    residuals: tuple = field(default=())
    reason: str = ""


def _conformal_factor(c: tuple, qh: tuple, nvars: int) -> tuple:
    """Split C = lambda_sq * Q_H, for C in the (rows, den) form of polynomial
    and Q_H as linalg's integer (rows, den): returns (lambda_sq, mismatches).

    With q_0 the first nonzero entry of Q_H and c_0 the entry of C in its
    place, C = lambda_sq Q_H holds exactly when c_ij q_0 = c_0 q_ij at every
    entry, compared on integer term dicts without dividing; lambda_sq =
    c_0 / q_0, and the mismatch c_ij - lambda_sq q_ij of each entry where the
    test fails, are the only Polynomials built."""
    (rows, den), (q, qd) = c, qh
    i0, j0 = next((i, j) for i, row in enumerate(q) for j, x in enumerate(row) if x)
    c0, q0 = rows[i0][j0], q[i0][j0]
    # lambda_sq q_ij = c0 q_ij / (den q0): keep that denominator positive
    sign, den0 = (1, den * q0) if q0 > 0 else (-1, -den * q0)
    mismatches = []
    for crow, qrow in zip(rows, q):
        for x, w in zip(crow, qrow):
            y = c0 if w else {}
            if len(x) == len(y) and all(v * q0 == y.get(e, 0) * w for e, v in x.items()):
                continue
            diff = {e: v * q0 * sign for e, v in x.items()}
            for e, v in y.items():
                diff[e] = diff.get(e, 0) - v * w * sign
            mismatches.append(_reduced(nvars, _nonzero(diff), den0))
    lam_sq = _reduced(nvars, {e: v * qd * sign for e, v in c0.items()}, den0)
    return lam_sq, tuple(mismatches)


_NOT_CONTACT = "differential leaves the polarization"
_NOT_CONFORMAL = "cometric image is not a multiple of the target cometric"


def _frame_stages(reading: tuple, source: SubRiemannianGroup, target: SubRiemannianGroup) -> tuple:
    """The commutation identity in the target's frame, on the horizontal
    differential DB = DF B_G of the reading (comps, den, matrix) of F by
    calculus._map_rows: (reason, witnesses) for the first stage that fails,
    else ("", (lambda_sq, b)), lambda_sq = 0 included and b the one-column
    (rows, den) table of _pushforward_first (None on the constant path).
    DF is contact when DB takes values in the target polarization,
    DF Q_G DF^T = DB G^{-1} DB^T splits as lambda_sq Q_H, and b, the
    first-order table of the pushforward assembly at DB, is built only once
    it has.  As the 2-jet of u at a point is arbitrary, the identity holds
    exactly when the pullback of Delta_G has the frame tables lambda_sq Q_H
    and b.  b needs no horizontality check: b_c = sum_j w_j(DB_cj) with
    w_j = sum_k g^{jk} v_k~, and after contact DB, hence every derivative
    of it, takes values in the fixed subspace span B_H.

    A linear Lie homomorphism M, or a left translate L_a o M of one, has
    the constant DB = M B_G (calculus._constant_differential), so its
    stages run on DB's sparse integer rows (_constant_stages), with b None
    for the zero drift; any other map's on polynomial matrices."""
    comps, den, matrix = reading
    if matrix is not None:
        return _constant_stages(_constant_differential(matrix, source, True), source, target)
    n = source.dim
    db = _series_differential(comps, den, source, target, True)
    # the columns of DB outside the target polarization, annihilator by
    # annihilator and column by column
    contact_bad = _polarization_residuals(_prows_transpose(db), target, n)
    if contact_bad:
        return _NOT_CONTACT, contact_bad
    tables = source.tables
    lam_sq, mismatches = _conformal_factor(_prows_congruence(db, tables.gram_inverse),
                                           target.tables.cometric_rows, n)
    if mismatches:
        return _NOT_CONFORMAL, mismatches
    return "", (lam_sq, _pushforward_first(db, tables.gradient_fields))


def _constant_stages(db: tuple, source: SubRiemannianGroup, target: SubRiemannianGroup) -> tuple:
    """_frame_stages for a constant DB given as the sparse integer rows of
    calculus._constant_differential, with the same stages, witnesses and
    order, each witness a constant Polynomial in the source variables.  The
    products run over nonzero entries only: the contact pairings y . DB_j
    with the target's annihilators y (none for R^m) sum over the rows where
    y is nonzero, and C = DB G^{-1} DB^T is formed on its upper triangle
    through the nonzero entries of G^{-1} (GroupTables.gram_inverse_entries)
    and split by _conformal_factor's rule on integers there, as C and Q_H
    are symmetric; a failing split lists its witnesses over the full matrix,
    row by row.  b is None, since the derivatives of a constant vanish."""
    n, r = source.dim, source.rank
    one = (0,) * n

    def constant(x: int, den: int) -> Polynomial:
        return _reduced(n, {one: x} if x else {}, den)

    rows, den = db
    y, yd = target.tables.annihilator_entries
    contact_bad = []
    for col in y:
        pairs = [0] * r
        for i, w in col:
            for j, x in rows[i].items():
                pairs[j] += x * w
        contact_bad += [constant(x, den * yd) for x in pairs if x]
    if contact_bad:
        return _NOT_CONTACT, tuple(contact_bad)
    ginv, gd = source.tables.gram_inverse_entries
    m = len(rows)
    cols = [[] for _ in range(r)]  # column k of DB as (row, entry) pairs
    for b, row in enumerate(rows):
        for k, x in row.items():
            cols[k].append((b, x))
    upper = [[0] * m for _ in range(m)]  # C on and above the diagonal
    for a, row in enumerate(rows):
        ca = upper[a]
        for j, x in row.items():
            for k, w in ginv[j]:
                xw = x * w
                for b, v in cols[k]:
                    if b >= a:
                        ca[b] += xw * v
    den = den * den * gd
    q, qd = target.tables.cometric_rows
    i0, j0 = next((i, j) for i, row in enumerate(q) for j, x in enumerate(row) if x)
    # Q is symmetric, so its first nonzero entry lies on or above the diagonal
    c0, q0 = upper[i0][j0], q[i0][j0]
    # as in _conformal_factor: c_ij q_0 = c_0 q_ij, and lambda_sq = c_0 / q_0
    sign, den0 = (1, den * q0) if q0 > 0 else (-1, -den * q0)
    # C and Q are symmetric, so their upper triangles decide
    if any(x * q0 != c0 * w for a, (crow, qrow) in enumerate(zip(upper, q))
           for x, w in zip(crow[a:], qrow[a:])):
        return _NOT_CONFORMAL, tuple(
            constant((x * q0 - c0 * w) * sign, den0)
            for a, qrow in enumerate(q) for b, w in enumerate(qrow)
            if (x := upper[a][b] if a <= b else upper[b][a]) * q0 != c0 * w)
    return "", (constant(c0 * qd * sign, den0), None)


def commutation_residuals(F: PolyMap, lambda_sq, b, source: SubRiemannianGroup,
                          target: SubRiemannianGroup, probe_degree: int) -> tuple:
    """Residuals of Delta_G(u o F) - lambda_sq (Delta_H u) o F - <b, (grad u) o F>
    over all monomial probes u of degree <= probe_degree.

    lambda_sq is a Polynomial over the source (or a rational); b is a tuple of
    target-algebra components (Polynomial over the source), required to take
    values in the target polarization.  Returns ((probe, residual), ...) for
    the probes with nonzero residual.

    F is read once (calculus._map_rows).  The answer is () at every probe
    degree exactly when the frame stages of analyze_commutation
    (_frame_stages) pass with this lambda_sq and b.
    Otherwise the witnesses are listed from the coordinate chain rule
        Delta_G(u o F) = sum_kl Gam_kl (d_k d_l u) o F + sum_k (Delta_G F_k) (d_k u) o F,
    Gam_kl = Gamma(F_k, F_l): with J = JF (Lambda_G B_G) the horizontal
    derivatives of F, Gam = J G^{-1} J^T and Delta_G F_k = sum_j w_j(J_kj),
    the pushforward tables at J (operators._chain_rule_tables).  On the
    target, Delta_H = sum_kl H2_kl d_k d_l + sum_k H1_k d_k in coordinates
    (GroupTables.sublaplacian_tables) and
    <b, grad u> = sum_k (Lambda_H b)_k d_k u.  The residual is
    sum S_kl (d_k d_l u) o F + sum R_k (d_k u) o F with
        S = Gam - lambda_sq H2 o F,    R = Delta_G F - lambda_sq H1 o F - Lambda_H(F) b,
    H2 o F and H1 o F composed from the powers of F's components and
    Lambda_H(F) b the Bernoulli series in ad_F (built only for b != 0).
    These are the frame tables of the identity (second - lambda_sq Q_H and
    first - b) seen through Lambda_H(F), which is unipotent, so on a failing
    identity one of them is nonzero.  When the stages pass with the true
    (lam, b_true), Gam = lam H2 o F and Delta_G F = lam H1 o F +
    Lambda_H(F) b_true, since J = Lambda_H(F) DB, so the tables are built
    without J:
        S = (lam - lambda_sq) H2 o F,    R = (lam - lambda_sq) H1 o F + Lambda_H(F) (b_true - b).
    The identity holds exactly when both differences vanish.  S is
    symmetric and the 2-jet of u at a point is arbitrary, so a probe of
    degree <= 2 already fails, and the listing is sound: for a probe
    x^alpha, (d_k d_l x^alpha) o F and (d_k x^alpha) o F are integer
    multiples of powers of F, so one integer pass over the probes adds each
    table entry times a power into its probe (_list_witnesses), and each
    failing probe is reduced once.

    Listing takes C(m + probe_degree, probe_degree) probes for a target of
    dimension m; over PROBE_BUDGET, ProbeBudgetExceeded (a ValueError) is
    raised instead, with the witnesses of the degrees the budget covers.
    """
    if probe_degree < 2:
        raise ValueError("probe_degree must be at least 2")
    n, m = source.dim, target.dim
    if not isinstance(lambda_sq, Polynomial):
        lambda_sq = Polynomial.constant(rat(lambda_sq), n)
    require_step(source)
    require_step(target)
    drift, _ = _horizontal_vector(b, target, n)  # raises if b is not horizontal
    if any(v.nvars != n for v in (lambda_sq, *b) if isinstance(v, Polynomial)):
        raise ValueError("lambda_sq and b must be polynomials in the %d source variables" % n)
    comps, den, _ = reading = _map_rows(F, source, target)
    reason, found = _frame_stages(reading, source, target)
    if reason:
        gam, lap = _chain_rule_tables(comps, den, source)
        second, first = [(1, gam)], [(1, lap)]
    else:
        # with the true (lam, b_true), Gam = lam H2 o F and Delta_G F =
        # lam H1 o F + Lambda_H(F) b_true: only the differences remain
        lam, b_true = found
        second, first = [], []
        lambda_sq = lambda_sq - lam
        if b_true is not None:
            drift = _prows_combination([(1, drift), (-1, b_true)])
        if not lambda_sq and not any(map(any, drift[0])):
            return ()
    h2, h1 = target.tables.sublaplacian_tables
    degree = target.tables.sublaplacian_degree
    powers = MapPowers(F)
    second.append((-1, _compose_rows(h2, powers, den, degree, lambda_sq)))
    second = _prows_combination(second)
    first.append((-1, _compose_rows(h1, powers, den, degree, lambda_sq)))
    if any(map(any, drift[0])):
        first.append((-1, _frame_at(comps, den, target, drift)))
    first = _prows_combination(first)
    probes = comb(m + probe_degree, probe_degree)
    if probes <= PROBE_BUDGET:
        return _list_witnesses(second, first, powers, n, m, probe_degree)
    k = 0  # the highest degree whose probes fit the budget
    while comb(m + k + 1, k + 1) <= PROBE_BUDGET:
        k += 1
    if k < 2:
        raise ProbeBudgetExceeded(probe_degree, probes, (), probes)
    listed = _list_witnesses(second, first, powers, n, m, k)
    raise ProbeBudgetExceeded(probe_degree, probes, listed, probes - comb(m + k, k))


def _compose_rows(a: tuple, powers: MapPowers, den: int, degree: int,
                  factor: Polynomial) -> tuple:
    """factor (a o F) for a polynomial matrix a in the (rows, den) form over
    the target variables, of total degree <= degree, the powers of F, and
    den the lcm of the denominators of F's components: each term c x^gamma
    becomes c (den^degree / den(gamma)) powers[gamma], over den^degree.  A
    constant factor scales the coefficients as they are composed; a
    polynomial one multiplies the composed entries."""
    rows, da = a
    if not factor:
        return tuple(tuple({} for _ in row) for row in rows), 1
    top = den ** degree
    constant = factor.is_constant
    k = factor._num.get((0,) * factor.nvars, 0) if constant else 1
    done = {}  # by id: a symmetric table holds each mirrored entry once
    out = []
    for row in rows:
        entries = []
        for x in row:
            acc = done.get(id(x))
            if acc is None:
                acc = {}
                get = acc.get
                for gamma, c in x.items():
                    c *= k * (top // powers.den(gamma))
                    for e, v in powers[gamma].items():
                        acc[e] = get(e, 0) + c * v
                acc = done[id(x)] = _nonzero(acc)
            entries.append(acc)
        out.append(tuple(entries))
    if constant:
        return tuple(out), da * top * factor._den
    return _prows_times((tuple(out), da * top), factor._num, factor._den)


@lru_cache(maxsize=64)
def _probe_plan(m: int, degree: int) -> tuple:
    """_jet_weights(alpha) for each probe x^alpha of monomials_up_to(m,
    degree), in its order.  Read from polynomial's cached probes
    (_monomials), so that monomials_up_to runs once per listing."""
    return tuple(_jet_weights(next(iter(u._num))) for u in _monomials(m, degree))


def _list_witnesses(second: tuple, first: tuple, powers: MapPowers, nvars: int, m: int,
                    probe_degree: int) -> tuple:
    """((u, residual), ...) over the probes u of monomials_up_to(m,
    probe_degree) with a nonzero residual sum second_kl (d_k d_l u) o F +
    sum first_k (d_k u) o F, for the coordinate tables second and first in
    the (rows, den) form of polynomial and the powers of F: each probe's
    jet is one _add_jet over the entries of _jet_table, as in
    PullbackOperator.apply, and each failing probe is reduced once.  The
    probes and their weights are built once per (m, probe_degree)."""
    entries, common = _jet_table(second, first, powers.dens)
    bad = []
    for u, weights in zip(monomials_up_to(m, probe_degree), _probe_plan(m, probe_degree)):
        out = _add_jet({}, entries, weights, powers, 1)
        if out and (out := _nonzero(out)):
            (alpha,) = u._num
            bad.append((u, _reduced(nvars, out, common * powers.den(alpha))))
    return tuple(bad)


def analyze_commutation(F: PolyMap, source: SubRiemannianGroup,
                        target: SubRiemannianGroup,
                        probe_degree: int = 4) -> CommutationReport:
    """Decide whether F intertwines the two sub-Laplacians conformally.

    Stages (_frame_stages, on F read once): (1) contact compatibility of DF,
    (2) exact factorization DF Q_G DF^T = lambda_sq Q_H, (3) the drift b,
    the first-order table of the pullback of Delta_G, made a Polynomial
    only here, for the report.  A factor lambda_sq = 0
    (a constant map) passes them and is rejected here as not positive.
    probe_degree is validated and echoed in the report; no probe is run.
    """
    if probe_degree < 2:
        raise ValueError("probe_degree must be at least 2")
    reason, found = _frame_stages(_map_rows(F, source, target), source, target)
    if reason:
        return CommutationReport(reason != _NOT_CONTACT, False, None, None, probe_degree,
                                 found, reason)
    lam_sq, b = found
    # C = DB G^{-1} DB^T and the constant Q_H != 0 are positive semidefinite, so
    # lambda_sq < 0 cannot occur: only lambda_sq = 0 (a constant map) gets here
    if not lam_sq:
        return CommutationReport(True, False, None, None, probe_degree,
                                 (lam_sq,), "conformal factor is not positive")
    b = (Polynomial.zero(source.dim),) * target.dim if b is None else \
        _from_prows(_prows_transpose(b), source.dim)[0]
    return CommutationReport(True, True, lam_sq, b, probe_degree, (), "")


def b_vector(F: PolyMap, lambda_sq, source: SubRiemannianGroup,
             target: SubRiemannianGroup) -> tuple:
    """The drift vector of a conformally commuting map, in target-algebra
    coordinates (entries Polynomial over the source).

    Read from analyze_commutation: raises NotConformal, with the report's
    reason, unless the map is conformal with factor exactly lambda_sq.
    """
    report = analyze_commutation(F, source, target)
    if not report.conformal:
        raise NotConformal(report.reason)
    if not isinstance(lambda_sq, Polynomial):
        lambda_sq = Polynomial.constant(rat(lambda_sq), source.dim)
    if report.lambda_sq != lambda_sq:
        raise NotConformal("cometric image is not lambda_sq times the target cometric")
    return report.b
