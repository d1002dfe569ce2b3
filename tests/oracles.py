"""Independent cross-checking machinery for the tests.

Group products are computed through faithful matrix representations with
exact exp/log on nilpotent matrices, and derivatives are taken by exact
Lagrange differentiation of polynomial curves through rational sample points;
neither uses the package's BCH or differential code paths.  The Lie
differential oracle differentiates the symbolic curve (-F(p)) * F(p * t e_j)
through the BCH group law, and the left-translation oracle differentiates the
symbolic BCH product p * q in q at q = 0, where the package uses closed-form
ad-series for both.  The Heisenberg sub-Laplacian oracle is the operator
written out in coordinates, apart from the frame machinery.  The drift
oracle assembles b from the cometric trace of the second differential,
separately from the pullback tables.  The commutation probe oracle
substitutes each probe into the map and applies the two sub-Laplacians and
the gradient directly, never going through the Lie differential or the
pullback tables that the package decides with (the sub-Laplacians share the
package's pushforward assembly, which the operator tests check against
frame derivatives taken one field at a time).  The frame-components oracle
solves on the pivot rows of the polarization and multiplies back, where the
package pairs the vector with annihilators and applies a left inverse.  The
linear-algebra oracles are plain Gauss-Jordan and LDL^T elimination on
Fractions, apart from the package's fraction-free integer code, and the
Jacobi oracle calls the algebra's bracket on every basis triple instead of
reading the table.  The filtration oracles run generation, the lower central
series and stratification as three separate dense passes that bracket every
pair and rank each bracket set apart, where the package grows the filtration
once, over the table's rows only.  The orthogonal-witness oracle applies each reflection
with scalar Rat arithmetic, entry by entry, where the package updates
integer rows.  The rational matrix product oracle forms every entry over all
of its index pairs, zero or not, where the package visits only the pairs
whose factors are both nonzero.  The Heisenberg gauge oracle reduces a pair
on Rat matrices, inverse(L) omega inverse(L)^T through the public linalg, and
takes each float of a Rat rescaled by powers of four, where the package keeps
L^{-1} and that product on integer rows over one denominator.  The Dynkin
product oracle sums the words of Dynkin's BCH expansion, where the package
solves for the product degree by degree through the Bernoulli series, and the
bracket-loop series oracle calls the algebra's bracket on each pair, where
the package applies each row of the table as a sparse ad.  The Polynomial
pipeline oracles (poly_horizontal_differential, poly_lie_differential,
poly_pushforward_second/_first, poly_analyze_commutation) compose the
differential, the pushforward tables and the commutation stages on
Polynomial entries, one reduced Polynomial per entry of every intermediate
matrix, where the package keeps integer term dicts over one common
denominator until a table leaves it.  reference_str prints a polynomial
from its Rat terms, where Polynomial.__str__ reads the integer numerators
once.
"""

import math
import sys
from fractions import Fraction

from sublap import heisenberg, linalg
from sublap.algebra import NotStratifiable
from sublap.calculus import bch_product, bernoulli_numbers, dynkin_terms, group_product_map
from sublap.conformal import CommutationReport
from sublap.operators import DifferentialOperator, cometric, frame_components, gradient, \
    sublaplacian
from sublap.polynomial import Polynomial, linear_combination, monomials_up_to, sum_of_products
from sublap.rational import Rat, rat


def is_rat(value) -> bool:
    """Whether value is a scalar of the rational backend in use."""
    return isinstance(value, Rat)


# ---------------------------------------------------------------------------
# exact matrix arithmetic on nilpotent matrices


def mmul(a, b):
    n, k, m = len(a), len(b), len(b[0])
    return tuple(
        tuple(sum((a[i][t] * b[t][j] for t in range(k)), Rat(0)) for j in range(m))
        for i in range(n)
    )


def madd(a, b):
    return tuple(tuple(x + y for x, y in zip(ra, rb)) for ra, rb in zip(a, b))


def mscale(c, a):
    return tuple(tuple(c * x for x in row) for row in a)


def meye(n):
    return tuple(tuple(Rat(1) if i == j else Rat(0) for j in range(n)) for i in range(n))


def mzero(n):
    return tuple(tuple(Rat(0) for _ in range(n)) for _ in range(n))


def nilpotent_exp(m):
    """exp of a nilpotent matrix by the (finite) series, exact rationals."""
    n = len(m)
    out = meye(n)
    term = meye(n)
    k = 1
    while True:
        term = mmul(term, m)
        if all(all(x == 0 for x in row) for row in term):
            break
        out = madd(out, mscale(Rat(1, _factorial(k)), term))
        k += 1
        if k > n + 1:
            raise AssertionError("matrix is not nilpotent")
    return out


def nilpotent_log(u):
    """log of a unipotent matrix by the (finite) series, exact rationals."""
    n = len(u)
    nmat = madd(u, mscale(Rat(-1), meye(n)))
    out = mzero(n)
    term = meye(n)
    k = 1
    while True:
        term = mmul(term, nmat)
        if all(all(x == 0 for x in row) for row in term):
            break
        sign = Rat(1) if k % 2 == 1 else Rat(-1)
        out = madd(out, mscale(sign / k, term))
        k += 1
        if k > n + 1:
            raise AssertionError("matrix is not unipotent")
    return out


def _factorial(k):
    out = 1
    for i in range(2, k + 1):
        out *= i
    return out


# ---------------------------------------------------------------------------
# faithful representations


def heisenberg_rep(n):
    """H^n as (n+2)x(n+2) strictly upper triangular matrices.

    Returns (embed, extract): embed maps a coordinate vector
    (x_1..x_n, y_1..y_n, z) to its matrix, extract inverts it on the image
    of log.
    """
    size = n + 2

    def embed(v):
        m = [[Rat(0)] * size for _ in range(size)]
        for i in range(n):
            m[0][1 + i] = rat(v[i])          # X_i
            m[1 + i][size - 1] = rat(v[n + i])  # Y_i
        m[0][size - 1] = rat(v[2 * n])       # Z
        return tuple(tuple(row) for row in m)

    def extract(m):
        coords = [m[0][1 + i] for i in range(n)]
        coords += [m[1 + i][size - 1] for i in range(n)]
        coords.append(m[0][size - 1])
        return tuple(coords)

    return embed, extract


def engel_rep():
    """The Engel algebra in 4x4 strictly upper triangular matrices:
    e1 = E12+E34, e2 = E23, e3 = E13-E24, e4 = -2 E14 satisfies
    [e1,e2]=e3, [e1,e3]=e4, all other brackets zero."""

    def embed(v):
        a, b, c, d = (rat(x) for x in v)
        return (
            (Rat(0), a, c, -2 * d),
            (Rat(0), Rat(0), b, -c),
            (Rat(0), Rat(0), Rat(0), a),
            (Rat(0), Rat(0), Rat(0), Rat(0)),
        )

    def extract(m):
        a = m[0][1]
        b = m[1][2]
        c = m[0][2]
        d = -m[0][3] / 2
        assert m[2][3] == a and m[1][3] == -c, "matrix left the embedded algebra"
        return (a, b, c, d)

    return embed, extract


def rep_product(embed, extract, p, q):
    """Group product through the representation: log(exp P exp Q)."""
    u = mmul(nilpotent_exp(embed(p)), nilpotent_exp(embed(q)))
    return extract(nilpotent_log(u))


def dynkin_product(p, q, algebra, step):
    """p * q as Dynkin's truncated BCH sum (calculus.dynkin_terms): each word
    is a right-nested bracket of p and q, evaluated once through a memo of its
    inner words, where the package solves for the coefficients of
    log(e^p e^{tq}) degree by degree through the Bernoulli series.  Entries
    may be Rat or Polynomial; any Polynomial makes every entry one."""
    nvars = next((x.nvars for x in (*p, *q) if isinstance(x, Polynomial)), None)

    def lift(x):
        x = x if isinstance(x, Polynomial) else rat(x)
        return x if nvars is None or isinstance(x, Polynomial) else Polynomial.constant(x, nvars)

    args = tuple(tuple(map(lift, v)) for v in (p, q))
    memo = {(0,): args[0], (1,): args[1]}

    def value(word):
        if word not in memo:
            memo[word] = algebra.bracket(args[word[0]], value(word[1:]))
        return memo[word]

    total = [Rat(0) if nvars is None else Polynomial.zero(nvars)] * algebra.dim
    for coeff, word in dynkin_terms(step):
        total = [t + x * coeff for t, x in zip(total, value(word))]
    return tuple(total)


# ---------------------------------------------------------------------------
# exact differentiation of polynomial curves


def lagrange_derivative_at_zero(samples):
    """d/dt at t=0 of the polynomial interpolating [(t_k, v_k)], exact.

    Exact for any polynomial of degree < len(samples); the caller must
    supply enough nodes.
    """
    nodes = [rat(t) for t, _ in samples]
    values = [v for _, v in samples]
    total = None
    for k, (tk, vk) in enumerate(zip(nodes, values)):
        denom = Rat(1)
        for j, tj in enumerate(nodes):
            if j != k:
                denom = denom * (tk - tj)
        # derivative at 0 of the k-th Lagrange basis polynomial
        num = Rat(0)
        for i, ti in enumerate(nodes):
            if i == k:
                continue
            prod = Rat(1)
            for j, tj in enumerate(nodes):
                if j != k and j != i:
                    prod = prod * (0 - tj)
            num = num + prod
        weight = num / denom
        term = vk * weight
        total = term if total is None else total + term
    return total


def curve_derivative(curve, degree_bound):
    """Exact derivative at 0 of a tuple-valued polynomial curve."""
    nodes = [Rat(k) for k in range(degree_bound + 1)]
    samples = [curve(t) for t in nodes]
    dim = len(samples[0])
    return tuple(
        lagrange_derivative_at_zero(list(zip(nodes, (s[i] for s in samples))))
        for i in range(dim)
    )


# ---------------------------------------------------------------------------
# variable bookkeeping on polynomials


def pad(p, nvars):
    """p reinterpreted in a larger variable set (new trailing variables)."""
    if nvars < p.nvars:
        raise ValueError("pad cannot shrink")
    extra = (0,) * (nvars - p.nvars)
    return Polynomial(nvars, {e + extra: c for e, c in p.terms.items()})


def truncate(p, nvars):
    """p with its trailing variables dropped; they must not occur."""
    out = {}
    for exps, c in p.terms.items():
        if any(exps[nvars:]):
            raise ValueError("variable beyond %d occurs in %s" % (nvars, p))
        out[exps[:nvars]] = c
    return Polynomial(nvars, out)


def poly_mat_eval(a, point):
    """A matrix of Polynomials evaluated entrywise at a point."""
    return tuple(tuple(entry.evaluate(point) for entry in row) for row in a)


def coeff_of(p, index, power):
    """The coefficient of (variable index)**power in p, a polynomial with
    that variable absent (exponent slot kept, set to zero)."""
    return Polynomial(p.nvars, {e[:index] + (0,) + e[index + 1:]: c
                                for e, c in p.terms.items() if e[index] == power})


# ---------------------------------------------------------------------------
# differentials of polynomial group maps


def bch_left_translation_jacobian(group):
    """The matrix of dL_p read off the symbolic BCH product: column j is the
    derivative of p * q in q_j at q = 0, from group_product_map in 2n
    variables, where the package sums the Bernoulli series of ad_p."""
    n = group.dim
    prod = group_product_map(group)
    rows = []
    for comp in prod.components:
        row = []
        for j in range(n):
            d = comp.diff(n + j)
            kept = {e[:n]: coeff for e, coeff in d.terms.items() if not any(e[n:])}
            row.append(Polynomial(n, kept))
        rows.append(tuple(row))
    return tuple(rows)


def bch_lie_differential(F, source, target):
    """DF as a target_dim x source_dim matrix of Polynomial: column j is the
    t-derivative at 0 of (-F(p)) * F(p * (t e_j)), the curve built
    symbolically in the source coordinates plus t through two BCH products."""
    n, m = source.dim, target.dim
    nv = n + 1  # p coordinates plus the curve parameter in the last slot
    tvar = Polynomial.variable(n, nv)
    pvars = [Polynomial.variable(i, nv) for i in range(n)]
    neg_fp = [-pad(c, nv) for c in F.components]
    cols = []
    for j in range(n):
        tv = [tvar if i == j else Polynomial.zero(nv) for i in range(n)]
        moved = bch_product(pvars, tv, source.algebra, step=source.step)
        f_moved = [comp.subs(moved) for comp in F.components]
        w = bch_product(neg_fp, f_moved, target.algebra, step=target.step)
        cols.append([truncate(coeff_of(wc, n, 1), n) for wc in w])
    return tuple(tuple(cols[j][c] for j in range(n)) for c in range(m))


def second_lie_differential(F, source, target):
    """D2F as a bilinear array: entry [i][j] is the target vector (tuple of
    Polynomial over source coordinates) obtained by differentiating
    p -> DF(p)[e_i] along the left-invariant field of e_j.

    Not symmetric in (i, j) in general; the cometric contraction used for
    trace terms only sees the symmetric part.  DF is bch_lie_differential
    and the fields come from bch_left_translation_jacobian.  The package
    takes that trace from the derivatives of DF B_G directly
    (operators._pushforward_first); this full array is the independent
    reference it is checked against.
    """
    df = bch_lie_differential(F, source, target)
    lam = bch_left_translation_jacobian(source)
    n, m = source.dim, target.dim
    partials = tuple(
        tuple(tuple(df[c][i].diff(a) for a in range(n)) for i in range(n)) for c in range(m)
    )
    out = []
    for i in range(n):
        row = []
        for j in range(n):
            vec = []
            for c in range(m):
                acc = Polynomial.zero(n)
                for a in range(n):
                    if lam[a][j] and partials[c][i][a]:
                        acc = acc + lam[a][j] * partials[c][i][a]
                vec.append(acc)
            row.append(tuple(vec))
        out.append(tuple(row))
    return tuple(out)


def trace_drift(F, source, target):
    """The first-order table of Delta_G pushed through F, which is the drift b
    of a conformally commuting map: the trace of D2F against the source
    cometric, with DF from bch_lie_differential."""
    n, m = source.dim, target.dim
    qg = cometric(source).matrix
    d2 = second_lie_differential(F, source, target)
    out = []
    for c in range(m):
        acc = Polynomial.zero(n)
        for a in range(n):
            for b in range(n):
                if qg[a][b] and d2[a][b][c]:
                    acc = acc + d2[a][b][c] * qg[a][b]
        out.append(acc)
    return tuple(out)


# ---------------------------------------------------------------------------
# the Heisenberg sub-Laplacian in coordinates


def coordinate_sublaplacian(n, rbar):
    """The Heisenberg sub-Laplacian written directly in coordinates:

    sum_i r_i^2 [ (d_{x_i} - y_i/2 d_z)^2 + (d_{y_i} + x_i/2 d_z)^2 ].

    Independent of the frame machinery; used to cross-check it.
    """
    rbar = tuple(rat(v) for v in rbar)
    if len(rbar) != n or n < 1:
        raise ValueError("rbar must have length n >= 1")
    dim = 2 * n + 1
    zero = Polynomial.zero(dim)
    second = [[zero for _ in range(dim)] for _ in range(dim)]
    z_diag = zero
    for i in range(n):
        rsq = rbar[i] ** 2
        xi = Polynomial.variable(i, dim)
        yi = Polynomial.variable(n + i, dim)
        second[i][i] = Polynomial.constant(rsq, dim)
        second[n + i][n + i] = Polynomial.constant(rsq, dim)
        second[i][2 * n] = yi * (-rsq / 2)
        second[2 * n][i] = second[i][2 * n]
        second[n + i][2 * n] = xi * (rsq / 2)
        second[2 * n][n + i] = second[n + i][2 * n]
        z_diag = z_diag + (xi * xi + yi * yi) * (rsq / 4)
    second[2 * n][2 * n] = z_diag
    return DifferentialOperator(
        dim, tuple(tuple(row) for row in second), (zero,) * dim, zero)


# ---------------------------------------------------------------------------
# the commutation identity, tested on monomial probes


def probe_residuals(F, lambda_sq, b, source, target, probe_degree):
    """((u, residual), ...) over the monomials u of degree <= probe_degree
    whose residual Delta_G(u o F) - lambda_sq (Delta_H u) o F
    - <b, (grad u) o F> is nonzero, each term computed as written."""
    n = source.dim
    if not isinstance(lambda_sq, Polynomial):
        lambda_sq = Polynomial.constant(rat(lambda_sq), n)
    op_g = sublaplacian(source)
    op_h = sublaplacian(target)
    beta = frame_components(b, target)  # raises if b is not horizontal
    gram = target.metric.gram
    comps = F.components
    bad = []
    for u in monomials_up_to(target.dim, probe_degree):
        lhs = op_g.apply(u.subs(comps))
        mid = lambda_sq * op_h.apply(u).subs(comps)
        gamma = gradient(u, target)
        inner = Polynomial.zero(n)
        for j in range(target.rank):
            for k in range(target.rank):
                if gram[j][k] and beta[j] and gamma[k]:
                    inner = inner + beta[j] * gamma[k].subs(comps) * gram[j][k]
        residual = lhs - mid - inner
        if residual:
            bad.append((u, residual))
    return tuple(bad)


def horizontal_inner(alpha, beta, group):
    """Metric pairing of two horizontal vectors given in frame components."""
    gram = group.metric.gram
    r = group.rank
    acc = Polynomial.zero(group.dim)
    for j in range(r):
        for k in range(r):
            if gram[j][k] and alpha[j] and beta[k]:
                acc = acc + alpha[j] * beta[k] * gram[j][k]
    return acc


def pivot_rows(a):
    """Indices of a maximal independent set of rows, greedy in input order."""
    basis = linalg.EchelonBasis()
    return tuple(i for i, row in enumerate(a) if basis.insert(row))


def pivot_row_frame_components(vector, group):
    """Solve B gamma = vector (entries Polynomial in any one number of
    variables, or rationals) on the first independent rows of B, then
    multiply back and compare every row; raises ValueError when the vector
    leaves the polarization."""
    nv = next((v.nvars for v in vector if isinstance(v, Polynomial)), group.dim)
    vec = tuple(v if isinstance(v, Polynomial) else Polynomial.constant(rat(v), nv)
                for v in vector)
    bmat = group.polarization.matrix()
    rows = pivot_rows(bmat)
    subinv = linalg.inverse(tuple(bmat[i] for i in rows))
    gamma = []
    for j in range(group.rank):
        acc = Polynomial.zero(nv)
        for t, i in enumerate(rows):
            if subinv[j][t] and vec[i]:
                acc = acc + vec[i] * subinv[j][t]
        gamma.append(acc)
    for i in range(group.dim):
        acc = Polynomial.zero(nv)
        for j in range(group.rank):
            if bmat[i][j] and gamma[j]:
                acc = acc + gamma[j] * bmat[i][j]
        if acc != vec[i]:
            raise ValueError("vector does not take values in the polarization")
    return tuple(gamma)


# ---------------------------------------------------------------------------
# exact linear algebra and the Jacobi identity, on Fraction arithmetic


def fraction_rref(a):
    """Reduced row echelon form by Gauss-Jordan on Fractions: returns
    (rref_matrix, pivot_column_indices)."""
    rows = [[Fraction(x) for x in row] for row in a]
    nrows = len(rows)
    ncols = len(rows[0]) if rows else 0
    pivots = []
    r = 0
    for c in range(ncols):
        pivot = next((i for i in range(r, nrows) if rows[i][c] != 0), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        inv = 1 / rows[r][c]
        rows[r] = [x * inv for x in rows[r]]
        for i in range(nrows):
            if i != r and rows[i][c] != 0:
                f = rows[i][c]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return tuple(tuple(row) for row in rows), tuple(pivots)


def fraction_ldl(a):
    """LDL^T of a symmetric positive definite matrix by plain elimination on
    Fractions: (L unit lower triangular, d).  Raises ValueError with the
    package's messages when a is not symmetric or not positive definite."""
    n = len(a)
    if any(len(row) != n for row in a) or \
            any(a[i][j] != a[j][i] for i in range(n) for j in range(i)):
        raise ValueError("matrix is not symmetric")
    work = [[Fraction(x) for x in row] for row in a]
    lower = [[Fraction(1) if i == j else Fraction(0) for j in range(n)] for i in range(n)]
    d = []
    for k in range(n):
        piv = work[k][k]
        if piv <= 0:
            raise ValueError("matrix is not positive definite")
        d.append(piv)
        for i in range(k + 1, n):
            f = work[i][k] / piv
            lower[i][k] = f
            for j in range(k, n):
                work[i][j] -= f * work[k][j]
    return tuple(tuple(row) for row in lower), tuple(d)


def ldl_pd(a):
    """LDL^T of a symmetric positive definite matrix read off the integers
    (s, tri) of linalg._bareiss_pd: (L unit lower triangular with
    L_ik = tri[i][k] / tri[k][k], d with d_k = p_{k+1} / (p_k s), p_0 = 1
    and p_{k+1} = tri[k][k]), so a == L diag(d) L^T.  Raises ValueError as
    the kernel does."""
    s, tri = linalg._bareiss_pd(a)
    n = len(tri)
    p = [1] + [tri[k][k] for k in range(n)]
    lower = tuple(tuple(Rat(1) if i == j else Rat(tri[i][j], p[j + 1]) if j < i else Rat(0)
                        for j in range(n)) for i in range(n))
    return lower, tuple(Rat(p[k + 1], p[k] * s) for k in range(n))


def span_equal(basis_a, basis_b):
    """Whether two families of vectors span one space, by three ranks."""
    a, b = tuple(basis_a), tuple(basis_b)
    return linalg.rank(a) == linalg.rank(b) == linalg.rank(a + b)


def bracket_jacobi(algebra):
    """Basis triples (i, j, k), i < j < k, on which
    [e_i, [e_j, e_k]] + [e_j, [e_k, e_i]] + [e_k, [e_i, e_j]] != 0, each
    term computed with the algebra's bracket."""
    n = algebra.dim
    basis = algebra.basis()
    bad = []
    for i in range(n):
        for j in range(i + 1, n):
            for k in range(j + 1, n):
                first = algebra.bracket(basis[i], algebra.bracket(basis[j], basis[k]))
                second = algebra.bracket(basis[j], algebra.bracket(basis[k], basis[i]))
                third = algebra.bracket(basis[k], algebra.bracket(basis[i], basis[j]))
                if any(a + b + c != 0 for a, b, c in zip(first, second, third)):
                    bad.append((i, j, k))
    return tuple(bad)


# ---------------------------------------------------------------------------
# filtrations, one dense greedy pass per question


def _grow_independent(span, basis_list, candidates):
    """Append to basis_list the candidates that enlarge the span, greedy in
    order; span is the linalg.EchelonBasis of basis_list.  Returns the list
    of newly added vectors."""
    added = []
    for v in candidates:
        if any(v) and span.insert(v):
            v = tuple(v)
            basis_list.append(v)
            added.append(v)
    return added


def dense_bracket_generating(algebra, vectors):
    """(generates, growth_dims) as bracket_generating, bracketing every seed
    (dependent ones included) with every vector of the last layer."""
    seed = [tuple(rat(x) for x in v) for v in vectors]
    span = linalg.EchelonBasis()
    basis_list = []
    _grow_independent(span, basis_list, seed)
    if not basis_list:
        return (algebra.dim == 0, (0,))
    dims = [len(basis_list)]
    frontier = list(basis_list)
    while True:
        brackets = [algebra.bracket(v, w) for v in seed for w in frontier]
        frontier = _grow_independent(span, basis_list, brackets)
        if not frontier:
            break
        dims.append(len(basis_list))
    return (len(basis_list) == algebra.dim, tuple(dims))


def dense_nilpotency_step(algebra):
    """The lower central series bracketed over the whole basis, stopping
    when a term is zero or spans the same space as the one before."""
    basis = algebra.basis()
    layer = list(basis)
    step = 0
    for _ in range(algebra.dim + 1):
        if not layer:
            return step
        step += 1
        brackets = [algebra.bracket(e, w) for e in basis for w in layer]
        span = []
        _grow_independent(linalg.EchelonBasis(), span, brackets)
        if span and len(span) == linalg.rank(tuple(layer)) and span_equal(span, layer):
            return None
        layer = span
    return None


def bracket_nilpotency_step(algebra):
    """The lower central series through LieAlgebra.bracket, each basis
    vector with a table row against each vector of the last term, where the
    package applies each row of the table as a sparse ad."""
    # [e_i, .] = 0 for a basis vector without a table row
    active = [algebra.basis_vector(i) for i in algebra._brackets]
    layer, step = algebra.basis(), 0
    while layer:
        step += 1
        span, brackets = linalg.EchelonBasis(), []
        for e in active:
            for w in layer:
                b = algebra.bracket(e, w)
                if span.insert(b):
                    brackets.append(b)
        if len(brackets) == len(layer):
            return None
        layer = brackets
    return step


def dense_stratify(algebra, v1_basis):
    """stratify with each axiom checked as the layer is grown: the rank of
    every [V_1, V_k] is taken apart from the growth."""
    v1 = [tuple(rat(x) for x in v) for v in v1_basis]
    if linalg.rank(tuple(v1)) != len(v1):
        raise NotStratifiable("polarization basis is linearly dependent")
    layers = [list(v1)]
    filtration = list(v1)
    span = linalg.EchelonBasis(linalg._to_rows(tuple(v1))[0])
    while True:
        brackets = [algebra.bracket(v, w) for v in v1 for w in layers[-1]]
        new_layer = _grow_independent(span, filtration, brackets)
        bracket_rank = linalg.rank(tuple(brackets)) if brackets else 0
        if not new_layer:
            if bracket_rank:
                raise NotStratifiable(
                    "brackets of layer %d fold back into lower layers" % len(layers)
                )
            break
        if bracket_rank != len(new_layer):
            raise NotStratifiable(
                "[V1, V%d] meets the lower filtration nontrivially" % len(layers)
            )
        layers.append(new_layer)
    if len(filtration) != algebra.dim:
        raise NotStratifiable(
            "polarization generates a %d-dimensional subalgebra of a %d-dimensional algebra"
            % (len(filtration), algebra.dim)
        )
    return tuple(tuple(layer) for layer in layers)


def dense_group_structure(algebra, polarization_basis):
    """(step, strata) of the group on a valid algebra, from the three dense
    passes: generation, the lower central series, then stratify; raises
    ValueError as the group constructor does."""
    basis = tuple(tuple(rat(x) for x in v) for v in polarization_basis)
    if linalg.rank(basis) != len(basis):
        raise ValueError("polarization basis is linearly dependent")
    if not dense_bracket_generating(algebra, basis)[0]:
        raise ValueError("polarization is not bracket generating")
    step = dense_nilpotency_step(algebra)
    strata = None
    if step is not None:
        try:
            strata = dense_stratify(algebra, basis)
        except NotStratifiable:
            strata = None
    return step, strata


def scalar_orthogonal_witness(fx, fy):
    """Orthogonal A with A fx = fy by the same column-by-column reflections
    as conformal._orthogonal_witness, each applied as the rank-one update
    x - (2 / vv) v_i w_k on Rat scalars."""
    a = linalg.identity(len(fx))
    cols_x = linalg.transpose(fx)
    cols_y = linalg.transpose(fy)
    for j in range(len(fx[0])):
        f = linalg.mat_vec(a, cols_x[j])
        h = cols_y[j]
        if f == h:
            continue
        v = tuple(fi - hi for fi, hi in zip(f, h))
        scale = rat(2) / sum(x * x for x in v)
        w = linalg.mat_vec(linalg.transpose(a), v)
        a = tuple(
            tuple(x - scale * vi * wk for x, wk in zip(row, w)) if vi else row
            for row, vi in zip(a, v)
        )
    return a


def dense_poly_rat_mat_mul(a, m):
    """The matrix product a m, for a matrix a of Polynomials in one number of
    variables and a matrix m of rationals: one linear_combination per entry
    over every index, zero factors included."""
    nvars = a[0][0].nvars
    cols = tuple(zip(*m))
    return tuple(tuple(linear_combination(nvars, zip(col, row)) for col in cols) for row in a)


def rat_orthonormal_gauge(omega, gram):
    """The reduction of a Heisenberg pair (Rat matrices) as Rat chains:
    (d, L^{-1}, mid, s, a, b, scale, q) with L, d from fraction_ldl, L^{-1} =
    inverse(L), mid = L^{-1} omega L^{-T}, and the floats of the gauge
    (heisenberg._orthonormal_skew's s, a, b, scale and the change of basis q
    of heisenberg._change_of_basis) each taken as float() of a Rat divided
    by a power of four.  q is None when one of its nonzero entries has no
    normal float."""
    import numpy as np

    def power_of_four(values):
        e = max(int(x.numerator).bit_length() - int(x.denominator).bit_length()
                for x in values if x)
        return 0 if abs(e) <= heisenberg._FLOAT_RANGE else e // 2

    def float_over(x, a):
        return float(x / Rat(4) ** a)

    lower, pivots = fraction_ldl(gram)
    l = tuple(tuple(Rat(x.numerator, x.denominator) for x in row) for row in lower)
    d = tuple(Rat(x.numerator, x.denominator) for x in pivots)
    linv = linalg.inverse(l)
    mid = linalg.mat_mul(linalg.mat_mul(linv, omega), linalg.transpose(linv))
    size = len(omega)
    b = [power_of_four((x,)) for x in d]
    scale = [1.0 / math.sqrt(float_over(x, bi)) for x, bi in zip(d, b)]
    part = [[x / Rat(2) ** (b[i] + b[j]) for j, x in enumerate(row)]
            for i, row in enumerate(mid)]
    a = power_of_four(x for row in part for x in row)
    s = np.array([[float_over(part[i][j], a) * scale[i] * scale[j] for j in range(size)]
                  for i in range(size)])
    q = np.empty((size, size))
    for i, row in enumerate(linalg.transpose(linv)):
        for j, x in enumerate(row):
            y = x / Rat(2) ** b[j]
            try:
                value = float(y)
            except OverflowError:
                return d, linv, mid, s, a, b, scale, None
            if y and not sys.float_info.min <= abs(value):
                return d, linv, mid, s, a, b, scale, None
            q[i, j] = value * scale[j]
    return d, linv, mid, s, a, b, scale, q


# ---------------------------------------------------------------------------
# the commutation pipeline on Polynomial entries


def poly_matrix_product(a, b, den=1):
    """a b / den for matrices of Polynomials, one sum_of_products per entry
    and one Polynomial per partial result."""
    nvars = a[0][0].nvars
    scale = Rat(1, den)
    return tuple(tuple(sum_of_products(nvars, zip(row, col)) * scale for col in zip(*b))
                 for row in a)


def poly_ad_series(ad, term, weights, shift):
    """sum_k weights[k] ad^k term / ((k + shift)! / shift!) for matrices of
    Polynomials, one reduced Polynomial per entry of every power and every
    partial sum."""
    out = term
    for k in range(1, len(weights)):
        term = poly_matrix_product(ad, term, k + shift)
        if not any(any(row) for row in term):
            break
        if weights[k]:
            out = tuple(tuple(a + b * weights[k] for a, b in zip(ra, rb))
                        for ra, rb in zip(out, term))
    return out


def poly_left_translation_jacobian(group):
    """The Bernoulli series Lambda_G(p) = sum_k B_k ad_p^k / k! on Polynomial
    entries, ad_p from LieAlgebra.ad_matrix."""
    n = group.dim
    ad = group.algebra.ad_matrix(tuple(Polynomial.variable(i, n) for i in range(n)))
    one, zero = Polynomial.constant(1, n), Polynomial.zero(n)
    identity = tuple(tuple(one if i == j else zero for j in range(n)) for i in range(n))
    return poly_ad_series(ad, identity, bernoulli_numbers(group.step), 0)


def poly_horizontal_frame(group):
    """Lambda_G B on Polynomial entries."""
    return dense_poly_rat_mat_mul(poly_left_translation_jacobian(group),
                                  group.polarization.matrix())


def poly_gradient_fields(group):
    """Row j holds the components of w_j = sum_k g^{jk} v_k~."""
    gram_inverse = linalg.inverse(group.metric.gram)
    return tuple(zip(*dense_poly_rat_mat_mul(poly_horizontal_frame(group), gram_inverse)))


def poly_differential(F, target, columns):
    """Lambda_H(F)^{-1} JF columns on Polynomial entries: JF from
    PolyMap.jacobian and -ad_F from LieAlgebra.ad_matrix."""
    neg_ad = target.algebra.ad_matrix(tuple(-c for c in F.components))
    return poly_ad_series(neg_ad, poly_matrix_product(F.jacobian(), columns),
                          (1,) * target.step, 1)


def poly_lie_differential(F, source, target):
    return poly_differential(F, target, poly_left_translation_jacobian(source))


def poly_horizontal_differential(F, source, target):
    return poly_differential(F, target, poly_horizontal_frame(source))


def poly_pushforward_second(db, gram_inverse):
    """DB G^{-1} DB^T on Polynomial entries."""
    return poly_matrix_product(dense_poly_rat_mat_mul(db, gram_inverse), tuple(zip(*db)))


def poly_pushforward_first(db, fields):
    """first_c = sum_j w_j(DB[c][j]) on Polynomial entries."""
    n = len(fields[0])
    return tuple(sum_of_products(n, ((comp, entries[j].diff(k))
                                     for j, comps in enumerate(fields)
                                     for k, comp in enumerate(comps)))
                 for entries in db)


def poly_analyze_commutation(F, source, target, probe_degree=4):
    """analyze_commutation with every stage on Polynomial entries: the
    contact pairings as linear_combination with the Rat annihilators, and
    C = lambda_sq Q_H split by dividing at the first nonzero entry of Q_H."""
    n = source.dim
    db = poly_horizontal_differential(F, source, target)
    contact_bad = tuple(r for y in linalg.left_nullspace(target.polarization.matrix())
                        for v in zip(*db) if (r := linear_combination(n, zip(y, v))))
    if contact_bad:
        return CommutationReport(False, False, None, None, probe_degree,
                                 contact_bad, "differential leaves the polarization")
    c = poly_pushforward_second(db, linalg.inverse(source.metric.gram))
    qh = cometric(target).matrix
    i, j = next((i, j) for i, row in enumerate(qh) for j, q in enumerate(row) if q)
    lam_sq = c[i][j] / qh[i][j]
    mismatches = tuple(d for crow, qrow in zip(c, qh) for x, q in zip(crow, qrow)
                       if (d := x - lam_sq * q))
    if mismatches:
        return CommutationReport(True, False, None, None, probe_degree, mismatches,
                                 "cometric image is not a multiple of the target cometric")
    if lam_sq.is_constant and lam_sq.constant_value() <= 0:
        return CommutationReport(True, False, None, None, probe_degree,
                                 (lam_sq,), "conformal factor is not positive")
    return CommutationReport(True, True, lam_sq,
                             poly_pushforward_first(db, poly_gradient_fields(source)),
                             probe_degree, (), "")


def reference_str(p):
    """Polynomial text built from the Rat terms: sorted by (-degree, -exponents),
    each coefficient printed with str() of its Rat."""
    if not p.terms:
        return "0"
    items = sorted(p.terms.items(), key=lambda t: (-sum(t[0]), tuple(-e for e in t[0])))
    pieces = []
    for exps, c in items:
        factors = []
        for i, e in enumerate(exps):
            if e == 1:
                factors.append("x%d" % (i + 1))
            elif e > 1:
                factors.append("x%d^%d" % (i + 1, e))
        body = "*".join(factors)
        mag = c if c > 0 else -c
        if body and mag == 1:
            text = body
        elif body:
            text = "%s*%s" % (mag, body)
        else:
            text = str(mag)
        sign = "-" if c < 0 else "+"
        pieces.append((sign, text))
    first_sign, first = pieces[0]
    out = ("-" if first_sign == "-" else "") + first
    for sign, text in pieces[1:]:
        out += " %s %s" % (sign, text)
    return out
