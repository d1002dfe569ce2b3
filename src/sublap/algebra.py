"""Lie algebras with exact rational structure constants, polarizations,
metrics, and the bundled sub-Riemannian group structure.

A LieAlgebra stores a sparse table of structure constants exactly as given.
The read rule supplies the mirrored entry with opposite sign whenever only one
index order is stored, so tables written with i < j keys are antisymmetric by
construction, while fully expanded tables can still represent antisymmetry
violations for the validator to report.  Each algebra expands that rule once
into one table {i: {j: {k: c}}} of the nonzero [e_i, e_j], which every read
and the Jacobi check use.  The layers V_1, [V_1, V_1], [V_1, V_2], ... of a
polarization are grown in one place, _filtration, which bracket_generating,
stratify and the group constructor share; it, nilpotency_step, the bracket
itself and calculus.bch_product bracket through one sparse ad (_ad_columns,
_ad_apply).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from itertools import accumulate

from . import linalg
from .polynomial import Polynomial
from .rational import Rat, rat


class NotStratifiable(ValueError):
    """The polarization does not induce a stratification of the algebra."""


@dataclass(frozen=True)
class LieAlgebra:
    """dim plus a sparse structure-constant table ((i, j, k) -> c means the
    e_k component of [e_i, e_j] is c; indices 0-based)."""

    dim: int
    structure_constants: tuple  # sorted tuple of ((i, j, k), Rat)

    def __post_init__(self):
        seen = {}
        for key, value in self.structure_constants:
            i, j, k = key
            for idx in (i, j, k):
                if not 0 <= idx < self.dim:
                    raise ValueError("index %d out of range for dim %d" % (idx, self.dim))
            if key in seen:
                raise ValueError("duplicate structure-constant key %r" % (key,))
            seen[key] = rat(value)
        normal = tuple(sorted((k, v) for k, v in seen.items() if v != 0))
        object.__setattr__(self, "structure_constants", normal)

    @cached_property
    def _hash(self) -> int:
        return hash((self.dim, self.structure_constants))

    def __hash__(self) -> int:
        # the per-algebra caches look the algebra up on every call; hash the
        # fields that __eq__ compares once per instance, not on each lookup
        return self._hash

    @staticmethod
    def from_table(dim: int, table) -> "LieAlgebra":
        """Build from a raw {(i, j, k): c} mapping (kept verbatim)."""
        return LieAlgebra(dim, tuple(table.items()))

    @staticmethod
    def from_brackets(dim: int, brackets) -> "LieAlgebra":
        """Build from {(i, j): {k: c}} with i < j; antisymmetry is then
        structural (only the given orientation is stored)."""
        table = {}
        for (i, j), comps in brackets.items():
            if i == j:
                raise ValueError("bracket key (%d, %d) is degenerate" % (i, j))
            if i > j:
                i, j, sign = j, i, -1
            else:
                sign = 1
            for k, c in comps.items():
                key = (i, j, k)
                table[key] = table.get(key, Rat(0)) + sign * rat(c)
        return LieAlgebra.from_table(dim, table)

    # -- raw reads -----------------------------------------------------------

    @cached_property
    def step(self):
        """nilpotency_step of the algebra, computed on first read and kept."""
        return nilpotency_step(self)

    def raw_table(self) -> dict:
        return dict(self.structure_constants)

    @cached_property
    def _brackets(self) -> dict:
        """Read-rule expansion as {i: {j: {k: c}}}: the nonzero entries of
        [e_i, e_j] in sorted (i, j, k) order.  A mirrored entry is synthesized
        only when its own orientation is absent."""
        raw = self.raw_table()
        full = {(j, i, k): -c for (i, j, k), c in raw.items()}
        full.update(raw)
        table = {}
        for (i, j, k), c in sorted(full.items()):
            table.setdefault(i, {}).setdefault(j, {})[k] = c
        return table

    def constant(self, i: int, j: int, k: int) -> Rat:
        """Read c_{ij}^k under the mirror rule."""
        return self._brackets.get(i, {}).get(j, {}).get(k, Rat(0))

    def full_table(self) -> dict:
        """The table with both index orders explicit (read-rule expansion)."""
        return {(i, j, k): c for i, row in self._brackets.items()
                for j, comps in row.items() for k, c in comps.items()}

    # -- algebra operations ---------------------------------------------------

    def bracket(self, x, y):
        """[x, y] for coefficient vectors with Rat or Polynomial entries; a
        Polynomial entry in either makes every entry of the result one."""
        x, y, zero = _one_kind(self.dim, x, y)
        out = _ad_apply(_ad_columns(self, x), y, {})
        return tuple(out.get(k, zero) for k in range(self.dim))

    def ad_matrix(self, x) -> tuple:
        """Matrix of ad_x = [x, .]; column j is bracket(x, e_j).  Entries of
        x may be Rat or Polynomial, as in bracket."""
        x, zero = _one_kind(self.dim, x)
        ad = _ad_columns(self, x)
        cols = [ad.get(j, {}) for j in range(self.dim)]
        return tuple(tuple(col.get(k, zero) for col in cols) for k in range(self.dim))

    def modular_trace(self, x) -> Rat:
        """trace(ad_x); identically zero exactly when the group is unimodular."""
        x, zero = _one_kind(self.dim, x)
        return sum((col.get(j, zero) for j, col in _ad_columns(self, x).items()), zero)

    def basis_vector(self, i: int) -> tuple:
        return tuple(Rat(1) if j == i else Rat(0) for j in range(self.dim))

    def basis(self) -> tuple:
        return tuple(self.basis_vector(i) for i in range(self.dim))


# -- validation ---------------------------------------------------------------


@dataclass(frozen=True)
class ValidationReport:
    valid: bool
    antisymmetry_violations: tuple  # (i, j, k) triples, i <= j
    jacobi_violations: tuple  # (i, j, k) basis triples, i < j < k

    def describe(self) -> str:
        if self.valid:
            return "valid Lie algebra"
        lines = []
        for t in self.antisymmetry_violations:
            lines.append("antisymmetry violated at c_%d%d^%d" % (t[0] + 1, t[1] + 1, t[2] + 1))
        for t in self.jacobi_violations:
            lines.append("Jacobi violated on basis triple (%d, %d, %d)" % (t[0] + 1, t[1] + 1, t[2] + 1))
        return "; ".join(lines)


class InvalidAlgebra(ValueError):
    """Structure constants that fail validate; report is the ValidationReport."""

    def __init__(self, report: ValidationReport):
        super().__init__("invalid structure constants: " + report.describe())
        self.report = report


def validate(algebra: LieAlgebra) -> ValidationReport:
    """Check antisymmetry and the Jacobi identity entry by entry.

    Antisymmetry can only fail where the table is overdetermined: a nonzero
    (i, i, k) entry, or both (i, j, k) and (j, i, k) stored with values that
    do not cancel.  Jacobi is evaluated with the same read rule the bracket
    uses, so the two checks see one consistent bilinear map.
    """
    table = algebra.raw_table()
    anti = set()
    for (i, j, k), c in table.items():
        if i == j:
            if c != 0:
                anti.add((i, j, k))
        elif (j, i, k) in table and table[(j, i, k)] != -c:
            anti.add((min(i, j), max(i, j), k))
    # the same expansion bracket() reads; a triple's Jacobi sum vanishes
    # unless one of its pairs has a nonzero bracket
    brackets = algebra._brackets
    triples = {tuple(sorted((a, b, m))) for a, row in brackets.items() for b in row
               if a != b for m in range(algebra.dim) if m != a and m != b}
    jacobi = []
    for i, j, k in sorted(triples):
        # [e_a, [e_b, e_c]] summed over the three cyclic orders
        total = {}
        for a, b, c in ((i, j, k), (j, k, i), (k, i, j)):
            for m, x in brackets.get(b, {}).get(c, {}).items():
                for l, y in brackets.get(a, {}).get(m, {}).items():
                    total[l] = total.get(l, 0) + x * y
        if any(total.values()):
            jacobi.append((i, j, k))
    anti_sorted = tuple(sorted(anti))
    return ValidationReport(not anti_sorted and not jacobi, anti_sorted, tuple(jacobi))


# -- subspace growth ----------------------------------------------------------


def _one_kind(dim: int, *vectors) -> tuple:
    """The vectors, each of length dim, with entries of one kind, then the
    zero of that kind: all Rat, or all Polynomial in one number of variables."""
    if any(len(v) != dim for v in vectors):
        raise ValueError("vectors must have length %d" % dim)
    nvars = next((x.nvars for v in vectors for x in v if isinstance(x, Polynomial)), None)
    if nvars is None:
        return tuple(tuple(map(rat, v)) for v in vectors) + (Rat(0),)
    return tuple(tuple(x if isinstance(x, Polynomial) else Polynomial.constant(x, nvars)
                       for x in v) for v in vectors) + (Polynomial.zero(nvars),)


def _ad_columns(algebra: LieAlgebra, v) -> dict:
    """Sparse ad_v = [v, .] as {j: {k: c}}: the nonzero columns [v, e_j],
    for v with entries of one kind; row i of the table is ad_{e_i} in this form."""
    ad = {}
    rows = algebra._brackets
    for i, vi in enumerate(v):
        if vi and i in rows:
            for j, comps in rows[i].items():
                col = ad.setdefault(j, {})
                for k, c in comps.items():
                    col[k] = col[k] + vi * c if k in col else vi * c
    return {j: col for j, col in ad.items() if any(col.values())}


def _ad_apply(ad: dict, w, out: dict) -> dict:
    """out + ad w into out ({k: entry}), for ad as _ad_columns builds it and a
    dense w of the same kind; one look-up per nonzero column of ad."""
    for j, col in ad.items():
        wj = w[j]
        if wj:
            for k, c in col.items():
                out[k] = out[k] + wj * c if k in out else wj * c
    return out


def _layer_brackets(ads, layer, dim: int):
    """The nonzero ad w over ad in ads (sparse, as _ad_columns builds them)
    and w in layer, in that order, as dense rational vectors."""
    zero = Rat(0)
    for ad in ads:
        for w in layer:
            out = _ad_apply(ad, w, {})
            if any(out.values()):
                yield tuple(out.get(k, zero) for k in range(dim))


def _filtration(algebra: LieAlgebra, v1) -> tuple:
    """(layers, ranks): V_1 = v1 and V_{k+1} grown from [V_1, V_k] as in
    stratify, until no bracket enlarges the filtration; ranks[k] is the rank
    of [V_1, layers[k]].  Raises NotStratifiable when v1 is dependent.

    Each first-layer vector brackets through its sparse ad_v, built once."""
    span = linalg.EchelonBasis()
    if not all(span.insert(v) for v in v1):
        raise NotStratifiable("polarization basis is linearly dependent")
    v1 = _one_kind(algebra.dim, *v1)[:-1]
    # [v, .] = 0 unless ad_v has a nonzero column
    ads = [ad for ad in (_ad_columns(algebra, v) for v in v1) if ad]
    layers, ranks = [tuple(v1)], []
    while True:
        layer, bracket_span = [], linalg.EchelonBasis()
        for b in _layer_brackets(ads, layers[-1], algebra.dim):
            # a bracket dependent on earlier ones of this pass is in span
            if bracket_span.insert(b) and span.insert(b):
                layer.append(b)
        ranks.append(len(bracket_span))
        if not layer:
            return layers, ranks
        layers.append(tuple(layer))


def _strata(algebra: LieAlgebra, layers, ranks) -> tuple:
    """The grown layers, once the stratification axioms of stratify hold;
    raises NotStratifiable at the first failure in order of growth."""
    for k, rank in enumerate(ranks, 1):
        size = len(layers[k]) if k < len(layers) else 0
        if rank != size:
            raise NotStratifiable("[V1, V%d] meets the lower filtration nontrivially" % k if size
                                  else "brackets of layer %d fold back into lower layers" % k)
    dim = sum(len(layer) for layer in layers)
    if dim != algebra.dim:
        raise NotStratifiable(
            "polarization generates a %d-dimensional subalgebra of a %d-dimensional algebra"
            % (dim, algebra.dim)
        )
    return tuple(layers)


def bracket_generating(algebra: LieAlgebra, vectors) -> tuple:
    """Whether span(vectors) Lie-generates the algebra.

    Grows V, V + [V, V], V + [V, V] + [V, [V, V]], ... and returns
    (generates, growth_dims) where growth_dims lists the filtration dimensions
    until stabilization.
    """
    seeds = linalg.EchelonBasis()
    v1 = [v for v in (tuple(rat(x) for x in v) for v in vectors) if seeds.insert(v)]
    layers, _ = _filtration(algebra, v1)
    dims = tuple(accumulate(len(layer) for layer in layers))
    return (dims[-1] == algebra.dim, dims)


def nilpotency_step(algebra: LieAlgebra):
    """Nilpotency step, or None if the lower central series stabilizes
    above zero."""
    # row i of the table is the sparse ad of e_i, and [e_i, .] = 0 without one
    ads = tuple(algebra._brackets.values())
    layer, step = algebra.basis(), 0
    while layer:
        step += 1
        span = linalg.EchelonBasis()
        brackets = [b for b in _layer_brackets(ads, layer, algebra.dim) if span.insert(b)]
        # C^{k+1} = [g, C^k] lies in C^k for any bilinear bracket, so equal
        # dimension means the series has stalled at a nonzero ideal
        if len(brackets) == len(layer):
            return None
        layer = brackets
    return step


def stratify(algebra: LieAlgebra, v1_basis) -> tuple:
    """Layers (V_1, ..., V_s) of the stratification generated by V_1.

    V_{k+1} is chosen greedily (in input order) from brackets of V_1 with V_k
    as a complement of the filtration so far; afterwards the stratification
    axioms are verified exactly: [V_1, V_k] spans exactly V_{k+1}, the layers
    are a direct-sum decomposition, and [V_1, V_s] = 0.  Raises
    NotStratifiable otherwise.
    """
    v1 = [tuple(rat(x) for x in v) for v in v1_basis]
    return _strata(algebra, *_filtration(algebra, v1))


# -- bundled sub-Riemannian structure ------------------------------------------


@dataclass(frozen=True)
class Polarization:
    """A distinguished bracket-generating subspace, given by a basis."""

    basis: tuple  # tuple of dim-vectors

    def __post_init__(self):
        object.__setattr__(self, "basis", tuple(tuple(rat(x) for x in v) for v in self.basis))

    @property
    def rank(self) -> int:
        return len(self.basis)

    def matrix(self) -> tuple:
        """dim x rank matrix whose columns are the basis vectors."""
        return linalg.transpose(self.basis)


@dataclass(frozen=True)
class Metric:
    """Inner product on the polarization, as a Gram matrix in its basis.
    bareiss is the integer elimination (s, tri) of linalg._bareiss_pd that
    checked the Gram matrix positive definite: the scale s and the lower
    triangle of leading minors and multipliers, from which the consumers
    that reduce by G = L diag(d) L^T read L and d."""

    gram: tuple
    bareiss: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "gram", linalg.mat(self.gram))
        try:
            object.__setattr__(self, "bareiss", linalg._bareiss_pd(linalg._to_rows(self.gram)))
        except ValueError:
            raise ValueError("metric Gram matrix must be symmetric positive definite") from None


@dataclass(frozen=True)
class SubRiemannianGroup:
    """A Lie algebra with polarization and metric, plus the derived step and
    (when the polarization is a first stratum) the stratification layers.

    step is None for non-nilpotent algebras; coordinate-level operations
    require it.  strata is None when the polarization generates but does not
    stratify.
    """

    algebra: LieAlgebra
    polarization: Polarization
    metric: Metric
    step: object  # int | None
    strata: object  # tuple of layers | None

    @cached_property
    def _hash(self) -> int:
        return hash((self.algebra, self.polarization, self.metric, self.step, self.strata))

    def __hash__(self) -> int:
        # as LieAlgebra: the fields __eq__ compares, hashed once per instance
        return self._hash

    @property
    def dim(self) -> int:
        return self.algebra.dim

    @property
    def rank(self) -> int:
        return self.polarization.rank

    @cached_property
    def tables(self):
        """The group's constant polynomial tables (operators.GroupTables),
        built on first use and kept with the group."""
        from .operators import GroupTables
        return GroupTables(self)


def subriemannian_group(algebra: LieAlgebra, polarization_basis, gram) -> SubRiemannianGroup:
    """Validate and assemble a SubRiemannianGroup; structure constants that
    fail validate raise InvalidAlgebra."""
    report = validate(algebra)
    if not report.valid:
        raise InvalidAlgebra(report)
    pol = Polarization(tuple(polarization_basis))
    try:
        layers, ranks = _filtration(algebra, pol.basis)
    except NotStratifiable as exc:  # a dependent basis is a plain ValueError here
        raise ValueError(str(exc)) from None
    if sum(len(layer) for layer in layers) != algebra.dim:
        raise ValueError("polarization is not bracket generating")
    metric = Metric(gram)
    if len(metric.gram) != pol.rank:
        raise ValueError("metric size %d does not match polarization rank %d"
                         % (len(metric.gram), pol.rank))
    try:
        strata = _strata(algebra, layers, ranks)
    except NotStratifiable:
        return SubRiemannianGroup(algebra, pol, metric, algebra.step, None)
    # a stratified algebra is graded ([V_i, V_j] lies in V_{i+j}, by Jacobi
    # and induction on i), so its step is exactly its number of nonzero layers
    return SubRiemannianGroup(algebra, pol, metric, sum(map(bool, strata)), strata)
