"""Lie algebras with exact rational structure constants, polarizations,
metrics, and the bundled sub-Riemannian group structure.

A LieAlgebra stores a sparse table of structure constants exactly as given.
The read rule supplies the mirrored entry with opposite sign whenever only one
index order is stored, so tables written with i < j keys are antisymmetric by
construction, while fully expanded tables can still represent antisymmetry
violations for the validator to report.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache

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

    def raw_table(self) -> dict:
        return dict(self.structure_constants)

    def constant(self, i: int, j: int, k: int) -> Rat:
        """Read c_{ij}^k under the mirror rule."""
        table = self.raw_table()
        if (i, j, k) in table:
            return table[(i, j, k)]
        if (j, i, k) in table:
            return -table[(j, i, k)]
        return Rat(0)

    def full_table(self) -> dict:
        """The table with both index orders explicit (read-rule expansion)."""
        return {(i, j, k): c for (i, j, k, c) in _full_constants(self)}

    # -- algebra operations ---------------------------------------------------

    def bracket(self, x, y):
        """[x, y] for coefficient vectors with Rat or Polynomial entries."""
        if len(x) != self.dim or len(y) != self.dim:
            raise ValueError("vectors must have length %d" % self.dim)
        nvars = None
        for v in tuple(x) + tuple(y):
            if isinstance(v, Polynomial):
                nvars = v.nvars
                break
        zero = Rat(0) if nvars is None else Polynomial.zero(nvars)
        out = [zero] * self.dim
        for i, j, k, c in _full_constants(self):
            xi, yj = x[i], y[j]
            if isinstance(xi, Polynomial) or isinstance(yj, Polynomial):
                term = xi * yj * c
                if term:
                    out[k] = out[k] + term
            elif xi and yj:
                out[k] = out[k] + c * xi * yj
        return tuple(out)

    def ad_matrix(self, x) -> tuple:
        """Matrix of ad_x = [x, .]; column j is bracket(x, e_j).  Entries of
        x may be Rat or Polynomial, as in bracket."""
        if len(x) != self.dim:
            raise ValueError("vector must have length %d" % self.dim)
        nvars = next((v.nvars for v in x if isinstance(v, Polynomial)), None)
        zero = Rat(0) if nvars is None else Polynomial.zero(nvars)
        m = [[zero] * self.dim for _ in range(self.dim)]
        for i, j, k, c in _full_constants(self):
            if x[i]:
                m[k][j] = m[k][j] + x[i] * c
        return tuple(tuple(row) for row in m)

    def modular_trace(self, x) -> Rat:
        """trace(ad_x); identically zero exactly when the group is unimodular."""
        total = Rat(0)
        for i, j, k, c in _full_constants(self):
            if j == k and x[i]:
                total += c * x[i]
        return total

    def basis_vector(self, i: int) -> tuple:
        return tuple(Rat(1) if j == i else Rat(0) for j in range(self.dim))

    def basis(self) -> tuple:
        return tuple(self.basis_vector(i) for i in range(self.dim))


@lru_cache(maxsize=None)
def _full_constants(algebra: LieAlgebra) -> tuple:
    """Read-rule expansion: (i, j, k, c) for every ordered pair with a nonzero
    read value.  Mirrored entries are synthesized only when absent."""
    table = algebra.raw_table()
    out = []
    for (i, j, k), c in table.items():
        out.append((i, j, k, c))
        if i != j and (j, i, k) not in table:
            out.append((j, i, k, -c))
    return tuple(sorted(out, key=lambda t: t[:3]))


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
    # [e_i, e_j] as {k: c}, read from the same expansion bracket() uses
    brackets = {}
    for i, j, k, c in _full_constants(algebra):
        brackets.setdefault((i, j), {})[k] = c
    jacobi = []
    n = algebra.dim
    for i in range(n):
        for j in range(i + 1, n):
            for k in range(j + 1, n):
                # [e_a, [e_b, e_c]] summed over the three cyclic orders
                total = {}
                for a, b, c in ((i, j, k), (j, k, i), (k, i, j)):
                    for m, x in brackets.get((b, c), {}).items():
                        for l, y in brackets.get((a, m), {}).items():
                            total[l] = total.get(l, 0) + x * y
                if any(total.values()):
                    jacobi.append((i, j, k))
    anti_sorted = tuple(sorted(anti))
    return ValidationReport(not anti_sorted and not jacobi, anti_sorted, tuple(jacobi))


# -- subspace growth ----------------------------------------------------------


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


def bracket_generating(algebra: LieAlgebra, vectors) -> tuple:
    """Whether span(vectors) Lie-generates the algebra.

    Grows V, V + [V, V], V + [V, V] + [V, [V, V]], ... and returns
    (generates, growth_dims) where growth_dims lists the filtration dimensions
    until stabilization.
    """
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


def nilpotency_step(algebra: LieAlgebra):
    """Nilpotency step, or None if the lower central series stabilizes
    above zero."""
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
        if span and len(span) == linalg.rank(tuple(layer)) and linalg.span_equal(span, layer):
            return None  # series stalled at a nonzero ideal
        layer = span
    return None


def stratify(algebra: LieAlgebra, v1_basis) -> tuple:
    """Layers (V_1, ..., V_s) of the stratification generated by V_1.

    V_{k+1} is chosen greedily (in input order) from brackets of V_1 with V_k
    as a complement of the filtration so far; afterwards the stratification
    axioms are verified exactly: [V_1, V_k] spans exactly V_{k+1}, the layers
    are a direct-sum decomposition, and [V_1, V_s] = 0.  Raises
    NotStratifiable otherwise.
    """
    v1 = [tuple(rat(x) for x in v) for v in v1_basis]
    if linalg.rank(tuple(v1)) != len(v1):
        raise NotStratifiable("polarization basis is linearly dependent")
    layers = [list(v1)]
    filtration = list(v1)
    span = linalg.EchelonBasis(v1)
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
    """Inner product on the polarization, as a Gram matrix in its basis."""

    gram: tuple

    def __post_init__(self):
        object.__setattr__(self, "gram", linalg.mat(self.gram))
        if not linalg.is_positive_definite(self.gram):
            raise ValueError("metric Gram matrix must be symmetric positive definite")


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
    """Validate and assemble a SubRiemannianGroup."""
    report = validate(algebra)
    if not report.valid:
        raise ValueError("invalid structure constants: " + report.describe())
    pol = Polarization(tuple(polarization_basis))
    if linalg.rank(pol.basis) != pol.rank:
        raise ValueError("polarization basis is linearly dependent")
    generates, _ = bracket_generating(algebra, pol.basis)
    if not generates:
        raise ValueError("polarization is not bracket generating")
    metric = Metric(gram)
    if len(metric.gram) != pol.rank:
        raise ValueError("metric size %d does not match polarization rank %d"
                         % (len(metric.gram), pol.rank))
    step = nilpotency_step(algebra)
    strata = None
    if step is not None:
        try:
            strata = stratify(algebra, pol.basis)
        except NotStratifiable:
            strata = None
    return SubRiemannianGroup(algebra, pol, metric, step, strata)
