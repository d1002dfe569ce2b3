"""Stock groups and algebras used throughout the tests and scripts."""

from __future__ import annotations

from .algebra import LieAlgebra, SubRiemannianGroup, subriemannian_group
from .rational import Rat


def abelian_group(n: int) -> SubRiemannianGroup:
    """R^n with the full polarization and the Euclidean metric."""
    if n < 1:
        raise ValueError("n must be positive")
    alg = LieAlgebra.from_brackets(n, {})
    basis = tuple(tuple(Rat(1) if j == i else Rat(0) for j in range(n))
                  for i in range(n))
    return subriemannian_group(alg, basis, basis)


def engel_algebra() -> LieAlgebra:
    """Basis (e1..e4), [e1, e2] = e3, [e1, e3] = e4; step 3."""
    return LieAlgebra.from_brackets(4, {(0, 1): {2: 1}, (0, 2): {3: 1}})


def engel_group() -> SubRiemannianGroup:
    """The Engel group polarized by (e1, e2) with the Euclidean metric."""
    basis = ((Rat(1), Rat(0), Rat(0), Rat(0)), (Rat(0), Rat(1), Rat(0), Rat(0)))
    gram = ((Rat(1), Rat(0)), (Rat(0), Rat(1)))
    return subriemannian_group(engel_algebra(), basis, gram)


def sl2_algebra() -> LieAlgebra:
    """Basis (e1, e2, e3) with [e3, e1] = 2 e1, [e3, e2] = -2 e2,
    [e1, e2] = e3.  Not nilpotent; exercises the validator and the
    NotNilpotent guards."""
    return LieAlgebra.from_brackets(
        3, {(0, 1): {2: 1}, (0, 2): {0: -2}, (1, 2): {1: 2}})
