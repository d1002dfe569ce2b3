"""Benchmark fixtures: the groups every workload runs on, and small exact
helpers the known-answer checks use instead of sublap's own linear algebra.

Groups are built through sublap's public API only.  Each builder's result is
checked (``validate`` and ``nilpotency_step``) before any timing starts, so a
broken fixture fails the run instead of producing meaningless numbers.
"""

from __future__ import annotations

import sys
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


class FixtureError(RuntimeError):
    """A fixture does not have the structure its construction promises."""


def import_sublap():
    """Import sublap from the checkout's ``src`` and nowhere else."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import sublap
    if Path(sublap.__file__).resolve().parent != SRC / "sublap":
        raise FixtureError("sublap imported from %s, not from %s" % (sublap.__file__, SRC))
    return sublap


sl = import_sublap()
from sublap import polynomial  # noqa: E402  (needs the path set up above)

Rat = sl.Rat
Polynomial = sl.Polynomial
PolyMap = sl.PolyMap


def heis(k: int):
    """Heisenberg group of dimension 2k+1 with the Euclidean horizontal metric."""
    return sl.heisenberg_group(k, (1,) * k)


def engel():
    return sl.engel_group()


def filiform(n: int):
    """The model filiform group: [e1, e_k] = e_{k+1}, polarized by (e1, e2)."""
    alg = sl.LieAlgebra.from_brackets(n, {(0, k): {k + 1: 1} for k in range(1, n - 1)})
    basis = tuple(tuple(Rat(1) if j == i else Rat(0) for j in range(n)) for i in range(2))
    return sl.subriemannian_group(alg, basis, ((1, 0), (0, 1)))


def abelian(n: int):
    return sl.abelian_group(n)


# name -> (builder, expected nilpotency step)
GROUPS = {
    **{"heis%d" % k: (lambda k=k: heis(k), 2) for k in range(1, 6)},
    "engel": (engel, 3),
    **{"filiform%d" % n: (lambda n=n: filiform(n), n - 1) for n in range(4, 9)},
    **{"R%d" % n: (lambda n=n: abelian(n), 1) for n in range(1, 7)},
}


def checked_group(name: str):
    """Build a named fixture and verify its algebra and step."""
    builder, step = GROUPS[name]
    group = builder()
    if not sl.validate(group.algebra).valid:
        raise FixtureError("fixture %s fails validate" % name)
    got = sl.nilpotency_step(group.algebra)
    if got != step:
        raise FixtureError("fixture %s has step %r, expected %d" % (name, got, step))
    return group


def groups(names):
    return {name: checked_group(name) for name in names}


def warm(group_list):
    """Fill the group-law and sub-Laplacian caches, as a long-lived caller would."""
    for group in group_list:
        if group.step is not None:
            sl.sublaplacian(group)


# -- exact matrix helpers for the checks ---------------------------------------


def matmul(a, b):
    bt = list(zip(*b))
    return tuple(tuple(sum((frac(x) * frac(y) for x, y in zip(row, col)), Fraction(0))
                       for col in bt) for row in a)


def transpose(a):
    return tuple(zip(*a))


def identity(n: int):
    return tuple(tuple(Fraction(int(i == j)) for j in range(n)) for i in range(n))


def inverse(a):
    """Gauss-Jordan inverse of a nonsingular square matrix of rationals."""
    n = len(a)
    rows = [[frac(x) for x in row] + [Fraction(int(i == j)) for j in range(n)]
            for i, row in enumerate(a)]
    for c in range(n):
        pivot = next(r for r in range(c, n) if rows[r][c] != 0)
        rows[c], rows[pivot] = rows[pivot], rows[c]
        inv = 1 / rows[c][c]
        rows[c] = [x * inv for x in rows[c]]
        for r in range(n):
            if r != c and rows[r][c] != 0:
                f = rows[r][c]
                rows[r] = [x - f * y for x, y in zip(rows[r], rows[c])]
    return tuple(tuple(row[n:]) for row in rows)


def frac(x) -> Fraction:
    """Any exact rational (int, Fraction, gmpy2 mpq) as a Fraction."""
    return Fraction(int(x.numerator), int(x.denominator))


def same_matrix(a, b) -> bool:
    return len(a) == len(b) and all(
        len(ra) == len(rb) and all(frac(x) == frac(y) for x, y in zip(ra, rb))
        for ra, rb in zip(a, b))


# Seeded inputs choose among alternatives of one size (signs, which of two
# Pythagorean angles, which entry to corrupt), so a seed changes the inputs
# but not the size of the rationals the arithmetic works on, and runs with
# different seeds cost the same.

# rational (cos, sin) pairs: exact rotations
PYTHAGOREAN = ((Fraction(3, 5), Fraction(4, 5)), (Fraction(4, 5), Fraction(3, 5)))
MAGNITUDES = (Fraction(1, 2), Fraction(2, 3), Fraction(3, 2), Fraction(1, 3), Fraction(2))
SMALL = (Fraction(1), Fraction(-1), Fraction(1, 2), Fraction(-1, 2), Fraction(2), Fraction(-2))


def random_orthogonal(rng, size: int):
    """Exact orthogonal matrix: a chain of Givens rotations with Pythagorean
    angles through every coordinate plane (i, i+1), and an optional
    reflection."""
    a = identity(size)
    for i in range(size - 1):
        j = i + 1
        c, s = rng.choice(PYTHAGOREAN)
        if rng.random() < 0.5:
            s = -s
        g = [list(row) for row in identity(size)]
        g[i][i], g[i][j], g[j][i], g[j][j] = c, s, -s, c
        a = matmul(g, a)
    if rng.random() < 0.3:
        a = (tuple(-x for x in a[0]),) + a[1:]
    return a


def signed_point(rng, n: int):
    """A point whose coordinates are the first n MAGNITUDES with random signs."""
    return tuple(m * rng.choice((1, -1)) for m in MAGNITUDES[:n])


def small(rng):
    return rng.choice(SMALL)


def unit_upper(rng, size: int):
    """Invertible upper-triangular matrix with small rational entries."""
    return tuple(tuple(abs(small(rng)) if i == j else (small(rng) if j > i else Fraction(0))
                       for j in range(size)) for i in range(size))


def to_rat(q):
    return Rat(int(q.numerator), int(q.denominator))


def rat_matrix(a):
    return tuple(tuple(to_rat(x) for x in row) for row in a)
