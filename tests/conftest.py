import importlib.util
import random
from pathlib import Path

import pytest

from sublap.algebra import LieAlgebra, subriemannian_group
from sublap.calculus import dilation
from sublap.catalog import abelian_group, engel_group
from sublap.heisenberg import heisenberg_group
from sublap.polynomial import PolyMap
from sublap.rational import BACKEND, Rat


def random_rational(rng, max_num=9, max_den=9):
    num = rng.randint(-max_num, max_num)
    den = rng.randint(1, max_den)
    return Rat(num, den)


def random_vector(rng, dim, max_num=9, max_den=9):
    return tuple(random_rational(rng, max_num, max_den) for _ in range(dim))


def filiform_group(n):
    """The model filiform group: [e1, e_k] = e_{k+1}, polarized by (e1, e2);
    step n - 1."""
    alg = LieAlgebra.from_brackets(n, {(0, k): {k + 1: 1} for k in range(1, n - 1)})
    return subriemannian_group(alg, alg.basis()[:2], ((1, 0), (0, 1)))


def _linear(rows):
    return PolyMap.linear(tuple(tuple(Rat(x) for x in row) for row in rows))


def seeded_homomorphisms(seed):
    """(kind, map, source, target) for linear Lie homomorphisms drawn with
    the seed: a dilation of h1, h2, Engel and the model filiform-5 group,
    similarities of h1, h2 and Engel (rotations of the horizontal layer
    that keep the bracket, times a scale), a shear and a stretch of R2, h1,
    h2 and Engel (automorphisms whose cometric image is not scalar), and
    the quotient projections h1 -> R2, h2 -> R4, Engel -> h1 and
    filiform-5 -> Engel."""
    rng = random.Random(seed)
    h1, h2, engel, fil5 = (heisenberg_group(1, (1,)), heisenberg_group(2, (1, 1)),
                           engel_group(), filiform_group(5))
    scales = (Rat(1, 2), Rat(2, 3), Rat(3, 2), Rat(2))
    out = [("dilation", dilation(g, rng.choice(scales) * rng.choice((1, -1))), g, g)
           for g in (h1, h2, engel, fil5)]

    def rotation():
        c, s = rng.choice(((Rat(3, 5), Rat(4, 5)), (Rat(4, 5), Rat(3, 5))))
        return c, s * rng.choice((1, -1))

    s = rng.choice(scales)
    c, t = rotation()
    out.append(("similarity", _linear([[s * c, -s * t, 0], [s * t, s * c, 0],
                                       [0, 0, s * s]]), h1, h1))
    (c1, t1), (c2, t2) = rotation(), rotation()
    # the rotation of plane (X_i, Y_i) keeps [X_i, Y_i] = Z
    out.append(("similarity", _linear([[s * c1, 0, -s * t1, 0, 0], [0, s * c2, 0, -s * t2, 0],
                                       [s * t1, 0, s * c1, 0, 0], [0, s * t2, 0, s * c2, 0],
                                       [0, 0, 0, 0, s * s]]), h2, h2))
    e1, e2 = rng.choice((1, -1)), rng.choice((1, -1))
    diag = (e1 * s, e2 * s, e1 * e2 * s * s, e2 * s ** 3)
    out.append(("similarity", _linear([[diag[i] if i == j else 0 for j in range(4)]
                                       for i in range(4)]), engel, engel))
    t = rng.choice((Rat(1), Rat(-1), Rat(1, 2), Rat(-2)))
    p, q = rng.sample((rng.choice(scales[:2]), rng.choice(scales[2:])), 2)
    r2 = abelian_group(2)
    for group, shear, stretch in (
            (r2, [[1, t], [0, 1]], [p, q]),
            (h1, [[1, t, 0], [0, 1, 0], [0, 0, 1]], [p, q, p * q]),
            # X1 -> X1 + t X2 with Y2 -> Y2 - t Y1 keeps the bracket
            (h2, [[1, 0, 0, 0, 0], [t, 1, 0, 0, 0], [0, 0, 1, -t, 0], [0, 0, 0, 1, 0],
                  [0, 0, 0, 0, 1]], [p, p, q, q, p * q]),
            # e1 -> e1 + t e2 fixes e3 = [e1, e2] and e4 = [e1, e3]
            (engel, [[1, 0, 0, 0], [t, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]],
             [p, q, p * q, p * p * q])):
        out.append(("shear", _linear(shear), group, group))
        out.append(("stretch", _linear([[x if i == j else 0 for j in range(len(stretch))]
                                        for i, x in enumerate(stretch)]), group, group))
    for source, target in ((h1, r2), (h2, abelian_group(4)), (engel, h1), (fil5, engel)):
        projection = PolyMap(source.dim, PolyMap.identity(source.dim).components[:target.dim])
        out.append(("quotient", projection, source, target))
    return out


def analyzer_rejections():
    """The twenty (map, source, target) triples that acceptance criterion 11
    requires the commutation analyzer to refuse."""
    h1 = heisenberg_group(1, (1,))
    h2 = heisenberg_group(2, (1, 1))
    engel = engel_group()
    r2, r3 = abelian_group(2), abelian_group(3)
    cases = [
        (["x1", "x2", "x3 + x1"], 3, h1, h1),
        (["x1", "x2", "2*x3"], 3, h1, h1),
        (["x2", "2*x1", "-2*x3"], 3, h1, h1),
        (["2*x1", "x2", "2*x3"], 3, h1, h1),
        (["x1", "x2", "x3 + x1^2"], 3, h1, h1),
        (["x1 + x2^2", "x2", "x3"], 3, h1, h1),
        (["x1", "x2^3", "x3"], 3, h1, r3),
        (["x1", "x2 + x3"], 3, h1, r2),
        (["x1", "x3"], 3, h1, r2),
        (["x1", "2*x2"], 2, r2, r2),
        (["x1 + x2^2", "x2"], 2, r2, r2),
        (["x1^2", "x2^2"], 2, r2, r2),
        (["x1*x2", "x1 + x2"], 2, r2, r2),
        (["x1", "0"], 2, r2, r2),
        (["x1^3", "x2"], 2, r2, r2),
        (["x1", "x3", "x5"], 5, h2, h1),
        (["2*x1", "x2", "2*x3", "x4", "2*x5"], 5, h2, h2),
        (["x1", "x2", "x3", "x4 + x1"], 4, engel, engel),
        (["2*x1", "x2", "2*x3", "2*x4"], 4, engel, engel),
        (["x1", "2*x2", "x3"], 3, h1, h1),
    ]
    return [(PolyMap.parse(comps, nvars), source, target)
            for comps, nvars, source, target in cases]


def gallery():
    """The twelve (name, map, source, target) rows of
    scripts/commutation_gallery.py."""
    path = Path(__file__).resolve().parents[1] / "scripts" / "commutation_gallery.py"
    spec = importlib.util.spec_from_file_location("commutation_gallery", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.gallery()


def gallery_maps():
    """The gallery's (map, source, target) triples."""
    return [(mapping, source, target) for _, mapping, source, target in gallery()]


@pytest.fixture(scope="session")
def h1():
    return heisenberg_group(1, (1,))


@pytest.fixture(scope="session")
def h2():
    return heisenberg_group(2, (1, 1))


@pytest.fixture(scope="session")
def engel():
    return engel_group()


@pytest.fixture(scope="session")
def r2():
    return abelian_group(2)


@pytest.fixture
def rng():
    return random.Random(20240817)


# one line per acceptance criterion, filled in by test_acceptance.py
ACCEPTANCE_LINES = []


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        # budgets are met on either backend, but timings differ 5-10x between them
        terminalreporter.write_line("rational backend: %s" % BACKEND)
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)
