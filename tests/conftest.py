import importlib.util
import random
from pathlib import Path

import pytest

from sublap.algebra import LieAlgebra, subriemannian_group
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
