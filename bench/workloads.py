"""Seeded task lists for the four workloads.

A task is one verdict: ``call()`` is the timed call into sublap (or one
``sublap`` CLI process) and ``check(result)`` compares the result with an
answer known from how the input was built, returning ``(ok, verdict)``.
``verdict`` is a short text of what sublap decided; the traced and untraced
runs must produce the same verdicts.

The seed changes the generated inputs (scales, translation points,
congruences, rotations) but never the number of tasks of each kind, so runs
with different seeds measure the same mix.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import random
import subprocess
import sys
from collections import namedtuple
from fractions import Fraction
from pathlib import Path

import fixtures as fx
from fixtures import Polynomial, PolyMap, sl
from sublap import cli as sublap_cli

Task = namedtuple("Task", "kind desc call check")

# dilation and similarity factors; a negative one composes with the
# automorphism -1 on odd strata, which keeps the map conformal
SCALES = (Fraction(3, 2), Fraction(-3, 2), Fraction(2, 3), Fraction(-2, 3))
RATIOS = (Fraction(2), Fraction(1, 2), Fraction(3, 2), Fraction(2, 3))
PROBE_DEGREE = 4


def const(q, nvars):
    return Polynomial.constant(fx.to_rat(Fraction(q)), nvars)


def zeros(nvars, count):
    return tuple(Polynomial.zero(nvars) for _ in range(count))


def rat_vec(values):
    return tuple(fx.to_rat(v) for v in values)


def shuffled(tasks, rng):
    tasks = list(tasks)
    rng.shuffle(tasks)
    return tasks


# ---------------------------------------------------------------------------
# map-analysis: analyze_commutation at probe degree 4, and the verify path


# the twenty analyzer rejections of acceptance criterion 11
REJECTION_SHAPES = (
    (("x1", "x2", "x3 + x1"), "heis1", "heis1"),
    (("x1", "x2", "2*x3"), "heis1", "heis1"),
    (("x2", "2*x1", "-2*x3"), "heis1", "heis1"),
    (("2*x1", "x2", "2*x3"), "heis1", "heis1"),
    (("x1", "x2", "x3 + x1^2"), "heis1", "heis1"),
    (("x1 + x2^2", "x2", "x3"), "heis1", "heis1"),
    (("x1", "x2^3", "x3"), "heis1", "R3"),
    (("x1", "x2 + x3"), "heis1", "R2"),
    (("x1", "x3"), "heis1", "R2"),
    (("x1", "2*x2"), "R2", "R2"),
    (("x1 + x2^2", "x2"), "R2", "R2"),
    (("x1^2", "x2^2"), "R2", "R2"),
    (("x1*x2", "x1 + x2"), "R2", "R2"),
    (("x1", "0"), "R2", "R2"),
    (("x1^3", "x2"), "R2", "R2"),
    (("x1", "x3", "x5"), "heis2", "heis1"),
    (("2*x1", "x2", "2*x3", "x4", "2*x5"), "heis2", "heis2"),
    (("x1", "x2", "x3", "x4 + x1"), "engel", "engel"),
    (("2*x1", "x2", "2*x3", "2*x4"), "engel", "engel"),
    (("x1", "2*x2", "x3"), "heis1", "heis1"),
)

MAP_GROUPS = ("heis1", "heis2", "heis3", "engel", "filiform5", "R1", "R2", "R3", "R4", "R6")


def heis_similarity(rng, k, s):
    """Matrix of a Heisenberg automorphism that is s times a unitary map on
    the horizontal layer: plane rotations (x_i, y_i), and for k >= 2 the
    same rotation applied to (x_i, x_j) and (y_i, y_j)."""
    size = 2 * k
    h = fx.identity(size)
    planes = [(i, k + i) for i in range(k)]
    for i, j in planes:
        c, sn = rng.choice(fx.PYTHAGOREAN)
        sn *= rng.choice((1, -1))
        g = [list(row) for row in fx.identity(size)]
        g[i][i], g[i][j], g[j][i], g[j][j] = c, -sn, sn, c
        h = fx.matmul(g, h)
    if k >= 2:
        i, j = rng.sample(range(k), 2)
        c, sn = rng.choice(fx.PYTHAGOREAN)
        g = [list(row) for row in fx.identity(size)]
        for a, b in ((i, j), (k + i, k + j)):
            g[a][a], g[a][b], g[b][a], g[b][b] = c, -sn, sn, c
        h = fx.matmul(g, h)
    m = [[s * x for x in row] + [Fraction(0)] for row in h]
    m.append([Fraction(0)] * size + [s * s])
    return m


def engel_similarity(rng, s):
    """e1 -> e1 s e1, e2 -> e2 s e2 forces e3 -> e1 e2 s^2 e3, e4 -> e2 s^3 e4."""
    e1, e2 = rng.choice((1, -1)), rng.choice((1, -1))
    diag = (e1 * s, e2 * s, e1 * e2 * s * s, e2 * s ** 3)
    return [[diag[i] if i == j else Fraction(0) for j in range(4)] for i in range(4)]


def map_analysis(seed):
    rng = random.Random(seed)
    g = fx.groups(MAP_GROUPS)
    fx.warm(g.values())
    tasks = []

    def analyze(kind, F, src, tgt, lam_sq, b):
        source, target = g[src], g[tgt]

        def check(rep):
            if not rep.conformal:
                return False, "not-conformal: %s" % rep.reason
            verdict = "conformal lambda_sq=%s b=(%s)" % (rep.lambda_sq, ", ".join(map(str, rep.b)))
            return rep.lambda_sq == lam_sq and tuple(rep.b) == tuple(b), verdict

        tasks.append(Task(kind, "%s %s->%s" % (F.components, src, tgt),
                          lambda: sl.analyze_commutation(F, source, target, PROBE_DEGREE), check))

    def reject(kind, F, src, tgt, contact=None):
        source, target = g[src], g[tgt]

        def check(rep):
            ok = (not rep.conformal and any(not r.is_zero for r in rep.residuals)
                  and (contact is None or rep.contact == contact))
            return ok, "conformal" if rep.conformal else "not-conformal: %s" % rep.reason

        tasks.append(Task(kind, "%s %s->%s" % (F.components, src, tgt),
                          lambda: sl.analyze_commutation(F, source, target, PROBE_DEGREE), check))

    def verify(kind, F, src, tgt, lam_sq, b, holds):
        source, target = g[src], g[tgt]

        def check(bad):
            return (not bad) == holds, "holds" if not bad else "fails on %d probes" % len(bad)

        tasks.append(Task(kind, "%s %s->%s lambda_sq=%s b=%s" % (F.components, src, tgt, lam_sq, b),
                          lambda: sl.commutation_residuals(F, lam_sq, b, source, target,
                                                           PROBE_DEGREE), check))

    # conformal maps with known lambda_sq; every one is affine or a group
    # morphism composed with an isometry, so b = 0 except for the radial square
    for name in ("heis1", "heis2", "heis3", "engel"):
        n = g[name].dim
        lam = rng.choice(SCALES)
        analyze("analyze/dilation", sl.dilation(g[name], fx.to_rat(lam)), name, name,
                const(lam * lam, n), zeros(n, n))
        s = rng.choice(SCALES)
        m = engel_similarity(rng, s) if name == "engel" else heis_similarity(rng, (n - 1) // 2, s)
        analyze("analyze/similarity", PolyMap.linear(fx.rat_matrix(m)), name, name,
                const(s * s, n), zeros(n, n))
    for name in ("heis1", "heis2", "engel", "filiform5"):
        n = g[name].dim
        point = rat_vec(fx.signed_point(rng, n))
        analyze("analyze/left-translation", sl.left_translation(g[name], point), name, name,
                const(1, n), zeros(n, n))
    for src, tgt, m in (("heis1", "R2", 2), ("heis2", "R4", 4), ("heis3", "R6", 6),
                        ("engel", "heis1", 3)):
        n = g[src].dim
        proj = PolyMap.parse(["x%d" % (i + 1) for i in range(m)], n)
        analyze("analyze/quotient", proj, src, tgt, const(1, n), zeros(n, m))
    c = rng.choice(SCALES)
    x1, x2 = Polynomial.variable(0, 2), Polynomial.variable(1, 2)
    radial = PolyMap(2, ((x1 * x1 + x2 * x2) * fx.to_rat(c),))
    radial_lam = (x1 * x1 + x2 * x2) * fx.to_rat(4 * c * c)
    analyze("analyze/radial", radial, "R2", "R1", radial_lam, (const(4 * c, 2),))

    # rejections: the criterion-11 shapes, plus seeded shears and stretches,
    # which are linear group automorphisms (so contact holds) with a
    # non-scalar cometric image
    for comps, src, tgt in REJECTION_SHAPES:
        reject("reject/shape", PolyMap.parse(comps, g[src].dim), src, tgt)
    for _ in range(2):
        t = fx.small(rng)
        # |p| != |q|, so the stretch is not a similarity
        p, q = rng.sample((rng.choice(SCALES[:2]), rng.choice(SCALES[2:])), 2)
        for name, shear, stretch in (
                ("R2", [[1, t], [0, 1]], [p, q]),
                ("heis1", [[1, t, 0], [0, 1, 0], [0, 0, 1]], [p, q, p * q]),
                # X1 -> X1 + t X2 with Y2 -> Y2 - t Y1 keeps omega, so Z is fixed
                ("heis2", [[1, 0, 0, 0, 0], [t, 1, 0, 0, 0], [0, 0, 1, -t, 0],
                           [0, 0, 0, 1, 0], [0, 0, 0, 0, 1]], [p, p, q, q, p * q]),
                # e1 -> e1 + t e2 fixes e3 = [e1, e2] and e4 = [e1, e3]
                ("engel", [[1, 0, 0, 0], [t, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]],
                 [p, q, p * q, p * p * q])):
            reject("reject/shear", PolyMap.linear(fx.rat_matrix(shear)), name, name, True)
            diag = [[x if i == j else 0 for j in range(len(stretch))]
                    for i, x in enumerate(stretch)]
            reject("reject/stretch", PolyMap.linear(fx.rat_matrix(diag)), name, name, True)

    # the verify path: stated identities, correct and perturbed
    lam = rng.choice(SCALES)
    cases = [("heis1", "heis1", sl.dilation(g["heis1"], fx.to_rat(lam)), lam * lam),
             ("engel", "engel", sl.dilation(g["engel"], fx.to_rat(lam)), lam * lam),
             ("heis2", "R4", PolyMap.parse(["x1", "x2", "x3", "x4"], 5), 1),
             ("heis1", "heis1",
              sl.left_translation(g["heis1"], rat_vec(fx.signed_point(rng, 3))), 1)]
    for src, tgt, F, lam_sq in cases:
        n, m = g[src].dim, g[tgt].dim
        verify("verify/holds", F, src, tgt, const(lam_sq, n), zeros(n, m), True)
        delta = Fraction(1, rng.randint(5, 9))
        verify("verify/fails", F, src, tgt, const(lam_sq + delta, n), zeros(n, m), False)
    verify("verify/holds", radial, "R2", "R1", radial_lam, (const(4 * c, 2),), True)
    verify("verify/fails", radial, "R2", "R1", radial_lam,
           (const(4 * c + Fraction(1, rng.randint(5, 9)), 2),), False)
    return shuffled(tasks, rng)


# ---------------------------------------------------------------------------
# invariance: does the sub-Laplacian commute with a map on every probe?


INVARIANCE_GROUPS = ("heis1", "heis2", "engel", "filiform5")


def probe_mismatches(op, probes, images, F, factor):
    """Number of probes u with Delta(u o F) != factor * (Delta u) o F.

    Every probe is evaluated, so the work does not depend on where a
    failure sits."""
    comps = F.components
    return sum(op.apply(u.subs(comps)) != du.subs(comps) * factor
               for u, du in zip(probes, images))


def invariance(seed):
    rng = random.Random(seed)
    g = fx.groups(INVARIANCE_GROUPS)
    fx.warm(g.values())
    tasks = []
    for name in INVARIANCE_GROUPS:
        group = g[name]
        n = group.dim
        op = sl.sublaplacian(group)
        probes = fx.polynomial.monomials_up_to(n, PROBE_DEGREE)
        images = [op.apply(u) for u in probes]

        def add(kind, F, factor, commutes, op=op, probes=probes, images=images, name=name):
            def check(bad):
                return (bad == 0) == commutes, "commutes" if bad == 0 else "fails on %d probes" % bad

            tasks.append(Task(kind, "%s %s factor %s" % (name, F.components, factor),
                              lambda: probe_mismatches(op, probes, images, F, factor), check))

        for _ in range(3):
            point = rat_vec(fx.signed_point(rng, n))
            add("left-translation", sl.left_translation(group, point), fx.to_rat(1), True)
        lam = rng.choice(SCALES)
        add("dilation", sl.dilation(group, fx.to_rat(lam)), fx.to_rat(lam * lam), True)
        # a right translation is not an isometry once the point has a
        # horizontal component that does not commute with the algebra (every
        # coordinate of a signed point is nonzero)
        point = rat_vec(fx.signed_point(rng, n))
        add("right-translation", sl.right_translation(group, point), fx.to_rat(1), False)
    return shuffled(tasks, rng)


# ---------------------------------------------------------------------------
# classify: exact linear algebra and spectral deciders, no polynomials


SPECTRUM_VALUES = (Fraction(1), Fraction(3, 2), Fraction(2), Fraction(5, 2), Fraction(3),
                   Fraction(4))


def heis_pair(rbar):
    """Standard omega and the metric making (r_i X_i, r_i Y_i) orthonormal;
    A = G^{-1} omega has eigenvalues +-i r_i^2, so the spectrum is rbar."""
    n = len(rbar)
    size = 2 * n
    omega = [[Fraction(0)] * size for _ in range(size)]
    for i in range(n):
        omega[i][n + i], omega[n + i][i] = Fraction(1), Fraction(-1)
    gram = [[1 / rbar[i % n] ** 2 if i == j else Fraction(0) for j in range(size)]
            for i in range(size)]
    return omega, gram


def congruence(p, m):
    return fx.matmul(fx.transpose(p), fx.matmul(m, p))


def scaled(c, m):
    return tuple(tuple(c * fx.frac(x) for x in row) for row in m)


def float_residual(a, b):
    """max |a - b| relative to max(1, max |b|), for float matrices."""
    diff = max(abs(float(x) - float(y)) for ra, rb in zip(a, b) for x, y in zip(ra, rb))
    return diff / max(1.0, max(abs(float(y)) for rb in b for y in rb))


def float_congruence(p, m):
    pt = list(zip(*p))
    mp = [[sum(float(x) * y for x, y in zip(row, col)) for col in zip(*p)] for row in m]
    return [[sum(x * y for x, y in zip(row, col)) for col in zip(*mp)] for row in pt]


def classify(seed, workdir: Path):
    rng = random.Random(seed)
    tasks = []

    # frame equivalence: rotated frames are equivalent with an exact witness,
    # rescaled ones are not
    for n in range(2, 9):
        x = fx.matmul(fx.unit_upper(rng, n), fx.random_orthogonal(rng, n))
        a = fx.random_orthogonal(rng, n)
        for equivalent in (True, False):
            y = fx.matmul(a, x) if equivalent else scaled(rng.choice(SCALES), fx.matmul(a, x))
            xr, yr = fx.rat_matrix(x), fx.rat_matrix(y)

            def check(dec, x=x, y=y, equivalent=equivalent, n=n):
                verdict = "equivalent" if dec.equivalent else "not-equivalent"
                if dec.equivalent != equivalent:
                    return False, verdict
                w = dec.witness
                ok = w is None if not equivalent else (
                    fx.same_matrix(fx.matmul(w, x), y)
                    and fx.same_matrix(fx.matmul(fx.transpose(w), w), fx.identity(n)))
                return ok, verdict

            tasks.append(Task("frames/%s" % ("rotated" if equivalent else "rescaled"),
                              "%s %s" % (x, y),
                              lambda xr=xr, yr=yr: sl.frames_equivalent(xr, yr), check))

    # homothetic projections: L Gv^{-1} L^T Gw = lam^2 by construction for
    # positives; negatives perturb Gw by a rank-one term, which no scalar
    # multiple can absorb once L has two rows
    def homothety_instance(positive, m, n):
        lead = fx.unit_upper(rng, m)
        l = tuple(lead[i] + tuple(fx.small(rng) for _ in range(n - m))
                  for i in range(m))
        a = tuple(tuple(fx.small(rng) for _ in range(n)) for _ in range(n))
        gv = tuple(tuple(x + (1 if i == j else 0) for j, x in enumerate(row))
                   for i, row in enumerate(fx.matmul(fx.transpose(a), a)))
        mm = fx.matmul(fx.matmul(l, fx.inverse(gv)), fx.transpose(l))
        if positive:
            lam = rng.choice(RATIOS)
            gw = fx.inverse(scaled(1 / (lam * lam), mm))
            answer = lam * lam
        else:
            eps = rng.choice(RATIOS)
            gw = fx.inverse(tuple(tuple(x + (eps if i == j == 0 else 0) for j, x in enumerate(row))
                                  for i, row in enumerate(mm)))
            answer = None
        return fx.rat_matrix(l), fx.rat_matrix(gv), fx.rat_matrix(gw), answer

    def same_factor(got, answer):
        return (got is None) if answer is None else (got is not None and fx.frac(got) == answer)

    # (rows, columns) of L; a negative needs two rows
    for positive in (True, False):
        label = "positive" if positive else "negative"
        for m, n in ((1, 2), (2, 2), (2, 4), (3, 4)) if positive else ((2, 2), (2, 3),
                                                                        (3, 4), (3, 5)):
            l, gv, gw, answer = homothety_instance(positive, m, n)
            tasks.append(Task(
                "homothety/%s" % label, "%s %s %s" % (l, gv, gw),
                lambda l=l, gv=gv, gw=gw: sl.is_homothetic_projection(l, gv, gw),
                lambda got, answer=answer: (same_factor(got, answer), str(got))))
        for m, n in ((2, 3), (3, 4)):
            l, gv, gw, answer = homothety_instance(positive, m, n)
            tasks.append(Task(
                "characterizations/%s" % label, "%s %s %s" % (l, gv, gw),
                lambda l=l, gv=gv, gw=gw: sl.homothetic_characterizations(l, gv, gw),
                lambda got, answer=answer: (
                    len(got) == 5 and all(same_factor(v, answer) for v in got.values()),
                    str(sorted((k, str(v)) for k, v in got.items())))))

    # symplectic spectra of congruence-transformed Heisenberg pairs
    def random_rbar(n):
        return tuple(sorted(rng.choice(SPECTRUM_VALUES) for _ in range(n)))

    def random_congruence(size):
        return fx.matmul(fx.unit_upper(rng, size), fx.random_orthogonal(rng, size))

    def transformed(rbar, t=1):
        omega, gram = heis_pair(rbar)
        p = random_congruence(len(omega))
        return (fx.rat_matrix(congruence(p, omega)),
                fx.rat_matrix(congruence(p, scaled(t, gram))))

    def close(a, b, tol):
        return abs(a - b) <= tol * max(1.0, abs(b))

    for n in range(1, 5):
        rbar = random_rbar(n)
        om, gm = transformed(rbar)
        tasks.append(Task(
            "spectrum", "%s %s" % (om, gm),
            lambda om=om, gm=gm: sl.symplectic_spectrum(om, gm),
            lambda spec, rbar=rbar: (
                len(spec.r) == len(rbar) and all(close(r, float(q), 1e-9)
                                                 for r, q in zip(spec.r, rbar)),
                "r=(%s)" % ", ".join("%.9g" % r for r in spec.r))))

    for n in range(1, 5):
        rbar = random_rbar(n)
        t = rng.choice(RATIOS)
        o1, g1 = transformed(rbar)
        o2, g2 = transformed(rbar, t)
        rho = math.sqrt(t)
        tasks.append(Task(
            "isometry/positive", "%s %s %s %s" % (o1, g1, o2, g2),
            lambda o1=o1, g1=g1, o2=o2, g2=g2: sl.isometry_decision(o1, g1, o2, g2),
            lambda got, rho=rho: (got is not None and close(got, rho, 1e-9), "rho=%.9g" % (got or 0))))

        def check_build(out, o1=o1, g1=g1, o2=o2, g2=g2, rho=rho):
            psi, got = out
            psi = psi.tolist()
            ok = (close(got, rho, 1e-9)
                  and float_residual(float_congruence(psi, g1), g2) <= 1e-8
                  and float_residual(float_congruence(psi, o1),
                                     [[got * got * float(x) for x in row] for row in o2]) <= 1e-8)
            return ok, "isometric rho=%.9g" % got

        tasks.append(Task(
            "isometry/build", "%s %s %s %s" % (o1, g1, o2, g2),
            lambda o1=o1, g1=g1, o2=o2, g2=g2: sl.build_isometry(o1, g1, o2, g2), check_build))
    for n in range(2, 5):
        # raising only the largest value makes the spectra non-proportional
        rbar = random_rbar(n)
        other = rbar[:-1] + (rbar[-1] + 1,)
        o1, g1 = transformed(rbar)
        o2, g2 = transformed(other, rng.choice(RATIOS))
        tasks.append(Task(
            "isometry/negative", "%s %s %s %s" % (o1, g1, o2, g2),
            lambda o1=o1, g1=g1, o2=o2, g2=g2: sl.isometry_decision(o1, g1, o2, g2),
            lambda got: (got is None, "none" if got is None else "rho=%.9g" % got)))

    # structure constants: validate and stratify the fixtures, reject
    # single-entry corruptions (the full table stores both orientations, so
    # changing one entry always breaks antisymmetry)
    names = ["filiform%d" % n for n in range(4, 9)] + ["heis%d" % k for k in range(1, 6)]
    g = fx.groups(names)
    for name in names:
        group = g[name]
        layers = (2,) + (1,) * (group.dim - 2) if name.startswith("filiform") \
            else (group.dim - 1, 1)
        alg, v1 = group.algebra, group.polarization.basis
        tasks.append(Task("validate/valid", name, lambda alg=alg: sl.validate(alg),
                          lambda rep: (rep.valid, "valid" if rep.valid else rep.describe())))
        tasks.append(Task("stratify", name, lambda alg=alg, v1=v1: sl.stratify(alg, v1),
                          lambda got, layers=layers: (
                              tuple(len(layer) for layer in got) == layers,
                              "layers %s" % (tuple(len(layer) for layer in got),))))
    for name in ("heis1", "heis3", "heis5", "filiform5", "filiform7"):
        alg = g[name].algebra
        table = alg.full_table()
        key = rng.choice(sorted(table))
        while True:
            new = fx.small(rng) * rng.choice((1, 3))
            if new != fx.frac(table[key]):
                break
        table[key] = fx.to_rat(new)
        bad = sl.LieAlgebra.from_table(alg.dim, table)
        tasks.append(Task("validate/corrupt", "%s %s=%s" % (alg.dim, key, new),
                          lambda bad=bad: sl.validate(bad),
                          lambda rep: (not rep.valid, "valid" if rep.valid else "invalid")))

    # the same deciders through the command-line front end, in this process:
    # spec-file parsing, the command and the report (exit codes 0, 1 and 2)
    files = write_cli_fixtures(workdir, rng)
    tasks += cli_tasks("frontend", [c for c in CLI_CALLS if c[0][0] in FRONTEND_COMMANDS],
                       files, run_cli_main)
    return shuffled(tasks, rng)


# the CLI subcommands that run a classify decider, with no polynomials
FRONTEND_COMMANDS = ("validate", "stratify", "equiv-frames", "heis-spectrum", "heis-isometry")


def run_cli_main(argv):
    """``sublap.cli.main(argv)`` in this process, its output captured."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = sublap_cli.main(argv)
    return code, out.getvalue()


# ---------------------------------------------------------------------------
# cli: one sublap process per verdict, over all eight subcommands


LAUNCHER = Path(__file__).resolve().parent / "launch_cli.py"


def _verdict(stdout, fmt):
    """The reported verdict: the JSON "verdict" key or the text first line."""
    if not stdout.strip():
        return None
    if fmt == "json":
        return json.loads(stdout)["verdict"]
    first = stdout.splitlines()[0]
    return first[len("verdict: "):] if first.startswith("verdict: ") else first


def write_cli_fixtures(workdir: Path, rng):
    """Fixture files for the CLI calls, written from the seed.  Returns a
    name -> path map."""
    from sublap import specfiles

    files = {}

    def put(name, doc):
        path = workdir / ("%s.json" % name)
        path.write_text(doc if isinstance(doc, str) else json.dumps(doc))
        files[name] = str(path)

    g = fx.groups(("heis1", "heis2", "engel", "filiform5", "R1", "R2", "R4"))
    for name, group in g.items():
        put(name, specfiles.group_to_dict(group))
    # heis1 plus [e1, e3] = q e1 breaks Jacobi on (e1, e2, e3): the sum is q e3
    corrupt = specfiles.group_to_dict(g["heis1"])
    corrupt["brackets"].append({"i": 1, "j": 3, "coeffs": {"1": str(fx.small(rng))}})
    put("corrupt", corrupt)
    missing = specfiles.group_to_dict(g["engel"])
    del missing["metric"]
    put("missing_key", missing)
    put("not_json", '{"dim": 3, "brackets": [')

    lam = rng.choice(SCALES)
    put("dilation", specfiles.polymap_to_dict(sl.dilation(g["heis1"], fx.to_rat(lam))))
    put("dilation_holds", {"lambda_sq": str(lam * lam), "b": ["0", "0", "0"]})
    put("dilation_fails", {"lambda_sq": str(lam * lam + Fraction(1, rng.randint(5, 9))),
                           "b": ["0", "0", "0"]})
    a = fx.small(rng)
    put("shear", {"source_dim": 3, "components": ["x1 + %s*x2" % a, "x2", "x3"]})
    put("quotient", {"source_dim": 5, "components": ["x1", "x2", "x3", "x4"]})
    c = rng.choice(SCALES)
    put("radial", {"source_dim": 2, "components": ["%s*x1^2 + %s*x2^2" % (c, c)]})
    put("radial_holds", {"lambda_sq": "%s*x1^2 + %s*x2^2" % (4 * c * c, 4 * c * c),
                         "b": [str(4 * c)]})
    put("radial_fails", {"lambda_sq": "%s*x1^2 + %s*x2^2" % (4 * c * c, 4 * c * c),
                         "b": [str(4 * c + Fraction(1, rng.randint(5, 9)))]})
    put("bad_polynomial", {"source_dim": 3, "components": ["x1 +* x2", "x2", "x3"]})

    def matrix(m):
        return [[str(fx.frac(v)) for v in row] for row in m]

    x = fx.matmul(fx.unit_upper(rng, 4), fx.random_orthogonal(rng, 4))
    y = fx.matmul(fx.random_orthogonal(rng, 4), x)
    put("frames_rotated", {"dim": 4, "frame_x": matrix(x), "frame_y": matrix(y)})
    put("frames_rescaled", {"dim": 4, "frame_x": matrix(x),
                            "frame_y": matrix(scaled(rng.choice(SCALES), y))})

    def pair(rbar, t=1):
        omega, gram = heis_pair(rbar)
        p = fx.matmul(fx.unit_upper(rng, len(omega)), fx.random_orthogonal(rng, len(omega)))
        return {"omega": matrix(congruence(p, omega)), "gram": matrix(congruence(p, scaled(t, gram)))}

    rbar = tuple(sorted(rng.choice(SPECTRUM_VALUES) for _ in range(2)))
    put("pair2", pair(rbar))
    put("pair2_scaled", pair(rbar, rng.choice(RATIOS)))
    put("pair2_other", pair(rbar[:1] + (rbar[1] + 1,)))
    put("pair_degenerate", {"omega": [[0, 0], [0, 0]], "gram": [[1, 0], [0, 1]]})
    return files


# (arguments with {file} placeholders, format, exit code, verdict); 25 calls,
# so that four rounds give the 100 verdicts a 90th percentile needs
CLI_CALLS = (
    (("validate", "{heis1}"), "text", 0, "valid"),
    (("validate", "{filiform5}"), "json", 0, "valid"),
    (("validate", "{corrupt}"), "json", 1, "invalid"),
    (("stratify", "{engel}"), "json", 0, "stratified"),
    (("stratify", "{heis2}"), "text", 0, "stratified"),
    (("sublaplacian", "{heis1}"), "json", 0, "ok"),
    (("sublaplacian", "{engel}"), "text", 0, "ok"),
    (("equiv-frames", "{frames_rotated}"), "json", 0, "equivalent"),
    (("equiv-frames", "{frames_rescaled}"), "text", 1, "not-equivalent"),
    (("heis-spectrum", "{pair2}"), "json", 0, "ok"),
    (("heis-isometry", "{pair2}", "{pair2_scaled}"), "json", 0, "isometric"),
    (("heis-isometry", "{pair2}", "{pair2_other}"), "text", 1, "no-isometry"),
    (("analyze-map", "{heis1}", "{heis1}", "{dilation}"), "json", 0, "conformal"),
    (("analyze-map", "{heis1}", "{heis1}", "{shear}"), "json", 1, "not-conformal"),
    (("analyze-map", "{heis2}", "{R4}", "{quotient}"), "text", 0, "conformal"),
    (("verify", "{R2}", "{R1}", "{radial}", "{radial_holds}"), "json", 0, "holds"),
    (("verify", "{R2}", "{R1}", "{radial}", "{radial_fails}"), "json", 1, "fails"),
    (("verify", "{heis1}", "{heis1}", "{dilation}", "{dilation_holds}"), "text", 0, "holds"),
    (("verify", "{heis1}", "{heis1}", "{dilation}", "{dilation_fails}"), "json", 1, "fails"),
    # malformed files and bad flags: exit 2, with a JSON error report for
    # files and only a message on stderr for flags
    (("validate", "{not_json}"), "json", 2, "error"),
    (("sublaplacian", "{missing_key}"), "json", 2, "error"),
    (("analyze-map", "{heis1}", "{heis1}", "{bad_polynomial}"), "json", 2, "error"),
    (("heis-spectrum", "{pair_degenerate}"), "text", 2, "error"),
    (("validate", "{heis1}", "--tol", "-1"), "json", 2, None),
    (("analyze-map", "{heis1}", "{heis1}", "{dilation}", "--probe-degree", "1"), "json", 2, None),
)


def cli_tasks(kind, calls, files, run):
    """One task per CLI call; ``run(argv)`` returns (exit code, stdout)."""
    tasks = []
    for args, fmt, code, verdict in calls:
        argv = [a.format(**files) for a in args] + ["--format", fmt]

        def check(out, fmt=fmt, code=code, verdict=verdict):
            got_code, stdout = out
            got = _verdict(stdout, fmt)
            return (got_code, got) == (code, verdict), "exit %d %s" % (got_code, got)

        tasks.append(Task("%s/%s/%d" % (kind, args[0], code), " ".join(argv),
                          lambda argv=argv: run(argv), check))
    return tasks


def cli(seed, workdir: Path, trace_dir: Path = None):
    """Tasks that each run one sublap process.  With ``trace_dir`` every
    process records its layer counters there."""
    rng = random.Random(seed)
    files = write_cli_fixtures(workdir, rng)
    counter = iter(range(1 << 30))

    def run(argv):
        trace = [] if trace_dir is None else [
            "--trace-out", str(trace_dir / ("%06d.json" % next(counter)))]
        proc = subprocess.run([sys.executable, str(LAUNCHER)] + trace + argv,
                              capture_output=True, text=True, timeout=120)
        return proc.returncode, proc.stdout

    return shuffled(cli_tasks("cli", CLI_CALLS, files, run), rng)


# every builder takes (seed, workdir); workdir holds the files a task reads
WORKLOADS = {
    "map-analysis": lambda seed, workdir: map_analysis(seed),
    "invariance": lambda seed, workdir: invariance(seed),
    "classify": classify,
    "cli": cli,
}
