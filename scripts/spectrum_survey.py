#!/usr/bin/env python3
"""Random survey of Heisenberg metrics and their spectral invariants.

For each trial the script draws a random diagonal metric, checks that the
computed spectrum reproduces the defining parameters, then conjugates the
pair by a random change of basis and rescales it, and verifies that the
decision procedure still recognizes the match and that the constructed
isometry realizes it numerically.
"""

import argparse
import math
import random
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

# this checkout's package first, whatever PYTHONPATH holds
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from sublap.heisenberg import (build_isometry, heisenberg_pair,  # noqa: E402
                               isometry_decision, symplectic_spectrum)
from sublap.linalg import mat_mul, mat_scale, rank, transpose  # noqa: E402
from sublap.rational import Rat  # noqa: E402


@dataclass
class SurveyConfig:
    trials: int = 25
    max_n: int = 3
    seed: int = 0


def random_parameters(rng, n):
    return tuple(sorted(Rat(rng.randint(2, 16), 4) for _ in range(n)))


def random_invertible(rng, size):
    while True:
        p = tuple(tuple(Rat(rng.randint(-2, 2), rng.randint(1, 2))
                        for _ in range(size)) for _ in range(size))
        if rank(p) == size:
            return p


def conjugate(p, a):
    return mat_mul(transpose(p), mat_mul(a, p))


def to_float(a):
    return np.array([[float(v) for v in row] for row in a])


def run(config: SurveyConfig) -> int:
    rng = random.Random(config.seed)
    print("trial  n  parameters            spectrum error  rho       residual")
    worst_spec = worst_res = 0.0
    for trial in range(config.trials):
        n = rng.randint(1, config.max_n)
        rbar = random_parameters(rng, n)
        omega, gram = heisenberg_pair(n, rbar)
        spectrum = symplectic_spectrum(omega, gram)
        spec_err = max(abs(s - float(r)) for s, r in zip(spectrum.r, rbar))

        p = random_invertible(rng, 2 * n)
        t = Rat(rng.randint(1, 8), rng.randint(1, 8))
        o2 = conjugate(p, omega.matrix)
        g2 = conjugate(p, mat_scale(t, gram.gram))
        rho = isometry_decision(omega, gram, o2, g2)
        if rho is None:
            raise SystemExit("conjugated pair not recognized at trial %d" % trial)
        psi, rho = build_isometry(omega, gram, o2, g2)
        g1f, o1f = to_float(gram.gram), to_float(omega.matrix)
        g2f, o2f = to_float(g2), to_float(o2)
        residual = max(np.abs(psi.T @ g1f @ psi - g2f).max(),
                       np.abs(psi.T @ o1f @ psi - rho ** 2 * o2f).max())
        worst_spec = max(worst_spec, spec_err)
        worst_res = max(worst_res, residual)
        params = ", ".join(str(r) for r in rbar)
        expected_rho = math.sqrt(float(t))
        print("%5d  %d  (%s)%s  %9.2e  %8.5f  %9.2e"
              % (trial, n, params, " " * max(0, 18 - len(params)),
                 spec_err, rho, residual))
        if abs(rho - expected_rho) > 1e-9 * max(1.0, expected_rho):
            raise SystemExit("ratio %.12f != sqrt(%s) at trial %d" % (rho, t, trial))
    print()
    print("worst spectrum error: %.2e" % worst_spec)
    print("worst isometry residual: %.2e" % worst_res)
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--trials", type=int, default=25)
    parser.add_argument("--max-n", type=int, default=3, dest="max_n")
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()
    if args.trials < 1 or args.max_n < 1:
        parser.error("trials and max-n must be positive")
    return run(SurveyConfig(trials=args.trials, max_n=args.max_n, seed=args.seed))


if __name__ == "__main__":
    raise SystemExit(main())
