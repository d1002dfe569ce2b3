#!/usr/bin/env python3
"""Gallery of polynomial maps run through the commutation analyzer.

Prints one row per map: whether it is contact, whether it commutes with the
sub-Laplacians conformally, and if so the factor lambda^2 and drift b; for
rejected maps, the reason and one residual witness.
"""

import argparse
import sys
from pathlib import Path

# this checkout's package first, whatever PYTHONPATH holds
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from sublap.catalog import abelian_group, engel_group  # noqa: E402
from sublap.calculus import dilation, left_translation  # noqa: E402
from sublap.conformal import analyze_commutation  # noqa: E402
from sublap.heisenberg import heisenberg_group  # noqa: E402
from sublap.polynomial import PolyMap  # noqa: E402
from sublap.rational import Rat  # noqa: E402


def gallery():
    h1 = heisenberg_group(1, (1,))
    h2 = heisenberg_group(2, (1, 1))
    engel = engel_group()
    r1, r2, r3 = abelian_group(1), abelian_group(2), abelian_group(3)
    rot = PolyMap.linear(((Rat(6, 5), Rat(8, 5), Rat(0)),
                          (Rat(-8, 5), Rat(6, 5), Rat(0)),
                          (Rat(0), Rat(0), Rat(4))))
    return [
        ("dilation by 2", dilation(h1, Rat(2)), h1, h1),
        ("left translation", left_translation(h1, (Rat(1), Rat(-2), Rat(1, 3))), h1, h1),
        ("similarity automorphism", rot, h1, h1),
        ("horizontal projection", PolyMap.parse(["x1", "x2"], 3), h1, r2),
        ("center projection", PolyMap.parse(["x3"], 3), h1, r1),
        ("complex square", PolyMap.parse(["x1^2 - x2^2", "2*x1*x2"], 2), r2, r2),
        ("radial square", PolyMap.parse(["x1^2 + x2^2"], 2), r2, r1),
        ("center quotient to h1", PolyMap.parse(["x1", "x2", "x3"], 4), engel, h1),
        ("vertical shear", PolyMap.parse(["x1", "x2", "x3 + x1"], 3), h1, h1),
        ("anisotropic stretch", PolyMap.parse(["x1", "2*x2"], 2), r2, r2),
        ("forget one mode", PolyMap.parse(["x1", "x3", "x5"], 5), h2, h1),
        ("cubic component", PolyMap.parse(["x1", "x2^3", "x3"], 3), h1, r3),
    ]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--probe-degree", type=int, default=4, dest="probe_degree")
    args = parser.parse_args()
    if args.probe_degree < 2:
        parser.error("probe degree must be at least 2")

    width = max(len(name) for name, *_ in gallery())
    for name, mapping, source, target in gallery():
        report = analyze_commutation(mapping, source, target, args.probe_degree)
        if report.conformal:
            b = "(" + ", ".join(str(p) for p in report.b) + ")"
            print("%-*s  conformal  lambda^2 = %s, b = %s"
                  % (width, name, report.lambda_sq, b))
        else:
            witness = next(str(res) for res in report.residuals if not res.is_zero)
            print("%-*s  rejected   %s; witness %s"
                  % (width, name, report.reason, witness))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
