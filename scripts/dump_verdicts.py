#!/usr/bin/env python3
"""Print what sublap decides on every task of the benchmark workloads.

One line per task, in the order the workload runs them, for each seed:
the task's kind and description, then its result.  An analysis prints as
specfiles.report_to_dict, a witness list as its (str(probe), str(residual))
pairs, a Heisenberg result (the spectrum r, the ratio rho, the entries of
Psi) with repr, so that its floats compare to the last bit, a CLI call of
the classify front end as its verdict text and its full stdout (JSON
escaped), and any other result as the verdict text of the task's own check.
With --cli, every map-analysis task also runs through the analyze-map or
verify command of sublap.cli.main at each of the given probe degrees, and
through sublaplacian, stratify and validate on its source group file, each
in text and in JSON, one line per report.

The tasks come from bench/workloads.py, imported and never written to;
the fixture files a workload needs go to a temporary directory, whose path
the output shows as <workdir>.  To check that a change keeps every output
byte-identical, run the script in both checkouts and compare:

    python scripts/dump_verdicts.py map-analysis classify --seeds 1 2 > new.txt
    (cd ../parent && python scripts/dump_verdicts.py map-analysis classify --seeds 1 2) > old.txt
    cmp old.txt new.txt
"""

import argparse
import contextlib
import inspect
import io
import json
import sys
import tempfile
from pathlib import Path

sys.dont_write_bytecode = True  # no __pycache__ next to the workloads either
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "bench"))
import workloads  # noqa: E402  (imports sublap from this checkout's src)

from sublap import cli, specfiles  # noqa: E402
from sublap.conformal import CommutationReport  # noqa: E402
from sublap.heisenberg import SymplecticSpectrum  # noqa: E402


def render(task, result) -> str:
    if isinstance(result, CommutationReport):
        return json.dumps(specfiles.report_to_dict(result), sort_keys=True)
    if task.kind.startswith("verify/"):
        return json.dumps([(str(u), str(r)) for u, r in result])
    if isinstance(result, SymplecticSpectrum):
        return "r=%r" % (result.r,)
    if task.kind == "isometry/build":
        psi, rho = result
        return "rho=%r psi=%r" % (rho, psi.tolist())
    if task.kind.startswith("isometry/"):
        return "rho=%r" % (result,)
    if task.kind.startswith("frontend/"):
        return "%s %s" % (task.check(result)[1], json.dumps(result[1]))
    return task.check(result)[1]


def run_main(argv) -> tuple:
    """(exit code, stdout) of sublap.cli.main(argv) in this process."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    return code, out.getvalue()


def cli_reports(task, workdir: Path, degrees):
    """(label, stdout) of the CLI command that runs a map-analysis task, on
    spec files written from the task's inputs, and of the group commands on
    its source group file."""
    inputs = inspect.getclosurevars(task.call).nonlocals
    docs = [("source", specfiles.group_to_dict(inputs["source"])),
            ("target", specfiles.group_to_dict(inputs["target"])),
            ("map", specfiles.polymap_to_dict(inputs["F"]))]
    command = "analyze-map"
    if "lam_sq" in inputs:  # the verify tasks state an identity
        command = "verify"
        docs.append(("identity", {"lambda_sq": str(inputs["lam_sq"]),
                                  "b": [str(c) for c in inputs["b"]]}))
    paths = []
    for name, doc in docs:
        path = workdir / ("cli_%s.json" % name)
        path.write_text(json.dumps(doc))
        paths.append(str(path))
    for degree in degrees:
        for fmt in ("text", "json"):
            code, out = run_main([command, *paths, "--probe-degree", str(degree), "--format", fmt])
            yield "cli %s degree %d %s exit %d" % (command, degree, fmt, code), out
    for group_command in ("sublaplacian", "stratify", "validate"):
        for fmt in ("text", "json"):
            code, out = run_main([group_command, paths[0], "--format", fmt])
            yield "cli %s source %s exit %d" % (group_command, fmt, code), out


def dump(names, seeds, degrees):
    for name in names:
        for seed in seeds:
            with tempfile.TemporaryDirectory() as tmp:
                workdir = Path(tmp)

                def line(*fields):
                    print("\t".join(fields).replace(tmp, "<workdir>"))

                for task in workloads.WORKLOADS[name](seed, workdir):
                    line(name, str(seed), task.kind, task.desc, render(task, task.call()))
                    if degrees and name == "map-analysis":
                        for label, out in cli_reports(task, workdir, degrees):
                            line(name, str(seed), task.kind, task.desc, label, json.dumps(out))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("workloads", nargs="+", choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seeds", type=int, nargs="+", default=[1])
    parser.add_argument("--cli", type=int, nargs="+", default=(), metavar="DEGREE",
                        help="also run each map-analysis task through the CLI at these "
                             "probe degrees (at least 2)")
    args = parser.parse_args()
    if any(d < 2 for d in args.cli):
        parser.error("probe degrees must be at least 2")
    dump(args.workloads, args.seeds, args.cli)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
