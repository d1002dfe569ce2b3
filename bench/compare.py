"""Summarise or compare sets of saved benchmark runs.

    python3 bench/compare.py RUNS            spread of one set of runs
    python3 bench/compare.py BASE NEW        NEW against BASE

RUNS, BASE and NEW are directories of files, each holding the standard
output of one ``bench/run.py --trace 0`` run (any file name ending in .txt).

With one directory it prints, per workload and end-to-end metric, the median,
the quartiles (``statistics.quantiles(values, n=4)``) and the spread
(Q3 - Q1) / median against the metric's bound from BENCHMARK.json.

With two it prints, per workload and metric, how far the NEW median moved
from the BASE median, and marks a move in the worse direction larger than
the bound as a regression (exit code 1).

Runs made on different rational backends are not compared (exit code 2):
gmpy2 against Fraction is a 5-12x gap that no code change explains.
"""

from __future__ import annotations

import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load_runs(directory):
    """{workload: [(header, result), ...]} from saved run outputs."""
    runs = defaultdict(list)
    for path in sorted(Path(directory).glob("*.txt")):
        lines = path.read_text().splitlines()
        header = next((json.loads(l[len("header "):]) for l in lines if l.startswith("header ")),
                      None)
        if header is None or header["trace"] != 0:
            continue
        runs[header["workload"]].append((header, json.loads(lines[-1])))
    return runs


def backends(*run_sets):
    return {h["backend"] for runs in run_sets for pairs in runs.values() for h, _ in pairs}


def values(pairs, metric):
    return [result["metrics"][metric]["value"] for _, result in pairs]


def spread(runs, spec):
    print("%-14s %-16s %5s %12s %12s %12s %8s %6s" % (
        "workload", "metric", "runs", "median", "q1", "q3", "spread", "bound"))
    wide = False
    for workload, pairs in sorted(runs.items()):
        for m in spec["end_to_end"]:
            vals = values(pairs, m["name"])
            med = statistics.median(vals)
            q1, _, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (med, med, med)
            share = (q3 - q1) / med
            flag = "" if share <= m["bound"] / 3 else (
                "  above bound/3" if share <= m["bound"] else "  ABOVE BOUND")
            wide |= share > m["bound"] and m["name"] != "setup_s"
            print("%-14s %-16s %5d %12.6g %12.6g %12.6g %8.4f %6.3f%s" % (
                workload, m["name"], len(vals), med, q1, q3, share, m["bound"], flag))
        failed = sum(result["failed"] for _, result in pairs)
        if failed or not all(result["correct"] for _, result in pairs):
            print("%-14s %d failed verdicts" % (workload, failed))
            wide = True
    return 1 if wide else 0


def compare(base, new, spec):
    print("%-14s %-16s %12s %12s %9s" % ("workload", "metric", "base", "new", "change"))
    worse = False
    for workload in sorted(set(base) & set(new)):
        for m in spec["end_to_end"]:
            b = statistics.median(values(base[workload], m["name"]))
            n = statistics.median(values(new[workload], m["name"]))
            change = (n - b) / b
            regressed = change > m["bound"] if m["better"] == "lower" else -change > m["bound"]
            worse |= regressed
            print("%-14s %-16s %12.6g %12.6g %+8.1f%%%s" % (
                workload, m["name"], b, n, 100 * change, "  REGRESSION" if regressed else ""))
    return 1 if worse else 0


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) not in (1, 2):
        print(__doc__, file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    run_sets = [load_runs(d) for d in argv]
    found = backends(*run_sets)
    if len(found) != 1:
        print("refusing to compare runs on rational backends %s" % sorted(found),
              file=sys.stderr)
        return 2
    print("rational backend: %s" % found.pop())
    return spread(run_sets[0], spec) if len(argv) == 1 else compare(*run_sets, spec)


if __name__ == "__main__":
    sys.exit(main())
