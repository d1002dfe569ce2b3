#!/usr/bin/env python3
"""Time each task kind of a benchmark workload in this process.

Runs every task of the workload once a round for --rounds rounds and keeps
each task's best time, as bench/run.py does within one worker.  Prints one
line per task kind (its count, the sum of its tasks' best times and that
sum's share of the round), then the latency_p50_ms, latency_p90_ms and
verdicts_per_s that bench/run.py computes from the same per-task best times
(median, statistics.quantiles(n=10, method='inclusive')[8], and tasks per
second of summed best time).  The last line of stdout is the JSON of the
table.  No worker process, set-up timing or tracer is involved, so the
numbers are a layer below the end-to-end benchmark:

    python scripts/kind_times.py --workload map-analysis --seed 1 --rounds 15

With --tail N it also lists the N slowest tasks (rank, kind, best ms,
description), marking with p50 the task(s) the median reads and with p90
the two between which latency_p90_ms interpolates; a marked task below the
N slowest is listed after them.  The JSON then holds that list as "tail".

Each task's result is checked once, in the first round; the exit code is 1
when a check fails.  The tasks come from bench/workloads.py, imported and
never written to; the fixture files a workload needs go to a temporary
directory.
"""

import argparse
import json
import statistics
import sys
import tempfile
import time
from collections import defaultdict
from pathlib import Path

sys.dont_write_bytecode = True  # no __pycache__ next to the workloads either
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "bench"))
import workloads  # noqa: E402  (imports sublap from this checkout's src)


def best_times(tasks, rounds: int) -> tuple:
    """(best, failed): each task's best time over the rounds in seconds, and
    the descriptions of the tasks whose first-round result failed its check."""
    best = [float("inf")] * len(tasks)
    failed = []
    for r in range(rounds):
        for i, task in enumerate(tasks):
            t0 = time.perf_counter()
            try:
                result = task.call()
            except Exception as exc:  # a raising verdict is a failed verdict
                result = exc
            elapsed = time.perf_counter() - t0
            if elapsed < best[i]:
                best[i] = elapsed
            if not r and (isinstance(result, Exception) or not task.check(result)[0]):
                failed.append("%s [%s]" % (task.kind, task.desc[:200]))
    return best, failed


def summary(tasks, best) -> dict:
    """The per-kind table and the end-to-end figures of the best times."""
    kinds = defaultdict(list)
    for task, t in zip(tasks, best):
        kinds[task.kind].append(t)
    total = sum(best)
    return {
        "kinds": {kind: {"count": len(times), "best_ms": sum(times) * 1000.0,
                         "share": sum(times) / total}
                  for kind, times in sorted(kinds.items())},
        "round_ms": total * 1000.0,
        "latency_p50_ms": statistics.median(best) * 1000.0,
        "latency_p90_ms": statistics.quantiles(best, n=10, method="inclusive")[8] * 1000.0,
        "verdicts_per_s": len(best) / total,
    }


def tail(tasks, best, count: int) -> list:
    """The count slowest tasks, slowest first, then any task the median or
    latency_p90_ms reads that ranks below them: one dict per task with its
    rank (1 the slowest), kind, best_ms, desc and marks."""
    n = len(best)
    ascending = sorted(range(n), key=best.__getitem__)
    marks = defaultdict(list)
    # statistics.median reads the middle one or two of the sorted times;
    # quantiles(n=10, method='inclusive')[8] interpolates between sorted
    # positions j and j + 1, j = 9 (n - 1) // 10
    for j in sorted({(n - 1) // 2, n // 2}):
        marks[ascending[j]].append("p50")
    j = 9 * (n - 1) // 10
    for j in sorted({j, min(j + 1, n - 1)}):
        marks[ascending[j]].append("p90")
    return [{"rank": r + 1, "kind": tasks[i].kind, "best_ms": best[i] * 1000.0,
             "desc": tasks[i].desc, "marks": marks.get(i, [])}
            for r, i in enumerate(reversed(ascending)) if r < count or i in marks]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--rounds", type=int, default=15)
    parser.add_argument("--tail", type=int, default=0, metavar="N",
                        help="also list the N slowest tasks")
    args = parser.parse_args()
    if args.rounds < 1:
        parser.error("--rounds must be at least 1")
    if args.tail < 0:
        parser.error("--tail must not be negative")
    with tempfile.TemporaryDirectory() as tmp:
        tasks = workloads.WORKLOADS[args.workload](args.seed, Path(tmp))
        best, failed = best_times(tasks, args.rounds)
    out = summary(tasks, best)
    print("%s seed %d: %d tasks, each the best of %d rounds"
          % (args.workload, args.seed, len(tasks), args.rounds))
    print("  %-32s %5s %10s %7s" % ("kind", "count", "best_ms", "share"))
    for kind, row in out["kinds"].items():
        print("  %-32s %5d %10.3f %6.1f%%" % (kind, row["count"], row["best_ms"],
                                              100.0 * row["share"]))
    print("  %-32s %5d %10.3f" % ("round", len(tasks), out["round_ms"]))
    for name in ("latency_p50_ms", "latency_p90_ms", "verdicts_per_s"):
        print("  %-32s %16.6g" % (name, out[name]))
    if args.tail:
        out["tail"] = tail(tasks, best, args.tail)
        print("  slowest %d of %d tasks:" % (min(args.tail, len(tasks)), len(tasks)))
        previous = 0
        for row in out["tail"]:
            if row["rank"] > previous + 1:
                print("  ...")
            previous = row["rank"]
            print("  %4d %-32s %9.3f %-7s %s" % (row["rank"], row["kind"], row["best_ms"],
                                                 " ".join(row["marks"]), row["desc"][:80]))
    for line in failed:
        print("  FAILED " + line)
    print(json.dumps(out))
    return 1 if failed else 0


if __name__ == "__main__":
    raise SystemExit(main())
