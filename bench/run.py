"""Known-answer verdict benchmark for sublap.

    python3 bench/run.py --workload <name|all> --seed N --seconds S --trace 0|1

Workloads: map-analysis, invariance, classify, cli (see bench/README.md).
One closed-loop client: each verdict starts when the previous one is done.

--trace 0 measures the end-to-end metrics.  Set-up is timed in
SETUP_SAMPLES fresh worker processes (the last one then runs the timed
phase) and reported as their median.  A round runs every task of the
workload once; the latency and throughput metrics are computed from each
task's best latency over the rounds of the run.

--trace 1 runs one round of the workload untraced and one round with the
outside tracer installed, checks that both rounds reached the same verdicts,
and reports the per-layer metrics plus the tracing overhead.

Before the result, a header line records the Python version, CPU count,
rational backend, numpy version, git commit and seed; a table prints every
metric with its unit.  The last line of stdout is the JSON result.  The exit
code is 0 when a result was printed, 1 otherwise.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKER = BENCH / "worker.py"
WORKLOADS = ("map-analysis", "invariance", "classify", "cli")
SETUP_SAMPLES = 7
DEADLINE_S = 170.0


class RunError(RuntimeError):
    pass


def git_sha() -> str:
    """The checked-out commit, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def run_worker(args, deadline, *extra):
    """Start a worker, wait for it, and return its events by name."""
    cmd = [sys.executable, str(WORKER), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--spawned-at", repr(time.monotonic()), *extra]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT)
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise RunError("worker %s did not finish in time" % " ".join(extra))
    if proc.returncode != 0:
        raise RunError("worker exited with code %d" % proc.returncode)
    events = {}
    for line in out.splitlines():
        if line.startswith("{"):
            event = json.loads(line)
            events[event.pop("event")] = event
    if "ready" not in events or ("done" not in events and "--setup-only" not in extra):
        raise RunError("worker stopped without reporting")
    return events


def measure(args, deadline, units):
    setups = []
    for _ in range(SETUP_SAMPLES - 1):
        setups.append(run_worker(args, deadline, "--setup-only")["ready"]["setup_s"])
    events = run_worker(args, deadline)
    ready, done = events["ready"], events["done"]
    setups.append(ready["setup_s"])
    lat, size = done["latencies"], done["round_size"]
    # every task runs once a round; its latency is its best over the rounds,
    # the one that contention from other tenants of a shared host inflates
    # least, and the percentiles are taken over the tasks
    rounds = len(lat) // size
    best = [min(lat[r * size + i] for r in range(rounds)) for i in range(size)]
    metrics = {
        "latency_p50_ms": statistics.median(best) * 1000.0,
        "latency_p90_ms": statistics.quantiles(best, n=10, method="inclusive")[8] * 1000.0,
        "verdicts_per_s": size / sum(best),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": done["peak_rss_mb"],
    }
    over = "%d tasks, each the best of %d rounds" % (size, rounds)
    notes = {
        "latency_p50_ms": over + "; all %d verdicts: %.4g" % (len(lat),
                                                              statistics.median(lat) * 1000.0),
        "latency_p90_ms": over + ", %d above it; all %d verdicts: %.4g" % (
            sum(x * 1000.0 > metrics["latency_p90_ms"] for x in best), len(lat),
            statistics.quantiles(lat, n=10, method="inclusive")[8] * 1000.0),
        "verdicts_per_s": over + "; all %d verdicts in %.1f s: %.4g" % (
            len(lat), done["elapsed"], len(lat) / done["elapsed"]),
        "setup_s": "median of %d fresh processes: %s" % (
            len(setups), ", ".join("%.3f" % s for s in setups)),
        "peak_rss_mb": "max over CLI processes" if args.workload == "cli" else "ru_maxrss",
    }
    rows = [(name, value, units[name], notes[name]) for name, value in metrics.items()]
    rows.insert(3, ("error_rate", done["failed"] / done["attempted"], "ratio",
                    "%d failed of %d attempted" % (done["failed"], done["attempted"])))
    return ready, done, rows


def trace(args, deadline, units):
    plain = run_worker(args, deadline, "--rounds", "1")
    traced = run_worker(args, deadline, "--rounds", "1", "--trace")
    ready, done = traced["ready"], traced["done"]
    base = plain["done"]
    # a verdict that differs between the two rounds counts as failed
    mismatched = sum(a != b for a, b in zip(base["verdicts"], done["verdicts"])) + abs(
        len(base["verdicts"]) - len(done["verdicts"]))
    done["failed"] += mismatched
    overhead = done["attempted"] / done["elapsed"] - base["attempted"] / base["elapsed"]
    metrics = dict(done["layers"], **{"trace.overhead_vps": overhead})
    rows = [(name, value, units[name], "") for name, value in metrics.items()]
    rows.append(("verdicts differing from the untraced round", mismatched, "count", ""))
    return ready, done, rows


def metric_units(section):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[section]}


def run_one(args):
    deadline = time.monotonic() + DEADLINE_S
    header = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "python": platform.python_version(),
              "nproc": os.cpu_count(), "git_sha": git_sha()}
    units = metric_units("per_layer" if args.trace else "end_to_end")
    ready, done, rows = (trace if args.trace else measure)(args, deadline, units)
    header.update(backend=ready["backend"], numpy=ready["numpy"])
    print("header " + json.dumps(header))
    print("workload %s: %d verdicts, %d failed" % (args.workload, done["attempted"],
                                                   done["failed"]))
    for name, value, unit, note in rows:
        print("  %-44s %14.6g %-6s %s" % (name, value, unit, note))
    for failure in done["failures"]:
        print("  FAILED " + failure)
    # the table also shows error_rate and the verdict comparison, which the
    # result carries as "failed" instead
    return {"correct": done["failed"] == 0, "attempted": done["attempted"],
            "failed": done["failed"],
            "metrics": {name: {"value": value, "unit": unit}
                        for name, value, unit, _ in rows if name in units}}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    try:
        for name in names:
            results[name] = run_one(argparse.Namespace(**dict(vars(args), workload=name)))
    except RunError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1
    print(json.dumps(results[names[0]] if len(names) == 1 else results))
    return 0


if __name__ == "__main__":
    sys.exit(main())
