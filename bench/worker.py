"""One workload process: set up, say so, run verdicts, report.

Started by run.py, never by hand.  Prints JSON lines on stdout: a "ready"
event once the fixtures are built (its ``setup_s`` runs from the moment the
parent spawned this process), then a "done" event with every verdict
latency.  With --setup-only it stops after "ready".

The timed phase runs whole rounds (the workload's full task list) so that
every run measures the same mix.  It starts another round while the time
spent plus half a round still fits in --seconds, and in any case until
MIN_VERDICTS verdicts and MIN_ROUNDS rounds are in (run.py reports medians
over rounds), up to 1.5 x --seconds.  With --rounds it runs exactly
that many rounds instead, which makes the traced counts repeat exactly.
"""

from __future__ import annotations

import argparse
import json
import resource
import shutil
import sys
import tempfile
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
WORK = BENCH / ".work"
MIN_VERDICTS = 100
MIN_ROUNDS = 5


def emit(event, **fields):
    print(json.dumps(dict(event=event, **fields)), flush=True)


def run_rounds(tasks, seconds, rounds, tracer):
    latencies, verdicts, failures = [], [], []
    failed = 0
    round_times = []
    start = time.perf_counter()
    while True:
        round_start = time.perf_counter()
        for task in tasks:
            if tracer is not None:
                tracer.verdict = len(latencies)
            t0 = time.perf_counter()
            try:
                result = task.call()
                latencies.append(time.perf_counter() - t0)
                ok, verdict = task.check(result)
            except Exception as exc:  # a raising verdict is a failed verdict
                latencies.append(time.perf_counter() - t0)
                ok, verdict = False, "raised %r" % exc
            if not round_times:
                verdicts.append(verdict)
            if not ok:
                failed += 1
                if len(failures) < 5:
                    failures.append("%s [%s]: %s" % (task.kind, task.desc[:300], verdict[:300]))
        round_times.append(time.perf_counter() - round_start)
        elapsed = time.perf_counter() - start
        if rounds is not None:
            if len(round_times) >= rounds:
                break
            continue
        half_round = elapsed / len(round_times) / 2
        if (elapsed + half_round >= seconds and len(latencies) >= MIN_VERDICTS
                and len(round_times) >= MIN_ROUNDS):
            break
        if elapsed >= 1.5 * seconds:
            break
    return dict(latencies=latencies, verdicts=verdicts, failures=failures, failed=failed,
                attempted=len(latencies), elapsed=time.perf_counter() - start,
                rounds=len(round_times), round_size=len(tasks))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--rounds", type=int, default=None)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--spawned-at", type=float, required=True,
                        help="time.monotonic() of the parent when it spawned this process")
    args = parser.parse_args(argv)

    t0 = time.perf_counter()
    import fixtures
    from sublap import cli  # noqa: F401  (loaded before the tracer wraps the layers)
    import_s = time.perf_counter() - t0
    import numpy

    # CLI processes install their own tracer (see launch_cli.py)
    tracer = None
    if args.trace:
        from tracer import Tracer, layer_metrics, merge_raw
        if args.workload != "cli":
            tracer = Tracer()
            tracer.install()

    import workloads

    WORK.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="%s-" % args.workload, dir=WORK))
    try:
        if args.workload == "cli":
            trace_dir = None
            if args.trace:
                trace_dir = workdir / "trace"
                trace_dir.mkdir()
            tasks = workloads.cli(args.seed, workdir, trace_dir)
        else:
            tasks = workloads.WORKLOADS[args.workload](args.seed, workdir)
        emit("ready", setup_s=time.monotonic() - args.spawned_at,
             backend=fixtures.Rat.__module__, numpy=numpy.__version__, tasks=len(tasks))
        if args.setup_only:
            return 0

        result = run_rounds(tasks, args.seconds, args.rounds, tracer)
        who = resource.RUSAGE_CHILDREN if args.workload == "cli" else resource.RUSAGE_SELF
        result["peak_rss_mb"] = resource.getrusage(who).ru_maxrss / 1024.0

        if args.trace:
            if args.workload == "cli":
                children = [json.loads(p.read_text()) for p in sorted(trace_dir.glob("*.json"))]
                raw = merge_raw([c["raw"] for c in children])
                spans = [s for c in children for s in c["spans"]]
            else:
                tracer.uninstall()
                raw = tracer.raw()
                raw["import_s"] = import_s
                spans = tracer.spans
            result["layers"] = layer_metrics(raw)
            span_dir = WORK / "spans"
            span_dir.mkdir(exist_ok=True)
            with open(span_dir / ("%s.jsonl" % args.workload), "w") as fh:
                for span in spans:
                    if span is not None:
                        fh.write(json.dumps(span) + "\n")
        emit("done", **result)
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
