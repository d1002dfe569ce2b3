"""Run the sublap command line from the checkout, as the ``sublap`` entry
point does (``sys.exit(sublap.cli.main())``).

Usage: launch_cli.py [--trace-out FILE] <sublap arguments>

With --trace-out the outside tracer is installed after the import and,
when the process exits, FILE receives the layer counters and spans of this
one call, plus the time the import took.
"""

import atexit
import json
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))


def main():
    argv = sys.argv[1:]
    trace_out = None
    if argv[:1] == ["--trace-out"]:
        trace_out, argv = argv[1], argv[2:]
    start = time.perf_counter()
    from sublap import cli
    import_s = time.perf_counter() - start
    if trace_out is not None:
        sys.path.insert(0, str(BENCH))
        from tracer import Tracer

        tracer = Tracer()
        tracer.verdict = Path(trace_out).stem
        tracer.install()

        def write():
            raw = tracer.raw()
            raw["import_s"] = import_s
            spans = [s for s in tracer.spans if s is not None]
            Path(trace_out).write_text(json.dumps({"raw": raw, "spans": spans}))

        atexit.register(write)
    return cli.main(argv)


if __name__ == "__main__":
    sys.exit(main())
