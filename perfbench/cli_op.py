"""One traced CLI call in a fresh interpreter.

Usage: python3 cli_op.py LAUNCHED_AT SPANS_JSON ARGV...

Times the imports, installs the span wrappers and calls
blochdyn.cli.main(ARGV), then writes the import times, spans and counters
to SPANS_JSON and exits with main's return code.  LAUNCHED_AT is the
parent's time.monotonic() just before it started this process; on Linux
the monotonic clock is shared by all processes.
"""

import time

FIRST_LINE = time.monotonic()

import json  # noqa: E402
import os  # noqa: E402
import sys  # noqa: E402

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))


def main():
    launched_at, spans_path, argv = float(sys.argv[1]), sys.argv[2], sys.argv[3:]
    t0 = time.perf_counter()
    import blochdyn  # noqa: F401
    t1 = time.perf_counter()
    import blochdyn.cli
    t2 = time.perf_counter()
    from tracing import Tracer

    tracer = Tracer()
    tracer.install()
    with tracer.op():
        rc = blochdyn.cli.main(argv)
    record = {
        "import": {"interpreter_s": FIRST_LINE - launched_at, "blochdyn_s": t1 - t0,
                   "cli_s": t2 - t1},
        # drop this process's root span (index 0): the parent's op span
        # takes its place, and parent -1 marks its direct children
        "spans": [(n, s, e, p - 1) for n, s, e, p, _ in tracer.spans()[1:]],
        "counters": dict(tracer.counters),
        "absent": sorted(tracer.absent),
        "uncounted": sorted(tracer.uncounted),
    }
    with open(spans_path, "w") as fh:
        json.dump(record, fh)
    return rc


if __name__ == "__main__":
    sys.exit(main())
