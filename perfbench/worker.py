"""One fresh interpreter that sets up a workload and times its ops.

Usage: python3 worker.py WORKLOAD SEED SECONDS TRACE LAUNCHED_AT [--setup-only] [--spans PATH]

Imports, draws the first inputs and runs one warm-up op, then prints READY;
run.py measures set-up time from launching this process to that line, so
the benchmark's check of the warm-up output falls after it.  With
--setup-only it stops there.  Otherwise it times rounds of ops for SECONDS
(tracing off) and prints the result as one JSON line.  With TRACE 1 each op
runs twice in a row, once untraced and once traced, in alternating order,
and the result holds the per-layer metrics and the tracing overhead.
"""

import time

FIRST_LINE = time.monotonic()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)


class Loop:
    """Closed loop, one client: an op starts when the previous one has ended."""

    def __init__(self, workload):
        self.workload = workload
        self.op_times = []
        self.units = 0
        self.attempted = 0
        self.failed = 0

    @staticmethod
    def run_op(op, tracer=None):
        """Time one op; return (seconds, output, problems)."""
        t0 = time.perf_counter()
        try:
            with tracer.op() if tracer is not None else contextlib.nullcontext():
                output = op.run()
        except Exception as exc:  # an op that raises is a failed op, not a failed run
            return time.perf_counter() - t0, None, ["raised %s: %s" % (type(exc).__name__, exc)]
        return time.perf_counter() - t0, output, []

    def count(self, op, output, problems):
        """Check an op's output, print its problems and count the op."""
        if not problems:
            try:
                problems = op.check(output)
            except Exception as exc:  # a malformed output fails the op, not the run
                problems = ["check raised %s: %s" % (type(exc).__name__, exc)]
        for problem in problems:
            print("FAIL %s: %s" % (op.label, problem), file=sys.stderr)
        self.attempted += 1
        self.failed += bool(problems)
        return problems

    def step(self, op, tracer=None):
        """Run, check and count one op; return its time."""
        elapsed, output, problems = self.run_op(op, tracer)
        if not self.count(op, output, problems):
            self.units += op.units(output)
        return elapsed

    def pair(self, op, tracer):
        """The same op untraced and traced, in alternating order, so that a
        change of machine speed during the run reaches both sides alike.  The
        wrappers are installed only around the traced one."""
        for traced in ((False, True) if len(self.op_times) % 2 == 0 else (True, False)):
            if not traced:
                self.op_times.append(self.step(op))
                continue
            tracer.install()
            self.workload.tracer = tracer  # read by cli_templates only
            try:
                self.step(op, tracer)
            finally:
                self.workload.tracer = None
                tracer.uninstall()

    def timed(self, seconds, tracer=None):
        """Rounds of ops until the next round would likely overrun `seconds`.

        With a tracer each op runs as a pair; untraced times go to op_times
        and traced ones to the tracer's op_times.
        """
        start = time.perf_counter()
        rounds = 0
        while True:
            for op in self.workload.round():
                if tracer is None:
                    self.op_times.append(self.step(op))
                else:
                    self.pair(op, tracer)
            rounds += 1
            spent = time.perf_counter() - start
            if spent * (rounds + 1) / rounds > seconds:
                return


def traced_layers(loop, tracer, imports):
    """Per-layer metrics of a paired run, with the tracing overhead."""
    layers = tracer.layer_metrics(imports)
    layers["trace.overhead_frac"] = (
        statistics.median(tracer.op_times) / statistics.median(loop.op_times) - 1.0, "frac")
    return layers


def blas_threads():
    """Thread counts reported by the OpenBLAS libraries numpy and scipy load."""
    import ctypes
    import glob

    import numpy
    import scipy

    found = {}
    for pkg in (numpy, scipy):
        libs = os.path.join(os.path.dirname(pkg.__file__), os.pardir, pkg.__name__ + ".libs")
        for path in sorted(glob.glob(os.path.join(libs, "*openblas*"))):
            lib = ctypes.CDLL(path)
            for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                           "openblas_get_num_threads"):
                fn = getattr(lib, symbol, None)
                if fn is not None:
                    found[os.path.basename(path)] = fn()
                    break
    return found


def environment():
    import numpy
    import scipy

    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "blas_threads": blas_threads(),
        "thread_env": {k: os.environ.get(k) for k in
                       ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")},
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
    }


def make_workload(name, seed, workdir, launched_at):
    if name == "cli_templates":
        from cli_workload import CliTemplates

        return CliTemplates(random.Random(seed), workdir), {}
    t0 = time.perf_counter()
    import blochdyn  # noqa: F401
    t1 = time.perf_counter()
    import blochdyn.cli  # noqa: F401
    t2 = time.perf_counter()
    import numpy as np
    from workloads import WORKLOADS

    imports = {"interpreter_s": FIRST_LINE - launched_at, "blochdyn_s": t1 - t0, "cli_s": t2 - t1}
    return WORKLOADS[name](np.random.default_rng(seed)), imports


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("workload")
    parser.add_argument("seed", type=int)
    parser.add_argument("seconds", type=float)
    parser.add_argument("trace", type=int)
    parser.add_argument("launched_at", type=float)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--spans")
    args = parser.parse_args()

    workdir = tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT)
    try:
        workload, imports = make_workload(args.workload, args.seed, workdir,
                                          args.launched_at)
        loop = Loop(workload)
        warmup = workload.round()[0]
        _, output, problems = loop.run_op(warmup)
        print("READY", flush=True)
        if args.setup_only:
            return 0
        loop.count(warmup, output, problems)
        result = {"unit": workload.unit}
        if args.trace:
            from tracing import Tracer

            tracer = Tracer()
            loop.timed(args.seconds, tracer)
            result.update(layers=traced_layers(loop, tracer, imports),
                          absent=sorted(tracer.absent), uncounted=sorted(tracer.uncounted))
            if args.spans:
                tracer.write_spans(args.spans)
        else:
            loop.timed(args.seconds)
        who = resource.RUSAGE_CHILDREN if args.workload == "cli_templates" else resource.RUSAGE_SELF
        result.update(
            op_times=loop.op_times,
            units=loop.units,
            attempted=loop.attempted,
            failed=loop.failed,
            peak_rss_mb=resource.getrusage(who).ru_maxrss / 1024.0,
            env=environment(),
        )
        print(json.dumps(result), flush=True)
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
