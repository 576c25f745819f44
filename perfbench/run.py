"""blochdyn benchmark: one workload, one seed, one line of JSON.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads: cli_templates, trajectory_dense, pulse_sliced, structure (see
README.md for why each exists).  Every process this starts has BLAS and
OpenMP pinned to one thread and imports blochdyn from the checkout's src/.

With --trace 0 the last line of stdout carries the end-to-end metrics:
setup_s, op_p50_s, op_tail_s, work_per_s and peak_rss_mb; failed_frac is
failed / attempted.  With --trace 1 it carries the per-layer metrics of a
traced run.  The line before it is the full record: every metric, the
percentile op_tail_s used, the unit of work, failures and the environment.
"""

import argparse
import hashlib
import json
import os
import signal
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORKER = os.path.join(HERE, "worker.py")
WORKLOADS = ("cli_templates", "trajectory_dense", "pulse_sliced", "structure")
THREAD_PINS = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
# fresh interpreters set up per untraced run; setup_s is their median
SETUP_LAUNCHES = {"cli_templates": 5, "trajectory_dense": 5, "pulse_sliced": 3, "structure": 3}
TIMEOUT_S = 170


class BenchError(Exception):
    pass


def launch(args, setup_only, deadline):
    """Start a worker; return (seconds until READY, its result or None)."""
    command = [sys.executable, WORKER, args.workload, str(args.seed), str(args.seconds),
               str(args.trace)]
    if setup_only:
        command.append("--setup-only")
    if args.spans:
        command += ["--spans", os.path.abspath(args.spans)]
    launched = time.monotonic()
    # a session of its own, so that a kill also ends the CLI calls it started
    proc = subprocess.Popen(command + [repr(launched)], stdout=subprocess.PIPE, text=True,
                            start_new_session=True)

    def kill():
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass

    timer = threading.Timer(max(1.0, deadline - launched), kill)
    timer.start()
    try:
        ready = proc.stdout.readline()
        setup = time.monotonic() - launched
        rest = proc.stdout.read()
        proc.wait()
    finally:
        timer.cancel()
        if proc.poll() is None:
            kill()
            proc.wait()
    if ready.strip() != "READY" or proc.returncode != 0:
        raise BenchError("worker failed (exit code %s)" % proc.returncode)
    return setup, (None if setup_only else json.loads(rest.strip().splitlines()[-1]))


def tail(times):
    """Highest integer percentile with at least ten ops beyond it (nearest rank).

    Below 20 ops no percentile above the median qualifies; the median is
    reported and the record says so.
    """
    n = len(times)
    if n < 20:
        return statistics.median(times), 50
    pct = (100 * (n - 10)) // n
    return sorted(times)[-(-pct * n // 100) - 1], pct


def code_identity():
    """The checkout's git commit if it is a repository, and a digest of src/."""
    rev = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
        rev = proc.stdout.strip() or None
    digest = hashlib.sha256()
    for base, dirs, files in sorted(os.walk(SRC)):
        dirs[:] = sorted(d for d in dirs if d != "__pycache__")
        for name in sorted(files):
            path = os.path.join(base, name)
            digest.update(os.path.relpath(path, SRC).encode() + b"\0")
            with open(path, "rb") as fh:
                digest.update(hashlib.sha256(fh.read()).digest())
    return {"commit": rev, "src_sha256": digest.hexdigest()}


def measure(args):
    deadline = time.monotonic() + TIMEOUT_S
    setups = []
    if not args.trace:
        for _ in range(SETUP_LAUNCHES[args.workload] - 1):
            setups.append(launch(args, True, deadline)[0])
    setup, result = launch(args, False, deadline)
    setups.append(setup)

    times = result["op_times"]
    attempted, failed = result["attempted"], result["failed"]
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "ops": len(times),
        "work_unit": result["unit"],
        "env": dict(result["env"], **code_identity()),
    }
    if args.trace:
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in sorted(result["layers"].items())}
        record["absent"] = result["absent"]
        record["uncounted"] = result["uncounted"]
    else:
        tail_s, pct = tail(times)
        metrics = {
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "op_p50_s": {"value": statistics.median(times), "unit": "s"},
            "op_tail_s": {"value": tail_s, "unit": "s"},
            "work_per_s": {"value": result["units"] / sum(times), "unit": "1/s"},
            "peak_rss_mb": {"value": result["peak_rss_mb"], "unit": "MB"},
        }
        record["op_tail_percentile"] = pct
        record["setup_samples_s"] = setups
        record["failed_frac"] = failed / attempted
    record["metrics"] = metrics
    return record, {"correct": failed == 0, "attempted": attempted, "failed": failed,
                    "metrics": metrics}


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spans", help="traced runs: write every span here as JSON lines")
    args = parser.parse_args()
    if not os.path.isfile(os.path.join(SRC, "blochdyn", "__init__.py")):
        print("no blochdyn sources under %s: run from the root of a checkout" % SRC,
              file=sys.stderr)
        return 2
    os.environ.update(THREAD_PINS)
    os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    try:
        record, line = measure(args)
    except BenchError as exc:
        print("benchmark failed: %s" % exc, file=sys.stderr)
        return 1
    print(json.dumps(record, sort_keys=True))
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
