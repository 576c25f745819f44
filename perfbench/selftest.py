"""Self-test of the benchmark harness at tiny sizes.

Run from the root of a checkout:  python3 perfbench/selftest.py

Checks that a traced run of every workload emits each per-layer metric of
BENCHMARK.json with its unit, that self times are >= 0 and sum to the traced
op time, that a missing wrapped function is reported absent with 0 calls,
that each traced op is paired with an untraced one and the wrappers are
removed again, that an unphysical op and an op with a malformed output are
each counted as failed without ending the run, that run.py prints every end-to-end and per-layer metric with its unit, and that
it fails without a result where there are no sources to measure.
"""

import json
import os
import random
import shutil
import subprocess
import sys
import tempfile
from types import SimpleNamespace

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
for key in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[key] = "1"
os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [os.path.join(ROOT, "src"),
                                                          os.environ.get("PYTHONPATH")]))

import numpy as np  # noqa: E402

import inputs  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from cli_workload import CliTemplates, Op  # noqa: E402
from worker import Loop, traced_layers  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
    SPEC = json.load(fh)
FAILURES = []


def expect(ok, what):
    print("%s  %s" % ("ok  " if ok else "FAIL", what))
    if not ok:
        FAILURES.append(what)


def units(entries):
    return {m["name"]: m["unit"] for m in entries}


def shrink():
    workloads.TrajectoryDense.samples = 40
    workloads.PulseSliced.slices = 8
    workloads.Structure.sizes = (2, 3)
    workloads.Structure.grid = 12


def traced_rounds(name, workload, rounds=1):
    loop = Loop(workload)
    tracer = tracing.Tracer()
    tracing_targets = tracing.TARGETS
    tracing.TARGETS = tracing_targets + (("dynamics.gone", "blochdyn.dynamics", "no_such_function"),)
    try:
        for _ in range(rounds):
            loop.timed(0.0, tracer)
        layers = traced_layers(loop, tracer, {"interpreter_s": 0.0, "blochdyn_s": 0.0, "cli_s": 0.0})
    finally:
        tracing.TARGETS = tracing_targets
    expect(loop.failed == 0, "%s: tiny rounds pass their checks" % name)
    import blochdyn.dynamics

    expect(len(loop.op_times) == len(tracer.op_times) > 0
           and not hasattr(blochdyn.dynamics.propagate, "__wrapped__"),
           "%s: every traced op has an untraced twin; wrappers are removed after it" % name)
    wanted = units(SPEC["per_layer"])
    missing = [k for k, u in wanted.items() if k not in layers or layers[k][1] != u]
    expect(not missing, "%s: every per-layer metric emitted with its unit %s" % (name, missing or ""))
    selfs = {k: v for k, (v, _) in layers.items() if k.endswith(".self_s")}
    expect(min(selfs.values()) >= -1e-12, "%s: self times >= 0" % name)
    total, op = sum(selfs.values()), layers["trace.op_s"][0]
    expect(abs(total - op) <= 1e-9 * max(1.0, op),
           "%s: self times sum to the traced op time (%.6g vs %.6g)" % (name, total, op))
    expect("dynamics.gone" in tracer.absent and layers["dynamics.gone.calls"][0] == 0,
           "%s: a missing function is reported absent with 0 calls" % name)


def unphysical_op():
    """A propagate on rates that break complete positivity: relaxation
    without the dephasing it requires, from a pure coherent state."""
    ladder = inputs.Ladder(energies=np.array([1.0, 2.0]), moments=np.ones(1),
                           dephasing=np.zeros((2, 2)), relaxation=np.array([[0.0, 1.0], [0.0, 0.0]]))
    rho0 = np.full((2, 2), 0.5)
    return workloads._propagate_op("unphysical", [(ladder, ((2.0, np.zeros(1)),), "piecewise", rho0, 0.01)],
                                   lambda trajs: 1)


class Fixed:
    """A workload whose every round is the given ops."""

    unit = "samples"

    def __init__(self, ops):
        self.ops = ops

    def round(self):
        return self.ops


def failures_counted():
    good = workloads.TrajectoryDense(np.random.default_rng(0)).round()[0]
    # final states cut to one column: the check cannot even compare them
    malformed = Op("malformed", lambda: [SimpleNamespace(times=t.times, rho=t.rho[:, :, :1])
                                         for t in good.run()], good.check, good.units)
    for what, bad in (("an unphysical op", unphysical_op()),
                      ("an op with a malformed output", malformed)):
        loop = Loop(Fixed([good, bad]))
        loop.timed(0.0)
        expect(len(loop.op_times) == loop.attempted == 2 and loop.failed == 1,
               "%s is counted as failed and the run goes on" % what)


def run_py(cwd, workload, trace):
    return subprocess.run([sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "7",
                           "--seconds", "1", "--trace", str(trace)],
                          cwd=cwd, capture_output=True, text=True, timeout=180)


def end_to_end():
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        proc = run_py(ROOT, "trajectory_dense", trace)
        line = json.loads(proc.stdout.strip().splitlines()[-1])
        got = {k: v["unit"] for k, v in line["metrics"].items()}
        expect(proc.returncode == 0 and set(line) == {"correct", "attempted", "failed", "metrics"}
               and line["correct"] and line["failed"] == 0,
               "run.py --trace %d: exit 0, correct result line" % trace)
        expect(got == units(SPEC[key]), "run.py --trace %d: prints every %s metric with its unit"
               % (trace, key))
    bare = tempfile.mkdtemp(prefix=".perfbench-selftest-", dir=ROOT)
    try:
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = run_py(bare, "trajectory_dense", 0)
        expect(proc.returncode != 0 and not proc.stdout.strip(),
               "run.py without sources exits non-zero and prints no result")
    finally:
        shutil.rmtree(bare)


def main():
    import blochdyn  # noqa: F401
    import blochdyn.cli  # noqa: F401

    shrink()
    workdir = tempfile.mkdtemp(prefix=".perfbench-selftest-", dir=ROOT)
    try:
        traced_rounds("cli_templates", CliTemplates(random.Random(0), workdir), rounds=10)
    finally:
        shutil.rmtree(workdir)
    for name, cls in workloads.WORKLOADS.items():
        traced_rounds(name, cls(np.random.default_rng(0)))
    failures_counted()
    end_to_end()
    print("%d failed" % len(FAILURES))
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
