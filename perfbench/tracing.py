"""Spans around calls into blochdyn's layers, recorded from outside the program.

A traced run replaces each target function by a wrapper wherever a module
looks the name up: in the defining module and in every loaded blochdyn
module that imported it (for example blochdyn.dynamics.expm and
blochdyn.cli.propagate).  Numerical kernels are wrapped as attributes of
numpy.linalg and scipy.linalg, and only when the module is already loaded,
so tracing never adds an import the program would not make.  A target that
no longer exists is reported as absent with 0 calls, and one whose counters
can no longer be read from its arguments or result as uncounted.

Spans (name, start, end, parent, op id) are kept in memory in flat arrays
and written out when the run ends.  A span's self time is its duration
minus the durations of its children; wrappers nest, so children never
overlap.  Each op is a root span named bench.driver, whose self time is the
work no wrapped function covers.
"""

import importlib
import json
import sys
import time
from array import array
from collections import defaultdict
from contextlib import contextmanager

ROOT_SPAN = "bench.driver"

# (metric prefix, module, attribute)
TARGETS = (
    ("config.load_config", "blochdyn.config", "load_config"),
    ("config.parse_config", "blochdyn.config", "parse_config"),
    ("cli.main", "blochdyn.cli", "main"),
    ("cli.cmd_simulate", "blochdyn.cli", "cmd_simulate"),
    ("cli.cmd_analyze", "blochdyn.cli", "cmd_analyze"),
    ("cli.cmd_sweep", "blochdyn.cli", "cmd_sweep"),
    ("cli.cmd_template", "blochdyn.cli", "cmd_template"),
    ("cli.analyze_report", "blochdyn.cli", "analyze_report"),
    ("dynamics.propagate", "blochdyn.dynamics", "propagate"),
    ("dynamics._check_sample", "blochdyn.dynamics", "_check_sample"),
    ("dynamics.expm", "blochdyn.dynamics", "expm"),
    ("dynamics.steady_state", "blochdyn.dynamics", "steady_state"),
    ("dynamics.steady_state_sweep", "blochdyn.dynamics", "steady_state_sweep"),
    ("dynamics.semigroup_spectrum", "blochdyn.dynamics", "semigroup_spectrum"),
    ("states.check_density", "blochdyn.states", "check_density"),
    ("liouville.total_generator", "blochdyn.liouville", "total_generator"),
    ("liouville.build_dissipator", "blochdyn.liouville", "build_dissipator"),
    ("liouville.commutator_superop", "blochdyn.liouville", "commutator_superop"),
    ("liouville.support_overlap", "blochdyn.liouville", "support_overlap"),
    ("bloch.to_affine", "blochdyn.bloch", "to_affine"),
    ("algebra.lie_closure", "blochdyn.algebra", "lie_closure"),
    ("algebra.hamiltonian_algebra", "blochdyn.algebra", "hamiltonian_algebra"),
    ("algebra.affine_generator_set", "blochdyn.algebra", "affine_generator_set"),
    ("algebra.decompose_inhomogeneous", "blochdyn.algebra", "decompose_inhomogeneous"),
    ("kernel.eigvalsh", "numpy.linalg", "eigvalsh"),
    ("kernel.svd", "numpy.linalg", "svd"),
    ("kernel.expm", "scipy.linalg", "expm"),
)

PROPAGATE_SIZES = (2, 3, 5, 8)
CLOSURE_SIZES = (3, 4)


def _arg(args, kwargs, index, name, default=None):
    if len(args) > index:
        return args[index]
    return kwargs.get(name, default)


def _count_propagate(counters, args, kwargs, traj, seconds):
    field = _arg(args, kwargs, 2, "field")
    duration = _arg(args, kwargs, 5, "duration")
    n = traj.rho.shape[1]
    samples = len(traj.times) - 1
    start, segments = 0.0, 0
    for dur, _ in field.segments:
        if duration is not None and start >= duration:
            break
        segments += 1
        start += dur
    # one N^2 x N^2 complex matvec per exact step, four per RK4 step, plus
    # reading and writing the state vector
    matvecs = 1 if field.kind == "piecewise" else 4
    counters["dynamics.samples"] += samples
    counters["dynamics.segments"] += segments
    counters["dynamics.step_bytes_computed"] += samples * matvecs * 16 * (n ** 4 + 2 * n * n)
    counters["propagate_s.N%d" % n] += seconds
    counters["propagate_samples.N%d" % n] += samples


def _count_closure(counters, args, kwargs, basis, seconds):
    gens = _arg(args, kwargs, 0, "generators")
    if not isinstance(gens, (list, tuple)) or not gens:
        return
    size = len(gens[0])
    n = int(round(size ** 0.5))
    # affine embeddings [[A, b], [0, 0]] of an N-level flow are N^2 x N^2
    # with a zero last row; the real image of u(N) is 2N x 2N and has none
    if n * n != size or any(abs(g[-1]).max() > 0 for g in gens):
        return
    counters["lie_closure_s.N%d" % n] += seconds
    counters["closure_dim_sum"] += basis.dim
    counters["closure_calls"] += 1


COUNTERS = {
    "dynamics.propagate": _count_propagate,
    "algebra.lie_closure": _count_closure,
}


class Tracer:
    """In-memory span recorder with wrappers that pass through when inactive."""

    def __init__(self):
        self.names = []
        self._name_ids = {}
        self.name_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.op_id = array("i")
        self.counters = defaultdict(float)
        self.absent = set()
        self.uncounted = set()
        self.op_times = []
        self._stack = []
        self._op = -1
        self._restore = []

    def _open(self, name, start):
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        idx = len(self.start)
        self.name_id.append(nid)
        self.start.append(start)
        self.end.append(start)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.op_id.append(self._op)
        return idx

    def wrap(self, name, fn):
        count = COUNTERS.get(name)

        def traced(*args, **kwargs):
            if self._op < 0:
                return fn(*args, **kwargs)
            idx = self._open(name, 0.0)
            self._stack.append(idx)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                self._stack.pop()
                self.start[idx] = t0
                self.end[idx] = t1
            if count is not None:
                try:
                    count(self.counters, args, kwargs, result, t1 - t0)
                except Exception:  # a changed signature must not fail the op
                    self.uncounted.add(name)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self):
        """Replace every target where it is looked up; note absent ones."""
        loaded = [m for k, m in list(sys.modules.items())
                  if m is not None and (k == "blochdyn" or k.startswith("blochdyn."))]
        for name, modname, attr in TARGETS:
            if modname.startswith("blochdyn"):
                try:
                    module = importlib.import_module(modname)
                except ImportError:
                    module = None
            else:
                module = sys.modules.get(modname)
            original = getattr(module, attr, None) if module is not None else None
            if original is None:
                self.absent.add(name)
                continue
            wrapper = self.wrap(name, original)
            for holder in {id(m): m for m in loaded + [module]}.values():
                for key, value in list(vars(holder).items()):
                    if value is original:
                        setattr(holder, key, wrapper)
                        self._restore.append((holder, key, original))

    def uninstall(self):
        for holder, key, original in reversed(self._restore):
            setattr(holder, key, original)
        self._restore.clear()

    @contextmanager
    def op(self):
        """Root span of one op; wrappers record only inside it."""
        self._op = len(self.op_times)
        idx = self._open(ROOT_SPAN, 0.0)
        self._stack.append(idx)
        t0 = time.perf_counter()
        try:
            yield idx
        finally:
            t1 = time.perf_counter()
            self._stack.pop()
            self.start[idx] = t0
            self.end[idx] = t1
            self.op_times.append(t1 - t0)
            self._op = -1

    def adopt(self, record):
        """Attach what cli_op.py recorded in a child under the open op span."""
        parent = self._stack[-1]
        base = len(self.start)
        for name, start, end, par in record["spans"]:
            idx = self._open(name, start)
            self.end[idx] = end
            self.parent[idx] = parent if par < 0 else base + par
        for key, value in record["counters"].items():
            self.counters[key] += value
        for key, value in record["import"].items():
            self.counters["import." + key] += value
        self.absent.update(record["absent"])
        self.uncounted.update(record["uncounted"])

    def spans(self):
        """Recorded spans as (name, start, end, parent, op id) tuples."""
        return [(self.names[self.name_id[i]], self.start[i], self.end[i], self.parent[i],
                 self.op_id[i]) for i in range(len(self.start))]

    def write_spans(self, path):
        with open(path, "w") as fh:
            for span in self.spans():
                fh.write(json.dumps(span) + "\n")

    def self_times(self):
        """Total self seconds and call count per span name."""
        child = [0.0] * len(self.start)
        for i in range(len(self.start)):
            p = self.parent[i]
            if p >= 0:
                child[p] += self.end[i] - self.start[i]
        seconds = defaultdict(float)
        calls = defaultdict(int)
        for i in range(len(self.start)):
            name = self.names[self.name_id[i]]
            seconds[name] += self.end[i] - self.start[i] - child[i]
            calls[name] += 1
        return seconds, calls

    def layer_metrics(self, imports):
        """Per-op means of every per-layer metric the trace yields.

        Import times come from the children of a CLI run when it recorded
        them, else from `imports`, the traced process's own.
        """
        ops = max(1, len(self.op_times))
        seconds, calls = self.self_times()
        c = self.counters
        out = {}
        for key in ("interpreter_s", "blochdyn_s", "cli_s"):
            total = c.get("import." + key)
            out["import." + key] = (total / ops if total is not None else imports[key], "s")
        for name, _, _ in TARGETS:
            out[name + ".calls"] = (calls.get(name, 0) / ops, "calls/op")
            out[name + ".self_s"] = (seconds.get(name, 0.0) / ops, "s/op")
        out[ROOT_SPAN + ".self_s"] = (seconds.get(ROOT_SPAN, 0.0) / ops, "s/op")
        out["trace.op_s"] = (sum(self.op_times) / ops, "s/op")
        for n in PROPAGATE_SIZES:
            samples = c["propagate_samples.N%d" % n]
            out["dynamics.propagate.us_per_sample.N%d" % n] = (
                1e6 * c["propagate_s.N%d" % n] / samples if samples else 0.0, "us")
        for key in ("dynamics.samples", "dynamics.segments"):
            out[key] = (c[key] / ops, "count/op")
        out["dynamics.step_bytes_computed"] = (c["dynamics.step_bytes_computed"] / ops, "B/op")
        for n in CLOSURE_SIZES:
            out["algebra.lie_closure.s.N%d" % n] = (c["lie_closure_s.N%d" % n] / ops, "s/op")
        out["algebra.closure_dim"] = (
            c["closure_dim_sum"] / c["closure_calls"] if c["closure_calls"] else 0.0, "dim")
        out["cli.bytes_written"] = (c["cli.bytes_written"] / ops, "B/op")
        return out
