"""The cli_templates workload and the Op type all workloads share.

Kept free of numpy and scipy, so that the benchmark's own imports add as
little as possible to this workload's set-up time.
"""

import json
import os
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
TEMPLATES = os.path.join(os.path.dirname(HERE), "src", "blochdyn", "templates")


class Op:
    """One timed call: run() -> output, check(output) -> problems, units(output)."""

    def __init__(self, label, run, check, units):
        self.label = label
        self.run = run
        self.check = check
        self.units = units


class CliTemplates:
    """One `python -m blochdyn` subprocess per op.

    The ops cycle, in a seeded order, through simulate, analyze and sweep on
    each shipped template plus one template call, which takes the templates
    in turn.  A round is one op, so a run stops within one call of its time
    budget.  In a traced run each op starts cli_op.py instead, and its spans
    are attached under the op's root span.
    """

    unit = "calls"

    def __init__(self, rng, workdir):
        self.workdir = workdir
        self.tracer = None
        self.names = sorted(f[:-5] for f in os.listdir(TEMPLATES) if f.endswith(".json"))
        cycle = [(cmd, name) for name in self.names for cmd in ("simulate", "analyze", "sweep")]
        self.cycle = rng.sample(cycle + [("template", None)], len(cycle) + 1)
        self.position = 0
        self.turn = 0
        self.first_output = {}

    def round(self):
        cmd, name = self.cycle[self.position % len(self.cycle)]
        self.position += 1
        if cmd == "template":
            name = self.names[self.turn % len(self.names)]
            self.turn += 1
        return [self._op(cmd, name)]

    def _op(self, cmd, name):
        out = os.path.join(self.workdir, "%s-%s.out" % (cmd, name))
        config = os.path.join(TEMPLATES, name + ".json")
        argv = [cmd, name] if cmd == "template" else [cmd, "--config", config]
        argv += ["--out", out]
        spans = os.path.join(self.workdir, "spans.json")

        def run():
            tracer = self.tracer
            if tracer is None:
                command = [sys.executable, "-m", "blochdyn"] + argv
            else:
                command = [sys.executable, os.path.join(HERE, "cli_op.py"),
                           repr(time.monotonic()), spans] + argv
            proc = subprocess.run(command, capture_output=True, timeout=120)
            written = b""
            if os.path.exists(out):
                with open(out, "rb") as fh:
                    written = fh.read()
                os.remove(out)
            if tracer is not None and os.path.exists(spans):
                with open(spans) as fh:
                    tracer.adopt(json.load(fh))
                os.remove(spans)
                tracer.counters["cli.bytes_written"] += len(proc.stdout) + len(written)
            return proc.returncode, proc.stdout + written, proc.stderr

        def check(output):
            rc, data, stderr = output
            if rc != 0:
                return ["exit code %d: %s" % (rc, stderr.decode(errors="replace").strip())]
            if cmd == "template":
                with open(config, "rb") as fh:
                    shipped = fh.read()
                return [] if data == shipped else ["template output differs from the shipped file"]
            first = self.first_output.setdefault((cmd, name), data)
            return [] if data == first else ["rerun output is not byte-identical"]

        return Op("%s %s" % (cmd, name), run, check, lambda output: 1)
