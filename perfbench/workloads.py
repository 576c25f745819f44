"""The library workloads: trajectory_dense, pulse_sliced and structure.

Each hands out rounds of ops.  An op's inputs are drawn from the seeded
generator before it is timed; run() is the timed call into the program and
check() compares its output with invariants that do not come from the code
under test.  Why each workload exists is recorded in README.md.
"""

import numpy as np

import checks
import inputs
from cli_workload import Op


def _propagate_op(label, jobs, units):
    """Op over several propagate calls; jobs are (ladder, segments, kind, rho0, dt)."""
    from blochdyn import dynamics
    from blochdyn.model import ControlField

    built = [(job, job[0].build(), ControlField(segments=job[1], kind=job[2])) for job in jobs]

    def run():
        return [dynamics.propagate(sys_, spec, field, job[3], sample_dt=job[4])
                for job, (sys_, spec), field in built]

    def check(trajs):
        problems, references = [], {}
        for (ladder, segments, kind, rho0, _), traj in zip(jobs, trajs):
            # jobs given the same segments share ladder and state, so one
            # reference serves both routes
            if id(segments) not in references:
                references[id(segments)] = checks.exact_final(ladder, segments, rho0)
            problems += checks.check_trajectory(ladder, segments, references[id(segments)],
                                                traj, kind)
        return problems

    return Op(label, run, check, units)


class TrajectoryDense:
    """Few long exact segments, about 2000 samples per call, N = 2, 3, 5, 8."""

    unit = "samples"
    sizes = (2, 3, 5, 8)
    samples = 2000

    def __init__(self, rng):
        self.rng = rng

    def round(self):
        jobs = []
        for n in self.sizes:
            segments = inputs.random_segments(self.rng, n - 1, 3, 1.0, 3.0)
            total = sum(d for d, _ in segments)
            jobs.append((inputs.random_ladder(self.rng, n), segments, "piecewise",
                         inputs.random_state(self.rng, n), total / self.samples))
        return [_propagate_op("dense", jobs, lambda trajs: sum(len(t.times) - 1 for t in trajs))]


class PulseSliced:
    """Hundreds of short slices, one or two samples each, N = 3, 5, 8.

    Each size runs the same inputs once on the exact route and once on RK4.
    The sample step is 0.05 / w, where w bounds the generator's norm, so RK4
    stays well inside its tolerance; slices last 0.6 to 1.4 steps.
    """

    unit = "slices"
    sizes = (3, 5, 8)
    slices = 200

    def __init__(self, rng):
        self.rng = rng

    def round(self):
        jobs = []
        for n in self.sizes:
            ladder = inputs.random_ladder(self.rng, n)
            w = (np.ptp(ladder.energies) + 2.0 * ladder.moments.max()
                 + ladder.dephasing.max() + ladder.relaxation.sum())
            dt = 0.05 / w
            segments = inputs.random_segments(self.rng, n - 1, self.slices, 0.6 * dt, 1.4 * dt)
            rho0 = inputs.random_state(self.rng, n)
            jobs += [(ladder, segments, kind, rho0, dt) for kind in ("piecewise", "sampled")]
        return [_propagate_op("sliced", jobs, lambda trajs: len(jobs) * self.slices)]


class Structure:
    """Full structural analysis of a fresh ladder at N = 3 and at N = 4."""

    unit = "analyses"
    sizes = (3, 4)
    grid = 1500

    def __init__(self, rng):
        self.rng = rng

    def round(self):
        from blochdyn import algebra, dynamics, liouville

        cases = [(inputs.random_ladder(self.rng, n), inputs.sweep_grid(self.rng, self.grid))
                 for n in self.sizes]
        built = [ladder.build() for ladder, _ in cases]

        def run():
            results = []
            for (sys_, spec), (_, amplitudes) in zip(built, cases):
                controls = [liouville.commutator_superop(h, sys_.hbar) for h in sys_.controls]
                liouville.support_overlap(controls, liouville.build_dissipator(spec))
                ham = algebra.hamiltonian_algebra(sys_)
                closure = algebra.lie_closure(algebra.affine_generator_set(sys_, spec))
                split = algebra.decompose_inhomogeneous(closure)
                dynamics.semigroup_spectrum(
                    liouville.total_generator(sys_, spec, np.zeros(sys_.n_controls)))
                sweep = dynamics.steady_state_sweep(sys_, spec, 0, amplitudes)
                results.append((closure.dim, split, ham.dim, sweep))
            return results

        def check(results):
            problems = []
            for (ladder, amplitudes), result in zip(cases, results):
                problems += checks.check_structure(ladder, amplitudes, result)
            return problems

        return [Op("structure", run, check, lambda results: len(results))]


WORKLOADS = {
    "trajectory_dense": TrajectoryDense,
    "pulse_sliced": PulseSliced,
    "structure": Structure,
}
