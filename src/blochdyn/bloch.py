"""Affine coherence-vector generators.

A trace-preserving Liouville generator L induces an affine flow on the
coherence vector, d/dt v = A v + b, with A real of size (N^2-1) x (N^2-1)
and b a real translation. The pair is extracted numerically by pushing the
basis directions and the maximally mixed state through L; this works for any
N and is independently checkable against the closed forms of the two-level
system.
"""

from dataclasses import dataclass

import numpy as np

from .liouville import build_dissipator, trace_residual
from .states import _extraction_maps
from .tolerances import GENERATOR_TRACE_TOL, PROPAGATION_TOL, exceeds_scaled


@dataclass(frozen=True)
class AffineGenerator:
    """Linear part A and translation b of the coherence-vector flow."""

    a: np.ndarray
    b: np.ndarray

    def __post_init__(self):
        a = np.asarray(self.a, dtype=float)
        b = np.asarray(self.b, dtype=float).reshape(-1)
        if a.ndim != 2 or a.shape[0] != a.shape[1] or a.shape[0] != b.size:
            raise ValueError("A must be square with matching b")
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)


def to_affine(superop):
    """Extract (A, b) from a trace-preserving Liouville generator.

    b is the image of the maximally mixed state; columns of A come from the
    coherence basis directions. Inputs that do not conserve the trace have
    no affine restriction and are rejected.
    """
    superop = np.asarray(superop, dtype=complex)
    dim = int(round(np.sqrt(superop.shape[0])))
    if dim * dim != superop.shape[0]:
        raise ValueError("superoperator size must be a perfect square")
    if exceeds_scaled(trace_residual(superop), float(np.max(np.abs(superop))),
                      GENERATOR_TRACE_TOL):
        raise ValueError("population not conserved: trace functional is not a left null vector")
    r, e, mixed = _extraction_maps(dim)
    rl = r @ superop
    a = np.real(rl @ e)
    b = np.real(rl @ mixed)
    return AffineGenerator(a=a, b=b)


def quasi_spin_translation(spec):
    """Translation part induced by the dissipator alone.

    Symmetric relaxation rates give b = 0: pumping up and decaying down at
    equal rates leaves the maximally mixed state fixed.
    """
    return to_affine(build_dissipator(spec)).b


@dataclass(frozen=True)
class ContainmentReport:
    """Worst excursion of a trajectory outside the coherence-vector ball."""

    ok: bool
    worst_excess: float
    worst_time: float
    n_violations: int
    n_samples: int


def ball_containment(traj, tol=PROPAGATION_TOL):
    """Check that every sample stays inside the ball of radius trace_part.

    For two levels this is the Bloch-ball condition |v| <= 1; for more
    levels positivity of each stored density matrix is checked instead,
    with -min eigenvalue as the excess measure. Violations are reported,
    not raised.
    """
    if traj.dim == 2:
        radius = traj.trace_part
        excess = np.linalg.norm(traj.bloch, axis=1) - radius
    else:
        excess = -np.linalg.eigvalsh(traj.rho)[:, 0]
    worst = int(np.argmax(excess))
    violations = int(np.sum(excess > tol))
    return ContainmentReport(
        ok=violations == 0,
        worst_excess=float(excess[worst]),
        worst_time=float(traj.times[worst]),
        n_violations=violations,
        n_samples=len(traj.times),
    )
