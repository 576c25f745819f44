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

from .errors import InputError
from .liouville import _finite_pieces, build_dissipator, trace_residual
from .states import _extraction_maps, _min_eigenvalues
from .tolerances import GENERATOR_TRACE_TOL, PROPAGATION_TOL, exceeds_scaled, real_valued


@dataclass(frozen=True)
class AffineGenerator:
    """Linear part A and translation b of the coherence-vector flow."""

    a: np.ndarray
    b: np.ndarray

    def __post_init__(self):
        a = real_valued("a", self.a)
        b = real_valued("b", self.b).reshape(-1)
        if a.ndim != 2 or a.shape[0] != a.shape[1] or a.shape[0] != b.size:
            raise InputError("A must be square with matching b")
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)


def to_affine(superop):
    """Extract (A, b) from a trace-preserving Liouville generator.

    b is the image of the maximally mixed state; columns of A come from the
    coherence basis directions. Inputs that do not conserve the trace have
    no affine restriction and are rejected, and so are non-finite ones.
    """
    superop = np.asarray(superop, dtype=complex)
    dim = int(round(np.sqrt(superop.shape[0])))
    if dim * dim != superop.shape[0]:
        raise InputError("superoperator size must be a perfect square")
    if not np.isfinite(superop).all():
        raise InputError("superoperator must be finite")
    if exceeds_scaled(trace_residual(superop), float(np.max(np.abs(superop))),
                      GENERATOR_TRACE_TOL):
        raise InputError("population not conserved: trace functional is not a left null vector")
    m = _affine_images(superop[None])[0]
    return AffineGenerator(a=m[:-1, :-1], b=m[:-1, -1])


def _affine_images(pieces):
    """[[A, b], [0, 0]] images of a (K, N^2, N^2) stack of generators to_affine would pass.

    R L is a product of its own, then @ E and @ vec(I)/N: one product with
    [E, vec(I)/N] would round some entries differently. Sums that overflow
    raise InputError, as in generator_pieces.
    """
    r, e, mixed = _extraction_maps(round(pieces.shape[-1] ** 0.5))
    n = len(r)
    out = np.zeros((len(pieces), n + 1, n + 1))
    with np.errstate(over="ignore", invalid="ignore"):
        rl = r @ pieces
        out[:, :n, :n] = (rl @ e).real
        out[:, :n, n] = (rl @ mixed).real
    return _finite_pieces(out)


def quasi_spin_translation(spec):
    """Translation part induced by the dissipator alone.

    Symmetric relaxation rates give b = 0: pumping up and decaying down at
    equal rates leaves the maximally mixed state fixed.
    """
    return to_affine(build_dissipator(spec)).b


def ball_containment(traj):
    """True when every sample stays inside the ball of radius trace_part.

    For two levels this is the Bloch-ball condition |v| <= 1; for more
    levels positivity of each stored density matrix is checked instead,
    with -min eigenvalue from states._min_eigenvalues as the excess measure.
    An excess past PROPAGATION_TOL, or a NaN one, is a violation, answered,
    not raised.
    """
    if traj.dim == 2:
        excess = np.linalg.norm(traj.bloch, axis=1) - traj.trace_part
    else:
        excess = -_min_eigenvalues(traj.rho)
    return bool((excess <= PROPAGATION_TOL).all())
