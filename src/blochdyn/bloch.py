"""Affine coherence-vector generators.

A trace-preserving Liouville generator L induces an affine flow on the
coherence vector, d/dt v = A v + b, with A real of size (N^2-1) x (N^2-1)
and b a real translation. to_affine extracts the pair from any such L by
pushing the basis directions and the maximally mixed state through it. The
pieces of a controlled system skip L: _affine_pieces reads them from H and
the rates in closed form, through the Gell-Mann structure constants, and
both are checkable against the closed forms of the two-level system.
"""

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import InputError
from .liouville import _finite_pieces, build_dissipator, trace_residual
from .states import (_extraction_maps, _min_eigenvalues, _unproven,
                     density_from_coordinates, gell_mann_basis)
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
    no affine restriction and are rejected, and so are non-finite ones and
    those whose images overflow.
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
    r, e, mixed = _extraction_maps(dim)
    m = np.zeros((dim * dim, dim * dim))
    with np.errstate(over="ignore", invalid="ignore"):
        rl = r @ superop
        m[:-1, :-1] = (rl @ e).real
        m[:-1, -1] = (rl @ mixed).real
    m = _finite_pieces(m)
    return AffineGenerator(a=m[:-1, :-1], b=m[:-1, -1])


@lru_cache(maxsize=16)
def _structure_table(dim):
    """Nonzeros of T_c for the off-diagonal g_c, as arrays (c, a (n + 1) + b, T_c[a, b]).

    T_c is the A of (1/i)[g_c / 2, .], so T_c[a, b] = Re tr(g_a (1/i)[g_c, g_b]) / 4
    = Im tr(g_a g_c g_b) / 2, as tr(g_a g_b g_c) is the conjugate of
    tr(g_a g_c g_b) for Hermitian g. Each trace is summed over the cycles
    g_a[i, j] g_c[j, l] g_b[l, i] of nonzero basis entries, with no
    n x n x n array: N = 8 has 1,764 nonzeros, found in a few ms. The second
    index addresses a flattened (n + 1) x (n + 1) embedding, n = N^2 - 1.
    """
    basis = np.array(gell_mann_basis(dim))
    n = len(basis)
    k, i, j = np.nonzero(basis)
    v = basis[k, i, j]
    # entries x at (i, j) and y at (j, l), y of an off-diagonal g_c, closed by z at (l, i)
    x, y = np.nonzero((j[:, None] == i) & (k < dim * (dim - 1)))
    p, z = np.nonzero((j[y] * dim + i[x])[:, None] == i * dim + j)
    x, y = x[p], y[p]
    keys, sums = np.unique((k[y] * n + k[x]) * n + k[z], return_inverse=True)
    t = np.bincount(sums, (v[x] * v[y] * v[z]).imag / 2)
    c, a, b = np.unravel_index(keys[t != 0], (n, n, n))
    return c, a * (n + 1) + b, t[t != 0]


def _affine_pieces(sys, spec):
    """The (M + 2, n + 1, n + 1) stack [[A, b], [0, 0]] of L0, L_1..L_M and L_D, n = N^2 - 1.

    The images to_affine gives each of liouville.generator_pieces, to
    rounding, read from H0, the H_m, hbar and the rates with no N^2 x N^2
    array on the way. (1/i hbar)[H, .] has b = 0. Its diagonal turns the
    coherence (j, k) at w_jk = (H_jj - H_kk) / hbar: the pair's coordinates
    (x, y) move as dx/dt = -w y, dy/dt = w x. The off-diagonal part gives
    sum_c h_c T_c / hbar, with h_c = tr(H g_c) over the off-diagonal g_c and
    T_c from _structure_table, summed in a fixed order; no T_c has an entry
    at the pairs (x, y). The dissipator damps both coordinates of the
    coherence (j, k) at dephasing[j, k]. The populations
    p = (s / N) 1 + (1 / 2) D^T v, with row l of D the diagonal of the
    diagonal g_l, move as dp/dt = W p with W = relaxation minus the diagonal
    of its column sums, so the diagonal coordinates get the block
    (1 / 2) D W D^T of A and b = D W 1 / N. Sums that overflow raise
    InputError, as in generator_pieces.
    """
    if sys.dim != spec.dim:
        raise InputError("system and dissipation dimensions differ")
    dim = sys.dim
    n = dim * dim - 1
    j, k = np.triu_indices(dim, 1)
    x, y = np.arange(len(j)), np.arange(len(j), 2 * len(j))  # the pairs' coordinates
    c, ab, t = _structure_table(dim)
    hs = np.array((sys.h0,) + sys.controls)
    count = len(hs)
    up, down, e = hs[:, j, k], hs[:, k, j], np.diagonal(hs, axis1=1, axis2=2).real
    d = np.diagonal(gell_mann_basis(dim)[2 * len(j):], axis1=1, axis2=2).real
    w = spec.relaxation - np.diag(spec.relaxation.sum(axis=0))
    with np.errstate(over="ignore", invalid="ignore"):
        h = np.concatenate([up.real + down.real, down.imag - up.imag], axis=1) / sys.hbar
        out = np.bincount((np.arange(count)[:, None] * (n + 1) ** 2 + ab).reshape(-1),
                          (h[:, c] * t).reshape(-1), minlength=(count + 1) * (n + 1) ** 2)
        out = out.reshape(count + 1, n + 1, n + 1)
        turn = (e[:, j] - e[:, k]) / sys.hbar
        out[:-1, x, y], out[:-1, y, x] = -turn, turn
        out[-1, x, x] = out[-1, y, y] = -spec.dephasing[j, k]
        dw = d @ w  # as R L rounds it, fused multiply-adds and all: the goldens read it
        out[-1, 2 * len(j):n, 2 * len(j):n] = dw @ (d / 2).T
        out[-1, 2 * len(j):n, n] = dw @ np.full(dim, 1.0 / dim)
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
    levels positivity of each sample's density matrix is checked instead,
    with -min eigenvalue as the excess measure. The samples are proven from
    their coordinates first, by states._unproven at PROPAGATION_TOL, and
    only the matrices it leaves are rebuilt for states._min_eigenvalues. An
    excess past PROPAGATION_TOL, or a non-finite sample, is a violation,
    answered, not raised.
    """
    if traj.dim == 2:
        excess = np.linalg.norm(traj.bloch, axis=1) - traj.trace_part
        return bool((excess <= PROPAGATION_TOL).all())
    us = np.column_stack([traj.bloch, traj.trace_part])
    if not np.isfinite(us).all():
        return False
    n = traj.dim
    left = _unproven(lambda index: density_from_coordinates(us[index], n), len(us), n,
                     PROPAGATION_TOL, us=us)
    if not left.size:
        return True
    return bool((-_min_eigenvalues(density_from_coordinates(us[left], n))
                 <= PROPAGATION_TOL).all())
