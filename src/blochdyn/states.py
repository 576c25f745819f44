"""Density matrices and their coherence-vector coordinates.

States are plain complex ndarrays (N x N density matrices). The coherence
vector collects the expansion coefficients of a state in a fixed traceless
Hermitian basis; the trace is carried separately so that population
conservation is visible as an invariant rather than an assumption.

For N = 2 the basis is (sigma_x, sigma_y, sigma_z) and the coherence vector
is the usual Bloch vector (x, y, z) = (rho_12 + rho_21, i(rho_12 - rho_21),
rho_11 - rho_22).
"""

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import UnphysicalStateError
from .tolerances import STATE_TRACE_TOL, VALIDITY_TOL


@dataclass(frozen=True)
class CoherenceVector:
    """Real coordinates of a density matrix: basis coefficients plus trace.

    bloch has length N**2 - 1; trace_part is tr(rho), normally 1.
    """

    bloch: np.ndarray
    trace_part: float

    def __post_init__(self):
        object.__setattr__(self, "bloch", np.asarray(self.bloch, dtype=float))
        n2 = self.bloch.size + 1
        dim = int(round(np.sqrt(n2)))
        if dim * dim != n2:
            raise ValueError("bloch length must be N**2 - 1 for integer N")
        object.__setattr__(self, "dim", dim)

    @property
    def norm(self):
        return float(np.linalg.norm(self.bloch))


@lru_cache(maxsize=16)
def gell_mann_basis(dim):
    """Generalized Gell-Mann matrices for the given dimension.

    Ordered symmetric, antisymmetric, then diagonal, and normalized so
    tr(g_a g_b) = 2 delta_ab. For dim = 2 this returns exactly
    (sigma_x, sigma_y, sigma_z).
    """
    if dim < 2:
        raise ValueError("dimension must be at least 2")
    mats = []
    for j in range(dim):
        for k in range(j + 1, dim):
            m = np.zeros((dim, dim), dtype=complex)
            m[j, k] = 1.0
            m[k, j] = 1.0
            mats.append(m)
    for j in range(dim):
        for k in range(j + 1, dim):
            m = np.zeros((dim, dim), dtype=complex)
            m[j, k] = -1.0j
            m[k, j] = 1.0j
            mats.append(m)
    for l in range(1, dim):
        m = np.zeros((dim, dim), dtype=complex)
        for j in range(l):
            m[j, j] = 1.0
        m[l, l] = -float(l)
        m *= np.sqrt(2.0 / (l * (l + 1)))
        mats.append(m)
    return tuple(mats)


@lru_cache(maxsize=16)
def _extraction_maps(dim):
    # rows of R read off components tr(rho g_a) from vec(rho); columns of E
    # inject coherence directions g_a / 2 back into vec space
    basis = gell_mann_basis(dim)
    r = np.array([g.conj().reshape(-1) for g in basis])
    e = np.column_stack([g.reshape(-1) / 2.0 for g in basis])
    mixed = np.eye(dim, dtype=complex).reshape(-1) / dim
    return r, e, mixed


def density_from_coordinates(u, dim):
    """rho = (s/N) I + (1/2) sum_a v_a g_a per row u = (v, s): one matmul with [E, vec(I)/N]."""
    _, e, mixed = _extraction_maps(dim)
    return (u @ np.column_stack([e, mixed]).T).reshape(u.shape[:-1] + (dim, dim))


def check_density(rho, tol=VALIDITY_TOL, times=None):
    """Validate Hermiticity, unit trace and positivity of density matrices.

    rho is one N x N matrix or a stack of them, checked with one batched
    eigvalsh. tol bounds Hermiticity and positivity; the trace offset
    |Re tr - 1| + |Im tr| always holds to STATE_TRACE_TOL. Returns the worst
    margins over the stack; raises UnphysicalStateError for the first
    failing matrix. times, when given, labels the stack: the error then
    names that matrix's time and carries it as worst["t"].
    """
    rho = np.asarray(rho, dtype=complex)
    if rho.ndim not in (2, 3) or rho.shape[-1] != rho.shape[-2]:
        raise ValueError("density matrix must be square")
    stack = rho.reshape((-1,) + rho.shape[-2:])
    adj = stack.conj().swapaxes(1, 2)
    herm = np.max(np.abs(stack - adj), axis=(1, 2))
    tr = np.trace(stack, axis1=1, axis2=2)
    trace = np.abs(tr.real - 1.0) + np.abs(tr.imag)
    # eigvalsh assumes Hermiticity; symmetrize first so the PSD number is
    # meaningful even when the Hermiticity check is about to fail
    sym = 0.5 * (stack + adj)
    # LAPACK may fail on non-finite input; such matrices get NaN margins,
    # and the comparisons below are written so that NaN fails
    finite = np.isfinite(sym).all(axis=(1, 2))
    sym[~finite] = 0.0
    mineig = np.where(finite, np.linalg.eigvalsh(sym)[:, 0], np.nan)
    ok = (herm <= tol) & (trace <= STATE_TRACE_TOL) & (mineig >= -tol)
    if not ok.all():
        i = int(np.argmin(ok))
        worst = {"hermiticity": float(herm[i]), "trace": float(trace[i]),
                 "min_eigenvalue": float(mineig[i])}
        margins = "hermiticity %.3g, trace offset %.3g, min eigenvalue %.3g" % (
            worst["hermiticity"], worst["trace"], worst["min_eigenvalue"])
        if times is None:
            raise UnphysicalStateError(
                "unphysical state: %s (tol %.3g)" % (margins, tol), worst=worst)
        worst = {"t": float(times[i]), **worst}
        raise UnphysicalStateError(
            "state left the physical set at t=%.6g: %s" % (worst["t"], margins), worst=worst)
    return {"hermiticity": float(np.max(herm)), "trace": float(np.max(trace)),
            "min_eigenvalue": float(np.min(mineig))}


def from_pure(amplitudes):
    """Density matrix of the normalized superposition with given amplitudes."""
    c = np.asarray(amplitudes, dtype=complex).reshape(-1)
    nrm = np.linalg.norm(c)
    if nrm == 0.0:
        raise ValueError("degenerate state: zero amplitude vector")
    c = c / nrm
    return np.outer(c, c.conj())


def purity(rho):
    """tr(rho^2), in [1/N, 1]; equals 1 exactly on pure states."""
    rho = np.asarray(rho, dtype=complex)
    return float(np.real(np.sum(rho * rho.T)))


def to_coherence_vector(rho):
    """Expand a density matrix over the traceless Hermitian basis.

    Component a is tr(rho g_a); the trace rides along as trace_part.
    """
    rho = np.asarray(rho, dtype=complex)
    dim = rho.shape[0]
    basis = gell_mann_basis(dim)
    bloch = np.array([np.real(np.sum(rho * g.T)) for g in basis])
    return CoherenceVector(bloch=bloch, trace_part=float(np.real(np.trace(rho))))


def from_coherence_vector(v):
    """Reassemble the density matrix rho = (s/N) I + (1/2) sum_a v_a g_a.

    Raises UnphysicalStateError when the coordinates do not describe a
    positive matrix (for N = 2: the vector pokes outside the Bloch ball),
    and ValueError for non-finite coordinates.
    """
    if not (np.all(np.isfinite(v.bloch)) and np.isfinite(v.trace_part)):
        raise ValueError("coherence vector has non-finite coordinates")
    rho = density_from_coordinates(np.append(v.bloch, v.trace_part), v.dim)
    mineig = float(np.linalg.eigvalsh(rho)[0])
    if mineig < -VALIDITY_TOL:
        raise UnphysicalStateError(
            "unphysical state: coherence vector gives min eigenvalue %.3g"
            % mineig,
            worst={"min_eigenvalue": mineig},
        )
    return rho
