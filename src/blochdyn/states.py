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

from .errors import InputError, UnphysicalStateError
from .liouville import vectorize
from .tolerances import (CERTIFICATE_SLACK, STATE_TRACE_TOL, VALIDITY_TOL, positive_finite,
                         real_valued)


@dataclass(frozen=True)
class CoherenceVector:
    """Real coordinates of a density matrix: basis coefficients plus trace.

    bloch has length N**2 - 1; trace_part is tr(rho), which must be 1.
    Both are real: InputError names either for a nonzero imaginary part.
    """

    bloch: np.ndarray
    trace_part: float

    def __post_init__(self):
        object.__setattr__(self, "bloch", real_valued("bloch", self.bloch))
        object.__setattr__(self, "trace_part", float(real_valued("trace_part", self.trace_part)))
        n2 = self.bloch.size + 1
        dim = int(round(np.sqrt(n2)))
        if dim * dim != n2:
            raise InputError("bloch length must be N**2 - 1 for integer N")
        object.__setattr__(self, "dim", dim)


@lru_cache(maxsize=16)
def gell_mann_basis(dim):
    """Generalized Gell-Mann matrices for the given dimension.

    Ordered symmetric, antisymmetric, then diagonal, and normalized so
    tr(g_a g_b) = 2 delta_ab. For dim = 2 this returns exactly
    (sigma_x, sigma_y, sigma_z).
    """
    if dim < 2:
        raise InputError("dimension must be at least 2")
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


@lru_cache(maxsize=16)
def _rebuild_map(dim):
    # [E, vec(I)/N]^T with the real and imaginary part of each entry side by
    # side, the layout of a complex array viewed as float
    _, e, mixed = _extraction_maps(dim)
    c = np.column_stack([e, mixed]).T
    return np.stack([c.real, c.imag], axis=-1).reshape(len(c), -1)


def density_from_coordinates(u, dim):
    """rho = (s/N) I + (1/2) sum_a v_a g_a per row u = (v, s).

    The coordinates are real, so one real product with _rebuild_map writes
    the real and imaginary parts straight into the complex result.
    """
    lead = np.shape(u)[:-1]
    rho = np.empty(lead + (dim, dim), dtype=complex)
    np.matmul(u, _rebuild_map(dim), out=rho.view(float).reshape(lead + (-1,)))
    return rho


def _offsets(stack):
    """Hermiticity max|rho_ij - conj rho_ji| and trace offset |Re tr - 1| + |Im tr| per matrix.

    Reads the upper triangle only, the diagonal as |rho_ii - conj rho_ii| so
    that NaN propagates: the values over the full matrix, bit for bit.
    """
    i, j = np.triu_indices(stack.shape[-1])
    herm = np.abs(stack[:, i, j] - stack[:, j, i].conj()).max(axis=1)
    tr = np.diagonal(stack, axis1=1, axis2=2).sum(axis=1)
    return herm, np.abs(tr.real - 1.0) + np.abs(tr.imag)


def _margins(stack):
    """_offsets plus the min eigenvalue per matrix, from one batched eigvalsh over the stack."""
    # eigvalsh assumes Hermiticity; symmetrize first so the PSD number is
    # meaningful even when the Hermiticity check is about to fail
    sym = 0.5 * (stack + stack.conj().swapaxes(1, 2))
    # LAPACK may fail on non-finite input; such matrices get NaN margins,
    # and the comparisons of check_density are written so that NaN fails
    finite = np.isfinite(sym).all(axis=(1, 2))
    sym[~finite] = 0.0
    return *_offsets(stack), np.where(finite, np.linalg.eigvalsh(sym)[:, 0], np.nan)


def _certified(stack, tol):
    """True when the stack, shape (K, N, N), is proven to pass check_density(stack, tol).

    Hermiticity and trace come from _offsets, as in check_density. The
    Hermitian matrix read from the lower triangle lies within
    r = (N - 1) herm / 2 of the symmetrized one in the 2-norm, so one batched
    Cholesky factorization of it plus (tau - r) I, tau = tol
    (1 - CERTIFICATE_SLACK), proves check_density's margin >= -tol up to
    rounding, at every N; it raises for the whole stack if one factor fails.
    False proves nothing; check_density decides.
    """
    herm, trace = _offsets(stack)
    if not (stack.size and (herm <= tol).all() and (trace <= STATE_TRACE_TOL).all()):
        return False
    n = stack.shape[-1]
    try:
        np.linalg.cholesky(stack + (tol * (1.0 - CERTIFICATE_SLACK)
                                    - (n - 1) * herm.max(initial=0.0) / 2) * np.eye(n))
    except np.linalg.LinAlgError:
        return False
    return True


def _require_density(rho, tol=VALIDITY_TOL, times=None):
    """check_density's verdict and errors, with _certified sparing its eigenvalues on a pass."""
    rho = np.asarray(rho, dtype=complex)
    if rho.ndim not in (2, 3) or rho.shape[-1] != rho.shape[-2] or not _certified(
            rho.reshape((-1,) + rho.shape[-2:]), tol):
        check_density(rho, tol, times)


def check_density(rho, tol=VALIDITY_TOL, times=None):
    """Validate Hermiticity, unit trace and positivity of density matrices.

    rho is one N x N matrix or a nonempty stack of them, checked together
    by _margins. tol, positive and finite, bounds Hermiticity and
    positivity; the trace offset |Re tr - 1| + |Im tr| always holds to
    STATE_TRACE_TOL. Raises UnphysicalStateError naming the margins of the
    first failing matrix, and its time when times labels the stack.
    """
    positive_finite("tol", tol)
    rho = np.asarray(rho, dtype=complex)
    if rho.ndim not in (2, 3) or rho.shape[-1] != rho.shape[-2] or not rho.size:
        raise InputError("density matrix must be square and nonempty")
    herm, trace, mineig = _margins(rho.reshape((-1,) + rho.shape[-2:]))
    ok = (herm <= tol) & (trace <= STATE_TRACE_TOL) & (mineig >= -tol)
    if not ok.all():
        i = int(np.argmin(ok))
        margins = "hermiticity %.3g, trace offset %.3g, min eigenvalue %.3g" % (
            herm[i], trace[i], mineig[i])
        if times is None:
            raise UnphysicalStateError("unphysical state: %s (tol %.3g)" % (margins, tol))
        raise UnphysicalStateError(
            "state left the physical set at t=%.6g: %s" % (times[i], margins))


def from_pure(amplitudes):
    """Density matrix of the normalized superposition with given finite amplitudes.

    The amplitudes are first scaled by the power of two at their largest real
    or imaginary part, which is exact, so that no finite amplitude vector
    overflows or underflows on the way to its norm.
    """
    c = np.array(amplitudes, dtype=complex).reshape(-1)
    if not np.isfinite(c).all():
        raise InputError("pure-state amplitudes must be finite")
    parts = c.view(float)
    top = np.abs(parts).max(initial=0.0)
    if top == 0.0:
        raise InputError("degenerate state: zero amplitude vector")
    np.ldexp(parts, -np.frexp(top)[1], out=parts)
    c = c / np.linalg.norm(c)
    return np.outer(c, c.conj())


def to_coherence_vector(rho):
    """Expand a density matrix over the traceless Hermitian basis.

    Component a is tr(rho g_a), read off vec(rho) by the rows of R from
    _extraction_maps; the trace rides along as trace_part.
    """
    rho = np.asarray(rho, dtype=complex)
    return CoherenceVector(bloch=np.real(_extraction_maps(len(rho))[0] @ vectorize(rho)),
                           trace_part=float(np.real(np.trace(rho))))


def from_coherence_vector(v):
    """Reassemble the density matrix rho = (s/N) I + (1/2) sum_a v_a g_a.

    check_density raises UnphysicalStateError unless trace_part is 1 and rho
    is positive (for N = 2: the vector stays inside the Bloch ball), as for
    every state. Non-finite coordinates raise InputError.
    """
    if not (np.all(np.isfinite(v.bloch)) and np.isfinite(v.trace_part)):
        raise InputError("coherence vector has non-finite coordinates")
    rho = density_from_coordinates(np.append(v.bloch, v.trace_part), v.dim)
    check_density(rho)
    return rho
