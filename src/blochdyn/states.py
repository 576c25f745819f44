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
from .tolerances import (ANCHOR_ROUNDING, ANCHOR_STRIDE, CERTIFICATE_SLACK, STATE_TRACE_TOL,
                         STEP_BATCH_BYTES, VALIDITY_TOL, positive_finite, real_valued)


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


def _min_eigenvalues(stack):
    """Least eigenvalue per matrix of the stack, by one batched eigvalsh of its Hermitian part."""
    # eigvalsh assumes Hermiticity; symmetrize first so the PSD number is
    # meaningful even when the Hermiticity check is about to fail. Halving
    # each term first is exact, and no finite sum overflows
    sym = 0.5 * stack + 0.5 * stack.conj().swapaxes(1, 2)
    # LAPACK may fail on non-finite input; such matrices get NaN, and the
    # comparisons of check_density are written so that NaN fails
    finite = np.isfinite(sym).all(axis=(1, 2))
    sym[~finite] = 0.0
    return np.where(finite, np.linalg.eigvalsh(sym)[:, 0], np.nan)


def _factorable(stack):
    """True when one batched Cholesky factorization of the stack succeeds with a finite factor.

    LAPACK can return an infinite or NaN factor without an error when the
    entries overflow, as for [[0.5, 1.7e308], [1.7e308, 0.5]]; that proves
    nothing.
    """
    try:
        return bool(np.isfinite(np.linalg.cholesky(stack)).all())
    except np.linalg.LinAlgError:
        return False


def _factors(stack):
    """Which matrices of the stack have a Cholesky factor, from batched calls.

    A range that fails is halved, and each half factored; when both halves
    fail, the whole range counts as failing. So a stack costs at most
    1 + 2 log2(K) calls however its failures fall, and one run of failures
    is narrowed to within twice its length. On trajectory_dense's inputs
    (seed 7001) 2 of the first 12 ops leave the first 15 anchors of their
    N = 8 call, where the state decays fastest, unproven; the halving sends
    136 and 168 samples to the certificate instead of all 2,000, and the op
    takes 8.6 instead of 12.7 ms (one BLAS thread, median of 40).
    """
    if _factorable(stack):
        return np.ones(len(stack), dtype=bool)
    ok = np.zeros(len(stack), dtype=bool)
    lo, hi = 0, len(stack)
    while hi - lo > 1:  # stack[lo:hi] fails
        mid = (lo + hi) // 2
        first, second = _factorable(stack[lo:mid]), _factorable(stack[mid:hi])
        if first == second:
            break
        ok[lo:mid], ok[mid:hi] = first, second
        lo, hi = (mid, hi) if first else (lo, mid)
    return ok


def _unproven(rows, k, n, tol, herm=0.0, us=None):
    """Indices of the k N x N matrices rows(index) gives whose positivity to tol is left unproven.

    rows(index) returns the matrices of those indices in a new array; their
    Hermiticity offsets are at most herm. A Cholesky factor of
    rho + (tau - r) I, with tau = tol (1 - CERTIFICATE_SLACK) and
    r = (N - 1) herm / 2, proves min eigenvalue >= -tol, as in check_density.

    Anchors come first when the coordinates us of more than ANCHOR_STRIDE
    matrices are given, row j u_j = (v_j, s_j) for the Hermitian part
    rho_j = (s_j / N) I + (1/2) sum_a v_a g_a. The rows are grouped
    ANCHOR_STRIDE at a time, each group's middle row k is its anchor,
    and delta_k bounds the distance of a row of the group from it:
    norm(rho_j - rho_k, F) = sqrt(norm(v_j - v_k)^2 / 2 + (s_j - s_k)^2 / N)
    <= norm(u_j - u_k) / sqrt 2. By Weyl's inequality lambda_min(rho_j) >=
    lambda_min(rho_k) - delta_k, so a Cholesky factor of an anchor's
    rho_k + (tau - r - delta_k - a) I, from _factors, proves its group.
    lambda_min(rho_k) <= s_k / N - norm(v_k) / sqrt(2 N (N - 1)), so an
    anchor that this bound rules out, such as a pure state that moves, is
    not tried; with s_k within STATE_TRACE_TOL of 1, a tried anchor lies
    inside the ball with delta_k below 1/N + tau, where a = ANCHOR_ROUNDING
    N^2 covers the rounding of the coordinates, the matrices and the
    distances. The matrices of the groups left go to the certificate, one
    batched Cholesky of rho_j + (tau - r) I, and are returned unless it
    proves them all.
    """
    tau = tol * (1.0 - CERTIFICATE_SLACK) - (n - 1) * herm / 2
    left = np.arange(k)
    if us is not None and k > ANCHOR_STRIDE:
        mids = np.minimum(np.arange(ANCHOR_STRIDE // 2, k + ANCHOR_STRIDE // 2, ANCHOR_STRIDE),
                          k - 1)
        anchors = us[mids]
        proven = np.zeros(len(mids), dtype=bool)
        with np.errstate(over="ignore", invalid="ignore"):  # an anchor that overflows is not tried
            v_norm = np.sqrt(np.einsum("ij,ij->i", anchors[:, :-1], anchors[:, :-1]))
            bound = anchors[:, -1] / n - v_norm / np.sqrt(2.0 * n * (n - 1))
            # the step after the anchor bounds delta_k from below, so the
            # shift from above
            d = us[np.minimum(mids + 1, k - 1)] - anchors
            shift = tau - ANCHOR_ROUNDING * n * n - np.sqrt(np.einsum("ij,ij->i", d, d) / 2)
            tried = np.flatnonzero(bound + shift > 0)
            if tried.size:
                dist = np.empty(len(mids))
                # STEP_BATCH_BYTES of coordinates at a time, whole groups only
                chunk = ANCHOR_STRIDE * max(1, STEP_BATCH_BYTES // (8 * n * n * ANCHOR_STRIDE))
                for lo in range(0, k, chunk):
                    part = us[lo:lo + chunk]
                    group = slice(lo // ANCHOR_STRIDE, (lo + chunk) // ANCHOR_STRIDE)
                    d = part - np.repeat(anchors[group], ANCHOR_STRIDE, axis=0)[:len(part)]
                    dist[group] = np.maximum.reduceat(np.einsum("ij,ij->i", d, d),
                                                      np.arange(0, len(part), ANCHOR_STRIDE))
                shift = tau - ANCHOR_ROUNDING * n * n - np.sqrt(dist / 2)
                tried = tried[bound[tried] + shift[tried] > 0]
        if tried.size:
            m = rows(mids[tried])
            m.reshape(len(m), -1)[:, ::n + 1] += shift[tried, None]  # the diagonals
            proven[tried] = _factors(m)
        left = np.flatnonzero(~np.repeat(proven, ANCHOR_STRIDE)[:k])
    if left.size:
        m = rows(left)
        m.reshape(len(m), -1)[:, ::n + 1] += tau
        if _factorable(m):
            return left[:0]
    return left


def check_density(rho, tol=VALIDITY_TOL, times=None):
    """Validate Hermiticity, unit trace and positivity of density matrices.

    rho is one N x N matrix or a nonempty stack of them, checked together.
    tol, positive and finite, bounds Hermiticity and positivity; the trace
    offset |Re tr - 1| + |Im tr| always holds to STATE_TRACE_TOL. Raises
    UnphysicalStateError naming the margins of the first failing matrix, and
    its time when times labels the stack.

    Hermiticity and trace come from _offsets. When they pass, _unproven
    proves positivity without eigenvalues by the certificate, one batched
    Cholesky, where the Hermitian matrix read from the lower triangle, which
    Cholesky factors, lies within (N - 1) herm / 2 of the symmetrized one in
    the 2-norm. Cholesky and eigvalsh err by a few N eps for a unit-trace
    state, which tol CERTIFICATE_SLACK covers. The min eigenvalues of the
    matrices left unproven, from _min_eigenvalues, decide. propagate's
    samples enter at the positivity stage, from their coordinates
    (_check_coordinates), where anchors prove them first: their Hermiticity
    and trace hold by construction, so reading them from matrices would
    tell nothing.
    """
    positive_finite("tol", tol)
    rho = np.asarray(rho, dtype=complex)
    if rho.ndim not in (2, 3) or rho.shape[-1] != rho.shape[-2] or not rho.size:
        raise InputError("density matrix must be square and nonempty")
    stack = rho.reshape((-1,) + rho.shape[-2:])
    k, n = stack.shape[:2]
    herm, trace = _offsets(stack)
    left = np.arange(k)
    if (herm <= tol).all() and (trace <= STATE_TRACE_TOL).all():
        left = _unproven(stack.__getitem__, k, n, tol, herm.max())
        if not left.size:
            return
    _judge(stack, herm, trace, left, tol, times)


def _judge(stack, herm, trace, left, tol, times):
    """Raise check_density's error for the first failing matrix of the stack, if any.

    herm and trace are its _offsets; the min eigenvalues of the matrices at
    the indices left decide their positivity, and the others are proven.
    """
    mineig = np.zeros(len(stack))
    mineig[left] = _min_eigenvalues(stack[left])
    ok = (herm <= tol) & (trace <= STATE_TRACE_TOL) & (mineig >= -tol)
    if not ok.all():
        i = int(np.argmin(ok))
        margins = "hermiticity %.3g, trace offset %.3g, min eigenvalue %.3g" % (
            herm[i], trace[i], mineig[i])
        if times is None:
            raise UnphysicalStateError("unphysical state: %s (tol %.3g)" % (margins, tol))
        raise UnphysicalStateError(
            "state left the physical set at t=%.6g: %s" % (times[i], margins))


def _check_coordinates(us, tol, times):
    """check_density(density_from_coordinates(us, N), tol, times), read from the coordinates.

    The rows u = (v, s) come from propagate. Their matrices are Hermitian bit
    for bit, since every off-diagonal entry is one coordinate times 1/2. Every
    step operator has last row (0, ..., 0, 1) exactly, so s is the initial
    state's trace bit for bit, and the rebuilt trace is s to a few N eps,
    which STATE_TRACE_TOL CERTIFICATE_SLACK covers. So the trace is read from
    s and positivity from _unproven, and the stack is rebuilt only when some
    row is left unproven; then its _offsets and the eigenvalues of the rows
    left decide, as in check_density. Coordinates that are not finite, or
    an s that fails, go to check_density over the rebuilt stack.
    """
    k, order = us.shape
    n = round(order ** 0.5)

    def rows(index):
        return density_from_coordinates(us if len(index) == k else us[index], n)

    if not (np.isfinite(us).all()
            and (np.abs(us[:, -1] - 1.0) <= STATE_TRACE_TOL * (1.0 - CERTIFICATE_SLACK)).all()):
        check_density(density_from_coordinates(us, n), tol, times)
        return
    left = _unproven(rows, k, n, tol, us=us)
    if left.size:
        stack = density_from_coordinates(us, n)
        _judge(stack, *_offsets(stack), left, tol, times)


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
