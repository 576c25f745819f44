"""Liouville-space superoperators.

Density matrices are row-stacked into vectors, vec(rho) = (rho_11, rho_12,
..., rho_1N, rho_21, ..., rho_NN), and generators become N^2 x N^2 matrices
acting on vec(rho). The module assembles the commutator part (1/i hbar)[H, .],
the dephasing/relaxation dissipator, and the explicit two-level matrices in
the same convention, and checks the structural disjointness of control and
dissipator supports.
"""

import numpy as np

from .model import _check_hermitian, transition_frequency


def vectorize(rho):
    """Row-stack a matrix into a vector."""
    rho = np.asarray(rho, dtype=complex)
    if rho.ndim != 2 or rho.shape[0] != rho.shape[1]:
        raise ValueError("expected a square matrix")
    return rho.reshape(-1)


def devectorize(v):
    """Inverse of vectorize; the length must be a perfect square."""
    v = np.asarray(v, dtype=complex).reshape(-1)
    dim = int(round(np.sqrt(v.size)))
    if dim * dim != v.size:
        raise ValueError("vector length %d is not a perfect square" % v.size)
    return v.reshape(dim, dim)


def commutator_superop(h, hbar=1.0):
    """Matrix of rho -> (1/i hbar)(H rho - rho H) on row-stacked vectors."""
    h = _check_hermitian(h, "H")
    dim = h.shape[0]
    eye = np.eye(dim)
    # entry (ij, kl) is H[i, k] delta[j, l] - delta[i, k] H[l, j]
    left = h[:, None, :, None] * eye[None, :, None, :]
    right = eye[:, None, :, None] * h.T[None, :, None, :]
    return (left - right).reshape(dim * dim, dim * dim) / (1j * hbar)


def build_dissipator(spec):
    """Dissipator superoperator from dephasing and relaxation rate matrices.

    Nonzero elements only at (kn, kn) = -dephasing[k, n] for k != n, at
    (nn, kk) = +relaxation[n, k], and at (nn, nn) = -sum_k relaxation[k, n].
    """
    dim = spec.dim
    ld = np.zeros((dim * dim, dim * dim), dtype=complex)
    # the diagonal entries at populations (nn, nn) are overwritten below
    np.fill_diagonal(ld, -spec.dephasing.reshape(-1))
    pops = np.arange(dim) * (dim + 1)
    ld[pops[:, None], pops] += spec.relaxation
    ld[pops, pops] = 0.0 - spec.relaxation.sum(axis=0)
    return ld


def qubit_superoperators(sys, spec):
    """The explicit 4x4 generator pieces (L0, L1, L2, LD) of a driven qubit.

    L0, L1, L2 are the raw commutator matrices of H0, H1, H2 (the physical
    generator is (1/i hbar)(L0 + f1 L1 + f2 L2) + LD). Entries are written
    out so they can be compared symbol by symbol against the kron-built
    construction.
    """
    if sys.dim != 2 or spec.dim != 2:
        raise ValueError("explicit superoperators are defined for two levels")
    hbar = sys.hbar
    omega = transition_frequency(sys, 0, 1)
    d1 = float(np.real(sys.controls[0][0, 1]))
    d2 = float(np.imag(sys.controls[1][1, 0]))
    l0 = np.diag([0.0, -hbar * omega, hbar * omega, 0.0]).astype(complex)
    l1 = d1 * np.array(
        [
            [0, -1, 1, 0],
            [-1, 0, 0, 1],
            [1, 0, 0, -1],
            [0, 1, -1, 0],
        ],
        dtype=complex,
    )
    l2 = d2 * np.array(
        [
            [0, -1j, -1j, 0],
            [1j, 0, 0, -1j],
            [1j, 0, 0, -1j],
            [0, 1j, 1j, 0],
        ],
        dtype=complex,
    )
    gam = spec.dephasing[0, 1]
    g12 = spec.relaxation[0, 1]
    g21 = spec.relaxation[1, 0]
    ld = np.array(
        [
            [-g21, 0, 0, g12],
            [0, -gam, 0, 0],
            [0, 0, -gam, 0],
            [g21, 0, 0, -g12],
        ],
        dtype=complex,
    )
    return l0, l1, l2, ld


def total_generator(sys, spec, f):
    """(1/i hbar)(L0 + sum_m f_m L_m) + LD for a constant amplitude vector."""
    f = np.atleast_1d(np.asarray(f, dtype=float))
    if f.size != sys.n_controls:
        raise ValueError(
            "expected %d field amplitudes, got %d" % (sys.n_controls, f.size)
        )
    if sys.dim != spec.dim:
        raise ValueError("system and dissipation dimensions differ")
    return commutator_superop(sys.hamiltonian(f), sys.hbar) + build_dissipator(spec)


def trace_residual(superop):
    """Worst violation of trace preservation (left action on the trace row).

    The functional v -> tr(devectorize(v)) is the row vector vec(I)^T; a
    trace-preserving generator must be annihilated by it.
    """
    superop = np.asarray(superop, dtype=complex)
    dim = int(round(np.sqrt(superop.shape[0])))
    tr_row = np.eye(dim, dtype=complex).reshape(-1)
    return float(np.max(np.abs(tr_row @ superop)))


def support_overlap(controls, dissipator, threshold=0.0):
    """Index pairs where control generators and the dissipator both live.

    Returns the sorted tuple of (row, col) positions at which some control
    superoperator and the dissipator both exceed threshold in magnitude. An
    empty result certifies that no choice of field amplitudes can cancel the
    dissipator entrywise: the two act on disjoint matrix elements.
    """
    dissipator = np.asarray(dissipator, dtype=complex)
    dmask = np.abs(dissipator) > threshold
    cmask = np.zeros_like(dmask)
    for c in controls:
        c = np.asarray(c, dtype=complex)
        if c.shape != dissipator.shape:
            raise ValueError("control and dissipator dimensions differ")
        cmask |= np.abs(c) > threshold
    rows, cols = np.nonzero(dmask & cmask)
    return tuple(sorted(zip(rows.tolist(), cols.tolist())))
