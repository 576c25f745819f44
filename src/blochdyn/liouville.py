"""Liouville-space superoperators.

Density matrices are row-stacked into vectors, vec(rho) = (rho_11, rho_12,
..., rho_1N, rho_21, ..., rho_NN), and generators become N^2 x N^2 matrices
acting on vec(rho). The module assembles the commutator part (1/i hbar)[H, .],
the dephasing/relaxation dissipator, the stack of pieces (L0, L_m, L_D) from
which every other module reads the controlled generator, and the explicit
two-level matrices in the same convention, and checks the structural
disjointness of control and dissipator supports.
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


def generator_pieces(sys, spec):
    """The list [L0, L_1..L_M, L_D] of N^2 x N^2 generator pieces.

    L0 and L_m are the commutator superoperators (1/i hbar)[H0, .] and
    (1/i hbar)[H_m, .], L_D is the dissipator, so that the generator at
    constant amplitudes f is L(f) = L0 + sum_m f_m L_m + L_D.
    """
    if sys.dim != spec.dim:
        raise ValueError("system and dissipation dimensions differ")
    pieces = [commutator_superop(h, sys.hbar) for h in (sys.h0,) + sys.controls]
    return pieces + [build_dissipator(spec)]


def _combine(pieces, f):
    """pieces[0] + sum_m f_m pieces[m] + pieces[-1] for a stack of M + 2 pieces.

    Serves the complex pieces and their real affine embeddings alike.
    """
    pieces = np.asarray(pieces)
    f = np.atleast_1d(np.asarray(f, dtype=float))
    if f.size != len(pieces) - 2:
        raise ValueError("expected %d field amplitudes, got %d" % (len(pieces) - 2, f.size))
    weights = np.concatenate(([1.0], f, [1.0]))
    return (weights @ pieces.reshape(len(pieces), -1)).reshape(pieces.shape[1:])


def total_generator(sys, spec, f):
    """L(f) = L0 + sum_m f_m L_m + L_D from generator_pieces, for constant amplitudes f."""
    if not np.all(np.isfinite(f)):
        raise ValueError("field amplitudes must be finite")
    return _combine(generator_pieces(sys, spec), f)


def trace_residual(superop):
    """Worst violation of trace preservation (left action on the trace row).

    The functional v -> tr(devectorize(v)) is the row vector vec(I)^T; a
    trace-preserving generator must be annihilated by it.
    """
    superop = np.asarray(superop, dtype=complex)
    dim = int(round(np.sqrt(superop.shape[0])))
    tr_row = np.eye(dim, dtype=complex).reshape(-1)
    return float(np.max(np.abs(tr_row @ superop)))


def support_overlap(controls, dissipator):
    """Index pairs where control generators and the dissipator both live.

    Returns the sorted tuple of (row, col) positions at which some control
    superoperator and the dissipator are both nonzero. An empty result
    certifies that no choice of field amplitudes can cancel the dissipator
    entrywise: the two act on disjoint matrix elements.
    """
    dissipator = np.asarray(dissipator, dtype=complex)
    dmask = dissipator != 0
    cmask = np.zeros_like(dmask)
    for c in controls:
        c = np.asarray(c, dtype=complex)
        if c.shape != dissipator.shape:
            raise ValueError("control and dissipator dimensions differ")
        cmask |= c != 0
    rows, cols = np.nonzero(dmask & cmask)
    return tuple(sorted(zip(rows.tolist(), cols.tolist())))
