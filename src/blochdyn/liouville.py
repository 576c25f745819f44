"""Liouville-space superoperators.

Density matrices are row-stacked into vectors, vec(rho) = (rho_11, rho_12,
..., rho_1N, rho_21, ..., rho_NN), and generators become N^2 x N^2 matrices
acting on vec(rho). The module assembles the commutator part (1/i hbar)[H, .],
the dephasing/relaxation dissipator and the stack of pieces (L0, L_m, L_D)
from which every other module reads the controlled generator, reads the raw
two-level pieces back from that stack, and checks the structural
disjointness of control and dissipator supports.
"""

import numpy as np

from .errors import InputError
from .model import _check_hermitian
from .tolerances import real_valued


def vectorize(rho):
    """Row-stack a matrix into a vector."""
    rho = np.asarray(rho, dtype=complex)
    if rho.ndim != 2 or rho.shape[0] != rho.shape[1]:
        raise InputError("expected a square matrix")
    return rho.reshape(-1)


def commutator_superop(h, hbar=1.0):
    """Matrix of rho -> (1/i hbar)(H rho - rho H) on row-stacked vectors."""
    return _commutator(_check_hermitian(h, "H"), hbar)


def _commutator(h, hbar):
    """commutator_superop of an h already checked, as every ControlSystem matrix is."""
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
    """The raw pieces (L0, L_1..L_M, L_D) of a two-level system, as one stack.

    L0 and L_m are the commutator matrices of rho -> H rho - rho H for H0
    and H_m, generator_pieces' Hamiltonian pieces times i hbar, so that the
    generator is (1/i hbar)(L0 + sum_m f_m L_m) + L_D; L_D is the
    dissipator. For qubit_system they are the paper's 4x4 displays.
    """
    if sys.dim != 2 or spec.dim != 2:
        raise InputError("explicit superoperators are defined for two levels")
    pieces = generator_pieces(sys, spec)
    pieces[:-1] *= 1j * sys.hbar
    return pieces


def generator_pieces(sys, spec):
    """The (M + 2, N^2, N^2) stack [L0, L_1..L_M, L_D] of generator pieces.

    L0 and L_m are the commutator superoperators (1/i hbar)[H0, .] and
    (1/i hbar)[H_m, .], L_D is the dissipator, so that the generator at
    constant amplitudes f is L(f) = L0 + sum_m f_m L_m + L_D.
    """
    if sys.dim != spec.dim:
        raise InputError("system and dissipation dimensions differ")
    # finite entries can still overflow in a commutator (H0 = diag(1e308,
    # -1e308)); that is reported here once rather than as warnings and NaN
    # states downstream
    with np.errstate(over="ignore", invalid="ignore"):
        pieces = np.array([_commutator(h, sys.hbar) for h in (sys.h0,) + sys.controls]
                          + [build_dissipator(spec)])
    return _finite_pieces(pieces)


def _finite_pieces(pieces):
    """pieces, once every entry is finite; InputError when assembly overflowed."""
    if not np.isfinite(pieces).all():
        raise InputError("generator pieces overflow: Hamiltonian or rates too large")
    return pieces


def _combine(pieces, f):
    """pieces[0] + sum_m f_m pieces[m] + pieces[-1] for a stack of M + 2 pieces.

    Serves the complex pieces and their real affine embeddings alike; the
    amplitudes are those _admit has passed, so their imaginary parts are zero.
    """
    pieces = np.asarray(pieces)
    weights = np.concatenate(([1.0], np.real(np.atleast_1d(f)), [1.0]))
    return (weights @ pieces.reshape(len(pieces), -1)).reshape(pieces.shape[1:])


def _admit(pieces, rows, name):
    """Entry bounds of the Hamiltonian parts of _combine(pieces, f), one per amplitude row f.

    Every caller runs this before it weights the stack. The bound for a row
    is max|pieces[0]| + sum_m |f_m| max|pieces[m]|, and adding max|pieces[-1]|
    bounds every entry of the whole, so one product per call serves the
    overflow check here and the phase check in propagate. InputError refuses
    the first row with other than len(pieces) - 2 amplitudes, a complex or
    non-finite amplitude, or a bound that overflows, named by name(k) for row k.
    """
    pieces = np.asarray(pieces)
    width = len(pieces) - 2
    rows = np.asarray(rows)
    if len(rows) and rows.shape[1:] != (width,):
        raise InputError("%s: expected %d field amplitudes, got %d"
                         % (name(0), width, rows[0].size))
    rows = rows.reshape(len(rows), width)
    k = np.imag(rows).any(axis=1).argmax() if len(rows) else 0  # the first complex row, if any
    rows = real_valued("%s: field amplitudes" % name(k), rows)
    scale = np.abs(pieces).max(axis=(1, 2))
    with np.errstate(over="ignore", invalid="ignore"):
        # a non-finite amplitude makes its bound inf or NaN, against a zero piece too
        ham = (np.abs(rows) * scale[1:-1]).sum(axis=1) + scale[0]
        ok = np.isfinite(ham + scale[-1])
    if not ok.all():
        k = int(ok.argmin())
        raise InputError("%s: field amplitudes %s" % (name(k), "overflow the generator"
                                                      if np.isfinite(rows[k]).all()
                                                      else "must be finite"))
    return ham


def total_generator(sys, spec, f):
    """L(f) = L0 + sum_m f_m L_m + L_D from generator_pieces, for constant amplitudes f."""
    pieces = generator_pieces(sys, spec)
    _admit(pieces, [np.atleast_1d(f)], lambda k: "f")
    return _combine(pieces, f)


def trace_residual(superop):
    """Worst violation of trace preservation (left action on the trace row).

    The trace of a row-stacked matrix v is the functional vec(I)^T v; a
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
    controls = np.asarray(controls, dtype=complex)
    if len(controls) and controls.shape[1:] != dissipator.shape:
        raise InputError("control and dissipator dimensions differ")
    # no controls reduce to a scalar False, which empties the overlap
    rows, cols = np.nonzero((dissipator != 0) & (controls != 0).any(axis=0))
    return tuple(sorted(zip(rows.tolist(), cols.tolist())))
