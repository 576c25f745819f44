"""Dynamical Lie algebras by commutator closure.

The closure algorithm repeatedly adjoins commutators of basis pairs,
orthonormalizing as it goes, until no new independent direction appears.
Affine generators (A, b) embed as (n+1) x (n+1) matrices [[A, b], [0, 0]],
whose matrix commutator reproduces the semidirect-sum bracket; complex
generators embed as real matrices via [[X, -Y], [Y, X]].

Affine embeddings have an exactly zero last row, and so do their
commutators, so an algebra of (n+1) x (n+1) affine embeddings spans at most
n(n+1) dimensions: N^4 - N^2 for N levels, where n = N^2 - 1. The closure
stops as soon as it reaches this bound.
"""

from dataclasses import dataclass

import numpy as np

from .bloch import _affine_pieces
from .errors import InputError
from .tolerances import CLOSURE_TOL, CLOSURE_ZERO_NORM, real_valued


@dataclass(frozen=True)
class LieBasis:
    """Orthonormal basis (Frobenius inner product) of a matrix Lie algebra, a (dim, n, n) array."""

    elements: np.ndarray

    @property
    def dim(self):
        return len(self.elements)

    @property
    def ambient_dim(self):
        return self.elements.shape[-1]


def complex_to_real(m):
    """Real 2n x 2n image [[X, -Y], [Y, X]] of a complex n x n matrix.

    The embedding is an injective algebra homomorphism, so commutator
    closures of complex generators can run in real arithmetic.
    """
    m = np.asarray(m, dtype=complex)
    x, y = m.real, m.imag
    return np.block([[x, -y], [y, x]])


def lie_closure(generators):
    """Commutator closure of a (K, n, n) stack, or list, of real square matrices.

    The generators are normalized to unit Frobenius norm and the basis is
    kept orthonormal, so a bracket of two basis elements has norm at most 2
    and enters the independence test unscaled: its part outside the span
    must exceed CLOSURE_TOL. Normalizing a nearly vanishing bracket would
    magnify its rounding past it, so that a b of rounding size (symmetric
    relaxation) would count as translations. The normalized generators are
    round 0's candidates; each later round brackets the directions the
    round before added with every older one, so each pair of basis elements
    is bracketed once. A round that adds nothing proves the span closed, and
    each round before it adds a direction, so at most cap + 1 rounds run:
    cap is n^2, or n(n-1) when every generator has an exactly zero last row
    (affine embeddings), as then does every commutator.
    Generators that all vanish generate the zero algebra, of dim 0.
    Complex or non-finite generators raise InputError (a ValueError).
    """
    mats = real_valued("generators", generators)
    if mats.ndim != 3 or not len(mats) or mats.shape[1] != mats.shape[2]:
        raise InputError("need one or more generators of a common square shape")
    if not np.isfinite(mats).all():
        raise InputError("generators must be finite")
    n = mats.shape[1]

    cap = n * (n - 1) if not mats[:, -1].any() else n * n
    q = np.empty((cap, n * n))    # orthonormal vectorized basis, row per element

    def try_add(v, k):
        # two projection passes keep the stored rows numerically orthonormal
        for _ in range(2):
            v = v - q[:k].T @ (q[:k] @ v)
        resid = np.linalg.norm(v)
        if resid <= CLOSURE_TOL:
            return k
        q[k] = v / resid
        return k + 1

    def brackets(i):
        # commutators are antisymmetric, so unordered pairs suffice
        bi, older = q[i].reshape(n, n), q[:i].reshape(i, n, n)
        return (bi @ older - older @ bi).reshape(i, n * n)

    def result(k):
        return LieBasis(elements=q[:k].reshape(k, n, n).copy())

    rows = mats.reshape(len(mats), n * n)
    # scaled by each row's largest entry first: squaring 1e200 overflows
    scale = np.maximum(np.abs(rows).max(axis=1), np.finfo(float).tiny)
    rows = rows / scale[:, None]
    nrm = np.linalg.norm(rows, axis=1)
    keep = nrm >= CLOSURE_ZERO_NORM / scale
    k, blocks = 0, [rows[keep] / nrm[keep, None]]
    while True:
        start = k
        for cand in blocks:
            # a candidate already within CLOSURE_TOL of the span stays there as the
            # basis grows, so one batched projection screens out most of them
            resid = cand - (cand @ q[:k].T) @ q[:k]
            for v in cand[np.linalg.norm(resid, axis=1) > CLOSURE_TOL]:
                k = try_add(v, k)
                if k == cap:
                    return result(k)
        if k == start:
            return result(k)
        # one block at a time: a round's brackets at once hold up to k^2 n^2 / 2 floats
        blocks = map(brackets, range(start, k))


def hamiltonian_algebra(sys):
    """Real Lie algebra generated by {i H0 / hbar, i H_m / hbar}."""
    # finite entries can overflow in i H / hbar; lie_closure refuses the result
    with np.errstate(over="ignore", invalid="ignore"):
        gens = [complex_to_real(1j * h / sys.hbar) for h in (sys.h0,) + sys.controls]
    return lie_closure(gens)


def affine_generator_set(sys, spec):
    """Embedded affine images [[A, b], [0, 0]] of the generator pieces.

    One matrix each for L0, for every L_m and for L_D, in the order of
    liouville.generator_pieces. Weighted by (1, f_1..f_M, 1) they sum to the
    affine generator G(f); their closure is the full dynamical algebra on
    the coherence vector. They are read straight from H and the rates
    (bloch._affine_pieces, which propagation and the steady states use
    directly) and returned as a list of its rows: perfbench/tracing.py reads
    the closure counters of its traced runs only from list or tuple input to
    lie_closure.
    """
    return list(_affine_pieces(sys, spec))


def decompose_inhomogeneous(basis):
    """(homogeneous rank, translation rank) of an affine-embedded, finite basis, at CLOSURE_TOL."""
    n = basis.ambient_dim - 1
    mats = real_valued("basis elements", basis.elements)
    if not np.isfinite(mats).all():
        raise InputError("basis elements must be finite")
    if np.abs(mats[:, n]).max(initial=0.0) > CLOSURE_TOL:
        raise InputError("affine embedding required: last rows must vanish")
    # an empty basis has no singular values, and so ranks (0, 0)
    s_hom = np.linalg.svd(mats[:, :n, :n].reshape(len(mats), n * n), compute_uv=False)
    s_trans = np.linalg.svd(mats[:, :n, n], compute_uv=False)
    # one common scale: a block that is numerically zero relative to the
    # basis as a whole must not inflate its own rank
    scale = max(s_hom[0] if s_hom.size else 0.0, s_trans[0] if s_trans.size else 0.0)
    return (
        int(np.sum(s_hom > CLOSURE_TOL * scale)),
        int(np.sum(s_trans > CLOSURE_TOL * scale)),
    )
