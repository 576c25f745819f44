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

from .bloch import AffineGenerator, to_affine
from .errors import ClosureError
from .liouville import generator_pieces
from .tolerances import CLOSURE_TOL, CLOSURE_ZERO_NORM

MAX_DEPTH = 8


@dataclass(frozen=True)
class LieBasis:
    """Orthonormal basis (Frobenius inner product) of a matrix Lie algebra."""

    elements: tuple
    ambient_dim: int

    @property
    def dim(self):
        return len(self.elements)


def affine_embed(gen):
    """[[A, b], [0, 0]] embedding of an affine generator or (A, b) pair."""
    if isinstance(gen, AffineGenerator):
        a, b = gen.a, gen.b
    else:
        a, b = gen
        a = np.asarray(a, dtype=float)
        b = np.asarray(b, dtype=float).reshape(-1)
    n = b.size
    m = np.zeros((n + 1, n + 1))
    m[:n, :n] = a
    m[:n, n] = b
    return m


def complex_to_real(m):
    """Real 2n x 2n image [[X, -Y], [Y, X]] of a complex n x n matrix.

    The embedding is an injective algebra homomorphism, so commutator
    closures of complex generators can run in real arithmetic.
    """
    m = np.asarray(m, dtype=complex)
    x, y = m.real, m.imag
    return np.block([[x, -y], [y, x]])


def lie_closure(generators, tol=CLOSURE_TOL, max_depth=MAX_DEPTH):
    """Commutator closure of a list of real square matrices.

    New candidates are normalized to unit Frobenius norm before the
    independence test, so rank decisions are not skewed by norm growth with
    depth. When every n x n generator has an exactly zero last row (affine
    embeddings), so does every commutator, and the closure stops as soon as
    it spans all n(n-1) such directions. Raises ClosureError (with the
    partial basis attached) when max_depth rounds do not reach closure.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    mats = [np.asarray(g, dtype=float) for g in generators]
    if not mats:
        raise ValueError("need at least one generator")
    n = mats[0].shape[0]
    for g in mats:
        if g.shape != (n, n):
            raise ValueError("generators must share a common square shape")

    cap = n * (n - 1) if all(not g[-1].any() for g in mats) else n * n
    q = np.empty((cap, n * n))    # orthonormal vectorized basis, row per element

    def try_add(v, k):
        # two projection passes keep the stored rows numerically orthonormal
        for _ in range(2):
            v = v - q[:k].T @ (q[:k] @ v)
        resid = np.linalg.norm(v)
        if resid <= tol:
            return k
        q[k] = v / resid
        return k + 1

    def unit_rows(m):
        v = m.reshape(len(m), n * n)
        nrm = np.linalg.norm(v, axis=1)
        keep = nrm >= CLOSURE_ZERO_NORM
        return v[keep] / nrm[keep, None]

    def result(k):
        return LieBasis(elements=tuple(q[:k].reshape(k, n, n).copy()), ambient_dim=n)

    k = 0
    for v in unit_rows(np.array(mats)):
        k = try_add(v, k)
        if k == cap:
            return result(k)
    if k == 0:
        raise ValueError("all generators vanish")

    frontier = range(k)
    for _ in range(max_depth):
        if not frontier:
            return result(k)
        start = k
        # commutators are antisymmetric, so unordered pairs suffice; pairs
        # of older elements were exhausted in earlier rounds
        for i in frontier:
            bi = q[i].reshape(n, n)
            older = q[:i].reshape(i, n, n)
            cand = unit_rows(bi @ older - older @ bi)
            # a candidate already within tol of the span stays there as the
            # basis grows, so one batched projection screens out most of them
            resid = cand - (cand @ q[:k].T) @ q[:k]
            for v in cand[np.linalg.norm(resid, axis=1) > tol]:
                k = try_add(v, k)
                if k == cap:
                    return result(k)
        frontier = range(start, k)
    if not frontier:
        return result(k)
    raise ClosureError(
        "closure not reached within depth %d (dim %d so far)" % (max_depth, k),
        partial=result(k),
    )


def hamiltonian_algebra(sys, tol=CLOSURE_TOL):
    """Real Lie algebra generated by {i H0 / hbar, i H_m / hbar}."""
    gens = [complex_to_real(1j * sys.h0 / sys.hbar)]
    for h in sys.controls:
        gens.append(complex_to_real(1j * h / sys.hbar))
    return lie_closure(gens, tol=tol)


def affine_generator_set(sys, spec):
    """Embedded affine images [[A, b], [0, 0]] of the generator pieces.

    One matrix each for L0, for every L_m and for L_D, in the order of
    liouville.generator_pieces, returned as a list. Weighted by
    (1, f_1..f_M, 1) they sum to the affine generator G(f) that propagation
    and the steady states use; their closure is the full dynamical algebra
    on the coherence vector.
    """
    return [affine_embed(to_affine(p)) for p in generator_pieces(sys, spec)]


def decompose_inhomogeneous(basis, tol=CLOSURE_TOL):
    """(homogeneous rank, translation rank) of an affine-embedded basis."""
    if basis.dim == 0:
        return (0, 0)
    n = basis.ambient_dim - 1
    lastrows = np.array([np.max(np.abs(m[n, :])) for m in basis.elements])
    if np.max(lastrows) > tol:
        raise ValueError("affine embedding required: last rows must vanish")
    homog = np.array([m[:n, :n].reshape(-1) for m in basis.elements])
    trans = np.array([m[:n, n] for m in basis.elements])
    s_hom = np.linalg.svd(homog, compute_uv=False)
    s_trans = np.linalg.svd(trans, compute_uv=False)
    # one common scale: a block that is numerically zero relative to the
    # basis as a whole must not inflate its own rank
    scale = max(s_hom[0] if s_hom.size else 0.0, s_trans[0] if s_trans.size else 0.0)
    if scale == 0.0:
        return (0, 0)
    return (
        int(np.sum(s_hom > tol * scale)),
        int(np.sum(s_trans > tol * scale)),
    )
