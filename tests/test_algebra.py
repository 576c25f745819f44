"""Commutator-closure tests: embeddings, known dimensions, invariances."""

import dataclasses
import time

import numpy as np
import pytest

from blochdyn import algebra, bloch, liouville
from blochdyn.algebra import (
    LieBasis,
    affine_generator_set,
    complex_to_real,
    decompose_inhomogeneous,
    hamiltonian_algebra,
    lie_closure,
)
from blochdyn.bloch import to_affine
from blochdyn.liouville import _combine, generator_pieces, total_generator, vectorize
from blochdyn.model import ControlSystem, DissipationSpec, qubit_system
from blochdyn.states import to_coherence_vector
from test_propagation_properties import admissible_system, embed


def make_qubit(g12=0.2, g21=0.08, big_gamma=0.35):
    sys = qubit_system(0.0, 1.3, d1=0.7, d2=0.4)
    spec = DissipationSpec(
        dephasing=[[0.0, big_gamma], [big_gamma, 0.0]],
        relaxation=[[0.0, g12], [g21, 0.0]],
    )
    return sys, spec


def make_ladder():
    c01 = np.zeros((3, 3), dtype=complex)
    c01[0, 1] = c01[1, 0] = 1.0
    c12 = np.zeros((3, 3), dtype=complex)
    c12[1, 2] = c12[2, 1] = 0.8
    sys = ControlSystem(h0=np.diag([0.0, 1.0, 2.2]), controls=(c01, c12))
    relax = np.zeros((3, 3))
    relax[0, 1] = 0.2
    relax[1, 2] = 0.3
    deph = np.array([[0.0, 0.15, 0.2], [0.15, 0.0, 0.3], [0.2, 0.3, 0.0]])
    return sys, DissipationSpec(dephasing=deph, relaxation=relax)


def test_affine_embed_bracket_identity():
    # the affine image [[A, b], [0, 0]] of a bracket of two generator pieces
    # is the commutator of their images, so the closure of the images is the
    # image of the closure of the pieces
    rng = np.random.default_rng(2)
    for dim in (2, 3, 4):
        sys, spec = admissible_system(rng, dim)
        pieces = generator_pieces(sys, spec)
        images = affine_generator_set(sys, spec)
        for i in range(len(pieces)):
            for j in range(i):
                direct = images[i] @ images[j] - images[j] @ images[i]
                expected = embed(to_affine(pieces[i] @ pieces[j] - pieces[j] @ pieces[i]))
                scale = max(1.0, np.abs(expected).max())
                assert np.max(np.abs(direct - expected)) <= 1e-13 * scale


def test_complex_to_real_is_homomorphism():
    rng = np.random.default_rng(4)
    for _ in range(10):
        m1 = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        m2 = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        r1, r2 = complex_to_real(m1), complex_to_real(m2)
        assert np.max(np.abs(complex_to_real(m1 @ m2) - r1 @ r2)) < 1e-12
        assert np.max(np.abs(complex_to_real(m1 + m2) - (r1 + r2))) < 1e-15
        # injective: zero image only for the zero matrix
        assert np.linalg.norm(r1) == pytest.approx(
            np.sqrt(2.0) * np.linalg.norm(m1)
        )


def test_closure_rotation_algebra():
    # Two rotation generators close to the full three dimensional rotation
    # algebra, a textbook case with known answer.
    jx = np.array([[0.0, 0, 0], [0, 0, -1], [0, 1, 0]])
    jy = np.array([[0.0, 0, 1], [0, 0, 0], [-1, 0, 0]])
    basis = lie_closure([jx, jy])
    assert basis.dim == 3


def test_closure_returns_orthonormal_unit_basis():
    sys, spec = make_qubit()
    basis = lie_closure(affine_generator_set(sys, spec))
    vecs = np.array([m.reshape(-1) for m in basis.elements])
    gram = vecs @ vecs.T
    assert np.max(np.abs(gram - np.eye(basis.dim))) < 1e-9


def test_closure_is_closed_under_commutator():
    sys, spec = make_qubit()
    basis = lie_closure(affine_generator_set(sys, spec))
    vecs = np.array([m.reshape(-1) for m in basis.elements])
    rng = np.random.default_rng(8)
    for _ in range(30):
        i, j = rng.integers(0, basis.dim, size=2)
        bi, bj = basis.elements[i], basis.elements[j]
        c = (bi @ bj - bj @ bi).reshape(-1)
        resid = c - vecs.T @ (vecs @ c)
        assert np.linalg.norm(resid) < 1e-9 * max(1.0, np.linalg.norm(c))


def test_closure_idempotent():
    sys, spec = make_qubit()
    basis = lie_closure(affine_generator_set(sys, spec))
    again = lie_closure(list(basis.elements))
    assert again.dim == basis.dim


def test_closure_invariant_under_generator_recombination():
    sys, spec = make_qubit()
    gens = affine_generator_set(sys, spec)
    ref = lie_closure(gens).dim
    rng = np.random.default_rng(19)
    for _ in range(5):
        w = rng.standard_normal((len(gens), len(gens)))
        while abs(np.linalg.det(w)) < 1e-3:
            w = rng.standard_normal((len(gens), len(gens)))
        mixed = [sum(w[i, j] * gens[j] for j in range(len(gens))) for i in range(len(gens))]
        assert lie_closure(mixed).dim == ref


@pytest.mark.parametrize("m", [9, 12])
def test_closure_of_a_nilpotent_pair_runs_as_many_rounds_as_it_needs(m):
    # X = [[J, 0], [0, 0]] with J the m x m shift and Y the translation e_m:
    # round r adds only ad_X^r Y = J^r e_m, so the closure takes m - 1 rounds
    # to reach e_1 and one more to find nothing new
    x = np.zeros((m + 1, m + 1))
    x[np.arange(m - 1), np.arange(1, m)] = 1.0
    y = np.zeros((m + 1, m + 1))
    y[m - 1, m] = 1.0
    basis = lie_closure([x, y])
    assert basis.dim == m + 1
    assert decompose_inhomogeneous(basis) == (1, m)


def test_closure_input_validation():
    with pytest.raises(ValueError):
        lie_closure([])
    with pytest.raises(ValueError):
        lie_closure([np.zeros((2, 2)), np.zeros((3, 3))])
    # vanishing generators generate the zero algebra
    assert lie_closure([np.zeros((2, 2))]).dim == 0


def test_hamiltonian_algebra_dimensions():
    sys, _ = make_qubit()
    assert hamiltonian_algebra(sys).dim == 4
    ladder, _ = make_ladder()
    assert hamiltonian_algebra(ladder).dim == 9


def test_qubit_affine_closure_dimension():
    sys, spec = make_qubit()
    basis = lie_closure(affine_generator_set(sys, spec))
    assert basis.dim == 12
    assert decompose_inhomogeneous(basis) == (9, 3)


def test_quasi_spin_qubit_closure_has_no_translations():
    sys, spec = make_qubit(g12=0.12, g21=0.12)
    basis = lie_closure(affine_generator_set(sys, spec))
    assert basis.dim == 9
    assert decompose_inhomogeneous(basis) == (9, 0)


def test_ladder_closure_dimension():
    sys, spec = make_ladder()
    basis = lie_closure(affine_generator_set(sys, spec))
    assert basis.dim == 72
    assert decompose_inhomogeneous(basis) == (64, 8)


def test_quasi_spin_ladder_closure_has_no_translations():
    sys, _ = make_ladder()
    deph = np.array([[0.0, 0.15, 0.2], [0.15, 0.0, 0.3], [0.2, 0.3, 0.0]])
    relax = np.array([[0.0, 0.2, 0.1], [0.2, 0.0, 0.3], [0.1, 0.3, 0.0]])
    spec = DissipationSpec(dephasing=deph, relaxation=relax)
    basis = lie_closure(affine_generator_set(sys, spec))
    assert basis.dim == 64
    assert decompose_inhomogeneous(basis) == (64, 0)


def random_hermitian_system(rng, dim):
    """H0 and two controls with complex off-diagonals, random rates and hbar != 1."""
    def hermitian():
        a = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        return a + a.conj().T

    relax = rng.uniform(0.0, 0.5, (dim, dim))
    np.fill_diagonal(relax, 0.0)
    deph = np.triu(rng.uniform(0.0, 0.5, (dim, dim)), 1)
    return (ControlSystem(h0=hermitian(), controls=(hermitian(), hermitian()),
                          hbar=float(rng.uniform(0.5, 2.0))),
            DissipationSpec(dephasing=deph + deph.T, relaxation=relax))


@pytest.mark.parametrize("dim", range(2, 9))
def test_affine_pieces_match_the_per_piece_path_to_rounding(dim):
    # to_affine of each Liouville piece stays the reference; the pieces read
    # from H and the rates round differently, within a few eps of each piece
    rng = np.random.default_rng(dim)
    for _ in range(3):
        sys, spec = random_hermitian_system(rng, dim)
        rows = affine_generator_set(sys, spec)
        expected = [embed(to_affine(p)) for p in generator_pieces(sys, spec)]
        assert isinstance(rows, list) and len(rows) == len(expected) == 4
        for row, ref in zip(rows, expected):
            eps = np.finfo(float).eps
            assert np.max(np.abs(row - ref)) <= 8 * eps * np.max(np.abs(ref))


@pytest.mark.parametrize("hbar", [1.0, 0.5, 2.0])
def test_affine_pieces_of_dyadic_qubits_equal_the_per_piece_path_bit_for_bit(hbar):
    # dyadic energies, moments and rates leave no rounding to either route;
    # the sign of a zero is the one bit they may differ in
    qubit = qubit_system(0.25, 1.5, d1=0.75, d2=0.5)
    for sys in (qubit, ControlSystem(h0=qubit.h0, controls=qubit.controls + (
            np.array([[0.5, 0.25 - 0.125j], [0.25 + 0.125j, -1.0]]),), hbar=hbar)):
        spec = DissipationSpec(dephasing=[[0.0, 0.375], [0.375, 0.0]],
                               relaxation=[[0.0, 0.25], [0.125, 0.0]])
        rows = affine_generator_set(sys, spec)
        expected = [embed(to_affine(p)) for p in generator_pieces(sys, spec)]
        assert [(r + 0.0).tobytes() for r in rows] == [(e + 0.0).tobytes() for e in expected]


@pytest.mark.parametrize("dim", range(2, 9))
def test_hamiltonian_pieces_are_antisymmetric_rotations(dim):
    sys, spec = random_hermitian_system(np.random.default_rng(20 + dim), dim)
    for row in affine_generator_set(sys, spec)[:-1]:
        assert np.array_equal(row[:-1, :-1], -row[:-1, :-1].T)
        assert not row[:, -1].any() and not row[-1].any()


@pytest.mark.parametrize("dim", range(2, 9))
def test_affine_generator_moves_coordinates_as_the_liouvillian_moves_rho(dim):
    # G(f) u(rho) is the coordinate vector of L(f) vec(rho), trace row 0
    rng = np.random.default_rng(40 + dim)
    sys, spec = random_hermitian_system(rng, dim)
    a = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    rho = a @ a.conj().T / np.trace(a @ a.conj().T).real
    f = rng.uniform(-1.0, 1.0, sys.n_controls)
    v = to_coherence_vector(rho)
    moved = _combine(np.array(affine_generator_set(sys, spec)), f) @ np.append(v.bloch, 1.0)
    expected = to_coherence_vector((total_generator(sys, spec, f) @ vectorize(rho))
                                   .reshape(dim, dim))
    assert np.max(np.abs(moved[:-1] - expected.bloch)) <= 1e-14 * np.max(np.abs(expected.bloch))
    assert moved[-1] == 0.0


def test_affine_generator_set_makes_no_per_piece_call(monkeypatch):
    calls = []
    for module in (bloch, algebra, liouville):
        for name in ("to_affine", "generator_pieces", "build_dissipator", "_commutator"):
            if hasattr(module, name):
                wrapped = getattr(module, name)
                monkeypatch.setattr(module, name, lambda *args, _f=wrapped:
                                    calls.append(args) or _f(*args))
    assert len(affine_generator_set(*make_ladder())) == 4
    assert calls == []


def test_decompose_of_an_all_zero_basis_is_empty():
    assert decompose_inhomogeneous(LieBasis(elements=np.zeros((2, 3, 3)))) == (0, 0)
    assert decompose_inhomogeneous(lie_closure([np.zeros((3, 3))])) == (0, 0)


def test_basis_reads_its_ambient_size_from_its_elements():
    assert LieBasis(elements=np.zeros((2, 5, 5))).ambient_dim == 5
    assert lie_closure(affine_generator_set(*make_qubit())).ambient_dim == 4
    assert [f.name for f in dataclasses.fields(LieBasis)] == ["elements"]


def test_decompose_requires_affine_embedding():
    basis = lie_closure([np.array([[0.0, -1.0], [1.0, 0.0]])])
    with pytest.raises(ValueError, match="affine"):
        decompose_inhomogeneous(basis)


def make_ladder5():
    n = 5
    energies = np.array([0.0, 1.0, 2.3, 3.45, 4.8])
    controls = []
    for j, moment in enumerate([1.0, 0.8, 0.9, 0.7]):
        c = np.zeros((n, n), dtype=complex)
        c[j, j + 1] = c[j + 1, j] = moment
        controls.append(c)
    sys = ControlSystem(h0=np.diag(energies), controls=tuple(controls))
    relax = np.zeros((n, n))
    for j in range(n - 1):
        relax[j, j + 1] = 0.1 + 0.05 * j
        relax[j + 1, j] = 0.02
    leaving = relax.sum(axis=0)
    deph = 0.5 * (leaving[:, None] + leaving[None, :]) + 0.1
    np.fill_diagonal(deph, 0.0)
    return sys, DissipationSpec(dephasing=deph, relaxation=relax)


def test_five_level_ladder_affine_closure_is_full_and_fast():
    # an affine embedding of an N-level flow spans at most N^4 - N^2
    # directions; the closure stops as soon as it gets there
    sys, spec = make_ladder5()
    start = time.perf_counter()
    basis = lie_closure(affine_generator_set(sys, spec))
    elapsed = time.perf_counter() - start
    assert basis.dim == 600
    assert decompose_inhomogeneous(basis) == (576, 24)
    assert elapsed < 10.0
