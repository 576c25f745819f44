"""Affine coherence-vector reduction tests with symbolic expected matrices."""

import numpy as np
import pytest

from blochdyn.bloch import (
    AffineGenerator,
    ball_containment,
    quasi_spin_translation,
    to_affine,
)
from blochdyn.dynamics import Trajectory, propagate
from blochdyn.liouville import (
    build_dissipator,
    commutator_superop,
    total_generator,
    vectorize,
)
from blochdyn.model import (ControlField, ControlSystem, DissipationSpec, dipole_coupling,
                            qubit_system)
from blochdyn.states import from_pure, gell_mann_basis, to_coherence_vector
from blochdyn.tolerances import PROPAGATION_TOL


def expected_qubit_affine(omega, d1, d2, big_gamma, g12, g21, f1, f2, hbar=1.0):
    """Closed-form qubit drift matrix and translation, derived by hand from
    the Pauli commutation relations and the rate equations."""
    a = np.array(
        [
            [-big_gamma, omega, 2.0 * d2 * f2 / hbar],
            [-omega, -big_gamma, -2.0 * d1 * f1 / hbar],
            [-2.0 * d2 * f2 / hbar, 2.0 * d1 * f1 / hbar, -(g12 + g21)],
        ]
    )
    b = np.array([0.0, 0.0, g12 - g21])
    return a, b


def make_qubit(omega=1.3, d1=0.7, d2=0.4, big_gamma=0.35, g12=0.2, g21=0.08):
    sys = qubit_system(0.0, omega, d1=d1, d2=d2)
    spec = DissipationSpec(
        dephasing=[[0.0, big_gamma], [big_gamma, 0.0]],
        relaxation=[[0.0, g12], [g21, 0.0]],
    )
    return sys, spec


def test_qubit_affine_matches_closed_form():
    params = dict(omega=1.3, d1=0.7, d2=0.4, big_gamma=0.35, g12=0.2, g21=0.08)
    sys, spec = make_qubit(**params)
    for f in [(0.0, 0.0), (1.0, 0.0), (0.0, 1.0), (0.6, -1.4)]:
        gen = to_affine(total_generator(sys, spec, f))
        ea, eb = expected_qubit_affine(f1=f[0], f2=f[1], **params)
        assert np.max(np.abs(gen.a - ea)) < 1e-13
        assert np.max(np.abs(gen.b - eb)) < 1e-14


def test_affine_is_linear_in_superoperator():
    sys, spec = make_qubit()
    g1 = total_generator(sys, spec, (0.3, 0.0))
    g2 = total_generator(sys, spec, (0.0, -0.8))
    lhs = to_affine(2.0 * g1 + g2)
    r1, r2 = to_affine(g1), to_affine(g2)
    assert np.allclose(lhs.a, 2.0 * r1.a + r2.a, atol=1e-13)
    assert np.allclose(lhs.b, 2.0 * r1.b + r2.b, atol=1e-13)


def test_affine_reproduces_master_equation_derivative():
    # d/dt of the coherence vector from the affine pair must agree with the
    # coherence vector of L rho for random states and random generators.
    rng = np.random.default_rng(17)
    for dim in (2, 3):
        basis = gell_mann_basis(dim)
        for _ in range(100 // dim):
            h = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
            h = h + h.conj().T
            deph = np.abs(rng.standard_normal((dim, dim)))
            deph = deph + deph.T
            np.fill_diagonal(deph, 0.0)
            relax = np.abs(rng.standard_normal((dim, dim)))
            np.fill_diagonal(relax, 0.0)
            spec = DissipationSpec(dephasing=deph, relaxation=relax)
            superop = commutator_superop(h) + build_dissipator(spec)
            gen = to_affine(superop)
            c = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
            rho = from_pure(c)
            v = to_coherence_vector(rho)
            drho = (superop @ vectorize(rho)).reshape(dim, dim)
            dv_direct = np.array(
                [np.real(np.sum(drho * g.T)) for g in basis]
            )
            dv_affine = gen.a @ v.bloch + gen.b
            assert np.max(np.abs(dv_affine - dv_direct)) < 1e-10


def test_control_rotations_are_traceless_antisymmetric():
    sys, _ = make_qubit()
    zero = DissipationSpec.zero(2)
    for lm in sys.controls:
        gen = to_affine(commutator_superop(lm, hbar=sys.hbar))
        assert np.max(np.abs(gen.a + gen.a.T)) < 1e-14
        assert np.max(np.abs(gen.b)) < 1e-14
    drift = to_affine(total_generator(sys, zero, (0.0, 0.0)))
    assert np.max(np.abs(drift.a + drift.a.T)) < 1e-14
    assert isinstance(drift, AffineGenerator)


def test_affine_rejects_trace_leaking_superoperator():
    bad = np.zeros((4, 4), dtype=complex)
    bad[0, 0] = -1.0
    with pytest.raises(ValueError, match="population"):
        to_affine(bad)


def test_quasi_spin_translation_vanishes():
    symmetric = DissipationSpec(
        dephasing=[[0.0, 0.3], [0.3, 0.0]],
        relaxation=[[0.0, 0.12], [0.12, 0.0]],
    )
    assert np.linalg.norm(quasi_spin_translation(symmetric)) < 1e-14
    asymmetric = DissipationSpec(
        dephasing=[[0.0, 0.3], [0.3, 0.0]],
        relaxation=[[0.0, 0.2], [0.05, 0.0]],
    )
    b = quasi_spin_translation(asymmetric)
    assert b[2] == pytest.approx(0.15)


def test_ball_containment_accepts_physical_trajectory():
    sys, spec = make_qubit(big_gamma=0.35, g12=0.2, g21=0.08)
    field = ControlField(segments=((2.0, (0.5, 0.0)), (3.0, (-0.3, 0.4))))
    traj = propagate(sys, spec, field, from_pure([1, 0]), sample_dt=0.05)
    assert ball_containment(traj) is True
    assert np.max(np.linalg.norm(traj.bloch, axis=1) - traj.trace_part) <= 1e-12


def qubit_path(z):
    """Two-sample qubit trajectory whose second sample sits at v = (0, 0, z)."""
    return Trajectory(times=np.array([0.0, 1.0]),
                      bloch=np.array([[0.0, 0.0, 0.9], [0.0, 0.0, z]]),
                      trace_part=np.array([1.0, 1.0]), rho0=np.diag([0.95, 0.05]).astype(complex))


def test_ball_containment_flags_expansion():
    # Hand-built trajectory whose second sample sits outside the unit ball.
    traj = qubit_path(1.2)
    assert ball_containment(traj) is False
    excess = np.linalg.norm(traj.bloch, axis=1) - traj.trace_part
    assert excess[0] < 0 and excess[1] == pytest.approx(0.2, abs=1e-12)


def test_ball_containment_judges_the_excess_at_propagation_tol():
    assert ball_containment(qubit_path(1.0 + PROPAGATION_TOL / 2)) is True
    assert ball_containment(qubit_path(1.0 + 2 * PROPAGATION_TOL)) is False


def test_ball_containment_counts_a_nan_sample_as_outside():
    # a NaN excess once compared False with the tolerance and read as inside
    assert ball_containment(qubit_path(np.nan)) is False
    nan3 = Trajectory(times=np.array([0.0]), bloch=np.full((1, 8), np.nan),
                      trace_part=np.array([1.0]), rho0=np.full((3, 3), np.nan, dtype=complex))
    assert ball_containment(nan3) is False


def test_ball_containment_three_levels_uses_positivity():
    rng = np.random.default_rng(31)
    a = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    q = np.linalg.qr(a)[0]
    p = np.array([0.5, 0.3, 0.2])
    rho_ok = (q * p) @ q.conj().T
    v = to_coherence_vector(rho_ok)
    traj = Trajectory(
        times=np.array([0.0]),
        bloch=v.bloch[None, :],
        trace_part=np.array([1.0]),
        rho0=rho_ok,
    )
    assert ball_containment(traj) is True
    rho_bad = (q * np.array([0.7, 0.5, -0.2])) @ q.conj().T
    vb = to_coherence_vector(rho_bad)
    bad = Trajectory(
        times=np.array([0.0]),
        bloch=vb.bloch[None, :],
        trace_part=np.array([1.0]),
        rho0=rho_bad,
    )
    assert ball_containment(bad) is False
    assert -np.linalg.eigvalsh(rho_bad)[0] == pytest.approx(0.2, abs=1e-12)


def test_passing_containment_at_three_levels_takes_no_eigenvalues(monkeypatch):
    # the samples are proven from their coordinates, as propagate proves them
    sys = ControlSystem(h0=np.diag([0.0, 1.0, 2.2]), controls=(dipole_coupling(3, 0, 1, 1.0),))
    deph = np.array([[0.0, 0.15, 0.2], [0.15, 0.0, 0.3], [0.2, 0.3, 0.0]])
    relax = np.array([[0.0, 0.2, 0.0], [0.0, 0.0, 0.3], [0.0, 0.0, 0.0]])
    rho0 = 0.5 * from_pure([1.0, 1.0, 0.0]) + 0.5 * np.eye(3) / 3
    traj = propagate(sys, DissipationSpec(dephasing=deph, relaxation=relax),
                     ControlField.constant([0.5], 2.0), rho0, sample_dt=1e-3)
    calls = []
    eigvalsh = np.linalg.eigvalsh
    monkeypatch.setattr(np.linalg, "eigvalsh",
                        lambda a, *args: calls.append(np.shape(a)) or eigvalsh(a, *args))
    assert ball_containment(traj) is True
    assert calls == []
