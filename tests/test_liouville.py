"""Superoperator assembly tests against hand-built matrix displays."""

import numpy as np
import pytest

from blochdyn.errors import InputError
from blochdyn.liouville import (
    build_dissipator,
    commutator_superop,
    generator_pieces,
    qubit_superoperators,
    support_overlap,
    total_generator,
    trace_residual,
    vectorize,
)
from blochdyn.model import ControlSystem, DissipationSpec, qubit_system


def test_vectorize_row_order():
    rho = np.array([[1, 2], [3, 4]], dtype=complex)
    assert np.array_equal(vectorize(rho), np.array([1, 2, 3, 4], dtype=complex))


def test_commutator_superop_matches_direct_commutator():
    rng = np.random.default_rng(3)
    for dim in (2, 3, 4):
        a = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        h = a + a.conj().T
        c = commutator_superop(h, hbar=1.0)
        for _ in range(5):
            b = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
            rho = b + b.conj().T
            direct = (h @ rho - rho @ h) / 1j
            assert np.max(np.abs((c @ vectorize(rho)).reshape(dim, dim) - direct)) < 1e-12


def test_commutator_superop_hbar_scaling():
    h = np.diag([0.0, 2.0])
    assert np.allclose(commutator_superop(h, hbar=2.0), commutator_superop(h) / 2.0)


def test_commutator_superop_rejects_non_hermitian():
    with pytest.raises(ValueError):
        commutator_superop(np.array([[0.0, 1.0], [0.0, 0.0]]))


def hand_qubit_displays(omega, d1, d2, big_gamma, g12, g21):
    """Two-level superoperator matrices written out entry by entry."""
    l0 = np.diag([0.0, -omega, omega, 0.0]).astype(complex)
    l1 = d1 * np.array(
        [[0, -1, 1, 0], [-1, 0, 0, 1], [1, 0, 0, -1], [0, 1, -1, 0]], dtype=complex
    )
    l2 = d2 * np.array(
        [[0, -1j, -1j, 0], [1j, 0, 0, -1j], [1j, 0, 0, -1j], [0, 1j, 1j, 0]],
        dtype=complex,
    )
    ld = np.array(
        [
            [-g21, 0, 0, g12],
            [0, -big_gamma, 0, 0],
            [0, 0, -big_gamma, 0],
            [g21, 0, 0, -g12],
        ],
        dtype=complex,
    )
    return l0, l1, l2, ld


QUBIT_RATES = dict(big_gamma=0.37, g12=0.21, g21=0.13)


def make_qubit(omega=1.7, d1=0.9, d2=0.6):
    sys = qubit_system(0.0, omega, d1=d1, d2=d2)
    spec = DissipationSpec(
        dephasing=[[0.0, QUBIT_RATES["big_gamma"]], [QUBIT_RATES["big_gamma"], 0.0]],
        relaxation=[[0.0, QUBIT_RATES["g12"]], [QUBIT_RATES["g21"], 0.0]],
    )
    return sys, spec


def test_qubit_superoperators_match_hand_displays():
    omega, d1, d2 = 1.7, 0.9, 0.6
    sys, spec = make_qubit(omega, d1, d2)
    l0, l1, l2, ld = qubit_superoperators(sys, spec)
    e0, e1, e2, ed = hand_qubit_displays(omega, d1, d2, **QUBIT_RATES)
    assert np.max(np.abs(l0 - e0)) == 0.0
    assert np.max(np.abs(l1 - e1)) == 0.0
    assert np.max(np.abs(l2 - e2)) == 0.0
    assert np.max(np.abs(ld - ed)) == 0.0


def test_total_generator_is_weighted_sum():
    sys, spec = make_qubit()
    l0, l1, l2, ld = hand_qubit_displays(1.7, 0.9, 0.6, **QUBIT_RATES)
    f = (0.4, -1.1)
    gen = total_generator(sys, spec, f)
    combined = (l0 + f[0] * l1 + f[1] * l2) / (1j * sys.hbar) + ld
    assert np.max(np.abs(gen - combined)) < 1e-14


def test_generator_pieces_order_and_amplitude_checks():
    sys, spec = make_qubit()
    l0, l1, l2, ld = hand_qubit_displays(1.7, 0.9, 0.6, **QUBIT_RATES)
    pieces = generator_pieces(sys, spec)
    expected = [l0 / (1j * sys.hbar), l1 / (1j * sys.hbar), l2 / (1j * sys.hbar), ld]
    assert len(pieces) == 4
    assert np.max(np.abs(np.array(pieces) - np.array(expected))) < 1e-15
    with pytest.raises(ValueError, match="expected 2 field amplitudes, got 1"):
        total_generator(sys, spec, (0.1,))
    with pytest.raises(ValueError, match="field amplitudes must be finite"):
        total_generator(sys, spec, (np.nan, 0.0))
    with pytest.raises(ValueError, match="dimensions differ"):
        generator_pieces(sys, DissipationSpec.zero(3))


SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
SIGMA_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]])
SIGMA_Z = np.diag([1.0, -1.0]).astype(complex)
# two-level systems outside qubit_system's family
TWO_LEVEL_SYSTEMS = {
    "sigma_z_control": ControlSystem(h0=np.diag([0.0, 1.3]), controls=(0.7 * SIGMA_Z, SIGMA_Y)),
    "tilted_dipole": ControlSystem(h0=np.diag([0.2, 1.1]),
                                   controls=(0.6 * SIGMA_X + 0.8 * SIGMA_Y, 0.5 * SIGMA_Y),
                                   hbar=0.7),
    "one_control": ControlSystem(h0=np.diag([0.0, 1.3]), controls=(0.9 * SIGMA_X,), hbar=2.5),
    "three_controls": ControlSystem(h0=np.diag([0.0, 1.3]),
                                    controls=(SIGMA_X, 0.4 * SIGMA_Y, 1.6 * SIGMA_Z)),
    "off_diagonal_h0": ControlSystem(h0=np.array([[0.2, 0.5 - 0.3j], [0.5 + 0.3j, 1.1]]),
                                     controls=(SIGMA_X, SIGMA_Y), hbar=1.9),
}


@pytest.mark.parametrize("name", TWO_LEVEL_SYSTEMS)
def test_qubit_superoperators_are_the_raw_commutators_of_any_two_level_system(name):
    sys = TWO_LEVEL_SYSTEMS[name]
    _, spec = make_qubit()
    got = qubit_superoperators(sys, spec)
    eye = np.eye(2)
    want = [np.kron(h, eye) - np.kron(eye, h.T) for h in (sys.h0,) + sys.controls]
    want.append(build_dissipator(spec))
    assert len(got) == sys.n_controls + 2
    for g, w in zip(got, want):
        assert np.max(np.abs(g - w)) <= 1e-15 * np.max(np.abs(w))


def test_qubit_superoperators_refuse_an_overflowing_h0():
    sys = ControlSystem(h0=np.diag([-1e308, 1e308]), controls=(SIGMA_X,))
    with pytest.raises(InputError, match="generator pieces overflow"):
        qubit_superoperators(sys, DissipationSpec.zero(2))


def test_total_generator_hbar():
    qubit = qubit_system(0.0, 1.0, d1=1.0, d2=1.0)
    sys = ControlSystem(h0=qubit.h0, controls=qubit.controls, hbar=3.0)
    spec = DissipationSpec.zero(2)
    gen = total_generator(sys, spec, (0.0, 0.0))
    ref = commutator_superop(sys.h0, hbar=3.0)
    assert np.max(np.abs(gen - ref)) < 1e-15


def test_dissipator_three_levels_hand_pattern():
    # One decay channel 3 -> 1 at rate g plus one dephasing pair (1,2).
    # Coherence decay rates are taken directly from the dephasing matrix;
    # relaxation only moves population (it bounds the admissible dephasing,
    # it does not add to it).
    g = 0.45
    gam = 0.3
    deph = np.zeros((3, 3))
    deph[0, 1] = deph[1, 0] = gam
    relax = np.zeros((3, 3))
    relax[0, 2] = g
    ld = build_dissipator(DissipationSpec(dephasing=deph, relaxation=relax))
    expected = np.zeros((9, 9), dtype=complex)
    expected[0, 8] = g  # population gain 33 -> 11
    expected[8, 8] = -g  # population loss from 33
    expected[1, 1] = -gam  # rho_12 and rho_21 decay
    expected[3, 3] = -gam
    assert np.max(np.abs(ld - expected)) < 1e-15


def test_trace_residual_zero_for_generators():
    sys, spec = make_qubit()
    gen = total_generator(sys, spec, (0.7, -0.3))
    assert trace_residual(gen) < 1e-14
    assert trace_residual(build_dissipator(spec)) < 1e-15


def test_trace_residual_detects_leak():
    bad = np.zeros((4, 4), dtype=complex)
    bad[0, 0] = -1.0  # population sink with no matching source
    assert trace_residual(bad) == pytest.approx(1.0)


def test_support_overlap_empty_for_qubit():
    sys, spec = make_qubit()
    _, l1, l2, ld = qubit_superoperators(sys, spec)
    assert support_overlap((l1, l2), ld) == ()


def test_support_overlap_reports_shared_entries():
    a = np.zeros((4, 4))
    a[1, 1] = 1.0
    a[2, 0] = 1.0
    b = np.zeros((4, 4))
    b[1, 1] = 0.5
    b[3, 3] = 2.0
    assert support_overlap((a,), b) == ((1, 1),)


def test_support_overlap_of_no_controls_is_empty():
    _, spec = make_qubit()
    assert support_overlap([], build_dissipator(spec)) == ()
    assert support_overlap(np.zeros((0, 4, 4)), build_dissipator(spec)) == ()


def test_support_overlap_empty_for_three_level_ladder():
    # Nearest-neighbour couplings leave column 1 and row N untouched in the
    # control superoperators, while the dissipator only populates those slots.
    dim = 3
    c01 = np.zeros((dim, dim), dtype=complex)
    c01[0, 1] = c01[1, 0] = 1.0
    c12 = np.zeros((dim, dim), dtype=complex)
    c12[1, 2] = c12[2, 1] = 0.8
    sys = ControlSystem(h0=np.diag([0.0, 1.0, 2.2]), controls=(c01, c12))
    relax = np.zeros((dim, dim))
    relax[0, 1] = 0.2
    relax[1, 2] = 0.3
    deph = np.array([[0.0, 0.15, 0.2], [0.15, 0.0, 0.3], [0.2, 0.3, 0.0]])
    spec = DissipationSpec(dephasing=deph, relaxation=relax)
    controls = tuple(commutator_superop(c) * 1j for c in sys.controls)
    assert support_overlap(controls, build_dissipator(spec)) == ()


def dissipator_by_loop(spec):
    """The element-by-element assembly the vectorized builder replaces."""
    dim = spec.dim
    ld = np.zeros((dim * dim, dim * dim), dtype=complex)
    for n in range(dim):
        for k in range(dim):
            if k == n:
                continue
            ld[k * dim + n, k * dim + n] = -spec.dephasing[k, n]
            ld[n * dim + n, k * dim + k] += spec.relaxation[n, k]
            ld[n * dim + n, n * dim + n] -= spec.relaxation[k, n]
    return ld


def commutator_by_kron(h, hbar):
    eye = np.eye(h.shape[0])
    return (np.kron(h, eye) - np.kron(eye, h.T)) / (1j * hbar)


@pytest.mark.parametrize("dim", [2, 3, 4, 5])
def test_assembly_bit_identical_to_loop_and_kron(dim):
    rng = np.random.default_rng(500 + dim)
    for trial in range(25):
        # sparse rates over several decades, and all-zero (also -0.0) columns
        mask = rng.random((dim, dim)) < 0.7
        deph = np.triu(rng.exponential(size=(dim, dim)) * mask, 1)
        relax = rng.exponential(size=(dim, dim)) * 10.0 ** rng.integers(-6, 3, (dim, dim))
        relax *= rng.random((dim, dim)) < 0.6
        np.fill_diagonal(relax, 0.0)
        if trial % 5 == 0:
            relax = -0.0 * relax
        spec = DissipationSpec(dephasing=deph + deph.T, relaxation=relax)
        got, want = build_dissipator(spec), dissipator_by_loop(spec)
        assert np.array_equal(got, want) and got.tobytes() == want.tobytes()
        a = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        h = a + a.conj().T if trial % 3 else (a + a.T).real.astype(complex)
        hbar = float(rng.uniform(0.2, 3.0))
        got, want = commutator_superop(h, hbar), commutator_by_kron(h, hbar)
        assert np.array_equal(got, want) and got.tobytes() == want.tobytes()
