"""Propagation, spectra, steady states, and attractor-sweep tests.

Closed-form references for the two-level system are derived by hand from
the affine flow: transverse components spiral in at the dephasing rate
while the longitudinal component relaxes exponentially to the pumping
balance point.
"""

import re
import tracemalloc

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from blochdyn import algebra, dynamics, liouville
from blochdyn.algebra import affine_generator_set
from blochdyn.bloch import ball_containment, to_affine
from blochdyn.dynamics import (
    Trajectory,
    _taylor,
    default_sample_dt,
    expm,
    propagate,
    semigroup_spectrum,
    steady_state,
    steady_state_sweep,
)
from blochdyn.errors import (
    ConfigError,
    InputError,
    NonUniqueEquilibriumError,
    SemigroupDomainError,
    UnphysicalStateError,
)
from blochdyn.liouville import (_combine, build_dissipator, generator_pieces, total_generator,
                                vectorize)
from blochdyn.model import ControlField, ControlSystem, DissipationSpec, qubit_system
from blochdyn.states import (CoherenceVector, check_density, density_from_coordinates,
                             from_coherence_vector, from_pure, to_coherence_vector)
from blochdyn.tolerances import (CONIC_FIT_TOL, GRID_STEP_SLACK, PROPAGATION_TOL, STATE_TRACE_TOL,
                                 TAYLOR_THETA)
from test_cli import load_template
from test_propagation_properties import admissible_system

OMEGA = 1.4
BIG_GAMMA = 0.3
G12 = 0.2
G21 = 0.05


def make_qubit(big_gamma=BIG_GAMMA, g12=G12, g21=G21, omega=OMEGA):
    sys = qubit_system(0.0, omega, d1=0.8, d2=0.5)
    spec = DissipationSpec(
        dephasing=[[0.0, big_gamma], [big_gamma, 0.0]],
        relaxation=[[0.0, g12], [g21, 0.0]],
    )
    return sys, spec


def free_decay_bloch(v0, t, omega=OMEGA, big_gamma=BIG_GAMMA, g12=G12, g21=G21):
    """Zero-field solution of the two-level affine flow."""
    x0, y0, z0 = v0
    gsum = g12 + g21
    zstar = (g12 - g21) / gsum
    damp = np.exp(-big_gamma * t)
    c, s = np.cos(omega * t), np.sin(omega * t)
    return np.array(
        [
            damp * (x0 * c + y0 * s),
            damp * (-x0 * s + y0 * c),
            zstar + (z0 - zstar) * np.exp(-gsum * t),
        ]
    )


def test_expm_identity_and_scaling():
    gen = np.array([[0.0, 1.0], [-1.0, 0.0]])
    assert np.allclose(expm(gen, 0.0), np.eye(2), atol=1e-15)
    quarter = expm(gen, np.pi / 2)
    assert np.allclose(quarter, [[0, 1], [-1, 0]], atol=1e-14)


def test_expm_rejects_nonfinite():
    with pytest.raises(ValueError):
        expm(np.array([[np.nan, 0.0], [0.0, 0.0]]))
    with pytest.raises(ValueError, match="non-finite"):
        expm(np.eye(2), np.inf)


def test_expm_matches_scipy_on_affine_generators():
    # scaled and squared Taylor against scipy's scaled and squared Pade, over
    # t norm(G, 1) from 1e-8 to 1e3 on random admissible systems
    rng = np.random.default_rng(2011)
    worst = 0.0
    for n in range(2, 9):
        for _ in range(3):
            sys, spec = admissible_system(rng, n)
            pieces = affine_generator_set(sys, spec)
            f = rng.uniform(-1.0, 1.0, n - 1)
            gen = pieces[0] + pieces[-1] + sum(fm * p for fm, p in zip(f, pieces[1:-1]))
            norm = np.abs(gen).sum(axis=0).max()
            for x in np.logspace(-8, 3, 12):
                ref = scipy.linalg.expm(gen * (x / norm))
                dev = np.max(np.abs(expm(gen, x / norm) - ref)) / np.max(np.abs(ref))
                worst = max(worst, dev)
    assert worst <= 1e-13


@pytest.mark.parametrize("t", [1e-9, 0.3, 2.0, 40.0, 1e3])
def test_expm_closed_forms(t):
    omega = 1.7
    rotation = expm(np.array([[0.0, -omega], [omega, 0.0]]), t)
    c, s = np.cos(omega * t), np.sin(omega * t)
    assert np.max(np.abs(rotation - [[c, -s], [s, c]])) <= 1e-14 * max(1.0, omega * t)
    rates = np.array([0.05, 0.3, 1.1])
    decay = expm(np.diag(-rates), t)
    expected = np.exp(-rates * t)
    assert np.all(np.abs(np.diag(decay) - expected) <= 1e-14 * expected * max(1.0, rates[-1] * t))
    assert np.all(decay[~np.eye(3, dtype=bool)] == 0.0)


def test_stacked_expm_matches_single_calls():
    # one call over a stack runs Horner at the largest degree any matrix
    # needs and squares each matrix its own number of times; with t per
    # matrix or one t for all, each row is the single call's result
    rng = np.random.default_rng(2005)
    sys, spec = admissible_system(rng, 3)
    pieces = np.array(affine_generator_set(sys, spec))
    gens = np.array([_combine(pieces, f) for f in rng.uniform(-1.0, 1.0, (24, 2))])
    t = np.logspace(-8, 3, 24) / np.abs(gens).sum(axis=1).max(axis=1)
    for ts in (t, t[7]):
        stacked = expm(gens, ts)
        for g, tk, e in zip(gens, np.broadcast_to(ts, 24), stacked):
            single = expm(g, tk)
            assert np.max(np.abs(e - single)) <= 1e-15 * np.max(np.abs(single))


def test_free_decay_matches_closed_form():
    sys, spec = make_qubit()
    rho0 = from_pure([1, 1])  # starts at bloch (1, 0, 0)
    field = ControlField.constant([0.0, 0.0], duration=10.0 / BIG_GAMMA)
    traj = propagate(sys, spec, field, rho0, sample_dt=0.05)
    v0 = traj.bloch[0]
    for idx in range(0, len(traj.times), 25):
        expected = free_decay_bloch(v0, traj.times[idx])
        assert np.max(np.abs(traj.bloch[idx] - expected)) < 1e-10


def test_coherence_magnitude_decay():
    # |rho_12(t)| = 0.5 exp(-Gamma t) from an equal superposition
    sys, spec = make_qubit()
    field = ControlField.constant([0.0, 0.0], duration=8.0)
    traj = propagate(sys, spec, field, from_pure([1, 1]), sample_dt=0.1)
    mags = np.abs(traj.rho[:, 0, 1])
    assert np.max(np.abs(mags - 0.5 * np.exp(-BIG_GAMMA * traj.times))) < 1e-12


def test_population_pumping_closed_form():
    # With no upward pumping the ground population fills as 1 - exp(-g t).
    sys, spec = make_qubit(g12=0.25, g21=0.0)
    field = ControlField.constant([0.0, 0.0], duration=20.0)
    traj = propagate(sys, spec, field, from_pure([0, 1]), sample_dt=0.05)
    p_ground = np.real(traj.rho[:, 0, 0])
    assert np.max(np.abs(p_ground - (1.0 - np.exp(-0.25 * traj.times)))) < 1e-12


def test_trace_conserved_along_trajectory():
    sys, spec = make_qubit()
    field = ControlField(segments=((2.0, (0.6, 0.0)), (3.0, (-0.2, 0.4))))
    traj = propagate(sys, spec, field, from_pure([1, 0]), sample_dt=0.05)
    traces = np.einsum("tii->t", traj.rho)
    assert np.max(np.abs(traces - 1.0)) < 1e-12
    assert np.max(np.abs(traj.trace_part - 1.0)) < 1e-12


def test_hermiticity_preserved():
    sys, spec = make_qubit()
    field = ControlField(segments=((1.5, (0.9, -0.7)), (1.5, (0.0, 1.1))))
    traj = propagate(sys, spec, field, from_pure([1, 0.5]), sample_dt=0.03)
    herm = np.max(np.abs(traj.rho - np.conj(np.swapaxes(traj.rho, 1, 2))))
    assert herm < 1e-9


def test_semigroup_composition():
    sys, spec = make_qubit()
    gen = total_generator(sys, spec, (0.4, -0.6))
    one = expm(gen, 0.7) @ expm(gen, 1.9)
    direct = expm(gen, 2.6)
    assert np.max(np.abs(one - direct)) < 1e-11


def test_bloch_norm_contracts_without_pumping_asymmetry():
    # Symmetric rates make the ball shrink toward the center, so the norm
    # must be non-increasing along any controlled trajectory.
    sys, spec = make_qubit(g12=0.1, g21=0.1)
    field = ControlField(segments=((2.0, (1.2, 0.3)), (2.0, (-0.5, 0.8))))
    traj = propagate(sys, spec, field, from_pure([1, 1j]), sample_dt=0.02)
    norms = np.linalg.norm(traj.bloch, axis=1)
    assert np.all(np.diff(norms) < 1e-10)


def test_sampled_route_matches_exact_route():
    # A piecewise-constant field can run through either integrator; the
    # fixed-step route converges to the exact semigroup product.
    sys, spec = make_qubit()
    segs = ((1.0, (0.7, 0.0)), (1.5, (-0.4, 0.5)))
    exact = propagate(sys, spec, ControlField(segments=segs), from_pure([1, 0]),
                      sample_dt=0.25)
    sampled = propagate(sys, spec, ControlField(segments=segs, kind="sampled"),
                        from_pure([1, 0]), sample_dt=0.0005)
    # compare at the common final time
    err = np.max(np.abs(sampled.rho[-1] - exact.rho[-1]))
    assert err < 1e-9
    assert sampled.times[-1] == pytest.approx(exact.times[-1])


def test_sample_times_hit_segment_boundaries():
    sys, spec = make_qubit()
    field = ControlField(segments=((1.0, (0.3, 0.0)), (0.7, (0.0, 0.2))))
    traj = propagate(sys, spec, field, from_pure([1, 0]), sample_dt=0.3)
    assert traj.times[0] == 0.0
    assert np.any(np.abs(traj.times - 1.0) < 1e-12)
    assert traj.times[-1] == pytest.approx(1.7)
    assert np.all(np.diff(traj.times) > 0)


def test_duration_truncates_field():
    sys, spec = make_qubit()
    field = ControlField(segments=((2.0, (0.5, 0.0)), (2.0, (0.0, 0.0))))
    traj = propagate(sys, spec, field, from_pure([1, 0]), sample_dt=0.1,
                     duration=1.3)
    assert traj.times[-1] == pytest.approx(1.3)
    with pytest.raises(ValueError):
        propagate(sys, spec, field, from_pure([1, 0]), duration=4.5)
    with pytest.raises(SemigroupDomainError):
        propagate(sys, spec, field, from_pure([1, 0]), duration=-1.0)


def clipped_by_the_segment_loop(field, duration):
    """(durations, rows) as propagate once clipped them, one segment at a time."""
    segs = []
    left = duration
    for dur, values in field.segments:
        if left <= 0:
            break
        take = min(dur, left)
        if take > 0:
            segs.append((take, values))
        left -= take
    return np.array([d for d, _ in segs]), np.array([v for _, v in segs])


@settings(derandomize=True, max_examples=300, deadline=None)
@given(durations=st.lists(st.floats(1e-6, 10.0), min_size=1, max_size=12),
       seed=st.integers(0, 2**32 - 1),
       cut=st.sampled_from(["zero", "uniform", "at a segment end", "past a segment end", "whole"]))
def test_clip_matches_the_segment_loop_bit_for_bit(durations, seed, cut):
    rng = np.random.default_rng(seed)
    field = ControlField(segments=tuple((d, rng.uniform(-1.0, 1.0, 2)) for d in durations))
    k = int(rng.integers(0, len(durations)))
    # the loop subtracts in turn, so sums taken in turn hit its segment ends
    end = sum(durations[1:k + 1], durations[0])
    duration = {"zero": 0.0, "uniform": rng.uniform(0.0, field.total_duration),
                "at a segment end": end, "past a segment end": np.nextafter(end, np.inf),
                "whole": field.total_duration}[cut]
    got = dynamics._effective_segments(field, duration)
    want = clipped_by_the_segment_loop(field, duration)
    assert got[0].tobytes() == want[0].tobytes()
    assert got[1].reshape(-1).tobytes() == want[1].reshape(-1).tobytes()


def test_complex_input_with_zero_imaginary_parts_is_read_as_real():
    sys, spec = make_qubit()
    assert (steady_state(sys, spec, [0.3 + 0j, 0j]).bloch.tobytes()
            == steady_state(sys, spec, [0.3, 0.0]).bloch.tobytes())
    amps = np.linspace(-1.0, 1.0, 7)
    assert (steady_state_sweep(sys, spec, 0, amps + 0j).points.tobytes()
            == steady_state_sweep(sys, spec, 0, amps).points.tobytes())
    rescaled = [ControlSystem(h0=sys.h0, controls=sys.controls, hbar=h) for h in (2.0 + 0j, 2.0)]
    assert (steady_state(rescaled[0], spec, [0.3, 0.0]).bloch.tobytes()
            == steady_state(rescaled[1], spec, [0.3, 0.0]).bloch.tobytes())
    v = [CoherenceVector(bloch=[0.5 + 0j, 0j, 0j], trace_part=1.0 + 0j),
         CoherenceVector(bloch=[0.5, 0.0, 0.0], trace_part=1.0)]
    assert from_coherence_vector(v[0]).tobytes() == from_coherence_vector(v[1]).tobytes()


def test_propagate_rejects_unphysical_initial_state():
    sys, spec = make_qubit()
    field = ControlField.constant([0.0, 0.0], duration=1.0)
    with pytest.raises(UnphysicalStateError):
        propagate(sys, spec, field, np.diag([1.4, -0.4]), sample_dt=0.1)


@pytest.mark.parametrize("dt", [-1.0, 0.0, float("nan"), float("inf"), 1e-9, 1e-320])
def test_propagate_refuses_bad_sample_grids(dt):
    # not positive and finite, or 8e9 samples and more: a ValueError before
    # the first step
    sys, spec = make_qubit()
    field = ControlField.constant([0.0, 0.0], duration=8.0)
    with pytest.raises(InputError, match="sample_dt") as err:
        propagate(sys, spec, field, from_pure([1, 0]), sample_dt=dt)
    assert isinstance(err.value, ValueError)


def test_default_grid_too_large_to_hold_is_refused():
    # rates of 1e12 give a default sample_dt near 1e-13; over 1e-3 time
    # units they keep the phase at 3e8, inside MAX_PHASE
    sys, spec = make_qubit(BIG_GAMMA * 1e12, G12 * 1e12, G21 * 1e12)
    field = ControlField.constant([0.0, 0.0], duration=1e-3)
    with pytest.raises(InputError, match="past the 64 MB bound"):
        propagate(sys, spec, field, from_pure([1, 0]))


def test_default_grid_of_rates_whose_norm_overflows_is_refused():
    # norm(L) of rates 1e160 overflows: the default sample_dt is 0, which the
    # grid check refuses, with no overflow warning or ZeroDivisionError first.
    # Over 1e-155 time units the phase is 2e5, inside MAX_PHASE
    sys, spec = make_qubit(1e160, 1e160, 1e160)
    field = ControlField.constant([0.0, 0.0], duration=1e-155)
    with pytest.raises(InputError, match="^sample_dt 0 gives inf samples .* past the 64 MB bound"):
        propagate(sys, spec, field, from_pure([1, 0]))


def test_zero_generator_takes_one_sample_per_segment():
    # G = 0 bounds no step, so the default grid is the whole duration and
    # each segment is one step to its end
    sys = ControlSystem(h0=np.zeros((2, 2)), controls=(np.array([[0.0, 1.0], [1.0, 0.0]]),))
    field = ControlField(segments=((0.5, (0.0,)), (1.5, (0.0,)), (1.0, (0.0,))))
    rho0 = from_pure([1, 1j])
    traj = propagate(sys, DissipationSpec.zero(2), field, rho0)
    np.testing.assert_array_equal(traj.times, [0.0, 0.5, 2.0, 3.0])
    assert np.max(np.abs(traj.rho - rho0)) <= 1e-15


def test_default_sample_dt_scales_with_generator_norm():
    # it reads norm(L, 'fro') = sqrt(norm(A)^2 + (N / 2) norm(b)^2) from the
    # affine G = [[A, b], [0, 0]] that propagate holds, without forming L
    rng = np.random.default_rng(15)
    for dim in (2, 3, 4, 5, 8):
        sys, spec = admissible_system(rng, dim)
        f = rng.uniform(-1.0, 1.0, sys.n_controls)
        gen = _combine(np.array(affine_generator_set(sys, spec)), f)
        norm = np.linalg.norm(total_generator(sys, spec, f))
        assert default_sample_dt([gen], 10.0) == pytest.approx(0.1 / norm, rel=1e-14)
        assert default_sample_dt([gen, 10.0 * gen], 10.0) == pytest.approx(0.01 / norm, rel=1e-14)


def test_propagate_builds_the_generator_once_without_sample_dt(monkeypatch):
    # the default grid reads norm(L) from the affine stack propagate already
    # holds, with no second build of the complex pieces
    builds = []
    build = liouville.generator_pieces

    def counted(sys_, spec_):
        builds.append(sys_)
        return build(sys_, spec_)

    for module in (liouville, algebra, dynamics):
        if hasattr(module, "generator_pieces"):
            monkeypatch.setattr(module, "generator_pieces", counted)
    sys, spec = make_qubit()
    propagate(sys, spec, ControlField.constant([0.3, 0.1], duration=2.0), from_pure([1, 0]))
    assert len(builds) == 1


def test_default_grid_holds_one_generator_at_a_time():
    # the default sample_dt reads each segment's norm in turn: 2,000 one-step
    # slices at N = 8 peak as with the same grid given, not with 2,000
    # generators of 32 KB held at once
    rng = np.random.default_rng(8)
    sys, spec = admissible_system(rng, 8)
    field = ControlField(segments=tuple((1e-3, f) for f in rng.uniform(-1.0, 1.0, (2000, 7))))
    rho0 = 0.5 * from_pure(np.ones(8)) + 0.5 * np.eye(8) / 8
    peaks = []
    for sample_dt in (None, 1e-3):
        tracemalloc.start()
        try:
            assert len(propagate(sys, spec, field, rho0, sample_dt=sample_dt).times) == 2001
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[0] <= 1.5 * peaks[1]


def _sampled_run(sample_dt, energies=(0.0, 10.0)):
    cfg = load_template("quasi_spin_qubit")
    sys = ControlSystem(h0=np.diag(energies).astype(complex), controls=cfg.system.controls)
    return propagate(sys, cfg.dissipation, cfg.field, cfg.rho0, sample_dt=sample_dt)


def test_rk4_step_past_the_stability_bound_is_refused():
    # h rho(A) = 2.04 at sample_dt 0.2 on the first segment, whose A has
    # spectral radius 10.2; 1.5 / 10.2 = 0.1471 admits it, and the final
    # state then errs by 0.10 against sample_dt 0.01
    with pytest.raises(InputError, match="^segment 0: RK4 step 0.2 times the spectral radius "
                                         "10.2 of A\\(f\\) passes the 1.5 stability bound; "
                                         "sample_dt 0.147 or less admits every segment$"):
        _sampled_run(0.2)
    reference = _sampled_run(0.01).bloch[-1]
    assert np.abs(_sampled_run(0.147).bloch[-1] - reference).max() < 0.15


def test_cheap_rk4_bound_spares_the_eigenvalues(monkeypatch):
    # the bound on h norm(G, 1), one product over the stack, clears every
    # segment of the shipped template. At sample_dt 0.5 it is 1.85/1.61/
    # 1.37/0.85 per segment, so the first two take an eigenvalue solve and
    # pass with h rho(A) = 1.25/0.98; the exact route takes none
    calls = []
    eigvals = np.linalg.eigvals
    monkeypatch.setattr(dynamics.np.linalg, "eigvals", lambda m: calls.append(m) or eigvals(m))
    cfg = load_template("quasi_spin_qubit")
    propagate(cfg.system, cfg.dissipation, cfg.field, cfg.rho0, sample_dt=cfg.sample_dt)
    assert len(calls) == 0
    propagate(cfg.system, cfg.dissipation, cfg.field, cfg.rho0, sample_dt=0.5)
    assert len(calls) == 2
    exact = ControlField(segments=cfg.field.segments, kind="piecewise")
    propagate(cfg.system, cfg.dissipation, exact, cfg.rho0, sample_dt=0.5)
    assert len(calls) == 2


@pytest.mark.parametrize("kind", ["piecewise", "sampled"])
def test_overflowing_generator_is_a_value_error(kind):
    # finite energies whose commutator overflows are a fault of the input,
    # reported before any step, not an unphysical state at the first sample
    sx = np.array([[0, 1], [1, 0]], dtype=complex)
    sys = ControlSystem(h0=np.diag([1e308, -1e308]).astype(complex), controls=(sx,))
    field = ControlField(segments=((1.0, (0.1,)),), kind=kind)
    with pytest.raises(ValueError, match="overflow"):
        propagate(sys, DissipationSpec.zero(2), field, from_pure([1, 0]), sample_dt=0.1)


@pytest.mark.parametrize("kind", ["piecewise", "sampled"])
def test_overflowing_amplitude_is_a_value_error(kind):
    # finite pieces and a finite amplitude whose weighted sum overflows are
    # found once, before any step, not as NaN states or warnings
    sys, spec = make_qubit()
    field = ControlField(segments=((1.0, (0.1, 0.0)), (1.0, (1.5e308, 0.0))), kind=kind)
    with pytest.raises(ValueError, match="segment 1: field amplitudes overflow"):
        propagate(sys, spec, field, from_pure([1, 0]), sample_dt=0.1)


def test_phase_bound_admits_accurate_runs_and_refuses_the_rest():
    # f = 0 from the excited state: only relaxation moves z, so the exact
    # z(8) does not depend on omega, while rounding in exp(G t) grows with
    # the phase 8 omega. 8e9 is admitted and still accurate; 1.6e10 is
    # refused before any step
    field = ControlField.constant([0.0, 0.0], duration=8.0)
    exact = free_decay_bloch((0.0, 0.0, -1.0), 8.0)[2]
    sys, spec = make_qubit(omega=1e9)
    traj = propagate(sys, spec, field, from_pure([0, 1]), sample_dt=0.02)
    assert traj.bloch[0, 2] == -1.0
    assert abs(traj.bloch[-1, 2] - exact) < PROPAGATION_TOL
    sys, spec = make_qubit(omega=2e9)
    with pytest.raises(InputError, match="segment 0: generator phase 1.6e\\+10 passes the "
                                         "1e\\+10 bound"):
        propagate(sys, spec, field, from_pure([0, 1]), sample_dt=0.02)


@pytest.mark.parametrize("template, kind", [("driven_qubit", "piecewise"),
                                            ("quasi_spin_qubit", "sampled")])
@pytest.mark.parametrize("energy", [1e16, 1e200])
def test_phase_without_digits_is_refused(template, kind, energy):
    # the piecewise route returned the linearized z(8) = 0.6000000000000013
    # at 1e16, the sampled route NaN states after overflow warnings at 1e200
    cfg = load_template(template)
    sys = ControlSystem(h0=np.diag([energy, -energy]).astype(complex),
                        controls=cfg.system.controls)
    assert cfg.field.kind == kind
    with pytest.raises(InputError, match="segment 0: generator phase .* passes the 1e\\+10"):
        propagate(sys, cfg.dissipation, cfg.field, cfg.rho0, sample_dt=cfg.sample_dt)


@pytest.mark.parametrize("dephasing", [1e8, 1e9, 3e9])
def test_phase_bound_admits_stiff_runs_that_keep_their_digits(dephasing):
    # a driven qubit (d = 0.5, f = 1) that relaxes at rate 1 over one 3-unit
    # segment, at phases 3e8-9e9: the final states at sample_dt 3 and 0.001
    # differ by 3.2e-9/3.3e-8/1.3e-7, growing with the rate; at dephasing
    # 1e12 they differed by 3.7e-5, and the phase bound refuses it
    sys = ControlSystem(h0=np.diag([0.0, 1.0]).astype(complex),
                        controls=(0.5 * np.array([[0, 1], [1, 0]], dtype=complex),))
    spec = DissipationSpec(dephasing=[[0.0, dephasing], [dephasing, 0.0]],
                           relaxation=[[0.0, 1.0], [0.0, 0.0]])
    field = ControlField(segments=((3.0, (1.0,)),))
    finals = [propagate(sys, spec, field, from_pure([1, 1]), sample_dt=dt).bloch[-1]
              for dt in (3.0, 0.001)]
    assert np.abs(finals[0] - finals[1]).max() < 1.5 * PROPAGATION_TOL


def _refused_call(case):
    sys, spec = make_qubit()
    field = ControlField.constant([0.0, 0.0], duration=1.0)
    amps = [0.0, 0.5, 1.0, 1.5, 2.0, 2.5]
    if case == "validity_tol":
        return propagate(sys, spec, field, from_pure([1, 0]), validity_tol=0.0)
    if case == "overflowing_segment":
        overflow = ControlField(segments=((1.0, (0.1, 0.0)), (1.0, (1.5e308, 0.0))))
        return propagate(sys, spec, overflow, from_pure([1, 0]), sample_dt=0.1)
    if case == "non_finite_amplitude":
        return steady_state_sweep(sys, spec, 0, amps[:3] + [np.nan] + amps[3:])
    if case == "too_few_amplitudes":
        return steady_state_sweep(sys, spec, 0, amps[:5])
    return steady_state_sweep(sys, spec, 5, amps)


@pytest.mark.parametrize("case", ["validity_tol", "overflowing_segment", "non_finite_amplitude",
                                  "too_few_amplitudes", "control_out_of_range"])
def test_refused_arguments_raise_one_error_class(case):
    # a ValueError to library callers and a config error to the CLI, which
    # reports it (exit 2) by its class and checks nothing itself
    with pytest.raises(InputError) as err:
        _refused_call(case)
    assert isinstance(err.value, ConfigError) and isinstance(err.value, ValueError)


def test_degree_four_taylor_step_is_the_classical_rk4_step():
    rng = np.random.default_rng(44)
    for n in (4, 9, 16, 25):
        gen = rng.standard_normal((n, n))
        u = rng.standard_normal(n)
        h = 0.3 / np.linalg.norm(gen, 2)
        k1 = gen @ u
        k2 = gen @ (u + 0.5 * h * k1)
        k3 = gen @ (u + 0.5 * h * k2)
        k4 = gen @ (u + h * k3)
        rk4 = u + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        assert np.linalg.norm(_taylor(gen, h, u, 4) - rk4) <= 1e-15 * np.linalg.norm(rk4)


def test_taylor_degree_is_the_least_whose_bound_covers_the_step():
    # one lookup per entry, scalar or array, and 0 past the last bound
    bounds = sorted(TAYLOR_THETA.items())
    steps, expected = [], []
    for (m, theta), (above, _) in zip(bounds, bounds[1:]):
        steps += [theta * (1 - 1e-9), theta * (1 + 1e-9)]
        expected += [m, above]
    steps.append(bounds[-1][1] * (1 + 1e-9))
    expected.append(0)
    assert dynamics._taylor_degree(np.array(steps)).tolist() == expected
    assert [dynamics._taylor_degree(x) for x in steps] == expected


def counting_expm(monkeypatch):
    calls = []

    def counted(m, t=1.0):
        calls.append(t)
        return expm(m, t)

    monkeypatch.setattr(dynamics, "expm", counted)
    return calls


def test_short_slices_apply_the_exponential_without_forming_it(monkeypatch):
    # 200 slices of 0.6 to 1.4 sample steps at N = 8: every step is the
    # Taylor action, so a silent fallback to forming exp(G t) shows here
    rng = np.random.default_rng(8)
    sys, spec = admissible_system(rng, 8)
    values = rng.uniform(-1.0, 1.0, (200, 7))
    pieces = generator_pieces(sys, spec)
    gens = [pieces[0] + sum(fm * p for fm, p in zip(f, pieces[1:-1])) + pieces[-1]
            for f in values]
    dt = 0.05 / max(np.linalg.norm(g, 1) for g in gens)
    durs = dt * rng.uniform(0.6, 1.4, 200)
    segs = tuple(zip(durs, values))
    rho0 = from_pure(np.ones(8) / np.sqrt(8))
    calls = counting_expm(monkeypatch)
    traj = propagate(sys, spec, ControlField(segments=segs), rho0, sample_dt=dt)
    assert calls == []
    # the ordered product over the first 20 slices; more only costs time
    v = vectorize(rho0)
    for dur, g in zip(durs[:20], gens):
        v = scipy.linalg.expm(g * dur) @ v
    k = np.argmin(np.abs(traj.times - np.cumsum(durs)[19]))
    assert np.max(np.abs(traj.rho[k] - v.reshape(8, 8))) <= 1e-12


@pytest.mark.parametrize("scale, dur", [
    (1e6, 1e-3),  # t norm(G, 1) far past the last Taylor bound: formed
    (1.0, 0.5),  # within the bounds at N = 2: formed with its block by the same one call
])
def test_steps_past_the_taylor_bounds_form_the_exponential(monkeypatch, scale, dur):
    sys, spec = make_qubit(BIG_GAMMA * scale, G12 * scale, G21 * scale)
    f = (0.4, -0.3)
    calls = counting_expm(monkeypatch)
    traj = propagate(sys, spec, ControlField(segments=((dur, f),)), from_pure([1, 1]),
                     sample_dt=1.0)
    assert calls == [dur]
    expected = scipy.linalg.expm(total_generator(sys, spec, f) * dur) @ vectorize(from_pure([1, 1]))
    assert np.max(np.abs(traj.rho[-1] - expected.reshape(2, 2))) <= 1e-12


@pytest.mark.parametrize("kind", ["piecewise", "sampled"])
@pytest.mark.parametrize("dim", [2, 3, 5, 8])
@pytest.mark.parametrize("n", [1, 2, 3, 4, 7, 8, 9, 1000, 2047, 2048, 2049])
def test_samples_are_powers_of_the_step_operator(kind, dim, n):
    # a one-step segment, then n steps: every sample against the sequential
    # product p^k u0, with p = exp(G h) or the RK4 step T_4(hG)
    rng = np.random.default_rng(dim)
    sys, spec = admissible_system(rng, dim)
    values = rng.uniform(-1.0, 1.0, (2, dim - 1))
    gens = [_combine(np.array(affine_generator_set(sys, spec)), f) for f in values]
    dur = 0.3 / max(np.linalg.norm(g, 1) for g in gens)
    h = dur / n
    rho0 = 0.5 * from_pure(rng.standard_normal(dim)) + 0.5 * np.eye(dim) / dim
    traj = propagate(sys, spec, ControlField(segments=((h, values[0]), (dur, values[1])),
                                             kind=kind), rho0, sample_dt=h)
    assert len(traj.times) == n + 2
    u = np.append(traj.bloch[0], traj.trace_part[0])
    expected = [u]
    for g, steps in zip(gens, (1, n)):
        p = expm(g, h) if kind == "piecewise" else _taylor(g, h, np.eye(len(g)), 4)
        for _ in range(steps):
            expected.append(p @ expected[-1])
    got = np.column_stack([traj.bloch, traj.trace_part])
    expected = np.array(expected)
    assert np.max(np.abs(got - expected)) <= 1e-13 * np.max(np.abs(expected))
    # t0 + k h after the first segment, whose end t0 = h is exact
    times = np.concatenate([[0.0, h], h + np.arange(1, n + 1) * h])
    times[-1] = h + dur
    np.testing.assert_array_equal(traj.times, times)


def sequential_route(sys, spec, segments, kind, u0, dt):
    """Samples and times of the per-segment route: one or two steps by the
    Taylor action, more steps (or past the last Taylor bound) by powers of p."""
    gens = np.array(affine_generator_set(sys, spec))
    us, times, t0 = [u0], [0.0], 0.0
    for dur, values in segments:
        n = max(1, int(np.ceil(dur / dt - GRID_STEP_SLACK)))
        gen, h = _combine(gens, values), dur / n
        degree = 4
        if kind == "piecewise":
            degree = dynamics._taylor_degree(h * np.abs(gen).sum(axis=0).max())
        formed = n > 2 or not degree
        if formed:
            p = expm(gen, h) if kind == "piecewise" else _taylor(gen, h, np.eye(len(gen)), 4)
        for k in range(1, n + 1):
            us.append(p @ us[-1] if formed else _taylor(gen, h, us[-1], degree))
            times.append(t0 + k * h)
        t0 += dur
        times[-1] = t0
    return np.array(us), np.array(times)


@pytest.mark.parametrize("kind", ["piecewise", "sampled"])
@pytest.mark.parametrize("dim", [2, 3, 4, 5, 6])
def test_batched_short_steps_match_the_sequential_route(monkeypatch, kind, dim):
    # 75 segments in blocks of 16, of one or two steps mixed with long ones
    # and, for exact steps, with slices past the last Taylor bound, which
    # keep exp(G h)
    monkeypatch.setattr(dynamics, "STEP_BATCH_BYTES", 16 * 8 * dim ** 4)
    rng = np.random.default_rng(100 + dim)
    sys, spec = admissible_system(rng, dim)
    gens = np.array(affine_generator_set(sys, spec))
    values = rng.uniform(-1.0, 1.0, (75, dim - 1))
    dt = 0.05 / max(np.abs(_combine(gens, f)).sum(axis=0).max() for f in values)
    reach = rng.choice([0.6, 1.5, 5.0, 0.9], 75, p=[0.4, 0.3, 0.2, 0.1])
    if kind == "piecewise":
        values[reach == 0.9] *= 2000.0
    durs = dt * reach * rng.uniform(0.9, 1.05, 75)
    segments = tuple(zip(durs.tolist(), values))
    rho0 = 0.5 * from_pure(rng.standard_normal(dim)) + 0.5 * np.eye(dim) / dim
    traj = propagate(sys, spec, ControlField(segments=segments, kind=kind), rho0, sample_dt=dt)
    got = np.column_stack([traj.bloch, traj.trace_part])
    expected, times = sequential_route(sys, spec, segments, kind, got[0], dt)
    assert np.max(np.abs(got - expected)) <= 1e-13 * np.max(np.abs(expected))
    np.testing.assert_array_equal(traj.times, times)
    if kind == "piecewise":
        past = [dynamics._taylor_degree(d * np.abs(_combine(gens, f)).sum(axis=0).max()) == 0
                for d, f in segments]
        assert 0 < sum(past) < 75


@pytest.mark.parametrize("kind", ["piecewise", "sampled"])
def test_short_slices_take_no_per_step_action(monkeypatch, kind):
    # 200 slices of 0.6 to 1.4 sample steps at N = 3: every step operator is
    # formed in a batch, so no step applies the Taylor polynomial to a vector
    rng = np.random.default_rng(3)
    sys, spec = admissible_system(rng, 3)
    gens = np.array(affine_generator_set(sys, spec))
    values = rng.uniform(-1.0, 1.0, (200, 2))
    dt = 0.05 / max(np.abs(_combine(gens, f)).sum(axis=0).max() for f in values)
    segments = tuple(zip(dt * rng.uniform(0.6, 1.4, 200), values))
    actions = []
    taylor = dynamics._taylor

    def counted(gen, t, u, degree):
        if np.ndim(u) == 1:
            actions.append(t)
        return taylor(gen, t, u, degree)

    monkeypatch.setattr(dynamics, "_taylor", counted)
    rho0 = 0.5 * from_pure([1, 1, 1]) + 0.5 * np.eye(3) / 3
    traj = propagate(sys, spec, ControlField(segments=segments, kind=kind), rho0, sample_dt=dt)
    assert len(traj.times) > 201
    assert actions == []


def test_many_short_slices_form_their_step_operators_in_bounded_blocks():
    # 20,000 one-step slices at N = 5: the density stack holds 7.6 MB, and
    # the step operators of all slices at once would hold 95 MB more
    rng = np.random.default_rng(5)
    sys, spec = admissible_system(rng, 5)
    field = ControlField(segments=tuple((7e-3, f) for f in rng.uniform(-1.0, 1.0, (20000, 4))))
    rho0 = 0.5 * from_pure(np.ones(5)) + 0.5 * np.eye(5) / 5
    tracemalloc.start()
    try:
        traj = propagate(sys, spec, field, rho0, sample_dt=0.01)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(traj.times) == 20001
    assert peak <= 5 * traj.rho.nbytes


def counting_eigvalsh(monkeypatch):
    calls = []
    eigvalsh = np.linalg.eigvalsh

    def counted(a, *args, **kwargs):
        calls.append(np.shape(a))
        return eigvalsh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigvalsh", counted)
    return calls


def test_passing_trajectory_computes_no_eigenvalues(monkeypatch):
    calls = counting_eigvalsh(monkeypatch)
    for dim in (2, 3):
        rng = np.random.default_rng(3)
        sys, spec = admissible_system(rng, dim)
        rho0 = 0.5 * from_pure(np.ones(dim)) + 0.5 * np.eye(dim) / dim
        traj = propagate(sys, spec,
                         ControlField(segments=((2.0, np.linspace(0.5, -0.3, dim - 1)),)),
                         rho0, sample_dt=1e-3)
        assert len(traj.times) == 2001
        assert calls == []


@pytest.mark.parametrize("dim", [2, 3, 5, 8])
def test_pure_state_under_zero_rates_passes_without_eigenvalues(monkeypatch, dim):
    # a pure state keeps its zero eigenvalue under unitary evolution, so no
    # anchor proves the samples near it; the certificate proves every one
    calls = counting_eigvalsh(monkeypatch)
    rng = np.random.default_rng(40 + dim)
    sys, _ = admissible_system(rng, dim)
    field = ControlField(segments=((2.0, rng.uniform(-1.0, 1.0, dim - 1)),))
    rho0 = from_pure(rng.standard_normal(dim) + 1j * rng.standard_normal(dim))
    traj = propagate(sys, DissipationSpec.zero(dim), field, rho0, sample_dt=1e-3)
    assert len(traj.times) == 2001
    assert calls == []
    assert np.max(np.abs(traj.purities() - 1.0)) <= 1e-12


def test_passing_trajectory_holds_less_than_its_density_stack():
    # 20,001 samples at N = 5: the coordinates take 8 N^2 bytes a sample, the
    # density matrices 16 N^2, and a passing trajectory is checked without
    # them. Measured peak 6.97 MB against the 7.63 MB stack (27.35 MB while
    # propagate rebuilt and checked every matrix)
    rng = np.random.default_rng(5)
    sys, spec = admissible_system(rng, 5)
    rho0 = 0.5 * from_pure(np.ones(5)) + 0.5 * np.eye(5) / 5
    field = ControlField(segments=((20.0, np.linspace(0.5, -0.3, 4)),))
    tracemalloc.start()
    try:
        traj = propagate(sys, spec, field, rho0, sample_dt=1e-3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(traj.times) == 20001
    assert peak < 16 * 25 * len(traj.times) == traj.rho.nbytes


def verdict_case(rng, dim, kind):
    """(system, dissipation, field, initial state) of one kind of run.

    "admissible": pair-rule rates, which at N >= 3 need not be completely
    positive, from a mixed or a pure state; "dephasing": dephasing only
    between the outer levels, not completely positive at N >= 3, which
    drives the uniform superposition out of the physical set at once, and
    a mixture of it with I / N after a time; "unitary": a pure state under
    zero rates, on the boundary throughout.
    """
    if kind == "dephasing":
        deph = np.zeros((dim, dim))
        deph[0, -1] = deph[-1, 0] = 1.0
        w = rng.uniform(0.9, 1.0)
        return (ControlSystem(h0=np.diag(np.linspace(0.0, 2.5, dim)).astype(complex),
                              controls=()),
                DissipationSpec(dephasing=deph, relaxation=np.zeros((dim, dim))),
                ControlField(segments=((1.0, ()),)),
                w * from_pure(np.ones(dim)) + (1.0 - w) * np.eye(dim) / dim)
    sys, spec = admissible_system(rng, dim)
    field = ControlField(segments=tuple((float(rng.uniform(0.2, 1.0)),
                                         rng.uniform(-1.0, 1.0, dim - 1)) for _ in range(2)))
    pure = from_pure(rng.standard_normal(dim) + 1j * rng.standard_normal(dim))
    if kind == "unitary":
        return sys, DissipationSpec.zero(dim), field, pure
    w = rng.uniform(0.0, 1.0)
    return sys, spec, field, w * pure + (1.0 - w) * np.eye(dim) / dim


def outcome(call):
    """None when call() passes, else the message of its UnphysicalStateError."""
    try:
        call()
    except UnphysicalStateError as exc:
        return str(exc)
    return None


def eigvalsh_outcome(stack, tol, times):
    """check_density's outcome read independently: every entry, one eigvalsh per matrix."""
    for t, m in zip(times, stack):
        herm = np.max(np.abs(m - m.conj().T))
        tr = np.trace(m)
        trace = abs(tr.real - 1.0) + abs(tr.imag)
        mineig = np.linalg.eigvalsh(0.5 * (m + m.conj().T))[0] if np.isfinite(m).all() else np.nan
        if not (herm <= tol and trace <= STATE_TRACE_TOL and mineig >= -tol):
            return ("state left the physical set at t=%.6g: hermiticity %.3g, trace offset %.3g, "
                    "min eigenvalue %.3g" % (t, herm, trace, mineig))
    return None


@settings(derandomize=True, max_examples=60, deadline=None)
@given(dim=st.integers(2, 6), seed=st.integers(0, 2**32 - 1),
       kind=st.sampled_from(["admissible", "dephasing", "unitary"]),
       tol=st.sampled_from([1e-9, PROPAGATION_TOL]), sample_dt=st.sampled_from([2e-3, 1e-2, 0.1]))
def test_propagate_verdict_is_that_of_check_density_on_the_rebuilt_samples(dim, seed, kind, tol,
                                                                           sample_dt):
    # the samples do not depend on the tolerance, so a run that no state
    # fails gives them; propagate must then pass, or name the same first
    # failing sample with the same margins, as check_density over their
    # density matrices, and as one eigvalsh per matrix
    sys, spec, field, rho0 = verdict_case(np.random.default_rng(seed), dim, kind)
    traj = propagate(sys, spec, field, rho0, sample_dt=sample_dt, validity_tol=1e3)
    stack = density_from_coordinates(np.column_stack([traj.bloch, traj.trace_part])[1:], dim)
    want = eigvalsh_outcome(stack, tol, traj.times[1:])
    assert outcome(lambda: check_density(stack, tol, times=traj.times[1:])) == want
    assert outcome(lambda: propagate(sys, spec, field, rho0, sample_dt=sample_dt,
                                     validity_tol=tol)) == want
    if kind == "dephasing" and dim > 2:
        assert want is not None
    if kind == "unitary":
        assert want is None


def test_failing_sample_is_judged_by_its_eigenvalues(monkeypatch):
    # pair-rule rates that are not completely positive: zero relaxation and
    # dephasing only between levels 0 and 2 drive the uniform superposition
    # out of the physical set
    sys = ControlSystem(h0=np.diag([0.0, 1.0, 2.5]).astype(complex), controls=())
    deph = np.zeros((3, 3))
    deph[0, 2] = deph[2, 0] = 1.0
    spec = DissipationSpec(dephasing=deph, relaxation=np.zeros((3, 3)))
    calls = counting_eigvalsh(monkeypatch)
    with pytest.raises(UnphysicalStateError, match="left the physical set") as err:
        propagate(sys, spec, ControlField(segments=((2.0, ()),)), from_pure([1, 1, 1]),
                  sample_dt=1e-3)
    assert calls
    assert float(str(err.value).rsplit("min eigenvalue ", 1)[1]) < -PROPAGATION_TOL


def test_unitary_rabi_flop():
    # On resonance in the degenerate frame a constant drive swaps the
    # populations after a quarter period t = pi / (2 d1 f1).
    d1 = 0.8
    f1 = 0.7
    sx = np.array([[0, 1], [1, 0]], dtype=complex)
    sys = ControlSystem(h0=np.zeros((2, 2), dtype=complex), controls=(d1 * sx,))
    t_flip = np.pi / (2.0 * d1 * f1)
    field = ControlField.constant([f1], duration=t_flip)
    traj = propagate(sys, DissipationSpec.zero(2), field, from_pure([1, 0]),
                     sample_dt=t_flip / 64)
    assert abs(np.real(traj.rho[-1][1, 1]) - 1.0) < 1e-12
    assert np.max(np.abs(traj.purities() - 1.0)) < 1e-12


def non_cp_qubit():
    # relaxation 1 -> 0 at rate 0.5 with no dephasing breaks complete
    # positivity: the coherence outlives the populations it needs
    sys = qubit_system(0.0, 1.0, d1=0.8, d2=0.5)
    spec = DissipationSpec(dephasing=np.zeros((2, 2)), relaxation=[[0.0, 0.5], [0.0, 0.0]])
    return sys, spec, np.array([[0.3, 0.45], [0.45, 0.7]], dtype=complex)


@pytest.mark.parametrize("kind", ["piecewise", "sampled"])
def test_validity_failure_mid_trajectory(kind):
    sys, spec, rho0 = non_cp_qubit()
    field = ControlField(segments=((3.0, (0.0, 0.0)),), kind=kind)
    with pytest.raises(UnphysicalStateError, match="left the physical set at t=") as err:
        propagate(sys, spec, field, rho0, sample_dt=0.05)
    named = re.fullmatch(r"state left the physical set at t=(\S+): hermiticity \S+, "
                         r"trace offset \S+, min eigenvalue (\S+)", str(err.value))
    # first grid time at which an independent exponential goes negative
    gen = total_generator(sys, spec, (0.0, 0.0))
    grid = 0.05 * np.arange(1, 61)
    mineigs = [np.linalg.eigvalsh((scipy.linalg.expm(gen * t) @ vectorize(rho0)).reshape(2, 2))[0]
               for t in grid]
    first = int(np.argmax(np.array(mineigs) < -1e-7))
    assert first > 0
    assert named[1] == "%.6g" % grid[first]
    assert float(named[2]) < -1e-7


@pytest.mark.parametrize("tol", [0.0, -1.0, float("nan"), float("inf")])
def test_propagate_rejects_bad_validity_tol(tol):
    sys, spec = make_qubit()
    field = ControlField.constant([0.0, 0.0], duration=1.0)
    with pytest.raises(ValueError, match="validity_tol"):
        propagate(sys, spec, field, from_pure([1, 0]), sample_dt=0.1, validity_tol=tol)


def test_zero_rates_preserve_norm_and_purity():
    sys, _ = make_qubit()
    zero = DissipationSpec.zero(2)
    field = ControlField(segments=((1.0, (0.8, 0.2)), (1.0, (-0.1, -0.6))))
    traj = propagate(sys, zero, field, from_pure([2, 1j]), sample_dt=0.05)
    norms = np.linalg.norm(traj.bloch, axis=1)
    assert np.max(np.abs(norms - norms[0])) < 1e-9
    assert np.max(np.abs(traj.purities() - 1.0)) < 1e-9


def test_trajectory_accessors():
    sys, spec = make_qubit()
    field = ControlField.constant([0.0, 0.0], duration=1.0)
    traj = propagate(sys, spec, field, from_pure([1, 0]), sample_dt=0.25)
    assert traj.dim == 2
    final = to_coherence_vector(traj.rho[-1])
    assert np.allclose(final.bloch, traj.bloch[-1])
    assert traj.trace_part[-1] == pytest.approx(1.0)


def test_dissipator_spectrum_closed_form():
    _, spec = make_qubit()
    report = semigroup_spectrum(build_dissipator(spec))
    expected = np.sort_complex(
        np.array([0.0, -BIG_GAMMA, -BIG_GAMMA, -(G12 + G21)], dtype=complex)
    )
    assert np.max(np.abs(np.sort_complex(report.eigenvalues) - expected)) < 1e-12
    assert report.forward_bounded
    assert report.zero_modes == 1
    assert report.max_real_part == pytest.approx(0.0, abs=1e-12)


def test_negated_dissipator_flagged_unbounded():
    _, spec = make_qubit()
    report = semigroup_spectrum(-build_dissipator(spec))
    assert not report.forward_bounded
    assert report.max_real_part == pytest.approx(max(BIG_GAMMA, G12 + G21), abs=1e-12)


@pytest.mark.parametrize("scale", [1.0, 1e6])
def test_spectrum_flags_scale_with_the_generator(scale):
    # a completely positive ladder in units where rates are ~1e6: rounding
    # leaves the zero mode at |lambda| ~ 1e-11, which is zero at that scale
    ladder = load_template("three_level_ladder").system
    sys = ControlSystem(h0=scale * ladder.h0, controls=tuple(scale * h for h in ladder.controls))
    spec = DissipationSpec(
        dephasing=scale * np.array([[0, .3, .3], [.3, 0, .4], [.3, .4, 0]]),
        relaxation=scale * np.array([[0, .2, .05], [.01, 0, .3], [.02, .04, 0]]),
    )
    gen = total_generator(sys, spec, (0.0, 0.0))
    report = semigroup_spectrum(gen)
    assert report.forward_bounded
    assert report.zero_modes == 1
    assert semigroup_spectrum(to_affine(gen).a).zero_modes == 0
    assert not semigroup_spectrum(-gen).forward_bounded


def test_spectrum_accepts_affine_generator():
    sys, spec = make_qubit()
    gen = to_affine(total_generator(sys, spec, (0.0, 0.0)))
    report = semigroup_spectrum(gen.a)
    assert len(report.eigenvalues) == 3
    assert report.forward_bounded
    # eigenvalues sorted by descending real part
    reals = np.real(report.eigenvalues)
    assert np.all(np.diff(reals) <= 1e-15)


def test_backward_time_leaves_the_ball():
    # Running the semigroup backwards from the relaxed state inflates the
    # coherence vector beyond the unit ball; containment must flag it.
    sys, spec = make_qubit()
    gen = total_generator(sys, spec, (0.0, 0.0))
    rho0 = from_pure([1, 1])
    times = np.linspace(0.0, -4.0, 9)
    rhos = np.stack([(expm(gen, t) @ vectorize(rho0)).reshape(2, 2) for t in times])
    vecs = [to_coherence_vector(r) for r in rhos]
    traj = Trajectory(
        times=times,
        bloch=np.array([v.bloch for v in vecs]),
        trace_part=np.array([v.trace_part for v in vecs]),
        rho0=rhos[0],
    )
    assert ball_containment(traj) is False
    assert np.max(np.linalg.norm(traj.bloch, axis=1) - traj.trace_part) > 0.1


def test_steady_state_zero_field_closed_form():
    sys, spec = make_qubit()
    v = steady_state(sys, spec, (0.0, 0.0))
    zstar = (G12 - G21) / (G12 + G21)
    assert np.allclose(v.bloch, [0.0, 0.0, zstar], atol=1e-13)


def test_steady_state_is_fixed_point_of_flow():
    sys, spec = make_qubit()
    for f in [(0.0, 0.0), (0.8, 0.0), (0.3, -1.1)]:
        v = steady_state(sys, spec, f)
        gen = to_affine(total_generator(sys, spec, f))
        assert np.linalg.norm(gen.a @ v.bloch + gen.b) < 1e-12


def test_steady_state_requires_unique_equilibrium():
    sys, _ = make_qubit()
    with pytest.raises(NonUniqueEquilibriumError, match="A has null space dimension 1$"):
        steady_state(sys, DissipationSpec.zero(2), (0.0, 0.0))


def test_sweep_produces_ellipse():
    sys, spec = make_qubit(big_gamma=0.15, g12=0.2, g21=0.05)
    report = steady_state_sweep(sys, spec, 0, [-2.0, -1.0, -0.5, 0.0, 0.5, 1.0, 2.0])
    assert report.kind == "ellipse"
    assert report.conic_residual < 1e-10
    assert report.plane_residual < 1e-12
    assert report.discriminant < 0
    assert report.strictly_inside
    assert report.max_point_norm < report.ball_radius
    # zero amplitude reproduces the free steady state
    idx = list(report.amplitudes).index(0.0)
    zstar = (0.2 - 0.05) / (0.2 + 0.05)
    assert np.allclose(report.points[idx], [0.0, 0.0, zstar], atol=1e-12)


def test_sweep_points_satisfy_fitted_conic():
    sys, spec = make_qubit(big_gamma=0.15, g12=0.2, g21=0.05)
    amps = np.linspace(-2.0, 2.0, 11)
    report = steady_state_sweep(sys, spec, 1, amps)
    # evaluate the conic on in-plane coordinates of each point
    u = (report.points - report.center) @ report.plane_basis.T
    a, b, c, d, e, f = report.conic_coeffs
    vals = a * u[:, 0] ** 2 + b * u[:, 0] * u[:, 1] + c * u[:, 1] ** 2
    vals += d * u[:, 0] + e * u[:, 1] + f
    assert np.max(np.abs(vals)) < 1e-10


@pytest.mark.parametrize("dim", [3, 4])
def test_sweep_of_a_control_coupling_every_pair_is_not_a_conic(dim):
    # at N >= 3 the locus -A(a)^-1 b(a) need not lie in a plane or on a
    # conic; a random Hermitian control leaves the plane residual far past
    # the bound, and the discriminant alone would still name a curve
    rng = np.random.default_rng(30 + dim)
    sys, spec = admissible_system(rng, dim)
    a = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    coupled = ControlSystem(h0=sys.h0, controls=(a + a.conj().T,), hbar=sys.hbar)
    report = steady_state_sweep(coupled, spec, 0, np.linspace(-1.5, 1.5, 40))
    assert report.kind == "not a conic"
    extent = np.linalg.norm(report.points - report.center, axis=1).max()
    assert report.plane_residual > 1e3 * CONIC_FIT_TOL * extent


def test_sweep_degenerate_when_translations_vanish():
    sys, spec = make_qubit(g12=0.1, g21=0.1)
    report = steady_state_sweep(sys, spec, 0, [-1.5, -1.0, -0.5, 0.0, 0.5, 1.0, 1.5])
    assert report.kind == "degenerate"
    assert np.max(np.abs(report.points)) < 1e-12


def test_sweep_points_match_per_point_steady_state():
    cfg = load_template("three_level_ladder")
    sys, spec = cfg.system, cfg.dissipation
    amps = np.linspace(-1.5, 2.0, 15)
    for control in range(sys.n_controls):
        report = steady_state_sweep(sys, spec, control, amps)
        for amp, point in zip(amps, report.points):
            f = np.zeros(sys.n_controls)
            f[control] = amp
            expected = steady_state(sys, spec, f).bloch
            assert np.max(np.abs(point - expected)) <= 1e-12 * max(1.0, np.max(np.abs(expected)))


def test_sweep_singular_point_raises_with_amplitude():
    sys, _ = make_qubit()
    amps = [0.25, -1.0, -0.5, 0.0, 0.5, 1.0]
    with pytest.raises(NonUniqueEquilibriumError,
                       match="amplitude 0.25: A has null space dimension 1$"):
        steady_state_sweep(sys, DissipationSpec.zero(2), 0, amps)


def test_sweep_validation():
    sys, spec = make_qubit()
    with pytest.raises(ValueError):
        steady_state_sweep(sys, spec, 0, [0.0, 1.0])  # too few amplitudes
    with pytest.raises(ValueError):
        steady_state_sweep(sys, spec, 5, [0, 0.5, 1, 1.5, 2, 2.5])


def test_overflowing_sweep_amplitude_is_a_value_error():
    cfg = load_template("quasi_spin_qubit")
    with pytest.raises(ValueError, match="amplitude 1.5e\\+308: field amplitudes overflow the "
                                         "generator"):
        steady_state_sweep(cfg.system, cfg.dissipation, 1, [0.0, 1.0, 1.5e308, 2.0, 3.0, 4.0])
    # a large amplitude inside the bound reaches the verdict without warnings
    with pytest.raises(NonUniqueEquilibriumError, match="amplitude 5.0000000000000001e\\+307"):
        steady_state_sweep(cfg.system, cfg.dissipation, 0, [0.0, 1.0, 5e307, 2.0, 3.0, 4.0])


@pytest.mark.parametrize(
    "coeffs, kind",
    [
        ((1.0, 0.0, 1.0), "ellipse"),
        ((1.0, 0.0, -1.0), "hyperbola"),
        ((1.0, 2.0, 1.0), "parabola"),
        ((0.0, 0.0, 1.0), "parabola"),
        # |disc| = 4e-12 against c1^2 + c2^2 + c3^2 = 6: a parabola up to
        # rounding, which the exact-zero rule called an ellipse
        ((1.0, 2.0, 1.0 + 1e-12), "parabola"),
        ((1.0, 2.0, 1.0 - 1e-12), "parabola"),
        # |disc| = 4e-8 against 6: past the tolerance on either side
        ((1.0, 2.0, 1.0 + 1e-8), "ellipse"),
        ((1.0, 2.0, 1.0 - 1e-8), "hyperbola"),
    ],
)
@pytest.mark.parametrize("scale", [1.0, 1e-6, 1e6])
def test_conic_kind_is_scale_aware(coeffs, kind, scale):
    # scaling both plane coordinates by 1/sqrt(scale) multiplies c1..c3 by
    # scale and leaves the kind alone; c4..c6 do not enter it
    quadratic = scale * np.array(coeffs)
    disc, got = dynamics._classify_conic(np.concatenate([quadratic, [0.3, -0.2, 0.1]]))
    assert got == kind
    assert disc == quadratic[1] ** 2 - 4.0 * quadratic[0] * quadratic[2]


@pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
def test_non_finite_amplitudes_rejected_before_solving(bad):
    cfg = load_template("driven_qubit")
    with pytest.raises(ValueError, match="amplitude %g: field amplitudes must be finite" % bad):
        steady_state_sweep(cfg.system, cfg.dissipation, 0, [0.0, 1.0, 2.0, bad, 3.0, 4.0])
    with pytest.raises(ValueError, match="must be finite"):
        steady_state(cfg.system, cfg.dissipation, (bad, 0.0))
