"""Propagation, spectra, steady states, and attractor-sweep tests.

Closed-form references for the two-level system are derived by hand from
the affine flow: transverse components spiral in at the dephasing rate
while the longitudinal component relaxes exponentially to the pumping
balance point.
"""

import numpy as np
import pytest
import scipy.linalg

from blochdyn import dynamics
from blochdyn.algebra import affine_generator_set
from blochdyn.bloch import ball_containment, to_affine
from blochdyn.config import load_template
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
    NonUniqueEquilibriumError,
    SampleGridError,
    SemigroupDomainError,
    UnphysicalStateError,
)
from blochdyn.liouville import build_dissipator, generator_pieces, total_generator, vectorize
from blochdyn.model import ControlField, ControlSystem, DissipationSpec, qubit_system
from blochdyn.states import from_pure, to_coherence_vector
from blochdyn.tolerances import TAYLOR_THETA
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


def test_free_decay_matches_closed_form():
    sys, spec = make_qubit()
    rho0 = from_pure([1, 1])  # starts at bloch (1, 0, 0)
    field = ControlField.constant([0.0, 0.0], duration=10.0 / BIG_GAMMA)
    traj = propagate(sys, spec, field, rho0, sample_dt=0.05)
    v0 = traj.bloch[0]
    for idx in range(0, len(traj), 25):
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
    with pytest.raises(SampleGridError, match="sample_dt") as err:
        propagate(sys, spec, field, from_pure([1, 0]), sample_dt=dt)
    assert isinstance(err.value, ValueError)


def test_default_grid_too_large_to_hold_is_refused():
    # rates of 1e12 give a default sample_dt near 1e-13
    sys, spec = make_qubit(BIG_GAMMA * 1e12, G12 * 1e12, G21 * 1e12)
    field = ControlField.constant([0.0, 0.0], duration=8.0)
    with pytest.raises(SampleGridError, match="past the 64 MB bound"):
        propagate(sys, spec, field, from_pure([1, 0]))


def test_default_sample_dt_scales_with_generator_norm():
    sys, spec = make_qubit()
    small = default_sample_dt([total_generator(sys, spec, (0.0, 0.0))], 10.0)
    big = default_sample_dt([10.0 * total_generator(sys, spec, (0.0, 0.0))], 10.0)
    assert small > big > 0


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
    bounds = sorted(TAYLOR_THETA.items())
    degrees = []
    expected = []
    for (m, theta), (above, _) in zip(bounds, bounds[1:]):
        degrees += [dynamics._taylor_degree(theta * (1 - 1e-9)),
                    dynamics._taylor_degree(theta * (1 + 1e-9))]
        expected += [m, above]
    assert degrees == expected
    assert dynamics._taylor_degree(bounds[-1][1] * (1 + 1e-9)) is None


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
    (1.0, 0.5),  # within the bounds, though the degree exceeds len(u) = 4: applied
])
def test_steps_past_the_taylor_bounds_form_the_exponential(monkeypatch, scale, dur):
    sys, spec = make_qubit(BIG_GAMMA * scale, G12 * scale, G21 * scale)
    f = (0.4, -0.3)
    calls = counting_expm(monkeypatch)
    traj = propagate(sys, spec, ControlField(segments=((dur, f),)), from_pure([1, 1]),
                     sample_dt=1.0)
    assert calls == ([dur] if scale > 1.0 else [])
    expected = scipy.linalg.expm(total_generator(sys, spec, f) * dur) @ vectorize(from_pure([1, 1]))
    assert np.max(np.abs(traj.rho[-1] - expected.reshape(2, 2))) <= 1e-12


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
    worst = err.value.worst
    assert set(worst) == {"t", "hermiticity", "trace", "min_eigenvalue"}
    # first grid time at which an independent exponential goes negative
    gen = total_generator(sys, spec, (0.0, 0.0))
    grid = 0.05 * np.arange(1, 61)
    mineigs = [np.linalg.eigvalsh((scipy.linalg.expm(gen * t) @ vectorize(rho0)).reshape(2, 2))[0]
               for t in grid]
    first = int(np.argmax(np.array(mineigs) < -1e-7))
    assert first > 0
    assert worst["t"] == pytest.approx(grid[first], abs=1e-12)
    assert worst["min_eigenvalue"] < -1e-7


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
    assert len(traj) == len(traj.times)
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
    assert report.unbounded
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
    assert semigroup_spectrum(to_affine(gen)).zero_modes == 0
    assert semigroup_spectrum(-gen).unbounded


def test_spectrum_accepts_affine_generator():
    sys, spec = make_qubit()
    gen = to_affine(total_generator(sys, spec, (0.0, 0.0)))
    report = semigroup_spectrum(gen)
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
        rho=rhos,
        bloch=np.array([v.bloch for v in vecs]),
        trace_part=np.array([v.trace_part for v in vecs]),
    )
    report = ball_containment(traj)
    assert not report.ok
    assert report.worst_excess > 0.1


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
    with pytest.raises(NonUniqueEquilibriumError) as err:
        steady_state(sys, DissipationSpec.zero(2), (0.0, 0.0))
    assert err.value.null_dim >= 1


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
    with pytest.raises(NonUniqueEquilibriumError, match="amplitude 0.25:") as err:
        steady_state_sweep(sys, DissipationSpec.zero(2), 0, amps)
    assert err.value.null_dim >= 1


def test_sweep_validation():
    sys, spec = make_qubit()
    with pytest.raises(ValueError):
        steady_state_sweep(sys, spec, 0, [0.0, 1.0])  # too few amplitudes
    with pytest.raises(ValueError):
        steady_state_sweep(sys, spec, 5, [0, 0.5, 1, 1.5, 2, 2.5])


def test_overflowing_sweep_amplitude_is_a_value_error():
    cfg = load_template("quasi_spin_qubit")
    with pytest.raises(ValueError, match="amplitude 1.5e\\+308 overflows the generator"):
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
    with pytest.raises(ValueError, match="non-finite amplitude %g" % bad):
        steady_state_sweep(cfg.system, cfg.dissipation, 0, [0.0, 1.0, 2.0, bad, 3.0, 4.0])
    with pytest.raises(ValueError, match="must be finite"):
        steady_state(cfg.system, cfg.dissipation, (bad, 0.0))
