"""Property tests of generator assembly and propagation over random admissible
systems, N = 2...4.

The reference generator L(f) is assembled here from the summed Hamiltonian
H0 + sum_m f_m H_m, not from the package's stack of pieces (L0, L_m, L_D),
so a fault in how the pieces are weighted shows. Propagation is checked
against an ordered product of scipy.linalg.expm over L(f) of each segment,
independent of the real affine coordinates that propagate steps. Examples
are derandomized, so every run draws the same systems.
"""

import numpy as np
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from blochdyn.algebra import affine_embed, affine_generator_set
from blochdyn.bloch import to_affine
from blochdyn.dynamics import propagate, steady_state
from blochdyn.liouville import build_dissipator, commutator_superop, vectorize
from blochdyn.model import ControlField, ControlSystem, DissipationSpec
from blochdyn.tolerances import GRID_STEP_SLACK

PROPERTIES = settings(derandomize=True, max_examples=25, deadline=None)


def admissible_system(rng, dim):
    """Ladder with dipoles between neighbours and completely positive rates.

    Each dephasing rate is at least half the relaxation leaving its two
    levels, which keeps the semigroup completely positive.
    """
    h0 = np.diag(np.cumsum(rng.uniform(0.3, 1.5, dim))).astype(complex)
    controls = []
    for j in range(dim - 1):
        h = np.zeros((dim, dim), dtype=complex)
        h[j, j + 1] = rng.uniform(0.2, 1.2) * np.exp(1j * rng.uniform(0, 2 * np.pi))
        h[j + 1, j] = np.conj(h[j, j + 1])
        controls.append(h)
    relax = rng.uniform(0.0, 0.4, (dim, dim))
    np.fill_diagonal(relax, 0.0)
    leaving = relax.sum(axis=0)
    slack = rng.uniform(0.0, 0.3, (dim, dim))
    deph = np.triu(0.5 * (leaving[:, None] + leaving[None, :]) + slack, 1)
    return (ControlSystem(h0=h0, controls=tuple(controls), hbar=float(rng.uniform(0.5, 2.0))),
            DissipationSpec(dephasing=deph + deph.T, relaxation=relax))


def random_state(rng, dim):
    a = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    rho = a @ a.conj().T
    return rho / np.trace(rho).real


def random_segments(rng, n_controls):
    return tuple((float(rng.uniform(0.1, 1.0)), rng.uniform(-1.0, 1.0, n_controls))
                 for _ in range(int(rng.integers(1, 5))))


def reference_generator(sys, spec, f):
    """(1/i hbar)[H0 + sum_m f_m H_m, .] + L_D."""
    h = sys.h0 + sum(fm * hm for fm, hm in zip(f, sys.controls))
    return commutator_superop(h, sys.hbar) + build_dissipator(spec)


def product_of_exponentials(sys, spec, segments, rho0):
    v = vectorize(rho0)
    for dur, values in segments:
        v = scipy.linalg.expm(reference_generator(sys, spec, values) * dur) @ v
    return v.reshape(rho0.shape)


CASES = dict(dim=st.integers(2, 4), seed=st.integers(0, 2**32 - 1))


@PROPERTIES
@given(**CASES)
def test_affine_pieces_sum_to_the_affine_image_of_the_generator(dim, seed):
    rng = np.random.default_rng(seed)
    sys, spec = admissible_system(rng, dim)
    f = rng.uniform(-2.0, 2.0, dim - 1)
    gens = affine_generator_set(sys, spec)
    assert isinstance(gens, list) and len(gens) == dim + 1
    combined = gens[0] + sum(fm * g for fm, g in zip(f, gens[1:-1])) + gens[-1]
    expected = affine_embed(to_affine(reference_generator(sys, spec, f)))
    assert np.max(np.abs(combined - expected)) <= 1e-13 * np.max(np.abs(expected))


@PROPERTIES
@given(**CASES)
def test_steady_state_solves_the_reference_affine_flow(dim, seed):
    rng = np.random.default_rng(seed)
    sys, spec = admissible_system(rng, dim)
    f = rng.uniform(-2.0, 2.0, dim - 1)
    ref = to_affine(reference_generator(sys, spec, f))
    expected = -np.linalg.solve(ref.a, ref.b)
    got = steady_state(sys, spec, f).bloch
    # the two (A, b) agree to rounding, which the solve amplifies by cond(A)
    bound = 1e-14 * np.linalg.cond(ref.a) * max(1.0, np.max(np.abs(expected)))
    assert np.max(np.abs(got - expected)) <= bound


@PROPERTIES
@given(**CASES)
def test_exact_route_matches_product_of_exponentials(dim, seed):
    rng = np.random.default_rng(seed)
    sys, spec = admissible_system(rng, dim)
    segments, rho0 = random_segments(rng, dim - 1), random_state(rng, dim)
    traj = propagate(sys, spec, ControlField(segments=segments), rho0,
                     sample_dt=float(rng.uniform(0.05, 0.3)))
    expected = product_of_exponentials(sys, spec, segments, rho0)
    assert np.max(np.abs(traj.rho[-1] - expected)) <= 1e-12


@PROPERTIES
@given(**CASES, log_reach=st.floats(-4.0, 1.0))
def test_short_slices_match_product_of_exponentials(dim, seed, log_reach):
    # slices of 0.3 to 2.2 sample steps, with dt norm(G, 1) from 1e-4 to 10:
    # every Taylor degree, the fallback to exp(G h) past the degree cap, and
    # segments of three or more steps that form exp(G h) once
    rng = np.random.default_rng(seed)
    sys, spec = admissible_system(rng, dim)
    values = rng.uniform(-1.0, 1.0, (int(rng.integers(20, 61)), dim - 1))
    norm = max(np.abs(affine_embed(to_affine(reference_generator(sys, spec, v)))).sum(axis=0).max()
               for v in values)
    dt = 10.0 ** log_reach / norm
    segments = tuple((float(dt * rng.uniform(0.3, 2.2)), v) for v in values)
    rho0 = random_state(rng, dim)
    traj = propagate(sys, spec, ControlField(segments=segments), rho0, sample_dt=dt)
    expected = product_of_exponentials(sys, spec, segments, rho0)
    assert np.max(np.abs(traj.rho[-1] - expected)) <= 1e-12


@PROPERTIES
@given(**CASES)
def test_sample_dt_past_the_duration_samples_every_segment_end(dim, seed):
    # one exact step per segment, whatever its norm: the Taylor action or,
    # past the last bound, exp(G h) formed
    rng = np.random.default_rng(seed)
    sys, spec = admissible_system(rng, dim)
    segments, rho0 = random_segments(rng, dim - 1), random_state(rng, dim)
    traj = propagate(sys, spec, ControlField(segments=segments), rho0, sample_dt=1e300)
    assert traj.times.tolist() == [0.0] + np.cumsum([d for d, _ in segments]).tolist()
    expected = product_of_exponentials(sys, spec, segments, rho0)
    assert np.max(np.abs(traj.rho[-1] - expected)) <= 1e-12


@settings(derandomize=True, max_examples=50, deadline=None)
@given(durations=st.lists(st.floats(0.01, 2.0), min_size=1, max_size=5),
       sample_dt=st.floats(0.005, 3.0))
def test_both_field_kinds_share_one_sample_grid(durations, sample_dt):
    rng = np.random.default_rng(0)
    sys, spec = admissible_system(rng, 2)
    segments, rho0 = tuple((d, (0.3,)) for d in durations), random_state(rng, 2)
    grids = [propagate(sys, spec, ControlField(segments=segments, kind=kind), rho0,
                       sample_dt=sample_dt).times for kind in ("piecewise", "sampled")]
    assert grids[0].tobytes() == grids[1].tobytes()
    times = grids[0]
    steps = [max(1, int(np.ceil(d / sample_dt - GRID_STEP_SLACK))) for d in durations]
    assert times.size == 1 + sum(steps)
    # h = d / n passes sample_dt by at most the grid slack, and t0 + k h
    # adds rounding
    assert np.all(np.diff(times) <= sample_dt * (1.0 + 1e-11))
    ends = np.cumsum(steps)
    assert times[ends].tolist() == np.cumsum(durations).tolist()


@PROPERTIES
@given(**CASES)
def test_rk4_route_matches_product_of_exponentials(dim, seed):
    rng = np.random.default_rng(seed)
    sys, spec = admissible_system(rng, dim)
    segments, rho0 = random_segments(rng, dim - 1), random_state(rng, dim)
    # steps with h |L| <= 0.05 keep the fourth-order error far below 1e-6
    scale = max(np.linalg.norm(reference_generator(sys, spec, v), 2) for _, v in segments)
    traj = propagate(sys, spec, ControlField(segments=segments, kind="sampled"), rho0,
                     sample_dt=0.05 / scale)
    expected = product_of_exponentials(sys, spec, segments, rho0)
    assert np.max(np.abs(traj.rho[-1] - expected)) <= 1e-6


@PROPERTIES
@given(**CASES, split=st.floats(0.1, 0.9))
def test_one_segment_equals_two_halves(dim, seed, split):
    rng = np.random.default_rng(seed)
    sys, spec = admissible_system(rng, dim)
    values, rho0 = rng.uniform(-1.0, 1.0, dim - 1), random_state(rng, dim)
    total = float(rng.uniform(0.2, 2.0))
    s, t = split * total, total - split * total
    whole = propagate(sys, spec, ControlField(segments=((s + t, values),)), rho0,
                      sample_dt=s + t)
    halves = propagate(sys, spec, ControlField(segments=((s, values), (t, values))), rho0,
                       sample_dt=s + t)
    assert np.max(np.abs(whole.rho[-1] - halves.rho[-1])) <= 1e-12


@PROPERTIES
@given(**CASES, kind=st.sampled_from(["piecewise", "sampled"]))
def test_samples_hermitian_with_unit_trace(dim, seed, kind):
    rng = np.random.default_rng(seed)
    sys, spec = admissible_system(rng, dim)
    segments, rho0 = random_segments(rng, dim - 1), random_state(rng, dim)
    traj = propagate(sys, spec, ControlField(segments=segments, kind=kind), rho0,
                     sample_dt=0.05)
    assert np.max(np.abs(traj.rho - traj.rho.conj().swapaxes(1, 2))) <= 1e-12
    assert np.max(np.abs(traj.trace_part - 1.0)) <= 1e-12
    assert np.max(np.abs(np.trace(traj.rho, axis1=1, axis2=2) - 1.0)) <= 1e-12
