"""The steady-state sweep's anchored non-singularity verdict against the SVD of every point.

The reference is the per-point rule written out here: an SVD of each A(a),
a singular value at or below SINGULAR_RATIO times the largest makes A
singular, the first singular point in input order is named with its null
dimension, and otherwise every point is solved by one batched
np.linalg.solve. The anchored route must give the same verdict, the same
named point and null dimension, and bitwise the same points. Examples are
derandomized, so every run draws the same cases.
"""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from blochdyn import dynamics
from blochdyn.algebra import affine_generator_set
from blochdyn.model import DissipationSpec
from blochdyn.tolerances import CONIC_FIT_TOL, SINGULAR_RATIO, SWEEP_ANCHOR_STRIDE
from test_cli import load_template
from test_propagation_properties import admissible_system

PROPERTIES = settings(derandomize=True, max_examples=200, deadline=None)


def per_point_rule(drift, control, amplitudes):
    gens = drift + amplitudes[:, None, None] * control
    s = np.linalg.svd(gens[:, :-1, :-1], compute_uv=False)
    null_dims = np.sum(s <= SINGULAR_RATIO * s[:, :1], axis=1)
    singular = np.flatnonzero(null_dims)
    if singular.size:
        return None, (int(singular[0]), int(null_dims[singular[0]]))
    return np.linalg.solve(gens[:, :-1, :-1], -gens[:, :-1, -1:])[..., 0], None


def assert_same_verdict(drift, control, amplitudes):
    points, singular = dynamics._sweep_fixed_points(drift, control, amplitudes)
    expected_points, expected_singular = per_point_rule(drift, control, amplitudes)
    assert singular == expected_singular
    if expected_singular is None:
        assert points.tobytes() == expected_points.tobytes()
    return expected_singular


def scrambled(rng, amplitudes, duplicates):
    """The amplitudes with some repeated, in random order."""
    if duplicates:
        amplitudes = np.concatenate([amplitudes, rng.choice(amplitudes, amplitudes.size // 3)])
    return rng.permutation(amplitudes)


@PROPERTIES
@given(dim=st.integers(2, 5), seed=st.integers(0, 2**32 - 1), size=st.integers(6, 200),
       duplicates=st.booleans(), zero_rates=st.sampled_from([False] * 4 + [True]))
def test_anchored_verdict_on_random_ladders(dim, seed, size, duplicates, zero_rates):
    # without dissipation every A(a) is singular: the first point is named
    rng = np.random.default_rng(seed)
    sys, spec = admissible_system(rng, dim)
    if zero_rates:
        spec = DissipationSpec.zero(dim)
    gens = affine_generator_set(sys, spec)
    control = gens[1 + int(rng.integers(sys.n_controls))]
    amplitudes = scrambled(rng, rng.uniform(-3.0, 3.0, size), duplicates)
    singular = assert_same_verdict(gens[0] + gens[-1], control, amplitudes)
    assert (singular is not None) == zero_rates


@PROPERTIES
@given(n=st.integers(2, 15), seed=st.integers(0, 2**32 - 1),
       log_ratio=st.one_of(st.none(), st.floats(-14.0, -10.0)),
       log_spread=st.floats(-15.0, 0.0), size=st.integers(6, 120), duplicates=st.booleans())
def test_anchored_verdict_near_a_singular_amplitude(n, seed, log_ratio, log_spread, size,
                                                    duplicates):
    # A(a*) = U diag(s) V^T with sigma_min / sigma_max exactly 0 (None) or
    # 10^log_ratio, at an interior a* that the sweep hits, among points
    # within 10^log_spread of it
    rng = np.random.default_rng(seed)
    u = np.linalg.qr(rng.standard_normal((n, n)))[0]
    v = np.linalg.qr(rng.standard_normal((n, n)))[0]
    s = np.sort(rng.uniform(0.5, 2.0, n))[::-1]
    s[-1] = 0.0 if log_ratio is None else s[0] * 10.0 ** log_ratio
    a_star = rng.uniform(-2.0, 2.0)
    control = np.zeros((n + 1, n + 1))
    control[:-1] = rng.standard_normal((n, n + 1))
    drift = np.zeros((n + 1, n + 1))
    drift[:-1, :-1] = (u * s) @ v.T - a_star * control[:-1, :-1]
    drift[:-1, -1] = rng.standard_normal(n)
    near = a_star + 10.0 ** log_spread * rng.uniform(-1.0, 1.0, size - 1)
    assert_same_verdict(drift, control, scrambled(rng, np.append(near, a_star), duplicates))


@PROPERTIES
@given(seed=st.integers(0, 2**32 - 1), size=st.integers(6, 400), span=st.floats(0.1, 20.0))
def test_admissible_qubits_sweep_to_a_conic(seed, size, span):
    # the paper's qubit result: a swept control moves the attractor along a
    # conic, so both fit residuals stay within CONIC_FIT_TOL of their scales
    rng = np.random.default_rng(seed)
    sys, spec = admissible_system(rng, 2)
    report = dynamics.steady_state_sweep(sys, spec, 0, rng.uniform(-span, span, size))
    assert report.kind in ("ellipse", "parabola", "hyperbola")
    rel = report.points - report.center
    assert report.plane_residual <= CONIC_FIT_TOL * np.linalg.norm(rel, axis=1).max()
    u, v = (rel @ report.plane_basis.T).T
    design = np.column_stack([u * u, u * v, v * v, u, v, np.ones_like(u)])
    assert report.conic_residual <= CONIC_FIT_TOL * np.linalg.norm(design, axis=1).max()


def test_well_conditioned_sweep_decomposes_only_the_anchors(monkeypatch):
    # a fallback to one SVD per point would decompose all K matrices; the
    # anchored route takes ceil(K / stride) anchors plus A_c for its norm
    cfg = load_template("three_level_ladder")
    amplitudes = np.random.default_rng(11).permutation(np.linspace(-2.0, 2.0, 1500))
    n = cfg.system.dim ** 2 - 1
    decomposed = []
    svd = np.linalg.svd

    def counting_svd(a, *args, **kwargs):
        a = np.asarray(a)
        if a.shape[-2:] == (n, n):
            decomposed.append(a[..., 0, 0].size)
        return svd(a, *args, **kwargs)

    monkeypatch.setattr(dynamics.np.linalg, "svd", counting_svd)
    report = dynamics.steady_state_sweep(cfg.system, cfg.dissipation, 0, amplitudes)
    assert 0 < sum(decomposed) <= math.ceil(amplitudes.size / SWEEP_ANCHOR_STRIDE) + 1
    monkeypatch.undo()
    gens = affine_generator_set(cfg.system, cfg.dissipation)
    expected, _ = per_point_rule(gens[0] + gens[-1], gens[1], amplitudes)
    assert report.points.tobytes() == expected.tobytes()
