"""State representation and coherence-vector coordinate tests."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from blochdyn.config import parse_config
from blochdyn.dynamics import propagate
from blochdyn.errors import UnphysicalStateError
from blochdyn.model import ControlField, ControlSystem, DissipationSpec, dipole_coupling
from blochdyn.states import (
    CoherenceVector,
    _min_eigenvalues,
    _offsets,
    check_density,
    density_from_coordinates,
    from_coherence_vector,
    from_pure,
    gell_mann_basis,
    to_coherence_vector,
)
from blochdyn.tolerances import CERTIFICATE_SLACK, STATE_TRACE_TOL
from test_cli import make_doc
from test_dynamics import counting_eigvalsh


def purity(rho):
    """tr(rho^2)."""
    return float(np.einsum("ij,ji->", rho, rho).real)


def random_density(rng, dim):
    """Random full-rank density matrix from a random eigenbasis."""
    a = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    q = np.linalg.qr(a)[0]
    p = rng.uniform(0.1, 1.0, size=dim)
    p /= p.sum()
    return (q * p) @ q.conj().T


def test_from_pure_basis_state():
    rho = from_pure([1, 0])
    assert np.allclose(rho, np.diag([1, 0]), atol=1e-15)


def test_from_pure_equal_superposition():
    rho = from_pure([1, 1])
    assert np.allclose(rho, 0.5 * np.ones((2, 2)), atol=1e-15)


def test_from_pure_complex_phase():
    # outer product of (1, i)/sqrt(2) written out by hand
    rho = from_pure([1, 1j])
    expected = np.array([[0.5, -0.5j], [0.5j, 0.5]])
    assert np.allclose(rho, expected, atol=1e-15)


@pytest.mark.parametrize("scale", [1e200, 1e-200, 1.7e308, 5e-324])
def test_from_pure_takes_amplitudes_whose_norm_overflows_or_underflows(scale):
    # |(s, s)| overflows above ~1.3e154 and underflows below ~1.5e-162;
    # every such pair is the state (|0> + |1>) / sqrt 2
    np.testing.assert_allclose(from_pure([scale, scale]), np.full((2, 2), 0.5), rtol=0, atol=1e-15)


def test_from_pure_is_bit_identical_under_power_of_two_scaling():
    rng = np.random.default_rng(12)
    for _ in range(200):
        c = rng.standard_normal((rng.integers(2, 9), 2)) @ [1.0, 1j]
        k = int(rng.integers(-900, 900))
        scaled = np.ldexp(c.real, k) + 1j * np.ldexp(c.imag, k)
        assert from_pure(scaled).tobytes() == from_pure(c).tobytes()


def test_from_pure_normalizes_and_is_pure():
    rng = np.random.default_rng(11)
    for _ in range(20):
        dim = rng.integers(2, 5)
        c = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
        rho = from_pure(c)
        assert abs(np.trace(rho) - 1) < 1e-12
        assert abs(purity(rho) - 1) < 1e-12


def test_from_pure_zero_vector_rejected():
    with pytest.raises(ValueError, match="degenerate"):
        from_pure([0, 0, 0])


def test_gell_mann_normalization():
    for dim in (2, 3, 4):
        basis = gell_mann_basis(dim)
        assert len(basis) == dim * dim - 1
        for a, ga in enumerate(basis):
            assert np.allclose(ga, ga.conj().T, atol=1e-15)
            assert abs(np.trace(ga)) < 1e-14
            for b, gb in enumerate(basis):
                expect = 2.0 if a == b else 0.0
                assert abs(np.trace(ga @ gb) - expect) < 1e-13


def test_gell_mann_dim2_is_pauli():
    sx, sy, sz = gell_mann_basis(2)
    assert np.array_equal(sx, np.array([[0, 1], [1, 0]], dtype=complex))
    assert np.array_equal(sy, np.array([[0, -1j], [1j, 0]], dtype=complex))
    assert np.array_equal(sz, np.array([[1, 0], [0, -1]], dtype=complex))


def test_coherence_components_maximally_mixed():
    v = to_coherence_vector(np.eye(2) / 2)
    assert np.allclose(v.bloch, 0, atol=1e-15)
    assert v.trace_part == pytest.approx(1.0)


def test_coherence_components_level_one():
    v = to_coherence_vector(np.diag([1.0, 0.0]))
    assert np.allclose(v.bloch, [0, 0, 1], atol=1e-15)


def test_coherence_components_superposition():
    # (x, y, z) = (rho12 + rho21, i(rho12 - rho21), rho11 - rho22) by hand
    v = to_coherence_vector(0.5 * np.ones((2, 2)))
    assert np.allclose(v.bloch, [1, 0, 0], atol=1e-15)


def test_round_trip_random_states():
    rng = np.random.default_rng(7)
    for dim in (2, 3, 4, 5):
        for _ in range(20):
            rho = random_density(rng, dim)
            v = to_coherence_vector(rho)
            back = from_coherence_vector(v)
            assert np.max(np.abs(back - rho)) < 1e-12
            assert np.max(np.abs(to_coherence_vector(back).bloch - v.bloch)) < 1e-12


@pytest.mark.parametrize("dim", [2, 3, 4, 5])
def test_from_coherence_vector_matches_propagated_samples(dim):
    # a propagated sample is rebuilt by the same map; a single row and a
    # stack of rows may take different BLAS kernels, hence the rounding slack
    rng = np.random.default_rng(40 + dim)
    h0 = np.diag(np.arange(dim, dtype=float)).astype(complex)
    drive = np.zeros((dim, dim), dtype=complex)
    drive[0, 1] = drive[1, 0] = 0.7
    rates = np.full((dim, dim), 0.2)
    np.fill_diagonal(rates, 0.0)
    traj = propagate(ControlSystem(h0=h0, controls=(drive,)),
                     DissipationSpec(dephasing=rates, relaxation=0.5 * rates),
                     ControlField.constant([0.8], duration=1.0), random_density(rng, dim),
                     sample_dt=0.1)
    for k in range(1, len(traj.times)):
        rho = from_coherence_vector(CoherenceVector(bloch=traj.bloch[k],
                                                    trace_part=traj.trace_part[k]))
        assert np.max(np.abs(rho - traj.rho[k])) <= 1e-15
    stacked = density_from_coordinates(np.column_stack([traj.bloch, traj.trace_part]), dim)
    assert np.array_equal(stacked[1:], traj.rho[1:])


def test_from_coherence_trivial_points():
    mixed = from_coherence_vector(CoherenceVector(bloch=[0, 0, 0], trace_part=1.0))
    assert np.allclose(mixed, np.eye(2) / 2, atol=1e-15)
    top = from_coherence_vector(CoherenceVector(bloch=[0, 0, 1], trace_part=1.0))
    assert np.allclose(top, np.diag([1, 0]), atol=1e-15)


def test_from_coherence_outside_ball_rejected():
    v = CoherenceVector(bloch=[0, 0, 1.5], trace_part=1.0)
    with pytest.raises(UnphysicalStateError):
        from_coherence_vector(v)


@pytest.mark.parametrize("dim", [2, 3])
@pytest.mark.parametrize("where", ["bloch", "trace_part"])
def test_from_coherence_non_finite_rejected(dim, where):
    bloch = np.zeros(dim * dim - 1)
    trace_part = 1.0
    if where == "bloch":
        bloch[0] = np.nan
    else:
        trace_part = np.inf
    with pytest.raises(ValueError, match="non-finite"):
        from_coherence_vector(CoherenceVector(bloch=bloch, trace_part=trace_part))


def test_purity_matches_coherence_formula():
    # purity = (trace_part^2 + |v|^2) / 2 for two levels
    rng = np.random.default_rng(23)
    for _ in range(30):
        rho = random_density(rng, 2)
        v = to_coherence_vector(rho)
        assert purity(rho) == pytest.approx(
            0.5 * (v.trace_part**2 + np.linalg.norm(v.bloch)**2), abs=1e-12
        )


def test_purity_bounds_and_sphere():
    rng = np.random.default_rng(5)
    for _ in range(100):
        c = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        v = to_coherence_vector(from_pure(c))
        assert abs(np.linalg.norm(v.bloch) - 1.0) < 1e-12
    for dim in (2, 3):
        for _ in range(30):
            rho = random_density(rng, dim)
            p = purity(rho)
            assert 1.0 / dim - 1e-12 <= p <= 1.0 + 1e-12


def test_check_density_rejects_bad_inputs():
    with pytest.raises(UnphysicalStateError):
        check_density(np.array([[0.5, 0.5], [0.1, 0.5]]))  # not Hermitian
    with pytest.raises(UnphysicalStateError):
        check_density(np.eye(2))  # trace 2
    with pytest.raises(UnphysicalStateError):
        check_density(np.diag([1.5, -0.5]))  # negative eigenvalue
    check_density(np.eye(2) / 2)
    assert _min_eigenvalues(np.eye(2)[None] / 2)[0] == 0.5
    with pytest.raises(UnphysicalStateError):
        check_density(np.diag([0.5 + 1e-8j, 0.5]))  # imaginary trace


def margins_of(stack):
    """The three margins check_density reports, per matrix of the stack."""
    return (*_offsets(stack), _min_eigenvalues(stack))


def full_matrix_offsets(stack):
    """Hermiticity and trace offsets read over every entry, as a reference for _offsets."""
    herm = np.max(np.abs(stack - stack.conj().swapaxes(1, 2)), axis=(1, 2))
    tr = np.trace(stack, axis1=1, axis2=2)
    return herm, np.abs(tr.real - 1.0) + np.abs(tr.imag)


def eigvalsh_verdict(stack, tol):
    """check_density's rule read independently: every entry, one eigvalsh per matrix."""
    herm, trace = full_matrix_offsets(stack)
    finite = np.isfinite(stack).all(axis=(1, 2))
    mineig = [np.linalg.eigvalsh((m + m.conj().T) / 2)[0] if ok else np.nan
              for m, ok in zip(stack, finite)]
    return bool(((herm <= tol) & (trace <= STATE_TRACE_TOL) & (np.array(mineig) >= -tol)).all())


def proof_and_verdict(stack, tol):
    """(passed without eigenvalues, passed) of check_density on the stack."""
    with pytest.MonkeyPatch.context() as patch:
        calls = counting_eigvalsh(patch)
        try:
            check_density(stack, tol)
        except UnphysicalStateError:
            return False, False
    return not calls, True


CORRUPTIONS = st.lists(
    st.tuples(
        st.integers(0, 5),
        st.sampled_from(["hermiticity", "trace", "imag_trace", "negative", "nan"]),
        st.sampled_from([1e-12, 5e-10, 2e-9, 1e-8, 5e-7, 1e-3]),
    ),
    max_size=4,
)


@settings(derandomize=True, max_examples=150, deadline=None)
@given(dim=st.integers(2, 4), size=st.integers(1, 6), seed=st.integers(0, 2**32 - 1),
       corruptions=CORRUPTIONS, tol=st.sampled_from([1e-9, 1e-7]))
def test_stacked_check_matches_per_matrix_check(dim, size, seed, corruptions, tol):
    rng = np.random.default_rng(seed)
    stack = np.array([random_density(rng, dim) for _ in range(size)])
    # NaN goes in last, so that the eigendecomposition below sees finite input
    for index, kind, eps in sorted(corruptions, key=lambda c: c[1] == "nan"):
        m = stack[index % size]
        if kind == "hermiticity":
            m[0, 1] += eps
        elif kind == "trace":
            m *= 1.0 + eps
        elif kind == "imag_trace":
            m[0, 0] += 1j * eps
        elif kind == "negative":
            # move the smallest eigenvalue to -eps, keeping the trace
            w, v = np.linalg.eigh(m)
            w[1] += w[0] + eps
            w[0] = -eps
            m[:] = (v * w) @ v.conj().T
        else:
            m[0, 0] = np.nan
    first = None
    for i, m in enumerate(stack):
        try:
            check_density(m, tol)
        except UnphysicalStateError as exc:
            first, single = i, str(exc)
            break
    # the stack's margins are those of each matrix alone, bit for bit
    for margin, alone in zip(margins_of(stack), zip(*(margins_of(m[None]) for m in stack))):
        np.testing.assert_array_equal(margin, np.concatenate(alone))
    times = 0.5 * np.arange(size)
    if first is None:
        check_density(stack, tol, times=times)
        return
    with pytest.raises(UnphysicalStateError) as err:
        check_density(stack, tol, times=times)
    # both errors name the first failing matrix's margins, the stacked one its time
    margins = "hermiticity %.3g, trace offset %.3g, min eigenvalue %.3g" % tuple(
        m[0] for m in margins_of(stack[first][None]))
    assert single == "unphysical state: %s (tol %.3g)" % (margins, tol)
    assert str(err.value) == "state left the physical set at t=%.6g: %s" % (times[first], margins)


DEFECTS = st.lists(
    st.tuples(st.integers(0, 7),
              st.sampled_from(["below", "above", "hermiticity", "trace", "nan"])),
    max_size=3,
)


@settings(derandomize=True, max_examples=200, deadline=None)
@given(dim=st.integers(2, 5), size=st.integers(1, 8), seed=st.integers(0, 2**32 - 1),
       defects=DEFECTS, tol=st.sampled_from([1e-9, 1e-7]))
def test_certificate_verdict_matches_check_density(dim, size, seed, defects, tol):
    rng = np.random.default_rng(seed)
    stack = np.array([random_density(rng, dim) for _ in range(size)])
    # eigenvalues are placed while the matrices are still Hermitian and finite
    order = ["below", "above", "hermiticity", "trace", "nan"]
    for index, kind in sorted(defects, key=lambda d: order.index(d[1])):
        m = stack[index % size]
        if kind in ("below", "above"):
            # smallest eigenvalue at -tol (1 +- 1e-3), on either side of the
            # bound, with the trace kept
            w, v = np.linalg.eigh(m)
            target = -tol * (1.0 + (1e-3 if kind == "below" else -1e-3))
            w[1] += w[0] - target
            w[0] = target
            m[:] = (v * w) @ v.conj().T
        elif kind == "hermiticity":
            m[0, -1] += 2.0 * tol
        elif kind == "trace":
            m *= 1.0 + 1e-8
        else:
            m[tuple(rng.integers(0, dim, 2))] = np.nan
    # every defect lies 1e-3 tol or more from the bound, past the
    # CERTIFICATE_SLACK band, so a stack passes exactly when it is proven
    # without eigenvalues, and the verdict is that of the eigvalsh rule
    proven, passed = proof_and_verdict(stack, tol)
    assert proven == passed == eigvalsh_verdict(stack, tol)


@settings(derandomize=True, max_examples=300, deadline=None)
@given(dim=st.integers(1, 8), size=st.integers(1, 4), seed=st.integers(0, 2**32 - 1),
       noise=st.sampled_from([0.0, 1e-12, 1e-3, 1.0]),
       entries=st.lists(st.tuples(st.integers(0, 255), st.sampled_from([np.nan, np.inf, -np.inf]),
                                  st.booleans()), max_size=4))
def test_offsets_match_the_full_matrix_bit_for_bit(dim, size, seed, noise, entries):
    rng = np.random.default_rng(seed)
    stack = np.array([random_density(rng, dim) for _ in range(size)])
    stack += noise * (rng.standard_normal(stack.shape) + 1j * rng.standard_normal(stack.shape))
    flat = stack.reshape(-1)
    for index, value, real in entries:
        z = flat[index % flat.size]
        flat[index % flat.size] = complex(value, z.imag) if real else complex(z.real, value)
    with np.errstate(invalid="ignore", over="ignore"):
        got, want = _offsets(stack), full_matrix_offsets(stack)
    for g, w in zip(got, want):
        # NaN in the same places, and every other value to the bit
        np.testing.assert_array_equal(np.isnan(g), np.isnan(w))
        assert g[~np.isnan(g)].tobytes() == w[~np.isnan(w)].tobytes()


@settings(derandomize=True, max_examples=200, deadline=None)
@given(dim=st.integers(2, 6), seed=st.integers(0, 2**32 - 1), tol=st.sampled_from([1e-9, 1e-7]),
       kinds=st.lists(st.sampled_from(["mixed", "pure", "above", "below"]), min_size=1,
                      max_size=6),
       gap=st.sampled_from([1e-6, 0.3 * CERTIFICATE_SLACK, 3 * CERTIFICATE_SLACK, 1e-2, 0.5]))
def test_certificate_proves_only_states_that_pass(dim, seed, tol, kinds, gap):
    # "above" places the smallest eigenvalue at -tol (1 - gap), just inside
    # the bound, "below" at -tol (1 + gap), just past it
    rng = np.random.default_rng(seed)
    stack = []
    for kind in kinds:
        if kind == "pure":
            stack.append(from_pure(rng.standard_normal(dim) + 1j * rng.standard_normal(dim)))
            continue
        w, v = np.linalg.eigh(random_density(rng, dim))
        if kind != "mixed":
            target = -tol * (1.0 - gap if kind == "above" else 1.0 + gap)
            w[1] += w[0] - target
            w[0] = target
        stack.append((v * w) @ v.conj().T)
    stack = np.array(stack)
    proven = proof_and_verdict(stack, tol)[0]
    if proven:
        assert eigvalsh_verdict(stack, tol)
    if "below" not in kinds and ("above" not in kinds or gap > 2 * CERTIFICATE_SLACK):
        # the certificate's band lies within tol CERTIFICATE_SLACK above -tol
        assert proven


def test_valid_states_from_a_config_or_a_coherence_vector_compute_no_eigenvalues(monkeypatch):
    # both go through check_density, whose Cholesky proof clears a physical
    # state before any eigenvalue; only a state it leaves unproven pays them
    calls = counting_eigvalsh(monkeypatch)
    density = [[[0.3, 0.0], [0.45, 0.0]], [[0.45, 0.0], [0.7, 0.0]]]
    rho = parse_config(make_doc(initial={"density": density})).rho0
    assert rho.tolist() == [[0.3, 0.45], [0.45, 0.7]]
    for bloch in ([0.2, -0.4, 0.6], [0.1, 0.0, -0.2, 0.3, 0.0, 0.1, 0.2, -0.3]):
        from_coherence_vector(CoherenceVector(bloch=bloch, trace_part=1.0))
    assert calls == []


def test_coherence_vector_length_validation():
    with pytest.raises(ValueError):
        CoherenceVector(bloch=[0.0, 0.0], trace_part=1.0)


@pytest.mark.parametrize("dim", range(2, 9))
def test_first_sample_is_the_coherence_vector_of_the_initial_state(dim):
    # propagate reads its first sample through to_coherence_vector, the one
    # rho -> v map, and from_coherence_vector inverts that map
    rho0 = random_density(np.random.default_rng(900 + dim), dim)
    sys = ControlSystem(h0=np.diag(np.arange(dim, dtype=float)),
                        controls=(dipole_coupling(dim, 0, 1, 0.3),))
    traj = propagate(sys, DissipationSpec.zero(dim), ControlField.constant([0.2], 0.5), rho0)
    v = to_coherence_vector(rho0)
    assert traj.bloch[0].tobytes() == v.bloch.tobytes()
    assert traj.trace_part[0] == v.trace_part
    assert np.max(np.abs(from_coherence_vector(v) - rho0)) <= 1e-15
