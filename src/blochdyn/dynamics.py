"""Semigroup evolution, spectra and attractors.

Propagation, steady states and sweeps all read the affine images of the
generator pieces (L0, L_m, L_D) from algebra.affine_generator_set, and
weight them by (1, f_1..f_M, 1) into G(f) = [[A(f), b(f)], [0, 0]].

States are stepped as real coordinates u = (v, tr rho) under G(f): piecewise
fields exactly, by exp(G dt) factors reused across each segment's sample
grid, sampled fields by a classical fixed-step fourth-order integrator. Both
routes enforce forward time, and all samples pass one validity check.

Steady states come from the affine picture: v* = -A^{-1} b, with the
propagation route available as an independent cross-check, and constant
control sweeps are summarized by a least-squares conic fit in the best-fit
plane of the attractor points.
"""

from dataclasses import dataclass

import numpy as np

from .algebra import affine_generator_set
from .bloch import AffineGenerator
from .errors import NonUniqueEquilibriumError, SemigroupDomainError
from .liouville import _combine, generator_pieces, vectorize
from .states import CoherenceVector, _extraction_maps, check_density, density_from_coordinates
from .tolerances import (DEGENERATE_CONIC_TOL, GRID_REMAINDER_FRACTION, GRID_STEP_SLACK,
                         PROPAGATION_TOL, SAMPLE_STEP_NORM, SINGULAR_RATIO, SPECTRUM_TOL,
                         exceeds_scaled, overruns)


def expm(m, t=1.0):
    """exp(m t) via scipy.linalg.expm, after finiteness and shape checks.

    scipy.linalg is imported on the first call, so that runs which never
    exponentiate (sampled fields, sweeps, analysis) do not pay its import.
    """
    import scipy.linalg

    m = np.asarray(m)
    if not np.all(np.isfinite(m)):
        raise ValueError("matrix exponential of non-finite input")
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError("expected a square matrix")
    return scipy.linalg.expm(m * t)


@dataclass(frozen=True)
class Trajectory:
    """Sampled evolution: times, density matrices and coherence coordinates."""

    times: np.ndarray
    rho: np.ndarray
    bloch: np.ndarray
    trace_part: np.ndarray

    @property
    def dim(self):
        return self.rho.shape[1]

    def __len__(self):
        return self.times.size

    def purities(self):
        """tr(rho^2) at every sample."""
        return np.einsum("nij,nji->n", self.rho, self.rho).real


def _effective_segments(field, duration):
    """Clip the segment list to the requested duration."""
    if duration is None:
        return list(field.segments)
    if duration < 0:
        raise SemigroupDomainError(
            "semigroup domain: evolution is defined for t >= 0 only"
        )
    total = field.total_duration
    if overruns(duration, total):
        raise ValueError(
            "field covers [0, %g] but duration %g was requested" % (total, duration)
        )
    segs = []
    left = duration
    for dur, values in field.segments:
        if left <= 0:
            break
        take = min(dur, left)
        if take > 0:
            segs.append((take, values))
        left -= take
    return segs


def default_sample_dt(generators, total_duration):
    """Largest dt with norm(L) dt <= SAMPLE_STEP_NORM across the given generators."""
    worst = max((float(np.linalg.norm(g)) for g in generators), default=0.0)
    if worst == 0.0:
        return total_duration
    return min(total_duration, SAMPLE_STEP_NORM / worst)


def propagate(sys, spec, field, rho0, sample_dt=None, duration=None,
              validity_tol=PROPAGATION_TOL):
    """Evolve a state under the dissipative semigroup exp(Lt).

    The state is stepped as u = (v, tr rho) under G(f). Piecewise fields are
    exponentiated exactly per segment and subsampled at sample_dt; sampled
    fields use fixed fourth-order steps no larger than sample_dt. Zero
    dissipation gives unitary evolution. Every sample is checked for validity;
    the trace must hold to 1e-9 and Hermiticity/positivity to validity_tol,
    which must be positive and finite. The samples are checked together once
    computed; an error names the first failing one.
    """
    if not 0.0 < validity_tol < np.inf:
        raise ValueError("validity_tol must be positive and finite")
    rho0 = np.asarray(rho0, dtype=complex)
    check_density(rho0)
    if sys.dim != spec.dim or sys.dim != rho0.shape[0]:
        raise ValueError("system, dissipation and state dimensions differ")
    segs = _effective_segments(field, duration)
    if sample_dt is None:
        pieces = np.array(generator_pieces(sys, spec))
        sample_dt = default_sample_dt([_combine(pieces, v) for _, v in segs],
                                      sum(d for d, _ in segs) or 1.0)
    if sample_dt <= 0:
        raise ValueError("sample_dt must be positive")

    gens = np.array(affine_generator_set(sys, spec))
    u = np.append(np.real(_extraction_maps(sys.dim)[0] @ vectorize(rho0)), np.trace(rho0).real)
    times = [0.0]
    us = [u]
    t0 = 0.0
    for dur, values in segs:
        gen = _combine(gens, values)
        if field.kind == "piecewise":
            # uniform grid reusing one step operator; a remainder shorter
            # than dt is folded into a final sample at the exact segment end
            m = int(np.floor(dur / sample_dt + GRID_STEP_SLACK))
            r = dur - m * sample_dt
            if r <= GRID_REMAINDER_FRACTION * sample_dt:
                r = 0.0
            if m > 0:
                p = expm(gen, sample_dt)
                for k in range(1, m + 1):
                    u = p @ u
                    us.append(u)
                    times.append(t0 + dur if r == 0.0 and k == m else t0 + k * sample_dt)
            if r > 0.0:
                u = expm(gen, r) @ u
                us.append(u)
                times.append(t0 + dur)
        else:
            # held samples: integrate with the generator frozen per segment,
            # steps chosen to land exactly on the segment end
            n = max(1, int(np.ceil(dur / sample_dt - GRID_STEP_SLACK)))
            h = dur / n
            for k in range(1, n + 1):
                u = _rk4_step(gen, u, h)
                us.append(u)
                times.append(t0 + dur if k == n else t0 + k * h)
        t0 += dur
    us = np.array(us)
    rhos = np.concatenate([rho0[None], density_from_coordinates(us[1:], sys.dim)])
    if len(times) > 1:
        check_density(rhos[1:], validity_tol, times=times[1:])
    return Trajectory(times=np.array(times, dtype=float), rho=rhos, bloch=us[:, :-1],
                      trace_part=us[:, -1])


def _rk4_step(gen, v, h):
    k1 = gen @ v
    k2 = gen @ (v + 0.5 * h * k1)
    k3 = gen @ (v + 0.5 * h * k2)
    k4 = gen @ (v + h * k3)
    return v + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


@dataclass(frozen=True)
class SpectrumReport:
    """Eigenvalues of a generator with forward-semigroup flags."""

    eigenvalues: np.ndarray
    max_real_part: float
    forward_bounded: bool
    zero_modes: int

    @property
    def unbounded(self):
        """True when some mode grows forward in time."""
        return not self.forward_bounded


def semigroup_spectrum(gen):
    """Spectrum of a Liouville or affine generator with stability flags.

    forward_bounded means no real part exceeds SPECTRUM_TOL * max(1, max|gen|):
    exp(gen t) stays bounded for all t >= 0 but generally blows up for t < 0,
    which is what restricts the dynamics to a one-parameter semigroup.
    zero_modes counts steady-state candidates, the eigenvalues whose modulus
    is within that same scaled tolerance of zero.
    """
    if isinstance(gen, AffineGenerator):
        mat = gen.a
    else:
        mat = np.asarray(gen)
    eig = np.linalg.eigvals(mat)
    order = np.lexsort((eig.imag, -eig.real))
    eig = eig[order]
    max_real = float(np.max(eig.real))
    scale = float(np.max(np.abs(mat)))
    return SpectrumReport(
        eigenvalues=eig,
        max_real_part=max_real,
        forward_bounded=not exceeds_scaled(max_real, scale, SPECTRUM_TOL),
        zero_modes=int(np.sum(~exceeds_scaled(np.abs(eig), scale, SPECTRUM_TOL))),
    )


def steady_state(sys, spec, f):
    """Fixed point of the affine flow for constant field amplitudes.

    Solves A v* = -b. A singular A means the fixed point is not unique
    (pure rotations, vanishing rates) and is reported as an error carrying
    the null-space dimension. Non-finite amplitudes raise ValueError.
    """
    if not np.all(np.isfinite(f)):
        raise ValueError("field amplitudes must be finite")
    v, singular = _fixed_points(_combine(affine_generator_set(sys, spec), f)[None])
    if singular is not None:
        null_dim = singular[1]
        raise NonUniqueEquilibriumError(
            "non-unique equilibrium: A has null space dimension %d" % null_dim,
            null_dim=null_dim,
        )
    return CoherenceVector(bloch=v[0], trace_part=1.0)


def _fixed_points(gens):
    """Solve A_k v_k = -b_k for a stack of [[A_k, b_k], [0, 0]], shape (K, n+1, n+1).

    Singular values at or below SINGULAR_RATIO times the largest count as zero.
    Returns (v, None), or (None, (k, null_dim)) for the first singular A_k.
    """
    s = np.linalg.svd(gens[:, :-1, :-1], compute_uv=False)
    null_dims = np.sum(s <= SINGULAR_RATIO * s[:, :1], axis=1)
    singular = np.flatnonzero(null_dims)
    if singular.size:
        k = int(singular[0])
        return None, (k, int(null_dims[k]))
    return np.linalg.solve(gens[:, :-1, :-1], -gens[:, :-1, -1:])[..., 0], None


@dataclass(frozen=True)
class SweepReport:
    """Steady states over a constant-control sweep and their conic fit.

    points holds one attractor per amplitude. The fit runs in the best-fit
    plane through the points: plane_basis spans it, plane_residual is the
    worst out-of-plane distance, conic_coeffs = (c1..c6) describe
    c1 u^2 + c2 uv + c3 v^2 + c4 u + c5 v + c6 = 0 in plane coordinates with
    norm(c) = 1, and the discriminant c2^2 - 4 c1 c3 classifies the curve:
    kind is "ellipse" (negative), "hyperbola" (positive) or "parabola"
    (zero). Collinear or coincident points are reported with kind
    "degenerate", not raised.
    """

    amplitudes: np.ndarray
    points: np.ndarray
    center: np.ndarray
    plane_basis: np.ndarray
    plane_residual: float
    conic_coeffs: np.ndarray
    conic_residual: float
    discriminant: float
    kind: str
    max_point_norm: float
    ball_radius: float

    @property
    def strictly_inside(self):
        return self.max_point_norm < self.ball_radius


def steady_state_sweep(sys, spec, control_index, amplitudes):
    """Attractor locus for one control swept over constant amplitudes.

    The remaining controls are held at zero. Needs at least 6 samples to
    pin down a conic. (A, b) is linear in the amplitude, so it is assembled
    once and every point is solved in one batch. Raises ValueError naming
    the first non-finite amplitude, and NonUniqueEquilibriumError naming the
    first amplitude whose A is singular.
    """
    amplitudes = np.asarray(amplitudes, dtype=float).reshape(-1)
    finite = np.isfinite(amplitudes)
    if not finite.all():
        raise ValueError("non-finite amplitude %g" % amplitudes[np.argmin(finite)])
    if amplitudes.size < 6:
        raise ValueError("need at least 6 amplitudes for a conic fit")
    if not 0 <= control_index < sys.n_controls:
        raise ValueError("control index %d out of range" % control_index)
    gens = affine_generator_set(sys, spec)
    drift, control = gens[0] + gens[-1], gens[control_index + 1]
    points, singular = _fixed_points(drift + amplitudes[:, None, None] * control)
    if singular is not None:
        k, null_dim = singular
        raise NonUniqueEquilibriumError(
            "non-unique equilibrium at amplitude %.17g: A has null space dimension %d"
            % (amplitudes[k], null_dim),
            null_dim=null_dim,
        )
    dim = sys.dim
    # pure states sit at this coherence-vector norm; for two levels it is
    # the unit Bloch sphere
    radius = float(np.sqrt(2.0 * (1.0 - 1.0 / dim)))
    max_norm = float(np.max(np.linalg.norm(points, axis=1)))

    center = points.mean(axis=0)
    rel = points - center
    _, s, vt = np.linalg.svd(rel, full_matrices=False)
    degenerate = s.size < 2 or s[1] <= DEGENERATE_CONIC_TOL * max(1.0, s[0])
    if degenerate:
        return SweepReport(
            amplitudes=amplitudes,
            points=points,
            center=center,
            plane_basis=np.zeros((2, points.shape[1])),
            plane_residual=0.0,
            conic_coeffs=np.zeros(6),
            conic_residual=float("nan"),
            discriminant=float("nan"),
            kind="degenerate",
            max_point_norm=max_norm,
            ball_radius=radius,
        )
    basis = vt[:2]
    uv = rel @ basis.T
    out_of_plane = rel - uv @ basis
    plane_residual = float(np.max(np.linalg.norm(out_of_plane, axis=1)))
    design = np.column_stack(
        [uv[:, 0] ** 2, uv[:, 0] * uv[:, 1], uv[:, 1] ** 2, uv[:, 0], uv[:, 1], np.ones(len(uv))]
    )
    _, _, vt6 = np.linalg.svd(design, full_matrices=False)
    coeffs = vt6[-1]
    lead = np.argmax(np.abs(coeffs))
    if coeffs[lead] < 0:
        coeffs = -coeffs
    residual = float(np.max(np.abs(design @ coeffs)))
    disc = float(coeffs[1] ** 2 - 4.0 * coeffs[0] * coeffs[2])
    if disc < 0:
        kind = "ellipse"
    elif disc > 0:
        kind = "hyperbola"
    else:
        kind = "parabola"
    return SweepReport(
        amplitudes=amplitudes,
        points=points,
        center=center,
        plane_basis=basis,
        plane_residual=plane_residual,
        conic_coeffs=coeffs,
        conic_residual=residual,
        discriminant=disc,
        kind=kind,
        max_point_norm=max_norm,
        ball_radius=radius,
    )
