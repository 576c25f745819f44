"""Semigroup evolution, spectra and attractors.

Propagation, steady states and sweeps all read the affine images of the
generator pieces (L0, L_m, L_D) from algebra.affine_generator_set, and
weight them by (1, f_1..f_M, 1) into G(f) = [[A(f), b(f)], [0, 0]].

States are stepped as real coordinates u = (v, tr rho) under G(f) on one
grid for both field kinds: a segment of duration d takes n = ceil(d / dt)
equal steps h = d / n, each either T_m(hG) u, a Taylor polynomial, or p u
with p = exp(G h) formed once per segment. Sampled fields take m = 4, the
classical RK4 step under a held G. Piecewise fields are stepped exactly: m
is the least degree whose bound theta_m covers h norm(G, 1) (Al-Mohy &
Higham), and p is formed for three or more steps or past the last bound,
theta_55. exp(G t) itself is formed by scaling and squaring the same Taylor
polynomial (Higham 2005), so numpy is the only dependency. Forward time is
enforced, amplitudes that would overflow G(f) and grids too large to hold
are refused before the first step, and every sample passes one validity check.

Steady states come from the affine picture: v* = -A^{-1} b, with the
propagation route available as an independent cross-check, and constant
control sweeps are summarized by a least-squares conic fit in the best-fit
plane of the attractor points. A sweep's A(a) = A_drift + a A_c is linear in
the amplitude, so the SVD that certifies A(a) non-singular runs only at every
SWEEP_ANCHOR_STRIDE-th amplitude in sorted order; Weyl's inequality bounds
how far the singular values move between, and a point that bound leaves
unproven gets its own SVD, so the verdict equals the per-point rule.
"""

from dataclasses import dataclass

import numpy as np

from .algebra import affine_generator_set
from .bloch import AffineGenerator
from .errors import NonUniqueEquilibriumError, SampleGridError, SemigroupDomainError
from .liouville import _combine, _first_overflow, generator_pieces, vectorize
from .states import CoherenceVector, _extraction_maps, check_density, density_from_coordinates
from .tolerances import (CONIC_DISCRIMINANT_TOL, DEGENERATE_CONIC_TOL, EXPM_MAX_DEGREE,
                         GRID_STEP_SLACK, MAX_SAMPLE_BYTES, PROPAGATION_TOL, SAMPLE_STEP_NORM,
                         SINGULAR_RATIO, SPECTRUM_TOL, SWEEP_ANCHOR_STRIDE, SWEEP_ROUNDING,
                         TAYLOR_THETA, exceeds_scaled, overruns)


def expm(m, t=1.0):
    """exp(m t) by scaling and squaring a Taylor polynomial, after finiteness and shape checks.

    With X = m t, s is the least integer with norm(X, 1) / 2^s <= theta_18
    and d the least degree in TAYLOR_THETA whose theta_d covers
    norm(X, 1) / 2^s; the result is T_d(X / 2^s)^(2^s), the Horner kernel
    _taylor applied to the identity and then squared s times. theta_d bounds
    the backward error of T_d by 2^-53 (Al-Mohy & Higham, SIAM J. Sci.
    Comput. 33, 488-511, 2011); the scaling and squaring frame is Higham's
    (SIAM J. Matrix Anal. Appl. 26, 1179-1193, 2005), with a Taylor
    polynomial in place of the Pade approximant, so numpy alone suffices.
    """
    m = np.asarray(m)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError("expected a square matrix")
    with np.errstate(over="ignore", invalid="ignore"):
        x = m * t
        norm = np.abs(x).sum(axis=0).max(initial=0.0)
    if not np.isfinite(norm):
        raise ValueError("matrix exponential of non-finite input")
    theta = TAYLOR_THETA[EXPM_MAX_DEGREE]
    s = int(np.ceil(np.log2(norm / theta))) if norm > theta else 0
    e = _taylor(x, 2.0 ** -s, np.eye(len(x)), _taylor_degree(norm / 2.0 ** s))
    for _ in range(s):
        e = e @ e
    return e


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

    The state is stepped as u = (v, tr rho) under G(f). Both field kinds take
    n = ceil(d / sample_dt) equal steps over a segment of duration d, so no
    step exceeds sample_dt and every segment end is a sample. Piecewise
    fields are stepped exactly, by the Taylor polynomial of least degree
    whose bound covers h norm(G, 1), or by exp(G h) formed once for three or
    more steps or past the last bound; sampled fields take classical
    fourth-order steps. Zero dissipation gives unitary evolution. Every
    sample is checked for validity; the trace must hold to 1e-9 and
    Hermiticity/positivity to validity_tol, which must be positive and
    finite. The samples are checked together once computed; an error names
    the first failing one. Amplitudes for which G(f) could overflow raise
    ValueError before the first step, and so (as SampleGridError) does a
    sample_dt not positive and finite or whose grid passes MAX_SAMPLE_BYTES.
    """
    if not 0.0 < validity_tol < np.inf:
        raise ValueError("validity_tol must be positive and finite")
    if sample_dt is not None and not 0.0 < sample_dt < np.inf:
        raise SampleGridError("sample_dt must be positive and finite, got %g" % sample_dt)
    rho0 = np.asarray(rho0, dtype=complex)
    check_density(rho0)
    if sys.dim != spec.dim or sys.dim != rho0.shape[0]:
        raise ValueError("system, dissipation and state dimensions differ")
    segs = _effective_segments(field, duration)
    gens = np.array(affine_generator_set(sys, spec))
    k = _first_overflow(gens, [v for _, v in segs])
    if k is not None:
        raise ValueError("segment %d: field amplitudes overflow the generator" % k)
    if sample_dt is None:
        pieces = np.array(generator_pieces(sys, spec))
        sample_dt = default_sample_dt([_combine(pieces, v) for _, v in segs],
                                      sum(d for d, _ in segs) or 1.0)
    with np.errstate(over="ignore"):  # a count that overflows is refused below
        steps = np.maximum(1.0, np.ceil([d / sample_dt - GRID_STEP_SLACK for d, _ in segs]))
        samples = steps.sum() + 1.0
    if samples > MAX_SAMPLE_BYTES / (16 * sys.dim ** 2):
        raise SampleGridError("sample_dt %g gives %.4g samples of %dx%d density matrices, past "
                              "the %d MB bound" % (sample_dt, samples, sys.dim, sys.dim,
                                                   MAX_SAMPLE_BYTES >> 20))

    u = np.append(np.real(_extraction_maps(sys.dim)[0] @ vectorize(rho0)), np.trace(rho0).real)
    times = [0.0]
    us = [u]
    t0 = 0.0
    for (dur, values), n in zip(segs, steps.astype(int).tolist()):
        gen = _combine(gens, values)
        h = dur / n
        if field.kind == "piecewise":
            degree = _taylor_degree(h * np.abs(gen).sum(axis=0).max())
            p = expm(gen, h) if n > 2 or degree is None else None
        else:
            # held samples: classical RK4 with the generator frozen per
            # segment, which is T_4(hG) exactly
            degree, p = 4, None
        for k in range(1, n + 1):
            u = _taylor(gen, h, u, degree) if p is None else p @ u
            us.append(u)
            times.append(t0 + dur if k == n else t0 + k * h)
        t0 += dur
    us = np.array(us)
    rhos = np.concatenate([rho0[None], density_from_coordinates(us[1:], sys.dim)])
    if len(times) > 1:
        check_density(rhos[1:], validity_tol, times=times[1:])
    return Trajectory(times=np.array(times, dtype=float), rho=rhos, bloch=us[:, :-1],
                      trace_part=us[:, -1])


def _taylor(gen, t, u, degree):
    """T_m(tG) u = sum_{k <= m} (tG)^k u / k! by Horner's rule, m = degree."""
    v = u
    for k in range(degree, 0, -1):
        v = u + (t / k) * (gen @ v)
    return v


def _taylor_degree(x):
    """Least degree m whose TAYLOR_THETA[m] covers x = t norm(G, 1), or None past the table."""
    return next((m for m, theta in TAYLOR_THETA.items() if theta >= x), None)


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


def _fixed_points(gens, check=None):
    """Solve A_k v_k = -b_k for a stack of [[A_k, b_k], [0, 0]], shape (K, n+1, n+1).

    Singular values at or below SINGULAR_RATIO times the largest count as zero.
    Only the A_k flagged in the boolean mask check (all by default) are
    decomposed; the caller vouches that the rest pass. Returns (v, None), or
    (None, (k, null_dim)) for the first singular A_k.
    """
    a = gens[:, :-1, :-1]
    idx = np.arange(len(a)) if check is None else np.flatnonzero(check)
    if idx.size:
        s = np.linalg.svd(a[idx], compute_uv=False)
        null_dims = np.sum(s <= SINGULAR_RATIO * s[:, :1], axis=1)
        singular = np.flatnonzero(null_dims)
        if singular.size:
            k = singular[0]
            return None, (int(idx[k]), int(null_dims[k]))
    return np.linalg.solve(a, -gens[:, :-1, -1:])[..., 0], None


def _sweep_fixed_points(drift, control, amplitudes):
    """_fixed_points(drift + a control) over the amplitudes a, with few SVDs.

    By Weyl's inequality every singular value of A(a) lies within
    delta = |a - a_j| norm(A_c, 2) of its value at a_j. In (stable) amplitude
    order, every SWEEP_ANCHOR_STRIDE-th A(a_j) is decomposed in one batch with
    A_c, and a point passes the rule of _fixed_points when a neighbouring
    anchor gives sigma_min - delta - r > SINGULAR_RATIO (sigma_max + delta + r),
    where r = SWEEP_ROUNDING n (sigma_max + (|a| + |a_j|) norm(A_c, 2)) covers
    rounding. _fixed_points decomposes the points left unproven, so the
    verdict, the first singular point and its null dimension are those of the
    per-point rule. A bound that overflows proves nothing.
    """
    gens = drift + amplitudes[:, None, None] * control
    order = np.argsort(amplitudes, kind="stable")
    a = amplitudes[order]
    anchors = order[::SWEEP_ANCHOR_STRIDE]
    s = np.linalg.svd(np.concatenate([control[None, :-1, :-1], gens[anchors, :-1, :-1]]),
                      compute_uv=False)
    c_norm, s_max, s_min = s[0, 0], s[1:, 0], s[1:, -1]
    left = np.arange(a.size) // SWEEP_ANCHOR_STRIDE
    proven = np.zeros(a.size, dtype=bool)
    with np.errstate(over="ignore", invalid="ignore"):
        for j in (left, np.minimum(left + 1, anchors.size - 1)):
            a_j = amplitudes[anchors[j]]
            delta = np.abs(a - a_j) * c_norm
            slack = SWEEP_ROUNDING * s.shape[1] * (s_max[j] + (np.abs(a) + np.abs(a_j)) * c_norm)
            proven |= s_min[j] - delta - slack > SINGULAR_RATIO * (s_max[j] + delta + slack)
    check = np.ones(a.size, dtype=bool)
    check[order] = ~proven
    return _fixed_points(gens, check)


@dataclass(frozen=True)
class SweepReport:
    """Steady states over a constant-control sweep and their conic fit.

    points holds one attractor per amplitude. The fit runs in the best-fit
    plane through the points: plane_basis spans it, plane_residual is the
    worst out-of-plane distance, conic_coeffs = (c1..c6) describe
    c1 u^2 + c2 uv + c3 v^2 + c4 u + c5 v + c6 = 0 in plane coordinates with
    norm(c) = 1, and the discriminant c2^2 - 4 c1 c3 classifies the curve:
    kind is "parabola" when its modulus is at most CONIC_DISCRIMINANT_TOL
    times c1^2 + c2^2 + c3^2, else "ellipse" (negative) or "hyperbola"
    (positive). Collinear or coincident points are reported with kind
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


def _classify_conic(coeffs):
    """(discriminant, kind) of the conic c1 u^2 + c2 uv + c3 v^2 + c4 u + c5 v + c6 = 0.

    The discriminant is c2^2 - 4 c1 c3. The curve is a "parabola" when its
    modulus is at most CONIC_DISCRIMINANT_TOL times c1^2 + c2^2 + c3^2, a
    ratio that rescaling both plane coordinates leaves unchanged; otherwise
    an "ellipse" (negative) or a "hyperbola" (positive).
    """
    c1, c2, c3 = coeffs[:3]
    disc = float(c2 ** 2 - 4.0 * c1 * c3)
    if abs(disc) <= CONIC_DISCRIMINANT_TOL * (c1 ** 2 + c2 ** 2 + c3 ** 2):
        return disc, "parabola"
    return disc, "ellipse" if disc < 0 else "hyperbola"


def steady_state_sweep(sys, spec, control_index, amplitudes):
    """Attractor locus for one control swept over constant amplitudes.

    The remaining controls are held at zero. Needs at least 6 samples to
    pin down a conic. (A, b) is linear in the amplitude, so it is assembled
    once and every point is solved in one batch. A is singular when a
    singular value is at or below SINGULAR_RATIO times the largest; SVDs at
    anchor amplitudes and Weyl's bound decide that for the points between,
    and a point the bound cannot prove non-singular gets its own SVD, so the
    verdict equals the per-point rule. Raises ValueError naming the first
    non-finite amplitude or the first that may overflow the generator, and
    NonUniqueEquilibriumError naming the first amplitude whose A is singular.
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
    k = _first_overflow(gens, amplitudes[:, None] * np.eye(sys.n_controls)[control_index])
    if k is not None:
        raise ValueError("amplitude %g overflows the generator" % amplitudes[k])
    points, singular = _sweep_fixed_points(gens[0] + gens[-1], gens[control_index + 1],
                                           amplitudes)
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
    if s.size < 2 or s[1] <= DEGENERATE_CONIC_TOL * max(1.0, s[0]):
        basis, plane_residual = np.zeros((2, points.shape[1])), 0.0
        coeffs, residual, disc, kind = np.zeros(6), float("nan"), float("nan"), "degenerate"
    else:
        basis = vt[:2]
        uv = rel @ basis.T
        out_of_plane = rel - uv @ basis
        plane_residual = float(np.max(np.linalg.norm(out_of_plane, axis=1)))
        design = np.column_stack([uv[:, 0] ** 2, uv[:, 0] * uv[:, 1], uv[:, 1] ** 2,
                                  uv[:, 0], uv[:, 1], np.ones(len(uv))])
        _, _, vt6 = np.linalg.svd(design, full_matrices=False)
        coeffs = vt6[-1]
        lead = np.argmax(np.abs(coeffs))
        if coeffs[lead] < 0:
            coeffs = -coeffs
        residual = float(np.max(np.abs(design @ coeffs)))
        disc, kind = _classify_conic(coeffs)
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
