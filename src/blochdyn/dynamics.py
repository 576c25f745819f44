"""Semigroup evolution, spectra and attractors.

Propagation, steady states and sweeps all read the affine images of the
generator pieces (L0, L_m, L_D) from algebra.affine_generator_set, and
weight them by (1, f_1..f_M, 1) into G(f) = [[A(f), b(f)], [0, 0]].

States are stepped as real coordinates u = (v, tr rho) under G(f) on one
grid for both field kinds: a segment of duration d takes n = ceil(d / dt)
equal steps h = d / n, each p u with the step operator p = exp(G h)
(piecewise, exact) or T_4(hG) (sampled: the classical RK4 step under a held
G). Segments are set up in blocks of as many as STEP_BATCH_BYTES of G hold:
one product of the weight rows (1, f_k, 1) with the flattened pieces gives
their G(f_k), and one call over that stack, expm or the Horner kernel
_taylor, gives every p; the samples p^k u then come by doubling (_powers).
Above STEP_BATCH_MAX_ORDER (N >= 7), where a stack's products cost more than
the calls they save, a segment of one or two steps within the last Taylor
bound applies T_m(hG) to u step by step instead, m the least degree whose
bound theta_m covers h norm(G, 1) (Al-Mohy & Higham). Sample times are
t0 + k h, with every segment end exact. exp(G t) itself is formed by scaling
and squaring the same Taylor polynomial (Higham 2005), so numpy is the only
dependency.
Forward time is enforced; amplitude rows that liouville._admit refuses,
segments whose phase, the duration times the entry bound of all of G(f), is
too large to keep digits, grids too large to hold and RK4 steps past their
stability bound are refused (InputError) before the first step. Every
sample then passes the rule of check_density, the one validity check, read
from its coordinates (states._check_coordinates): the density matrix of
real coordinates on a Hermitian basis is Hermitian by construction, and the
trace is constant because every step operator's last row is exactly
(0, ..., 0, 1), so only positivity is left to prove. A Cholesky factor of
every ANCHOR_STRIDE-th sample proves its neighbours by Weyl's inequality;
samples that no anchor proves get the certificate, eigenvalues decide what
that leaves, and any failure names the first failing sample as
check_density does over the rebuilt stack. A Trajectory keeps the
coordinates and builds its density matrices when they are first read.

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
from functools import cached_property

import numpy as np

from .algebra import affine_generator_set
from .errors import InputError, NonUniqueEquilibriumError, SemigroupDomainError
from .liouville import _admit, _combine
from .states import (CoherenceVector, _check_coordinates, check_density,
                     density_from_coordinates, to_coherence_vector)
from .tolerances import (CONIC_DISCRIMINANT_TOL, CONIC_FIT_TOL, DEGENERATE_CONIC_TOL,
                         EXPM_MAX_DEGREE, GRID_STEP_SLACK, MAX_PHASE, MAX_SAMPLE_BYTES,
                         PROPAGATION_TOL, RK4_STEP_BOUND, SAMPLE_STEP_NORM, SINGULAR_RATIO,
                         SPECTRUM_TOL, STEP_BATCH_BYTES, STEP_BATCH_MAX_ORDER,
                         SWEEP_ANCHOR_STRIDE, SWEEP_ROUNDING, TAYLOR_THETA, exceeds_scaled,
                         overruns, positive_finite, real_valued)


def expm(m, t=1.0):
    """exp(m t) by scaling and squaring a Taylor polynomial, after finiteness and shape checks.

    m is a square matrix or a stack (K, n, n), t a scalar or one per matrix.
    With X = m t, each matrix takes the least s with norm(X, 1) / 2^s <=
    theta_18; one Horner pass of _taylor over the stack gives T_d(X / 2^s),
    and each matrix is squared its own s times. d is the least degree whose
    theta_d covers the stack's largest norm(X, 1) / 2^s, at least each
    matrix's own. theta_d bounds the backward error of T_d by 2^-53
    (Al-Mohy & Higham, SIAM J. Sci. Comput. 33, 488-511, 2011); the frame is
    Higham's (SIAM J. Matrix Anal. Appl. 26, 1179-1193, 2005), with a Taylor
    polynomial in place of the Pade approximant, so numpy alone suffices.
    """
    m = np.asarray(m)
    if m.ndim not in (2, 3) or m.shape[-1] != m.shape[-2]:
        raise InputError("expected a square matrix or a stack of them")
    with np.errstate(over="ignore", invalid="ignore"):
        x = m.reshape((-1,) + m.shape[-2:]) * np.reshape(t, (-1, 1, 1))
        norm = np.abs(x).sum(axis=1).max(axis=1, initial=0.0)
    if not np.isfinite(norm).all():
        raise InputError("matrix exponential of non-finite input")
    s = np.ceil(np.log2(np.maximum(norm / TAYLOR_THETA[EXPM_MAX_DEGREE], 1.0)))
    if s.any():
        x *= 2.0 ** -s[:, None, None]
    e = _taylor(x, 1.0, None, _taylor_degree((norm * 2.0 ** -s).max(initial=0.0)))
    for j in range(int(s.max(initial=0))):
        e[s > j] = e[s > j] @ e[s > j]
    return e.reshape(m.shape)


@dataclass(frozen=True)
class Trajectory:
    """Sampled evolution: times and coherence coordinates, density matrices on first read.

    Sample k is bloch[k] and trace_part[k]; rho0 is the initial state as
    given, row 0 of rho.
    """

    times: np.ndarray
    bloch: np.ndarray
    trace_part: np.ndarray
    rho0: np.ndarray

    @property
    def dim(self):
        return len(self.rho0)

    @cached_property
    def rho(self):
        """Density matrix of every sample, rebuilt from its coordinates; row 0 is rho0."""
        rho = density_from_coordinates(np.column_stack([self.bloch, self.trace_part]), self.dim)
        rho[0] = self.rho0
        return rho

    def purities(self):
        """tr(rho^2) = s^2 / N + norm(v)^2 / 2 at every sample, from the coordinates."""
        return (self.trace_part ** 2 / self.dim
                + np.einsum("ij,ij->i", self.bloch, self.bloch) / 2)


def _effective_segments(field, duration):
    """(durations, rows) of the segments clipped to the requested duration.

    Segment k runs for at most the time left, the duration less the
    segments before it subtracted in turn, and only while that is positive.
    """
    durations = np.array([d for d, _ in field.segments])
    rows = np.array([v for _, v in field.segments])
    if duration is None:
        return durations, rows
    if duration < 0:
        raise SemigroupDomainError(
            "semigroup domain: evolution is defined for t >= 0 only"
        )
    total = field.total_duration
    if overruns(duration, total):
        raise InputError("field covers [0, %g] but duration %g was requested" % (total, duration))
    left = np.subtract.accumulate(np.concatenate(([duration], durations)))[:-1]
    return np.minimum(durations, left)[left > 0], rows[left > 0]


def default_sample_dt(generators, total_duration):
    """Largest dt with norm(L) dt <= SAMPLE_STEP_NORM across the given affine generators.

    G = [[A, b], [0, 0]] is L written in the orthonormal basis (g_a / sqrt 2,
    I / sqrt N) once b is scaled by sqrt(N / 2), so the Frobenius norm of L
    is sqrt(norm(A)^2 + (N / 2) norm(b)^2), read here without forming L.
    """
    with np.errstate(over="ignore"):  # an infinite norm gives dt = 0, which propagate refuses
        worst = max((np.sum(g[:-1, :-1] ** 2) + np.sqrt(len(g)) / 2 * np.sum(g[:-1, -1] ** 2)
                     for g in generators), default=0.0) ** 0.5
    if worst == 0.0:
        return total_duration
    return min(total_duration, SAMPLE_STEP_NORM / worst)


def propagate(sys, spec, field, rho0, sample_dt=None, duration=None,
              validity_tol=PROPAGATION_TOL):
    """Evolve a state under the dissipative semigroup exp(Lt).

    The state is stepped as u = (v, tr rho) under G(f). Both field kinds take
    n = ceil(d / sample_dt) equal steps over a segment of duration d, so no
    step exceeds sample_dt and every segment end is a sample. Piecewise
    fields are stepped exactly, by p = exp(G h); sampled fields take
    classical fourth-order steps, by p = T_4(hG). One call over the stack of
    a block of segments (STEP_BATCH_BYTES) forms their p, and each segment
    takes its samples p^k u by doubling; above STEP_BATCH_MAX_ORDER,
    segments of one or two steps within the last Taylor bound apply the
    least-degree Taylor polynomial to u step by step instead. Zero dissipation
    gives unitary evolution. Every sample is checked for validity; the trace
    must hold to STATE_TRACE_TOL and Hermiticity and positivity to
    validity_tol, which must be positive and finite. The rule is
    check_density's over the samples' density matrices, read from their
    coordinates: Hermiticity holds by construction and the trace is the
    initial state's bit for bit, so the trace is read from s and positivity
    is proven by anchors, with no matrix built for a sample an anchor
    proves. A failure is named by check_density over the rebuilt stack, as
    the first failing sample. Before the first step, InputError (a ValueError)
    refuses a segment whose amplitudes _admit refuses or whose phase, its
    duration times _admit's bound on every entry of G(f), dissipator
    included, passes MAX_PHASE; a sample_dt not positive and finite or whose
    grid passes MAX_SAMPLE_BYTES; and, for sampled fields, a segment whose
    RK4 step passes RK4_STEP_BOUND. The phase bound keeps norm(G h, 1) <=
    N^2 MAX_PHASE, so exp(G h) never overflows.
    """
    positive_finite("validity_tol", validity_tol)
    if sample_dt is not None:
        positive_finite("sample_dt", sample_dt)
    rho0 = np.array(rho0, dtype=complex)  # a copy: the trajectory's row 0 of rho
    check_density(rho0)
    if sys.dim != spec.dim or sys.dim != rho0.shape[0]:
        raise InputError("system, dissipation and state dimensions differ")
    durations, rows = _effective_segments(field, duration)
    gens = np.array(affine_generator_set(sys, spec))
    with np.errstate(over="ignore"):  # a phase that overflows is refused as inf
        phase = durations * _admit(gens, rows, lambda k: "segment %d" % k)
    if (phase > MAX_PHASE).any():
        k = (phase > MAX_PHASE).argmax()
        raise InputError("segment %d: generator phase %.3g passes the %g bound, past which "
                         "exp(G t) keeps too few digits" % (k, phase[k], MAX_PHASE))
    if sample_dt is None:
        # one generator at a time: a list of all K would hold K N^4 entries
        sample_dt = default_sample_dt((_combine(gens, v) for v in rows),
                                      durations.sum() or 1.0)
    with np.errstate(over="ignore", divide="ignore"):  # a count that overflows is refused below
        steps = np.maximum(1.0, np.ceil(durations / sample_dt - GRID_STEP_SLACK))
        samples = steps.sum() + 1.0
    if samples > MAX_SAMPLE_BYTES / (16 * sys.dim ** 2):
        raise InputError("sample_dt %g gives %.4g samples of %dx%d density matrices, past the "
                         "%d MB bound" % (sample_dt, samples, sys.dim, sys.dim,
                                          MAX_SAMPLE_BYTES >> 20))
    count, order = len(durations), sys.dim ** 2
    h = durations / steps
    if field.kind == "sampled" and count:
        _check_rk4_steps(gens, rows, h)
    weights = np.pad(rows, ((0, 0), (1, 1)), constant_values=1.0)  # rows (1, f_k, 1)

    n_steps = steps.astype(int)
    ends = np.cumsum(durations)  # accumulates as t0 + d, segment by segment
    starts = np.concatenate(([0.0], ends[:-1]))
    first = np.concatenate(([0], np.cumsum(n_steps)))  # index of each segment's first sample
    # t0 + k h for k = 1..n, then each segment end exact
    seg = np.repeat(np.arange(count), n_steps)
    times = np.zeros(int(samples))
    times[1:] = starts[seg] + (np.arange(1, len(times)) - first[seg]) * h[seg]
    times[first[1:]] = ends
    us = np.empty((len(times), order))
    v0 = to_coherence_vector(rho0)
    us[0, :-1], us[0, -1] = v0.bloch, v0.trace_part
    pieces = gens.reshape(len(gens), -1)
    block = max(1, STEP_BATCH_BYTES // pieces[0].nbytes)
    for lo in range(0, count, block):
        hi = min(lo + block, count)
        _step_block(us[first[lo]:first[hi] + 1], weights[lo:hi] @ pieces, h[lo:hi],
                    n_steps[lo:hi], field.kind == "piecewise")
    if len(times) > 1:
        _check_coordinates(us[1:], validity_tol, times[1:])
    return Trajectory(times=times, bloch=us[:, :-1], trace_part=us[:, -1], rho0=rho0)


def _step_block(us, g, h, steps, piecewise):
    """Fill us[1:] in place by stepping us[0] through consecutive segments.

    Row k of g is the segment's G(f_k), flattened; h[k] is its step and
    steps[k] its step count. The segments that form their step operator p,
    all of them up to STEP_BATCH_MAX_ORDER, take it from one call over their
    stack, exp(G h) or T_4(h G), and their samples as powers of p; above it,
    segments of 1-2 steps within the last Taylor bound apply T_m(h G) to u
    step by step.
    """
    order = us.shape[1]
    g = g.reshape(-1, order, order)
    degrees, formed = [0] * len(g), slice(None)  # degree 0: the segment forms p
    if order > STEP_BATCH_MAX_ORDER:
        # held samples take classical RK4 under the frozen G, T_4(hG) exactly
        least = (_taylor_degree(h * np.abs(g).sum(axis=1).max(axis=1)).tolist() if piecewise
                 else [4] * len(g))
        degrees = [d if n <= 2 else 0 for n, d in zip(steps, least)]
        formed = [k for k, d in enumerate(degrees) if not d]
    if formed:  # a slice, or a list that may be empty
        x, t = g[formed], h[formed, None, None]
        ps = iter(expm(x, t) if piecewise else _taylor(x, t, None, 4))
    i = 0
    for k, (n, hk, degree) in enumerate(zip(steps.tolist(), h.tolist(), degrees)):
        if degree:
            for j in range(i + 1, i + n + 1):
                us[j] = _taylor(g[k], hk, us[j - 1], degree)
        else:
            _powers(next(ps), us[i:i + n + 1])
        i += n


def _check_rk4_steps(gens, rows, h):
    """Refuse, before any step, segments whose RK4 step h_k rho(A(f_k)) passes RK4_STEP_BOUND.

    rho(A) <= norm(G, 1) <= sum_j |w_j| norm(P_j, 1) with w = (1, f, 1) and
    P_j the affine pieces, so one product over the stack clears most
    segments; only those it leaves get their eigenvalues. The error names
    the first refused segment and a sample_dt, rounded down to three
    digits, that admits every segment.
    """
    norms = np.abs(gens).sum(axis=1).max(axis=1)
    suspects = np.flatnonzero(h * (np.abs(rows) @ norms[1:-1] + norms[0] + norms[-1])
                              > RK4_STEP_BOUND)
    radii = np.array([np.abs(np.linalg.eigvals(_combine(gens, rows[k])[:-1, :-1])).max()
                      for k in suspects])
    refused = h[suspects] * radii > RK4_STEP_BOUND
    if refused.any():
        first = refused.argmax()
        dt = RK4_STEP_BOUND / radii[refused].max()
        unit = 10.0 ** (np.floor(np.log10(dt)) - 2)
        raise InputError("segment %d: RK4 step %.3g times the spectral radius %.3g of A(f) passes "
                         "the %g stability bound; sample_dt %.3g or less admits every segment"
                         % (suspects[first], h[suspects[first]], radii[first], RK4_STEP_BOUND,
                            np.floor(dt / unit) * unit))


def _powers(p, us):
    """Fill us[k] = p^k us[0] for k >= 1 in place, by doubling.

    Once rows 1..b hold, rows b+1..2b are rows 1..b times q^T with q = p^b,
    and q is squared as b doubles: one product with p and about
    log2(len(us)) block products and squarings.
    """
    n = len(us) - 1
    np.matmul(p, us[0], out=us[1])
    b, q = 1, p
    while b < n:
        m = min(b, n - b)
        np.matmul(us[1:1 + m], q.T, out=us[1 + b:1 + b + m])
        b += m
        if b < n:
            q = q @ q


def _taylor(gen, t, u, degree):
    """T_m(tG) u = sum_{k <= m} (tG)^k u / k! by Horner's rule, m = degree; G may be a stack.

    u = None stands for the identity: T_m(tG) itself, without the product G I.
    """
    if u is None:
        u, v = np.eye(gen.shape[-1]), gen * (t / degree)
    else:
        v = gen @ u * (t / degree)
    v += u
    for k in range(degree - 1, 0, -1):
        v = gen @ v
        v *= t / k
        v += u
    return v


_THETAS = np.array(list(TAYLOR_THETA.values()))
_DEGREES = np.array(list(TAYLOR_THETA) + [0])  # indexed by np.searchsorted(_THETAS, x)


def _taylor_degree(x):
    """Least degree m whose TAYLOR_THETA[m] covers x = t norm(G, 1), entrywise; 0 past the table."""
    return _DEGREES[np.searchsorted(_THETAS, x)]


@dataclass(frozen=True)
class SpectrumReport:
    """Eigenvalues of a generator with forward-semigroup flags."""

    eigenvalues: np.ndarray
    max_real_part: float
    forward_bounded: bool
    zero_modes: int


def semigroup_spectrum(gen):
    """Spectrum of a generator matrix, a Liouville L or an affine part A, with stability flags.

    forward_bounded means no real part exceeds SPECTRUM_TOL * max(1, max|gen|):
    exp(gen t) stays bounded for all t >= 0 but generally blows up for t < 0,
    which is what restricts the dynamics to a one-parameter semigroup.
    zero_modes counts steady-state candidates, the eigenvalues whose modulus
    is within that same scaled tolerance of zero. InputError refuses a non-finite gen.
    """
    mat = np.asarray(gen)
    if not np.isfinite(mat).all():
        raise InputError("generator must be finite")
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
    (pure rotations, vanishing rates) and is reported as an error naming
    the null-space dimension. Amplitudes _admit refuses raise InputError.
    """
    gens = affine_generator_set(sys, spec)
    _admit(gens, [np.atleast_1d(f)], lambda k: "f")
    v, singular = _fixed_points(_combine(gens, f)[None])
    if singular is not None:
        raise NonUniqueEquilibriumError(
            "non-unique equilibrium: A has null space dimension %d" % singular[1])
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
    (positive); "not a conic" when either residual passes CONIC_FIT_TOL of
    its scale, since at N >= 3 the locus need not be planar or conic.
    Collinear or coincident points are reported with kind "degenerate", not
    raised.
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
    verdict equals the per-point rule. Raises InputError (a ValueError) for
    complex or fewer than 6 amplitudes, a control index that is not an
    integer in range, or naming the first amplitude that _admit refuses, and
    NonUniqueEquilibriumError naming the first amplitude whose A is singular.
    """
    amplitudes = real_valued("amplitudes", amplitudes).reshape(-1)
    if amplitudes.size < 6:
        raise InputError("insufficient samples: a conic fit needs at least 6 amplitudes")
    if not (isinstance(control_index, (int, np.integer)) and not isinstance(control_index, bool)
            and 0 <= control_index < sys.n_controls):
        raise InputError("sweep control index %s is not an integer in [0, %d)"
                         % (control_index, sys.n_controls))
    gens = affine_generator_set(sys, spec)
    rows = np.zeros((amplitudes.size, sys.n_controls))
    rows[:, control_index] = amplitudes
    _admit(gens, rows, lambda k: "amplitude %g" % amplitudes[k])
    points, singular = _sweep_fixed_points(gens[0] + gens[-1], gens[control_index + 1],
                                           amplitudes)
    if singular is not None:
        raise NonUniqueEquilibriumError(
            "non-unique equilibrium at amplitude %.17g: A has null space dimension %d"
            % (amplitudes[singular[0]], singular[1]))
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
        if (plane_residual > CONIC_FIT_TOL * np.linalg.norm(rel, axis=1).max()
                or residual > CONIC_FIT_TOL * np.linalg.norm(design, axis=1).max()):
            kind = "not a conic"
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
