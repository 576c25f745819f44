"""Numerical tolerances of the package, in one table.

Every threshold that decides a physical or numerical question lives here,
with the rule that applies it where more than one module needs that rule,
as do the argument checks that more than one module shares.
"""

import numpy as np

from .errors import InputError

# Hermiticity/positivity allowance for a given state; double precision
# accumulates error over thousands of propagation steps, 1e-9 leaves headroom
VALIDITY_TOL = 1e-9
# per-sample Hermiticity/positivity allowance along propagated trajectories
PROPAGATION_TOL = 1e-7
# trace offset |Re tr - 1| + |Im tr| allowed for any state, whatever the tol
STATE_TRACE_TOL = 1e-9
# check_density proves a state, or a stack of samples, positive without
# eigenvalues first, by a Cholesky factor of rho + tol (1 - CERTIFICATE_SLACK) I
# at every N. Both that factor and eigvalsh err by a few N eps for a
# unit-trace state (~4e-15 together at N = 8), so a proof stands for the
# eigenvalue verdict while tol CERTIFICATE_SLACK exceeds that, for every tol
# above 4e-11. States whose smallest eigenvalue lies in the band of width
# tol CERTIFICATE_SLACK above -tol are left unproven, which only costs their
# eigenvalues
CERTIFICATE_SLACK = 1e-4
# propagate groups its samples ANCHOR_STRIDE at a time and factors only each
# group's middle one, shifted by the group's distance from it
# (states._unproven); the groups an anchor leaves go to the certificate. On
# trajectory_dense's inputs (seed 7001, 2,000 samples, 12 trajectories per N,
# one BLAS thread, least of 3 runs) the sample check took 0.18/0.25/0.48/1.11
# ms at N = 2/3/5/8 with stride 4, 0.13/0.18/0.34/0.72 with 8,
# 0.10/0.14/0.25/1.23 with 16 and 0.09/0.12/0.45/2.47 with 32, against
# 0.42/0.81/1.59/4.57 ms to rebuild and certify every sample. Strides 4 and 8
# prove every sample; 16 leaves 22% of them to the certificate at N = 8, 32 69%
ANCHOR_STRIDE = 8
# rounding allowance of that proof per unit of N^2. An anchor is tried only
# inside the ball (norm(v) below the pure-state radius, trace within
# STATE_TRACE_TOL of 1, delta below 1/N + tol), where the coordinates, the
# matrices factored and the distances err against long-double references,
# on propagated trajectories and paths of close states at N = 2-8, by at
# most 0.22 eps N^2; 4 eps leaves a factor 18
ANCHOR_ROUNDING = 4 * 2.0 ** -52
# trace-functional residual of a generator, relative to max(1, max|L|)
GENERATOR_TRACE_TOL = 1e-12
# Hermitian and symmetric-rate deviation, relative to max(1, max|m|)
HERMITICITY_TOL = 1e-12
# real parts above this count as growing modes, moduli below as zero modes
SPECTRUM_TOL = 1e-12
# relative threshold for rank decisions in the Lie closure
CLOSURE_TOL = 1e-10
# commutators with a Frobenius norm below this are dropped as zero
CLOSURE_ZERO_NORM = 1e-14
# singular values at or below this times the largest make A singular
SINGULAR_RATIO = 1e-12
# a steady-state sweep decomposes every SWEEP_ANCHOR_STRIDE-th A(a) in
# amplitude order and proves the points between non-singular by Weyl's
# bound; the rest get their own SVD. A wider stride decomposes fewer
# anchors but proves fewer points. Median sweep times over seeded random
# ladders of 1,500 points at N = 3/4/5/8 (one BLAS thread): stride 8
# 3.1/9.0/16/100 ms, 16 2.1/5.7/12/170 ms, 32 1.9/5.1/22/268 ms, against
# 8.0/30/66/384 ms with an SVD per point
SWEEP_ANCHOR_STRIDE = 16
# rounding allowance of that proof per unit of dimension and of norm(A):
# forming A(a) and A(a_j), and decomposing each, err by a small multiple of
# n eps norm(A) apiece; 16 eps covers all four
SWEEP_ROUNDING = 16 * 2.0 ** -52
# second singular value of the sweep points (absolute, and relative to the
# first) at or below which the points are collinear and the conic degenerate
DEGENERATE_CONIC_TOL = 1e-12
# |c2^2 - 4 c1 c3| at or below this times c1^2 + c2^2 + c3^2 makes the fitted
# conic a parabola. Exact parabolas sampled at 6-1,500 points, with plane
# extents 0.01-1 and height/width 0.1-1000, fit to at most 3.3e-11; an
# ellipse falls below 1e-9 only when its axes differ by more than 6e4
CONIC_DISCRIMINANT_TOL = 1e-9
# a sweep is "not a conic" when its plane residual passes this times the
# largest distance of a point from the centre, or its conic residual this times
# the largest row norm of the design matrix. 400 seeded dipole ladders, N = 2-5
# and 300-1,500 points, peak at 2.8e-11 (plane) and 4.2e-16 (conic); 60 sweeps
# of a control coupling every pair, N = 3 and 4, stay above 5.2e-2 and 1.4e-3
CONIC_FIT_TOL = 1e-6
# default sample_dt keeps norm(L) * dt at or below this for every segment
SAMPLE_STEP_NORM = 0.1
# an RK4 step h under a held G(f) is refused when h rho(A(f)) passes this:
# |R(iB)| = 0.94 for the RK4 polynomial R, and the error grows fast beyond.
# quasi_spin_qubit with energies [0, 10] gives h rho(A) = 0.51/1.02/2.04/2.55
# at sample_dt 0.05/0.1/0.2/0.25, final-state errors 4.7e-3/6.2e-2/0.12/0.12
# against sample_dt 0.01, and a state that leaves the physical set at 3.4.
# The tests reach h rho(A) = 1.37, acceptance 09 0.19, the shipped sampled
# template 0.025; the default grid stays at or below SAMPLE_STEP_NORM
RK4_STEP_BOUND = 1.5
# propagate forms every segment's step operator, one call per block, when G
# is at most STEP_BATCH_MAX_ORDER square; above it, segments of one or two
# steps apply T_m(hG) to u instead. A numpy call costs ~2 us whatever its size
# at n <= 64, while the batched Horner products grow as N^6. 200 slices of
# 0.6-1.4 steps, us per slice per step -> batched (exact / RK4, one BLAS
# thread, interleaved in one process): N = 4 50.9 -> 20.7 / 31.7 -> 17.3,
# N = 5 55.1 -> 34.5 / 34.1 -> 24.6, N = 6 60.2 -> 57.0 / 38.4 -> 37.0,
# N = 7 71.5 -> 106 / 46.3 -> 64.9, N = 8 87.4 -> 178 / 59.0 -> 107
STEP_BATCH_MAX_ORDER = 36
# propagate forms the generators G(f_k) and the step operators of as many
# consecutive segments at a time as this many bytes of G hold (202 at N = 3,
# 26 at N = 5, 4 at N = 8), which bounds the memory of a call: 20,000 slices
# at N = 5 at once would hold 100 MB per array. 200 slices at each of N = 3,
# 5, 8, both field kinds, ran 1.47/1.60/1.58 times faster than with
# per-segment set-up at 2^16/2^17/2^18 bytes (interleaved in one process, one
# BLAS thread). The anchor distances of states._unproven read the samples'
# coordinates this many bytes at a time, for the same reason
STEP_BATCH_BYTES = 2 ** 17
# a segment of duration d takes ceil(d / dt - GRID_STEP_SLACK) equal steps,
# so that rounding just above an integer adds no step
GRID_STEP_SLACK = 1e-12
# a grid whose density matrices (16 N^2 bytes a sample) pass this is refused:
# 2^20 samples at N = 2, 2^16 at N = 8. propagate steps and checks the
# coordinates, 8 N^2 bytes a sample, and Trajectory.rho builds the density
# stack only when it is read, as the CLI's rho output does; the bound keeps
# that stack holdable. One propagate call grows RSS (ru_maxrss) by 17 MB for
# a 12.2 MB stack at N = 2 and by 18 MB for 19.5 MB at N = 8, 27 and 42 MB
# once rho is read (60 and 85 MB when every call built and checked the
# stack); benchmark calls hold up to 2 MB
MAX_SAMPLE_BYTES = 2 ** 26
# a segment of duration d is refused when d times the bound on the largest
# entry of G(f) = A0 + sum_m f_m A_m + A_D, dissipator included, passes this:
# rounding in exp(G d) grows with that phase, and N^2 times it bounds
# norm(G h, 1), so exp(G h) never overflows. A relaxing qubit over 8 time
# units (f = 0, exact z(8) = 0.596207, segments up to 4 long, sample_dt
# 0.02-8) erred in z(8) by up to 8e-9/8e-8/6e-7/9e-6/8e-5/9e-3 at
# Hamiltonian phases 8e8/8e9/8e10/8e11/8e12/8e14, and returned the
# linearized 0.6 at 8e16.
# Dephasing sets it the same way: driven (d = 0.5, f = 1) over 3 units with
# relaxation 1, the final states at sample_dt 3 and 0.001 differ by
# 3.2e-9/3.3e-8/1.3e-7/3.7e-5 at dephasing 1e8/1e9/3e9/1e12, and undriven
# dephasing 1e16 erred by 0.21 in z(3). The bound holds that error near
# PROPAGATION_TOL (1.4e-7 at 1e10); 2^53, where the phase keeps no digits at
# all, would admit an error of 1e-2. Its cost: undriven runs that stay
# accurate to 6e-9 however stiff, dephasing past 3.3e9 over 3 units, are
# refused too. Outside the tests of this bound the tests reach phases up to
# 300, the benchmark inputs up to 45
MAX_PHASE = 1e10
# relative and absolute slack for a duration that overruns the field program
DURATION_REL_SLACK = 1e-12
DURATION_ABS_SLACK = 1e-15
# degree m -> theta_m: the Taylor polynomial T_m(X) has backward error at most
# 2^-53 (unit roundoff) in exp(X) when norm(X, 1) <= theta_m. Al-Mohy & Higham,
# "Computing the action of the matrix exponential", SIAM J. Sci. Comput. 33,
# 488-511 (2011), Table 3.1 (double precision) gives m = 5, 10, ..., 55; the
# other m <= 30, and three digits up to m = 30, are values of the same bound
# as shipped with scipy.sparse.linalg.expm_multiply
TAYLOR_THETA = {
    1: 2.29e-16, 2: 2.58e-8, 3: 1.39e-5, 4: 3.40e-4, 5: 2.40e-3,
    6: 9.07e-3, 7: 2.38e-2, 8: 5.00e-2, 9: 8.96e-2, 10: 1.44e-1,
    11: 2.14e-1, 12: 3.00e-1, 13: 4.00e-1, 14: 5.14e-1, 15: 6.41e-1,
    16: 7.81e-1, 17: 9.31e-1, 18: 1.09, 19: 1.26, 20: 1.44,
    21: 1.62, 22: 1.82, 23: 2.01, 24: 2.22, 25: 2.43,
    26: 2.64, 27: 2.86, 28: 3.08, 29: 3.31, 30: 3.54,
    35: 4.7, 40: 6.0, 45: 7.2, 50: 8.5, 55: 9.9,
}
# expm scales X by 2^-s until norm(X, 1) / 2^s <= TAYLOR_THETA[EXPM_MAX_DEGREE]:
# each halving adds one squaring, each degree one product, and squarings
# compound rounding. Against 40-digit references on affine generators with
# norm(X, 1) up to 1e3, caps 8/12/18/25 erred by 1.1e-14/1.0e-15/3.3e-16/3.3e-16
# of the largest entry; 12 ran about 15% faster than 18, 25 slower
EXPM_MAX_DEGREE = 18


def exceeds_scaled(deviation, magnitude, tol=HERMITICITY_TOL):
    """True when deviation exceeds tol * max(1, magnitude)."""
    return deviation > tol * max(1.0, magnitude)


def positive_finite(name, value):
    """A tolerance or step value, returned; InputError naming it unless positive and finite."""
    if not 0.0 < value < float("inf"):
        raise InputError("%s must be positive and finite, got %g" % (name, value))
    return value


def real_valued(name, value):
    """value as a float array; InputError naming it if an entry has a nonzero imaginary part."""
    value = np.asarray(value)
    if np.iscomplexobj(value) and value.imag.any():
        raise InputError("%s must be real, got a nonzero imaginary part" % name)
    return np.asarray(value.real, dtype=float)


def overruns(duration, total):
    """True when duration runs past a field program of length total, or is NaN."""
    return not duration <= total * (1 + DURATION_REL_SLACK) + DURATION_ABS_SLACK
