"""Numerical tolerances of the package, in one table.

Every threshold that decides a physical or numerical question lives here,
with the rule that applies it where more than one module needs that rule.
"""

# Hermiticity/positivity allowance for a given state; double precision
# accumulates error over thousands of propagation steps, 1e-9 leaves headroom
VALIDITY_TOL = 1e-9
# per-sample Hermiticity/positivity allowance along propagated trajectories
PROPAGATION_TOL = 1e-7
# trace offset |Re tr - 1| + |Im tr| allowed for any state, whatever the tol
STATE_TRACE_TOL = 1e-9
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
# default sample_dt keeps norm(L) * dt at or below this for every segment
SAMPLE_STEP_NORM = 0.1
# a segment of duration d takes ceil(d / dt - GRID_STEP_SLACK) equal steps,
# so that rounding just above an integer adds no step
GRID_STEP_SLACK = 1e-12
# a grid whose density matrices (16 N^2 bytes a sample) pass this is refused:
# 2^20 samples at N = 2, 2^16 at N = 8. propagate peaks at 6-8 times that
# stack (92 MB of RSS for 12 MB at N = 2); benchmark calls hold up to 2 MB
MAX_SAMPLE_BYTES = 2 ** 26
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


def overruns(duration, total):
    """True when duration runs past a field program of length total."""
    return duration > total * (1 + DURATION_REL_SLACK) + DURATION_ABS_SLACK
