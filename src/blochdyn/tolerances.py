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
# second singular value of the sweep points (absolute, and relative to the
# first) at or below which the points are collinear and the conic degenerate
DEGENERATE_CONIC_TOL = 1e-12
# default sample_dt keeps norm(L) * dt at or below this for every segment
SAMPLE_STEP_NORM = 0.1
# slack on dur/dt when counting sample steps in a segment, so that rounding
# just off an integer neither adds nor drops a step
GRID_STEP_SLACK = 1e-12
# a remainder of at most this fraction of dt is rounding, not a short step
GRID_REMAINDER_FRACTION = 1e-9
# relative and absolute slack for a duration that overruns the field program
DURATION_REL_SLACK = 1e-12
DURATION_ABS_SLACK = 1e-15


def exceeds_scaled(deviation, magnitude, tol=HERMITICITY_TOL):
    """True when deviation exceeds tol * max(1, magnitude)."""
    return deviation > tol * max(1.0, magnitude)


def overruns(duration, total):
    """True when duration runs past a field program of length total."""
    return duration > total * (1 + DURATION_REL_SLACK) + DURATION_ABS_SLACK
