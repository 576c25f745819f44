"""Output checks built on invariants, not on the code under test.

The reference generator is assembled here from the README's conventions
(row-stacked vec, relaxation[k][n] moves population n -> k, dephasing damps
coherences), and the Gell-Mann basis from its documented definition.  Each
check returns a list of problems; an empty list means the output passed.
Checks run after an op's root span has closed, so they never show up in a
trace.
"""

import numpy as np
from scipy.linalg import expm

# final-state tolerance (max abs entry) for exact per-segment exponentials:
# only rounding accumulates, over a few thousand products
EXACT_TOL = 1e-9
# the same for the fixed-step RK4 route; its local error is O((h |L|)^5),
# and the inputs keep h |L| below 0.05
RK4_TOL = 1e-6
# residual |L(f) rho*| of a steady state, relative to max |L(f)|
FIXED_POINT_TOL = 1e-9


def reference_generator(h, dephasing, relaxation, hbar=1.0):
    """Row-stacked Liouville matrix of -i/hbar [H, .] plus the dissipator."""
    n = h.shape[0]
    eye = np.eye(n)
    gen = (np.kron(h, eye) - np.kron(eye, h.T)) / (1j * hbar)
    for k in range(n):
        for m in range(n):
            if k != m:
                gen[k * n + m, k * n + m] -= dephasing[k, m]
                gen[m * n + m, k * n + k] += relaxation[m, k]
                gen[m * n + m, m * n + m] -= relaxation[k, m]
    return gen


def _field_hamiltonian(ladder, values):
    h0, controls = ladder.hamiltonians()
    return h0 + sum(f * c for f, c in zip(values, controls))


def ladder_generator(ladder, values):
    return reference_generator(_field_hamiltonian(ladder, values), ladder.dephasing,
                               ladder.relaxation)


def gell_mann(n):
    """Symmetric, antisymmetric, then diagonal; tr(g_a g_b) = 2 delta_ab."""
    mats = []
    for sign in (1.0, -1.0j):
        for j in range(n):
            for k in range(j + 1, n):
                m = np.zeros((n, n), dtype=complex)
                m[j, k] = sign
                m[k, j] = np.conj(sign)
                mats.append(m)
    for l in range(1, n):
        d = np.zeros(n)
        d[:l] = 1.0
        d[l] = -float(l)
        mats.append(np.diag(d * np.sqrt(2.0 / (l * (l + 1)))).astype(complex))
    return np.array(mats)


def exact_final(ladder, segments, rho0):
    """vec(rho0) pushed through the ordered product of exact segment exponentials."""
    v = rho0.reshape(-1).astype(complex)
    for duration, values in segments:
        v = expm(ladder_generator(ladder, values) * duration) @ v
    return v


def check_trajectory(ladder, segments, reference, traj, route):
    """Final state and time against exact_final and the field's length."""
    total = sum(d for d, _ in segments)
    tol = EXACT_TOL if route == "piecewise" else RK4_TOL
    problems = []
    if abs(traj.times[-1] - total) > 1e-12 * total:
        problems.append("final time %.17g, expected %.17g" % (traj.times[-1], total))
    err = float(np.max(np.abs(traj.rho[-1].reshape(-1) - reference)))
    if not err <= tol:
        problems.append("N=%d %s final state off by %.3g (tol %.0e)"
                        % (ladder.dim, route, err, tol))
    return problems


def check_structure(ladder, amplitudes, result):
    """Closure dimensions of a generic ladder and the sweep's fixed points."""
    n = ladder.dim
    closure_dim, split, ham_dim, sweep = result
    problems = []
    if closure_dim != n ** 4 - n ** 2:
        problems.append("N=%d affine closure dim %d, expected %d" % (n, closure_dim, n ** 4 - n ** 2))
    if tuple(split) != ((n * n - 1) ** 2, n * n - 1):
        problems.append("N=%d closure split %s, expected %s" % (n, tuple(split), ((n * n - 1) ** 2, n * n - 1)))
    if ham_dim != n * n:
        problems.append("N=%d hamiltonian algebra dim %d, expected %d" % (n, ham_dim, n * n))
    if sweep.kind != "ellipse":
        problems.append("N=%d sweep conic is %s, expected ellipse" % (n, sweep.kind))
    points = np.asarray(sweep.points)
    if points.shape != (amplitudes.size, n * n - 1):
        return problems + ["N=%d sweep returned %s points" % (n, points.shape)]
    radius = np.sqrt(2.0 * (1.0 - 1.0 / n))
    if not np.max(np.linalg.norm(points, axis=1)) < radius:
        problems.append("N=%d sweep leaves the ball of radius %.6g" % (n, radius))
    rhos = np.eye(n) / n + 0.5 * np.einsum("pa,aij->pij", points, gell_mann(n))
    vecs = rhos.reshape(len(points), -1).T
    drift = ladder_generator(ladder, np.zeros(n - 1))
    drive = ladder_generator(ladder, np.eye(n - 1)[0]) - drift
    resid = np.abs(drift @ vecs + (drive @ vecs) * amplitudes)
    scale = np.max(np.abs(drift)) + np.max(np.abs(drive)) * np.max(np.abs(amplitudes))
    worst = float(np.max(resid)) / scale
    if not worst <= FIXED_POINT_TOL:
        problems.append("N=%d sweep point off the fixed point by %.3g (relative)" % (n, worst))
    return problems
