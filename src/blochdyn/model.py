"""System declaration: Hamiltonians, control fields, dissipation rates.

A system is an internal Hamiltonian H0 plus a list of control Hamiltonians
H_m entering as H = H0 + sum_m f_m(t) H_m with real field amplitudes f_m.
Dissipation is specified by two nonnegative rate matrices: a symmetric
dephasing matrix (rates for the decay of coherences between level pairs) and
a relaxation matrix whose (k, n) entry is the rate of n -> k population
transfer.
"""

from dataclasses import dataclass

import numpy as np

from .tolerances import exceeds_scaled


def _check_hermitian(m, name):
    m = np.asarray(m, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1] or not np.all(np.isfinite(m)):
        raise ValueError("%s must be a finite square matrix" % name)
    if exceeds_scaled(np.max(np.abs(m - m.conj().T)), np.max(np.abs(m))):
        raise ValueError("%s must be Hermitian" % name)
    return m


@dataclass(frozen=True)
class ControlSystem:
    """Internal Hamiltonian, control Hamiltonians and the hbar convention."""

    h0: np.ndarray
    controls: tuple
    hbar: float = 1.0

    def __post_init__(self):
        h0 = _check_hermitian(self.h0, "h0")
        controls = tuple(
            _check_hermitian(h, "control %d" % m) for m, h in enumerate(self.controls)
        )
        if not 0 < self.hbar < np.inf:
            raise ValueError("hbar must be positive and finite")
        for m, h in enumerate(controls):
            if h.shape != h0.shape:
                raise ValueError("control %d dimension differs from h0" % m)
        object.__setattr__(self, "h0", h0)
        object.__setattr__(self, "controls", controls)

    @property
    def dim(self):
        return self.h0.shape[0]

    @property
    def n_controls(self):
        return len(self.controls)


@dataclass(frozen=True)
class DissipationSpec:
    """Dephasing and relaxation rate matrices (units 1/time).

    dephasing[k, n] = dephasing[n, k] >= 0 damps the (k, n) coherence;
    relaxation[k, n] >= 0 is the rate of n -> k population transfer.
    Diagonals are zero by definition. Dephasing asymmetry within the
    scale-aware Hermiticity rule is rounding and is averaged away.
    """

    dephasing: np.ndarray
    relaxation: np.ndarray

    def __post_init__(self):
        g = np.asarray(self.dephasing, dtype=float)
        r = np.asarray(self.relaxation, dtype=float)
        if g.shape != r.shape or g.ndim != 2 or g.shape[0] != g.shape[1]:
            raise ValueError("rate matrices must be square and same shape")
        if not (np.all((g >= 0) & (g < np.inf)) and np.all((r >= 0) & (r < np.inf))):
            raise ValueError("rates must be finite and nonnegative")
        if exceeds_scaled(np.max(np.abs(g - g.T)), np.max(np.abs(g))):
            raise ValueError("dephasing matrix must be symmetric")
        g = 0.5 * (g + g.T)
        if np.any(np.diag(g) != 0) or np.any(np.diag(r) != 0):
            raise ValueError("rate matrices must have zero diagonal")
        object.__setattr__(self, "dephasing", g)
        object.__setattr__(self, "relaxation", r)

    @property
    def dim(self):
        return self.dephasing.shape[0]

    def is_quasi_spin(self):
        """True when relaxation rates are symmetric, up to rounding, under level exchange."""
        r = self.relaxation
        return not exceeds_scaled(np.max(np.abs(r - r.T)), np.max(np.abs(r)))

    @classmethod
    def zero(cls, dim):
        z = np.zeros((dim, dim))
        return cls(dephasing=z, relaxation=z.copy())


@dataclass(frozen=True)
class ControlField:
    """Piecewise-held field amplitudes f_m(t).

    segments is a sequence of (duration, values) pairs; values has one entry
    per control. Both kinds are sampled on one grid of equal steps per
    segment; kind selects the step: "piecewise" fields are stepped exactly,
    "sampled" fields by classical RK4. The held-value semantics are identical.
    """

    segments: tuple
    kind: str = "piecewise"

    def __post_init__(self):
        if self.kind not in ("piecewise", "sampled"):
            raise ValueError("kind must be 'piecewise' or 'sampled'")
        segs = []
        for dur, values in self.segments:
            dur = float(dur)
            values = np.atleast_1d(np.asarray(values, dtype=float))
            if not 0 < dur < np.inf:
                raise ValueError("segment durations must be positive and finite")
            if not np.all(np.isfinite(values)):
                raise ValueError("field values must be finite")
            segs.append((dur, values))
        if not segs:
            raise ValueError("field needs at least one segment")
        widths = {v.size for _, v in segs}
        if len(widths) != 1:
            raise ValueError("all segments must carry the same number of controls")
        object.__setattr__(self, "segments", tuple(segs))

    @property
    def n_controls(self):
        return self.segments[0][1].size

    @property
    def total_duration(self):
        return float(sum(d for d, _ in self.segments))

    @classmethod
    def constant(cls, values, duration, kind="piecewise"):
        return cls(segments=((duration, values),), kind=kind)


def qubit_system(e1, e2, d1, d2, hbar=1.0):
    """Two-level system with x- and y-type dipole controls.

    H0 = diag(e1, e2), H1 = d1 sigma_x, H2 = d2 sigma_y. Levels must be
    ordered e1 < e2.
    """
    if e1 >= e2:
        raise ValueError("levels not ordered: need e1 < e2")
    h0 = np.diag([e1, e2]).astype(complex)
    h1 = d1 * np.array([[0, 1], [1, 0]], dtype=complex)
    h2 = d2 * np.array([[0, -1j], [1j, 0]], dtype=complex)
    return ControlSystem(h0=h0, controls=(h1, h2), hbar=float(hbar))


def dipole_coupling(dim, j, k, moment, axis="x"):
    """Hermitian coupling of levels j and k (0-based) with a real moment.

    axis "x" gives moment (|j><k| + |k><j|), axis "y" the imaginary variant.
    """
    if not (0 <= j < dim and 0 <= k < dim) or j == k:
        raise ValueError("coupling needs two distinct levels inside the system")
    h = np.zeros((dim, dim), dtype=complex)
    if axis == "x":
        h[j, k] = moment
        h[k, j] = moment
    elif axis == "y":
        h[j, k] = -1j * moment
        h[k, j] = 1j * moment
    else:
        raise ValueError("axis must be 'x' or 'y'")
    return h


def transition_frequency(sys, k, n):
    """(E_n - E_k) / hbar for levels k, n (0-based) of a diagonal H0."""
    h0 = sys.h0
    off = h0 - np.diag(np.diag(h0))
    if np.max(np.abs(off)) > 0:
        raise ValueError("eigenbasis required: h0 is not diagonal")
    if k == n:
        raise ValueError("transition needs two distinct levels")
    return float(np.real(h0[n, n] - h0[k, k]) / sys.hbar)
