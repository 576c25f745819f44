"""Seeded inputs: random admissible ladders, fields, states and sweep grids.

Every draw comes from one numpy Generator seeded by the workload seed, so a
seed fixes the whole sequence of inputs.  Ladders obey the README's rule for
complete positivity: the dephasing rate of each pair of levels is at least
half the total relaxation leaving the two levels.  The program under test
receives only the objects built here.
"""

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class Ladder:
    """N levels with increasing energies, x-type dipoles on neighbours."""

    energies: np.ndarray
    moments: np.ndarray
    dephasing: np.ndarray
    relaxation: np.ndarray

    @property
    def dim(self):
        return self.energies.size

    def hamiltonians(self):
        """Drift H0 and one control Hamiltonian per neighbouring pair."""
        n = self.dim
        controls = []
        for j, moment in enumerate(self.moments):
            h = np.zeros((n, n), dtype=complex)
            h[j, j + 1] = h[j + 1, j] = moment
            controls.append(h)
        return np.diag(self.energies).astype(complex), controls

    def build(self):
        """(ControlSystem, DissipationSpec) of the program under test."""
        from blochdyn.model import ControlSystem, DissipationSpec

        h0, controls = self.hamiltonians()
        return (
            ControlSystem(h0=h0, controls=tuple(controls), hbar=1.0),
            DissipationSpec(dephasing=self.dephasing, relaxation=self.relaxation),
        )


def random_ladder(rng, n):
    """An admissible ladder: decay down the ladder, weak pumping up it.

    Energies are positive and their gaps are drawn independently, so the
    drift has a nonzero trace and no two transitions are degenerate; the
    relaxation is asymmetric, so the translation part of the flow is nonzero.
    """
    energies = rng.uniform(0.1, 0.5) + np.concatenate([[0.0], np.cumsum(rng.uniform(0.6, 1.4, n - 1))])
    moments = rng.uniform(0.5, 1.2, n - 1)
    relaxation = np.zeros((n, n))
    for j in range(n - 1):
        relaxation[j, j + 1] = rng.uniform(0.05, 0.3)
        relaxation[j + 1, j] = rng.uniform(0.0, 0.05)
    leaving = relaxation.sum(axis=0)
    slack = rng.uniform(0.02, 0.2, (n, n))
    upper = np.triu(0.5 * (leaving[:, None] + leaving[None, :]) + slack, 1)
    return Ladder(energies=energies, moments=moments, dephasing=upper + upper.T,
                  relaxation=relaxation)


def random_state(rng, n):
    """Full-rank density matrix: a random pure state mixed with I/n."""
    psi = rng.normal(size=n) + 1j * rng.normal(size=n)
    psi /= np.linalg.norm(psi)
    return 0.7 * np.outer(psi, psi.conj()) + 0.3 * np.eye(n) / n


def random_segments(rng, n_controls, n_segments, low, high):
    """(duration, amplitudes) pairs, amplitudes uniform in [-1, 1]."""
    return tuple(
        (float(rng.uniform(low, high)), rng.uniform(-1.0, 1.0, n_controls))
        for _ in range(n_segments)
    )


def sweep_grid(rng, size):
    """Evenly spaced amplitudes from a random negative to a random positive bound."""
    lo, hi = -rng.uniform(1.0, 2.0), rng.uniform(1.0, 2.0)
    return np.linspace(lo, hi, size)
