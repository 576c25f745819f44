"""Liouville-space simulation and Lie-algebraic analysis of controlled
dissipative few-level quantum systems.

The package builds superoperators for the commutator and dephasing/relaxation
parts of the dynamics, restricts them to affine generators on the coherence
vector, evolves states under the forward semigroup exp(Lt), computes
dynamical Lie algebra closures, and locates steady-state attractors.
"""

from .algebra import (
    LieBasis,
    affine_generator_set,
    complex_to_real,
    decompose_inhomogeneous,
    hamiltonian_algebra,
    lie_closure,
)
from .bloch import AffineGenerator, ball_containment, quasi_spin_translation, to_affine
from .dynamics import (
    SpectrumReport,
    SweepReport,
    Trajectory,
    expm,
    propagate,
    semigroup_spectrum,
    steady_state,
    steady_state_sweep,
)
from .errors import (
    BlochdynError,
    ConfigError,
    InputError,
    NonUniqueEquilibriumError,
    PhysicsError,
    SemigroupDomainError,
    UnphysicalStateError,
)
from .liouville import (
    build_dissipator,
    commutator_superop,
    generator_pieces,
    qubit_superoperators,
    support_overlap,
    total_generator,
    trace_residual,
    vectorize,
)
from .model import (
    ControlField,
    ControlSystem,
    DissipationSpec,
    dipole_coupling,
    qubit_system,
)
from .states import (
    CoherenceVector,
    check_density,
    from_coherence_vector,
    from_pure,
    gell_mann_basis,
    to_coherence_vector,
)

__version__ = "0.1.0"

__all__ = [
    "AffineGenerator",
    "BlochdynError",
    "CoherenceVector",
    "ConfigError",
    "ControlField",
    "ControlSystem",
    "DissipationSpec",
    "InputError",
    "LieBasis",
    "NonUniqueEquilibriumError",
    "PhysicsError",
    "SemigroupDomainError",
    "SpectrumReport",
    "SweepReport",
    "Trajectory",
    "UnphysicalStateError",
    "affine_generator_set",
    "ball_containment",
    "build_dissipator",
    "check_density",
    "commutator_superop",
    "complex_to_real",
    "decompose_inhomogeneous",
    "dipole_coupling",
    "expm",
    "from_coherence_vector",
    "from_pure",
    "gell_mann_basis",
    "generator_pieces",
    "hamiltonian_algebra",
    "lie_closure",
    "propagate",
    "quasi_spin_translation",
    "qubit_superoperators",
    "qubit_system",
    "semigroup_spectrum",
    "steady_state",
    "steady_state_sweep",
    "support_overlap",
    "to_affine",
    "to_coherence_vector",
    "total_generator",
    "trace_residual",
    "vectorize",
]
