"""Exception types shared across the package.

The split matters for the command-line tool: configuration problems and
physics problems map to different exit codes.
"""


class BlochdynError(Exception):
    """Base class for errors raised by this package."""


class ConfigError(BlochdynError):
    """A run configuration is malformed or internally inconsistent."""


class InputError(ConfigError, ValueError):
    """An argument a library call refuses: a ValueError, and a config error (exit 2) in the CLI."""


class PhysicsError(BlochdynError):
    """A computation was asked to cross a physical validity boundary."""


class UnphysicalStateError(PhysicsError):
    """A state failed Hermiticity, trace or positivity checks."""

    def __init__(self, message, worst=None):
        super().__init__(message)
        self.worst = worst


class SemigroupDomainError(PhysicsError):
    """Backward-time evolution was requested from the forward semigroup."""


class NonUniqueEquilibriumError(PhysicsError):
    """The affine drift has a singular linear part, so no unique fixed point.

    ``null_dim`` carries the dimension of the null space of A.
    """

    def __init__(self, message, null_dim):
        super().__init__(message)
        self.null_dim = null_dim
