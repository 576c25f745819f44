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
    """A state failed Hermiticity, trace or positivity checks; the message names the margins."""


class SemigroupDomainError(PhysicsError):
    """Backward-time evolution was requested from the forward semigroup."""


class NonUniqueEquilibriumError(PhysicsError):
    """A singular linear part A leaves no unique fixed point; the message names dim null(A)."""
