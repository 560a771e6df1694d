"""Exception types shared across the package."""

__all__ = ["SysriskError", "ParameterError", "GenerationError", "ConfigurationError", "ModelError",
           "ConvergenceError", "DegenerateBoxError"]


class SysriskError(Exception):
    """Base class for all package-specific errors."""


class ParameterError(SysriskError, ValueError):
    """A numeric argument lies outside its admissible range."""


class GenerationError(SysriskError):
    """Scenario or network generation produced invalid output."""


class ConfigurationError(SysriskError):
    """A run configuration is malformed or internally inconsistent."""


class ModelError(SysriskError):
    """A model ingredient violates its structural assumptions."""


class ConvergenceError(SysriskError):
    """An iterative solver failed to reach its tolerance."""


class DegenerateBoxError(SysriskError):
    """The search box lies entirely inside or outside the acceptance region."""
