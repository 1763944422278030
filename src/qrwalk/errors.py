"""Exception types shared across the package.

The split mirrors how failures surface at the CLI: configuration and
validation problems (bad graphs, non-unitary operators, malformed input)
versus numerical failures detected while running (broken stochasticity,
resource limits).
"""

__all__ = [
    "QRWalkError",
    "GraphError",
    "UnitarityError",
    "ValidationError",
    "ApplicabilityError",
    "ConfigError",
    "ConsistencyError",
    "ResourceLimitError",
]


class QRWalkError(Exception):
    """Base class for all package-specific errors."""


class ValidationError(QRWalkError, ValueError):
    """Invalid argument or specification (caught before any computation)."""


class GraphError(ValidationError):
    """Graph violates structural requirements (symmetry, simplicity, no
    isolated vertices)."""


class UnitarityError(ValidationError):
    """An operator fails a unitarity condition; the message names the
    violated condition (column norm or column orthogonality)."""


class ApplicabilityError(ValidationError):
    """Input falls outside a specialised algorithm's guard (e.g. complex
    amplitudes fed to the real-amplitude torus recursion)."""


class ConfigError(ValidationError):
    """Malformed or inconsistent run configuration."""


class ConsistencyError(QRWalkError, RuntimeError):
    """A numerical invariant broke at run time, typically a transition
    column whose sum deviates from 1 beyond tolerance (signals non-unitary
    inputs or an upstream bug)."""


class ResourceLimitError(QRWalkError, RuntimeError):
    """Requested computation exceeds the configured memory budget."""
