"""Exception types shared across the package."""

__all__ = [
    "GeometryError",
    "DimensionError",
    "DomainError",
    "DegenerateInputError",
    "PartialIsometryError",
    "ConvergenceError",
]


class GeometryError(ValueError):
    """Base class for all geometric input errors."""


class DimensionError(GeometryError):
    """Operands live in different dimensions (or have no coordinates at all)."""


class DomainError(GeometryError):
    """A numeric argument lies outside the legal domain of an operation."""


class DegenerateInputError(GeometryError):
    """Input is degenerate for the requested construction (coincident points,
    dependent vectors, zero directions)."""


class PartialIsometryError(GeometryError):
    """The given point correspondence does not preserve distances, so no
    isometry can interpolate it."""

    def __init__(self, message, pair=None):
        super().__init__(message)
        self.pair = pair  # offending (i, j) index pair, when known


class ConvergenceError(GeometryError):
    """An iterative numeric routine failed to converge."""
