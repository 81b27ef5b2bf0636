"""Exception types shared across the package."""


class GrassdistError(Exception):
    """Base class for all grassdist errors."""


class DimensionError(GrassdistError, ValueError):
    """Shapes, ambient dimensions or scalar fields do not match."""


class NumericalDegeneracyError(GrassdistError, ArithmeticError):
    """A numerical result that cannot be trusted: a cosine exceeding 1
    beyond roundoff slack, or SVD non-convergence."""
