"""Exception types shared across the package."""

__all__ = [
    "GridMismatchError",
    "DomainError",
    "InvalidDataError",
    "PoleError",
]


class GridMismatchError(ValueError):
    """Fields defined on different or incompatible grids were combined."""


class DomainError(ValueError):
    """A grid or parameter violates the domain a construction is defined on."""


class PoleError(ValueError):
    """A deformation parameter puts a pole of the deformed data inside the grid."""

    def __init__(self, message, location=None):
        super().__init__(message)
        self.location = location


class InvalidDataError(ValueError):
    """Input data failed validation; carries the full report."""

    def __init__(self, report):
        super().__init__("data failed validation:\n" + str(report))
        self.report = report
