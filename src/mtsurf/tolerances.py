"""Default numerical thresholds used by the validators and patch builders.

Sup-norm residual caps are 1e-8 when every field involved carries exact
evaluation callbacks, and C*h^2 when any derivative falls back to finite
differences (C = 50 for data validation, C = 100 for assembled patches).
Nonvanishing certificates use a fixed absolute floor of 1e-6.
"""

__all__ = [
    "EPS_ZERO",
    "EPS_IMMERSION",
    "TOL_EXACT",
    "PSI_CUTOFF",
    "fd_cap",
    "validation_cap",
]

EPS_ZERO = 1e-6
EPS_IMMERSION = 1e-6
TOL_EXACT = 1e-8
PSI_CUTOFF = 1e-6


def fd_cap(grid, factor):
    """Residual cap factor*h^2 for finite-difference derivative error."""
    h = max(grid.h_u, grid.h_v)
    return factor * h * h


def validation_cap(grid, exact):
    """Sup-norm cap for data-condition residuals."""
    return TOL_EXACT if exact else fd_cap(grid, 50.0)
