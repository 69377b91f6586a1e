"""Default numerical thresholds used by the validators and patch builders.

Sup-norm residual caps are 1e-8 when every field involved carries exact
evaluation callbacks, and C*h^2 when any derivative falls back to finite
differences (C = 50 for data validation, C = 100 for assembled patches).
Nonvanishing certificates use a fixed absolute floor of 1e-6.

The command line's ``--eps-zero`` and ``--eps-immersion`` replace the two
floors for every certification in a run: the input triple, each converted
or deformed triple, and the triples the representations consume.
``--tol-exact`` likewise replaces TOL_EXACT for every exact cap of a run:
those certifications, the loop caps of the representation and transform
cores (carried by the certificate) and the patch checks.
"""

__all__ = [
    "EPS_ZERO",
    "EPS_IMMERSION",
    "TOL_EXACT",
    "PSI_CUTOFF",
    "fd_cap",
    "residual_cap",
]

EPS_ZERO = 1e-6
EPS_IMMERSION = 1e-6
TOL_EXACT = 1e-8
PSI_CUTOFF = 1e-6


def fd_cap(grid, factor):
    """Residual cap factor*h^2 for finite-difference derivative error."""
    h = max(grid.h_u, grid.h_v)
    return factor * h * h


def residual_cap(grid, exact, factor, tol_exact=TOL_EXACT):
    """Sup-norm cap for a residual: ``tol_exact`` when exact callbacks
    produced it, ``factor``*h^2 when finite differences did."""
    return tol_exact if exact else fd_cap(grid, factor)
