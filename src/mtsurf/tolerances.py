"""The cap table: the bound below which each measured residual holds.

:func:`cap` is the one rule behind every gate.  A residual that exact
callbacks produced is capped at ``tol_exact`` (TOL_EXACT unless a run sets
``--tol-exact``), one that finite differences fed at C*h^2, h the larger
grid step and C from ``FD_FACTOR``; ``FIXED_CAP`` holds the quadric's
exact-route cap and the caps of the slice constancies and the congruence
residual on either route.  Names go without a ``data_``/``deformed_``
prefix.  :func:`passes` decides a gate: a non-finite value fails it.
EPS_ZERO and EPS_IMMERSION are the nonvanishing floors (``--eps-zero``,
``--eps-immersion``); PSI_CUTOFF masks the nodes where the Liu
factorization would divide by a vanishing scale.
"""

import math

__all__ = ["EPS_ZERO", "EPS_IMMERSION", "TOL_EXACT", "PSI_CUTOFF", "QUADRIC_TOL",
           "CONGRUENCE_TOL", "FD_FACTOR", "FIXED_CAP", "fd_cap", "cap", "passes"]

EPS_ZERO = 1e-6
EPS_IMMERSION = 1e-6
TOL_EXACT = 1e-8
PSI_CUTOFF = 1e-6
QUADRIC_TOL = 1e-10
CONGRUENCE_TOL = 1e-6

FD_FACTOR = {
    **dict.fromkeys(("holomorphic", "compatible", "loop_residual",
                     "deformation_identity"), 50.0),
    **dict.fromkeys(("conformality", "mean_null", "gauss_tangency", "gauss_null",
                     "metric_agreement", "coordinate_identity", "conformal_factor_match",
                     "liu_condition4", "quadric_residual"), 100.0),
}

FIXED_CAP = {"quadric_residual": QUADRIC_TOL, "congruence_residual": CONGRUENCE_TOL,
             **{"slice_x%d_constant" % k: QUADRIC_TOL for k in range(1, 5)}}


def fd_cap(grid, factor):
    """Residual cap factor*h^2 for finite-difference derivative error."""
    h = max(grid.h_u, grid.h_v)
    return factor * h * h


def cap(check, grid, exact, tol_exact=TOL_EXACT, scale=1.0):
    """The cap of ``check`` on ``grid`` and route; a KeyError if the table
    does not name it.  ``scale`` multiplies a finite-difference cap."""
    if check not in FD_FACTOR:
        return FIXED_CAP[check]
    if exact:
        return FIXED_CAP.get(check, tol_exact)
    return fd_cap(grid, FD_FACTOR[check]) * scale


def passes(value, threshold, sense):
    """Whether a finite ``value`` meets a ``max_below`` cap or ``min_above`` floor."""
    met = value < threshold if sense == "max_below" else value > threshold
    return bool(met) and math.isfinite(value)
