"""Solve the compatibility equation and build a surface from the solution.

Given the holomorphic direction field and the null potential, the height
potential is pinned down by a weighted Poisson equation plus Dirichlet
boundary data.  This script measures second-order grid convergence of
the solver against a closed form, then recovers the theta = 0 catalog
member from nothing but its boundary heights and writes the resulting
patch to disk.
"""

import os
import sys

import numpy as np

from mtsurf.catalog import fixture_sigma_theta
from mtsurf.export import save_patch_manifest
from mtsurf.fields import Analytic, ComplexField, Grid2D, sup_abs
from mtsurf.poisson import (
    PoissonProblem,
    assemble_second_kind,
    boundary_from_function,
    named_field,
    named_weight,
    solve_weighted_poisson,
)
from mtsurf.surfaces import quadric_residual, represent_second


def height(u, v):
    u, v = np.broadcast_arrays(np.asarray(u, dtype=float),
                               np.asarray(v, dtype=float))
    return np.sinh(u) * np.sin(u)


def convergence_study():
    # manufactured pair: weight Re e^{iz}, source e^v cosh u, solution
    # sinh u sin u; the discrete error must shrink at second order
    print("grid convergence against the closed-form solution:")
    previous = None
    for n in (33, 65, 129):
        grid = Grid2D(-1.0, 1.0, -1.0, 1.0, n, n)
        problem = PoissonProblem(
            grid,
            named_weight("re-exp-iz", grid),
            named_field("exp-v-cosh-u", grid),
            boundary_from_function(grid, height),
            target=1e-10,
        )
        solution, report = solve_weighted_poisson(problem)
        U, _ = grid.mesh()
        err = sup_abs(solution.values - np.sinh(U) * np.sin(U))
        line = "  n=%-4d  h=%.4f  error %.3e" % (n, grid.h_u, err)
        if previous is not None:
            line += "  ratio %.2f" % (previous / err)
        previous = err
        print(line + "  converged=%s after %d transform solves"
              % (report["converged"], report["iterations"]))


def rebuild_member(out_dir):
    grid = Grid2D(-1.0, 1.0, -1.0, 1.0, 65, 65)
    holo = ComplexField.sample(grid, Analytic(
        value=lambda u, v: np.exp(1j * (u + 1j * v)),
        dz=lambda u, v: 1j * np.exp(1j * (u + 1j * v)),
        dzbar=lambda u, v: np.zeros(np.shape(u)) + 0j,
    ))
    null_pot = named_field("exp-v-cosh-u", grid)

    data, report, solve_report = assemble_second_kind(
        holo, null_pot, height, target=1e-11)
    print("\nrebuilt the theta = 0 member from boundary heights alone:")
    print(report)
    print("  solver converged=%s, transform solves=%d, residual %.3e"
          % (solve_report["converged"], solve_report["iterations"],
             solve_report["residual_max"]))

    U, _ = grid.mesh()
    recovery = sup_abs(data.height.values - np.sinh(U) * np.sin(U))
    print("  sup |height - closed form| = %.3e" % recovery)
    print("  (the O(h^2) discretization error; compare the n=65 study line)")

    fixture = fixture_sigma_theta(0.0, grid=grid)
    patch = represent_second(data, anchor=fixture.expected["anchor"])
    quad = sup_abs(quadric_residual(patch, -1.0).values)
    print("  solved patch sits on <X,X> = -1 up to %.3e (finite-difference "
          "route)" % quad)

    os.makedirs(out_dir, exist_ok=True)
    written = save_patch_manifest(patch, os.path.join(out_dir, "solved.json"))
    print("  wrote " + ", ".join(written))


def main():
    out_dir = sys.argv[1] if len(sys.argv) > 1 else "out"
    convergence_study()
    rebuild_member(out_dir)


if __name__ == "__main__":
    main()
