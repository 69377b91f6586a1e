"""Degenerate choices of generating data land in the classical theories.

Three reductions confine the surface to an affine hyperplane where the
mean curvature vector vanishes identically: a minimal surface in
Euclidean 3-space (constant x4), a maximal surface in Lorentz 3-space
(constant x3), and a constant-first-coordinate example.  Two closed-form
catalog charts (the catenoid and its hyperbolic counterpart) confirm the
same behaviour from explicit coordinates.
"""

import numpy as np

from mtsurf.catalog import fixture_classical
from mtsurf.fields import Analytic, ComplexField, Grid2D, RealField, sup_abs
from mtsurf.surfaces import (
    liu_decompose,
    patch_from_chart,
    represent_second,
    represent_third,
)
from mtsurf.weierstrass import WeierstrassSecond

INDEX = {"x1": 0, "x2": 1, "x3": 2, "x4": 3}


def z0(u, v):
    return np.zeros(np.broadcast(np.asarray(u), np.asarray(v)).shape)


def real_u(g):
    return RealField.sample(g, Analytic(
        value=lambda u, v: np.asarray(u) + z0(u, v),
        du=lambda u, v: 1.0 + z0(u, v),
        dv=z0, lap=z0))


def real_zero(g):
    return RealField.sample(g, Analytic(value=z0, du=z0, dv=z0, lap=z0))


def exp_z(g, scale=1.0):
    return ComplexField.sample(g, Analytic(
        value=lambda u, v: scale * np.exp(u) * np.exp(1j * np.asarray(v)),
        dz=lambda u, v: scale * np.exp(u) * np.exp(1j * np.asarray(v)),
        dzbar=lambda u, v: z0(u, v) + 0j))


def reduction_cases():
    g1 = Grid2D(-1.0, 1.0, -1.0, 1.0, 65, 65)
    minimal = represent_third(exp_z(g1), real_u(g1), real_zero(g1))

    g2 = Grid2D(-0.5, 0.5, -0.5, 0.5, 65, 65)
    maximal = represent_third(exp_z(g2, scale=2.0), real_zero(g2), real_u(g2))

    holo = ComplexField.sample(g1, Analytic(
        value=lambda u, v: np.exp(1j * (np.asarray(u) + 1j * np.asarray(v))),
        dz=lambda u, v: 1j * np.exp(1j * (np.asarray(u) + 1j * np.asarray(v))),
        dzbar=lambda u, v: z0(u, v) + 0j))
    flat_height = represent_second(WeierstrassSecond(holo, real_zero(g1),
                                                     real_u(g1)))

    return [
        ("minimal surface in Euclidean 3-space", "x4", minimal),
        ("maximal surface in Lorentz 3-space", "x3", maximal),
        ("constant first coordinate", "x1", flat_height),
    ]


def main():
    cases = reduction_cases()
    for name in ("catenoid-r3", "hyperbolic-catenoid-l3"):
        fx = fixture_classical(name)
        cases.append(("catalog chart " + name, fx.expected["slice"][0],
                      patch_from_chart(fx.chart)))

    print("%-42s %-6s %-12s %s" % ("case", "slice", "slice spread", "sup |H|"))
    for label, slice_name, patch in cases:
        vals = patch.x_stack[INDEX[slice_name]]
        spread = sup_abs(vals - vals.flat[0])
        print("%-42s %-6s %-12.3e %.3e"
              % (label, slice_name, spread, sup_abs(patch.h_stack)))

    # the two-function factorization degenerates gracefully in the flat
    # limit: one factor carries the whole surface, the other is constant
    liu = liu_decompose(cases[0][2])
    print("\nminimal-surface factorization residuals:")
    for key in sorted(liu):
        print("  %-16s %.3e" % (key, liu[key]))


if __name__ == "__main__":
    main()
