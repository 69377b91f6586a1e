"""The four benchmark workloads: seeded inputs, CLI operations, output checks.

Each workload is a fixed list of ``mtsurf`` command lines at fixed grid
sizes.  The seed only moves theta and the deformation parameters, inside
the ranges the catalog and the deformations accept, so the amount of work
per pass does not depend on it.

Inputs that are files (problem descriptors, saved data and patch
manifests) are written by :func:`prepare` into an input directory; each
pass then writes its outputs into a fresh directory of its own.
"""

from __future__ import annotations

import json
import math
import os
import random

import numpy as np

WORKLOADS = ("synth_export", "deform_congruence", "poisson_complete",
             "reload_verify")

# Grid sizes per workload.  They are fixed; see README.md for why they are
# smaller than the 513^2 problems a user may run.
SYNTH_N = 129
SYNTH_CHART_N = 65
DEFORM_N = 97
POISSON_NS = (65, 129, 257)
POISSON_FLOOR_N = 257           # its target sits below the stencil roundoff floor
POISSON_GENERATE_N = 65
RELOAD_N = 129

_LIU = ("liu_condition4", "liu_reconstruction")

# Known defects, kept in the workloads on purpose (see README.md).  Each
# entry maps an operation to the checks it may fail and a pattern its
# manifest error must match (None: no error expected).  Such an operation
# counts in ``failed``; only failures outside these entries make the run
# incorrect.
KNOWN_FAILURES = {
    # second_to_first output from reloaded finite-difference data fails the
    # first-kind ``compatible`` check at every grid size (not h^2 error).
    ("reload_verify", "verify-data-rep-first"): ((), r"compatible\s+FAIL\s+(\S+)"),
    # For theta above about 0.55 the Liu residuals of a reloaded patch are
    # second order but with constants of 400-1800 h^2 (theta 0.60-0.63),
    # growing towards pi/4, above the fixed 100 h^2 cap.
    ("reload_verify", "verify-patch-quadric-high"): (_LIU, None),
    ("reload_verify", "verify-congruence-high"): (_LIU, None),
}

# reload_verify draws one theta on each side of the Liu defect above, away
# from its edge near 0.55 (liu_condition4 is 0.42 of its cap at 0.45 and
# 4.2 times it at 0.60), so the same operations fail at every seed.
RELOAD_THETA_LOW = (0.0, 0.45)
RELOAD_THETA_HIGH = (0.6, math.pi / 4.0)


def params(seed):
    """Workload parameters drawn from the seed, inside the pole-free ranges."""
    rng = random.Random(seed)
    return {
        "theta": rng.uniform(0.0, math.pi / 4.0),
        "parabolic": rng.uniform(0.4, 0.6),
        "elliptic": rng.uniform(0.7, 0.9),
        "hyperbolic": rng.uniform(0.5, 0.7),
        "theta_low": rng.uniform(*RELOAD_THETA_LOW),
        "theta_high": rng.uniform(*RELOAD_THETA_HIGH),
    }


def _grid(bounds, n):
    return "%g:%g:%g:%g:%dx%d" % (bounds + (n, n))


def _problem_path(inputs, n):
    return os.path.join(inputs, "problem%d.json" % n)


def operations(workload, p, inputs):
    """[(name, argv without --out)] for one pass of ``workload``."""
    theta = "%.17g" % p["theta"]
    if workload == "synth_export":
        return [
            ("generate-sigma-theta", ["generate", "--fixture", "sigma-theta",
                                      "--theta", theta, "--rep", "second",
                                      "--grid", _grid((-2, 2, -2, 2), SYNTH_N)]),
            ("generate-catenoid-r3", ["generate", "--fixture", "catenoid-r3",
                                      "--grid", _grid((-2, 2, -2, 2), SYNTH_CHART_N)]),
        ]
    if workload == "deform_congruence":
        return [("deform-%s" % family,
                 ["deform", "--fixture", "sigma-theta", "--theta", theta,
                  "--grid", _grid((-2, 2, -2, 0), DEFORM_N),
                  "--family", family, "--parameter", "%.17g" % p[family]])
                for family in ("parabolic", "elliptic", "hyperbolic")]
    if workload == "poisson_complete":
        ops = [("solve-%d" % n, ["solve", "--problem", _problem_path(inputs, n)])
               for n in POISSON_NS]
        ops.append(("solve-generate-%d" % POISSON_GENERATE_N,
                    ["solve", "--generate", "--problem",
                     _problem_path(inputs, POISSON_GENERATE_N)]))
        return ops
    if workload == "reload_verify":
        data = os.path.join(inputs, "low.data.json")
        ops = [("verify-data-auto", ["verify", "--input", data])]
        for side in ("low", "high"):
            base = os.path.join(inputs, "%s.json" % side)
            deformed = os.path.join(inputs, "%s-deformed.json" % side)
            quadric = "%.17g" % -math.cos(2.0 * p["theta_" + side])
            ops += [
                ("verify-patch-quadric-" + side,
                 ["verify", "--input", base, "--quadric-constant", quadric]),
                ("verify-congruence-" + side,
                 ["verify", "--input", base, "--against", deformed,
                  "--family", "elliptic", "--parameter", "%.17g" % p["elliptic"]]),
            ]
        ops.append(("verify-data-rep-first", ["verify", "--input", data,
                                              "--rep", "first"]))
        return ops
    raise ValueError("unknown workload %r" % workload)


def exact_solution(n):
    """Closed form of the manufactured problem: w lap N = lap(sinh u sin u)."""
    u = np.linspace(-1.0, 1.0, n)[:, None]     # rows run along u
    return np.sinh(u) * np.sin(u)


def prepare(workload, p, inputs):
    """Write the workload's input files into ``inputs`` (exists, empty)."""
    if workload == "poisson_complete":
        for n in POISSON_NS:
            doc = {"format": "mtsurf-problem", "version": 1,
                   "grid": {"u_min": -1.0, "u_max": 1.0, "v_min": -1.0,
                            "v_max": 1.0, "n_u": n, "n_v": n},
                   "weight": {"kind": "named", "name": "re-exp-iz"},
                   "source": {"kind": "named", "name": "exp-v-cosh-u"},
                   "boundary": {"kind": "named", "name": "sinh-u-sin-u"},
                   "options": {"max_iter": 20000,
                               "target": 1e-11 if n == POISSON_FLOOR_N else 1e-10}}
            with open(_problem_path(inputs, n), "w") as fh:
                json.dump(doc, fh)
    elif workload == "reload_verify":
        from mtsurf.catalog import fixture_sigma_theta
        from mtsurf.export import save_patch_manifest
        from mtsurf.fields import Grid2D
        from mtsurf.surfaces import represent_second
        from mtsurf.weierstrass import deform_elliptic, save_data

        grid = Grid2D(-2.0, 2.0, -2.0, 2.0, RELOAD_N, RELOAD_N)
        for side in ("low", "high"):
            fixture = fixture_sigma_theta(p["theta_" + side], grid)
            base = fixture.data
            if side == "low":
                save_data(base, os.path.join(inputs, "low.data.json"))
            save_patch_manifest(
                represent_second(base, anchor=fixture.expected["anchor"]),
                os.path.join(inputs, "%s.json" % side))
            save_patch_manifest(represent_second(deform_elliptic(base, p["elliptic"])),
                                os.path.join(inputs, "%s-deformed.json" % side))


def check_outputs(workload, name, out_dir, artifacts):
    """Problems with an operation's files beyond its manifest, as strings."""
    problems = []
    for fname in artifacts:
        path = os.path.join(out_dir, fname)
        if not os.path.isfile(path) or os.path.getsize(path) == 0:
            problems.append("artifact %s missing or empty" % fname)
    if workload == "poisson_complete":
        n = int(name.rsplit("-", 1)[1])
        got = np.loadtxt(os.path.join(out_dir, "run.csv"), delimiter=",",
                         skiprows=1)[:, 2].reshape(n, n)
        h = 2.0 / (n - 1)
        err = float(np.max(np.abs(got - exact_solution(n))))
        # The 5-point stencil is second order: the error is 0.064 h^2 at
        # every size, so 0.2 h^2 leaves about 3x room.
        if not err <= 0.2 * h * h:
            problems.append("solution error %.3e exceeds 0.2 h^2 = %.3e"
                            % (err, 0.2 * h * h))
    return problems
