"""Batch front end: generate, deform, solve and verify from the shell.

Every command writes a JSON run manifest recording the command line, the
resolved inputs, the tolerances in force, one pass/fail entry per check
and the list of produced files; the process exits 0 exactly when all
checks pass.  Outputs are deterministic byte for byte except for the
``wall_time_s`` entry of the manifest.

Grid specifications use the syntax ``umin:umax:vmin:vmax:NUxNV``, e.g.
``-2:2:-2:2:129x129``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

import numpy as np

from .catalog import FIXTURE_NAMES, fixture_by_name
from .errors import DomainError, GridMismatchError, InvalidDataError, PoleError
from .export import (
    _jsonable,
    load_patch_manifest,
    save_obj,
    save_patch_manifest,
    save_ply,
)
from .fields import Grid2D, RealField, lincomb_real, save_field_csv, sup_abs
from .lorentz import rotation
from .poisson import PoissonProblem, SolverOptions, load_problem, solve_weighted_poisson
from .surfaces import (
    liu_decompose,
    mean_curvature,
    patch_from_chart,
    quadric_residual,
    represent_first,
    represent_second,
    represent_third,
    verify_congruence,
)
from .tolerances import EPS_IMMERSION, EPS_ZERO, PSI_CUTOFF, TOL_EXACT, fd_cap
from .weierstrass import (
    WeierstrassFirst,
    WeierstrassSecond,
    _has_first,
    _has_value,
    deform_elliptic,
    deform_hyperbolic,
    deform_parabolic,
    first_to_second,
    load_data,
    save_data,
    second_to_first,
    validate_first,
    validate_second,
)

__all__ = ["main", "parse_grid_spec"]


parse_grid_spec = Grid2D.from_spec   # public name of the --grid parser


def _check(name, value, threshold, sense):
    value = float(value)
    threshold = float(threshold)
    passed = value < threshold if sense == "max_below" else value > threshold
    return {"name": name, "value": value, "threshold": threshold,
            "sense": sense, "passed": bool(passed)}


class RunManifest:
    """Accumulates checks and artifacts; serialized once at the end."""

    def __init__(self, command, inputs, tolerances):
        self.command = command
        self.inputs = inputs
        self.tolerances = tolerances
        self.checks = []
        self.reports = {}
        self.artifacts = []
        self.error = None
        self._t0 = time.perf_counter()

    def add_check(self, name, value, threshold, sense="max_below"):
        self.checks.append(_check(name, value, threshold, sense))

    def add_report_checks(self, report, prefix=""):
        for c in report.checks:
            self.checks.append({
                "name": prefix + c.name, "value": float(c.value),
                "threshold": float(c.threshold),
                "sense": c.sense, "passed": bool(c.passed)})

    def add_artifacts(self, paths):
        self.artifacts.extend(paths)

    @property
    def passed(self):
        return self.error is None and all(c["passed"] for c in self.checks)

    def save(self, path):
        doc = {
            "format": "mtsurf-run",
            "version": 1,
            "command": self.command,
            "inputs": _jsonable(self.inputs),
            "tolerances": _jsonable(self.tolerances),
            "checks": self.checks,
            "reports": _jsonable(self.reports),
            "artifacts": sorted(set(os.path.basename(p)
                                    for p in self.artifacts))
                         + [os.path.basename(path)],
            "passed": self.passed,
            "error": self.error,
            "wall_time_s": time.perf_counter() - self._t0,
        }
        with open(path, "w") as fh:
            json.dump(doc, fh, indent=2, sort_keys=True)
            fh.write("\n")
        return path


def _validate(data, args):
    validate = validate_second if isinstance(data, WeierstrassSecond) else validate_first
    return validate(data, eps_zero=args.eps_zero, eps_immersion=args.eps_immersion)


def _data_exact(data):
    fields = ((data.gauss, data.pot1, data.pot2)
              if isinstance(data, WeierstrassFirst)
              else (data.holo, data.height, data.null_pot))
    return all(_has_value(f) and _has_first(f) for f in fields)


def _patch_checks(manifest, patch, exact, args):
    grid = patch.grid
    cap = args.tol_exact if exact else fd_cap(grid, 100.0)
    loop_cap = args.tol_exact if exact else fd_cap(grid, 50.0)
    inv = patch.invariants
    for name in ("conformality", "mean_null", "gauss_tangency", "gauss_null"):
        manifest.add_check(name, inv[name], cap)
    manifest.add_check("conformal_min", inv["conformal_min"], 0.0, "min_above")
    for name in ("metric_agreement", "coordinate_identity"):
        if name in inv:
            manifest.add_check(name, inv[name], cap)
    if "loop_residual" in inv:
        manifest.add_check("loop_residual", inv["loop_residual"], loop_cap)
    _, h_report = mean_curvature(patch)
    manifest.reports["mean_curvature"] = h_report


def _fixture_checks(manifest, patch, fixture, exact, args):
    expected = fixture.expected
    grid = patch.grid
    if expected.get("quadric_constant") is not None:
        res = sup_abs(quadric_residual(patch, expected["quadric_constant"]).values)
        manifest.add_check("quadric_residual", res,
                           _quadric_cap(patch, exact, args))
    if "conformal_factor" in expected:
        closed = expected["conformal_factor"](*grid.mesh())
        res = sup_abs(patch.conformal_factor.values - closed)
        manifest.add_check("conformal_factor_match", res,
                           args.tol_exact if exact else fd_cap(grid, 100.0))
    if expected.get("h_nowhere_zero"):
        manifest.add_check("mean_curvature_min_norm",
                           manifest.reports["mean_curvature"]["min_norm"],
                           0.0, "min_above")
    if "slice" in expected:
        coord, const = expected["slice"]
        idx = {"x1": 0, "x2": 1, "x3": 2, "x4": 3}[coord]
        res = sup_abs(patch.X[idx].values - const)
        manifest.add_check("slice_%s_constant" % coord, res, args.quadric_tol)


def _quadric_cap(patch, exact, args):
    """Absolute cap with exact providers; scaled by the coordinate size
    otherwise, since the residual of <X,X> grows with |X| times the
    finite-difference error of X."""
    if exact:
        return args.quadric_tol
    scale = 1.0 + float(np.max(np.sum(patch.x_stack ** 2, axis=0)))
    return fd_cap(patch.grid, 100.0) * scale


def _represent(data, rep, anchor, order="rows"):
    """Convert to the kind the representation needs and build the patch."""
    if rep == "second":
        if isinstance(data, WeierstrassFirst):
            data = first_to_second(data)
        return represent_second(data, anchor=anchor, order=order), data
    if isinstance(data, WeierstrassSecond):
        data = second_to_first(data)
    if rep == "first":
        return represent_first(data, anchor=anchor, order=order), data
    coord3 = lincomb_real([(1.0, data.pot1), (-1.0, data.pot2)])
    coord4 = lincomb_real([(1.0, data.pot1), (1.0, data.pot2)])
    return represent_third(data.gauss, coord3, coord4, anchor=anchor, order=order), data


def _fixture_params(args):
    params = {}
    for key in ("theta", "alpha", "beta"):
        val = getattr(args, key, None)
        if val is not None:
            params[key] = val
    return params


def _resolve_fixture(args):
    grid = Grid2D.from_spec(args.grid) if args.grid else None
    return fixture_by_name(args.fixture, grid=grid, params=_fixture_params(args))


def _tolerances(args):
    return {"eps_zero": args.eps_zero, "eps_immersion": args.eps_immersion,
            "tol_exact": args.tol_exact, "quadric_tol": args.quadric_tol,
            "congruence_tol": getattr(args, "congruence_tol", None),
            "psi_cutoff": getattr(args, "psi_cutoff", None)}


def _mesh_artifacts(manifest, patch, out_dir, name):
    manifest.add_artifacts(save_obj(patch, os.path.join(out_dir, name + ".obj")))
    manifest.add_artifacts(save_ply(patch, os.path.join(out_dir, name + ".ply")))
    manifest.add_artifacts(
        save_patch_manifest(patch, os.path.join(out_dir, name + ".json")))


_RUN_ERRORS = (DomainError, PoleError, InvalidDataError, GridMismatchError,
               ValueError)


def _run(args, command, inputs, body, table=False):
    """Run ``body(manifest)``, record an expected failure as the run's
    error, save the manifest and return the exit status."""
    manifest = RunManifest(command, inputs, _tolerances(args))
    os.makedirs(args.out, exist_ok=True)
    try:
        body(manifest)
    except _RUN_ERRORS as exc:
        manifest.error = str(exc)
    path = manifest.save(os.path.join(args.out, args.name + ".manifest.json"))
    if table:
        _print_check_table(manifest)
    print("manifest: %s" % path)
    if manifest.error:
        print("error: %s" % manifest.error, file=sys.stderr)
    return 0 if manifest.passed else 1


def cmd_generate(args):
    inputs = {"fixture": args.fixture, "data": args.data, "grid": args.grid,
              "rep": args.rep, "name": args.name}

    def run(manifest):
        if args.fixture:
            fixture = _resolve_fixture(args)
            if fixture.kind == "patch":
                patch = patch_from_chart(fixture.chart,
                                         provenance={"representation": "chart",
                                                     "fixture": fixture.name})
                exact = True
                _patch_checks(manifest, patch, exact, args)
                _fixture_checks(manifest, patch, fixture, exact, args)
            else:
                data = fixture.data
                report = _validate(data, args)
                manifest.add_report_checks(report, "data_")
                anchor = fixture.expected.get("anchor")
                patch, used = _represent(data, args.rep, anchor)
                exact = _data_exact(used)
                _patch_checks(manifest, patch, exact, args)
                _fixture_checks(manifest, patch, fixture, exact, args)
                manifest.add_artifacts(
                    save_data(data, os.path.join(args.out, args.name + ".data.json")))
        else:
            data = load_data(args.data)
            report = _validate(data, args)
            manifest.add_report_checks(report, "data_")
            patch, used = _represent(data, args.rep, None)
            _patch_checks(manifest, patch, _data_exact(used), args)
        _mesh_artifacts(manifest, patch, args.out, args.name)

    return _run(args, "generate", inputs, run)


_FAMILY_KIND = {"parabolic": "first", "elliptic": "second", "hyperbolic": "first"}


def cmd_deform(args):
    inputs = {"fixture": args.fixture, "data": args.data, "grid": args.grid,
              "family": args.family, "parameter": args.parameter,
              "name": args.name}

    def run(manifest):
        if args.fixture:
            fixture = _resolve_fixture(args)
            if fixture.kind == "patch":
                raise DomainError("fixture %r is an explicit chart, not a "
                                  "data triple" % fixture.name)
            base = fixture.data
        else:
            base = load_data(args.data)

        need = _FAMILY_KIND[args.family]
        if need == "first" and isinstance(base, WeierstrassSecond):
            base = second_to_first(base)
        if need == "second" and isinstance(base, WeierstrassFirst):
            base = first_to_second(base)

        lam = args.parameter
        if args.family == "parabolic":
            deformed = deform_parabolic(base, lam)
        elif args.family == "elliptic":
            deformed = deform_elliptic(base, lam)
        else:
            deformed = deform_hyperbolic(base, lam)

        report = _validate(deformed, args)
        manifest.add_report_checks(report, "deformed_")
        exact = _data_exact(base)
        ident = deformed.provenance.get("identity_residual")
        if ident is not None:
            manifest.add_check("deformation_identity", ident,
                               args.tol_exact if exact
                               else fd_cap(base.grid, 50.0))

        represent = represent_second if need == "second" else represent_first
        patch0 = represent(base)
        patch1 = represent(deformed)
        cong = verify_congruence(patch0, patch1,
                                 rotation(args.family, lam),
                                 tol=args.congruence_tol)
        manifest.reports["congruence"] = cong
        manifest.add_check("congruence_residual", cong["residual"],
                           args.congruence_tol)
        manifest.add_artifacts(
            save_data(deformed, os.path.join(args.out, args.name + ".data.json")))

    return _run(args, "deform", inputs, run)


_HOLO_FOR_WEIGHT = {"re-exp-iz": "exp-iz"}


def cmd_solve(args):
    inputs = {"problem": args.problem, "name": args.name,
              "generate": bool(args.generate)}

    def run(manifest):
        problem = load_problem(args.problem)
        if args.target is not None:
            problem = PoissonProblem(
                problem.grid, problem.weight, problem.source, problem.boundary,
                SolverOptions(problem.options.max_iter, args.target))
        solution, report = solve_weighted_poisson(problem)
        manifest.reports["solver"] = report
        manifest.add_check("solver_residual", report["residual_max"],
                           report["effective_target"])
        out_csv = os.path.join(args.out, args.name + ".csv")
        save_field_csv(solution, out_csv)
        manifest.add_artifacts([out_csv])

        if args.generate:
            with open(args.problem) as fh:
                doc = json.load(fh)
            wspec = doc.get("weight", {})
            holo_name = _HOLO_FOR_WEIGHT.get(wspec.get("name"))
            if holo_name is None:
                raise ValueError(
                    "cannot generate a patch: the problem's weight %r does not "
                    "name a holomorphic field (known: %s)"
                    % (wspec.get("name"), ", ".join(sorted(_HOLO_FOR_WEIGHT))))
            from .catalog import _holo_exp_iz
            holo = _holo_exp_iz(problem.grid)
            data = WeierstrassSecond(holo, solution, problem.source,
                                     provenance={"transform": "poisson-solve",
                                                 "problem": os.path.basename(
                                                     args.problem)})
            vreport = validate_second(data, eps_zero=args.eps_zero,
                                      eps_immersion=args.eps_immersion)
            manifest.add_report_checks(vreport, "data_")
            if vreport.ok:
                patch = represent_second(data)
                _patch_checks(manifest, patch, False, args)
                _mesh_artifacts(manifest, patch, args.out, args.name)

    return _run(args, "solve", inputs, run)


def _anchor_for_data(data, args):
    """Anchor from --anchor, else from fixture provenance, else none.

    The quadric check is meaningless without the right additive constants,
    so data saved from a catalog fixture recovers its anchor by rebuilding
    the fixture on the data's grid.
    """
    if args.anchor is not None:
        parts = [float(x) for x in args.anchor.split(",")]
        if len(parts) != 4:
            raise ValueError("--anchor needs four comma-separated values")
        return tuple(parts)
    prov = data.provenance or {}
    name = prov.get("name")
    if name in FIXTURE_NAMES:
        params = {k: float(prov[k]) for k in ("theta", "alpha", "beta")
                  if k in prov}
        fixture = fixture_by_name(name, grid=data.grid, params=params)
        return fixture.expected.get("anchor")
    return None


def _applicable_checks(kind, args):
    if args.checks != "auto":
        return [c.strip() for c in args.checks.split(",") if c.strip()]
    if kind == "data":
        out = ["validation", "invariants", "liu", "mean-curvature"]
    else:
        out = ["invariants", "liu", "mean-curvature"]
    if args.quadric_constant is not None:
        out.append("quadric")
    if args.against is not None:
        out.append("congruence")
    return out


def cmd_verify(args):
    inputs = {"input": args.input, "checks": args.checks, "rep": args.rep,
              "against": args.against, "family": args.family,
              "parameter": args.parameter,
              "quadric_constant": args.quadric_constant}

    def run(manifest):
        with open(args.input) as fh:
            doc = json.load(fh)
        fmt = doc.get("format")
        if fmt == "mtsurf-data":
            kind = "data"
            data = load_data(args.input)
            exact = _data_exact(data)
        elif fmt == "mtsurf-patch":
            kind = "patch"
            patch, _ = load_patch_manifest(args.input)
            exact = False
        else:
            raise ValueError("input %r is neither a data document nor a patch "
                             "manifest" % args.input)

        selected = _applicable_checks(kind, args)
        manifest.inputs["resolved_checks"] = selected

        if kind == "data":
            report = _validate(data, args)
            if "validation" in selected:
                manifest.add_report_checks(report, "data_")
            patch, used = _represent(data, args.rep, _anchor_for_data(data, args))
            exact = _data_exact(used)
        elif "validation" in selected:
            raise ValueError("the validation check needs a data document, "
                             "not a patch manifest")

        if "invariants" in selected:
            _patch_checks(manifest, patch, exact, args)
        elif "mean-curvature" in selected:
            _, h_report = mean_curvature(patch)
            manifest.reports["mean_curvature"] = h_report

        if "quadric" in selected:
            if args.quadric_constant is None:
                raise ValueError("--quadric-constant is required for the "
                                 "quadric check")
            res = sup_abs(quadric_residual(patch, args.quadric_constant).values)
            manifest.add_check("quadric_residual", res,
                               _quadric_cap(patch, exact, args))

        if "liu" in selected:
            liu = liu_decompose(patch, cutoff=args.psi_cutoff)
            cap = args.tol_exact if exact else fd_cap(patch.grid, 100.0)
            for key in ("condition1", "condition2", "condition3", "condition4",
                        "reconstruction"):
                manifest.add_check("liu_%s" % key, liu.residuals[key], cap)
            manifest.reports["liu"] = liu.residuals

        if "congruence" in selected:
            if args.against is None or args.family is None \
                    or args.parameter is None:
                raise ValueError("--against, --family and --parameter are "
                                 "required for the congruence check")
            other, _ = load_patch_manifest(args.against)
            cong = verify_congruence(patch, other,
                                     rotation(args.family, args.parameter),
                                     tol=args.congruence_tol)
            manifest.reports["congruence"] = cong
            manifest.add_check("congruence_residual", cong["residual"],
                               args.congruence_tol)

    return _run(args, "verify", inputs, run, table=True)


def _print_check_table(manifest):
    if not manifest.checks:
        return
    width = max(len(c["name"]) for c in manifest.checks)
    for c in manifest.checks:
        rel = "<" if c["sense"] == "max_below" else ">"
        print("%-*s  %11.4e %s %11.4e  %s"
              % (width, c["name"], c["value"], rel, c["threshold"],
                 "pass" if c["passed"] else "FAIL"))


def _add_tolerance_args(p):
    p.add_argument("--eps-zero", type=float, default=EPS_ZERO,
                   help="pointwise nonvanishing threshold (default %(default)s)")
    p.add_argument("--eps-immersion", type=float, default=EPS_IMMERSION,
                   help="immersion-condition threshold (default %(default)s)")
    p.add_argument("--tol-exact", type=float, default=TOL_EXACT,
                   help="residual cap with closed-form derivative providers; "
                        "finite-difference inputs use 50-100*h^2 instead "
                        "(default %(default)s)")
    p.add_argument("--quadric-tol", type=float, default=1e-10,
                   help="cap for quadric / slice-constancy residuals "
                        "(default %(default)s)")


def _add_fixture_args(p):
    p.add_argument("--fixture", choices=FIXTURE_NAMES,
                   help="catalog entry to instantiate")
    p.add_argument("--theta", type=float, default=None,
                   help="sigma-theta family parameter in [0, pi/2]")
    p.add_argument("--alpha", type=float, default=None,
                   help="two-param family coefficient (alpha^2+beta^2 < 1)")
    p.add_argument("--beta", type=float, default=None,
                   help="two-param family coefficient (alpha^2+beta^2 < 1)")
    p.add_argument("--data", default=None,
                   help="path to a saved data-triple document")
    p.add_argument("--grid", default=None,
                   help="grid spec umin:umax:vmin:vmax:NUxNV "
                        "(default: fixture recommendation)")


def main(argv=None):
    ap = argparse.ArgumentParser(
        prog="mtsurf",
        description="Synthesize, deform, solve for and verify spacelike "
                    "surfaces with null mean curvature vector.")
    sub = ap.add_subparsers(dest="command", required=True)

    g = sub.add_parser("generate", help="build a patch and export meshes")
    _add_fixture_args(g)
    g.add_argument("--rep", choices=("first", "second", "third"),
                   default="second",
                   help="which representation integrates the patch "
                        "(default %(default)s)")
    g.add_argument("--out", required=True, help="output directory")
    g.add_argument("--name", default="patch",
                   help="basename for artifacts (default %(default)s)")
    _add_tolerance_args(g)
    g.set_defaults(func=cmd_generate)

    d = sub.add_parser("deform", help="apply a one-parameter deformation "
                                      "and verify congruence")
    _add_fixture_args(d)
    d.add_argument("--family", choices=("parabolic", "elliptic", "hyperbolic"),
                   required=True)
    d.add_argument("--parameter", type=float, required=True)
    d.add_argument("--congruence-tol", type=float, default=1e-6,
                   help="cap for the mean-subtracted congruence residual "
                        "(default %(default)s)")
    d.add_argument("--out", required=True)
    d.add_argument("--name", default="deformed",
                   help="basename for artifacts (default %(default)s)")
    _add_tolerance_args(d)
    d.set_defaults(func=cmd_deform)

    s = sub.add_parser("solve", help="solve a weighted Poisson problem")
    s.add_argument("--problem", required=True,
                   help="problem descriptor JSON")
    s.add_argument("--target", type=float, default=None,
                   help="override the descriptor's residual target "
                        "(default: descriptor value, 1e-10)")
    s.add_argument("--generate", action="store_true",
                   help="assemble a data triple from the solution and export "
                        "a patch (requires a weight with a known holomorphic "
                        "field)")
    s.add_argument("--out", required=True)
    s.add_argument("--name", default="solution",
                   help="basename for artifacts (default %(default)s)")
    _add_tolerance_args(s)
    s.set_defaults(func=cmd_solve)

    v = sub.add_parser("verify", help="re-run invariant checks on saved "
                                      "data or patches")
    v.add_argument("--input", required=True,
                   help="data document or patch manifest")
    v.add_argument("--checks", default="auto",
                   help="comma list among validation,invariants,quadric,liu,"
                        "mean-curvature,congruence (default: all applicable)")
    v.add_argument("--rep", choices=("first", "second", "third"),
                   default="second",
                   help="representation used when the input is a data triple "
                        "(default %(default)s)")
    v.add_argument("--quadric-constant", type=float, default=None,
                   help="expected value of <X,X> for the quadric check")
    v.add_argument("--anchor", default=None,
                   help="four comma-separated coordinate values at the grid "
                        "origin node (default: recovered from fixture "
                        "provenance when possible)")
    v.add_argument("--against", default=None,
                   help="second patch manifest for the congruence check")
    v.add_argument("--family", choices=("parabolic", "elliptic", "hyperbolic"),
                   default=None, help="rotation family for congruence")
    v.add_argument("--parameter", type=float, default=None,
                   help="rotation parameter for congruence")
    v.add_argument("--psi-cutoff", type=float, default=PSI_CUTOFF,
                   help="|scale| cutoff for the Liu factorization "
                        "(default %(default)s)")
    v.add_argument("--congruence-tol", type=float, default=1e-6,
                   help="cap for the congruence residual (default %(default)s)")
    v.add_argument("--out", required=True)
    v.add_argument("--name", default="verify",
                   help="basename for the manifest (default %(default)s)")
    _add_tolerance_args(v)
    v.set_defaults(func=cmd_verify)

    argv = list(sys.argv[1:] if argv is None else argv)
    # argparse mistakes "-2:2:-2:2:65x65" for an option; fold the value in.
    for i, tok in enumerate(argv[:-1]):
        if tok == "--grid":
            argv[i:i + 2] = ["--grid=" + argv[i + 1]]
            break
    args = ap.parse_args(argv)
    if args.command in ("generate", "deform"):
        if (args.fixture is None) == (args.data is None):
            ap.error("exactly one of --fixture / --data is required")
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
