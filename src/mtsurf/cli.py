"""Batch front end: generate, deform, solve and verify from the shell.

Every command writes a JSON run manifest recording the command line, the
resolved inputs (input files by their path relative to the manifest's
directory, so a moved input tree records the same), the tolerances in
force, one pass/fail entry per check and the list of produced files; the
process exits 0 exactly when all checks pass.  Outputs are deterministic
byte for byte except for the ``wall_time_s`` entry of the manifest.

Every check is capped through :func:`mtsurf.tolerances.cap` on the route
its patch records (``SurfacePatch.exact``); the command line sets only
``--tol-exact`` and the two certification floors.  A non-finite numeric
option ends the run with an error that names it.

Grid specifications use the syntax ``umin:umax:vmin:vmax:NUxNV``, e.g.
``-2:2:-2:2:129x129``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import time

import numpy as np

from .catalog import FIXTURE_NAMES, _holo_exp_iz, fixture_by_name
from .errors import DomainError, GridMismatchError, InvalidDataError, PoleError
from .export import _jsonable, _write_patch, load_patch_manifest
from .fields import (Grid2D, document_entry, lincomb_real, read_document, save_field_csv,
                     sup_abs, write_document)
from .lorentz import rotation
from .poisson import load_problem, solve_weighted_poisson
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
from .tolerances import (CONGRUENCE_TOL, EPS_IMMERSION, EPS_ZERO, PSI_CUTOFF, QUADRIC_TOL,
                         TOL_EXACT, cap, passes)
from .weierstrass import (
    WeierstrassSecond,
    _certificate,
    _certify,
    _exact_callbacks,
    _triple,
    deform_elliptic,
    deform_hyperbolic,
    deform_parabolic,
    first_to_second,
    load_data,
    save_data,
    second_to_first,
)

__all__ = ["main", "parse_grid_spec"]


parse_grid_spec = Grid2D.from_spec   # public name of the --grid parser


def _check(name, value, threshold, sense):
    """One manifest check; a non-finite value fails whatever its sense."""
    value = float(value)
    threshold = float(threshold)
    return {"name": name, "value": value, "threshold": threshold,
            "sense": sense, "passed": passes(value, threshold, sense)}


#: Inputs that name files; a manifest records them relative to its directory.
_PATH_INPUTS = ("data", "problem", "input", "against")


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
            self.add_check(prefix + c.name, c.value, c.threshold, c.sense)

    def add_artifacts(self, paths):
        self.artifacts.extend(paths)

    @property
    def passed(self):
        return self.error is None and all(c["passed"] for c in self.checks)

    def save(self, path):
        here = os.path.dirname(os.path.abspath(path))
        inputs = {k: os.path.relpath(v, here) if k in _PATH_INPUTS and v is not None else v
                  for k, v in self.inputs.items()}
        return write_document(path, {
            "format": "mtsurf-run",
            "version": 1,
            "command": self.command,
            "inputs": _jsonable(inputs),
            "tolerances": _jsonable(self.tolerances),
            "checks": _jsonable(self.checks),
            "reports": _jsonable(self.reports),
            "artifacts": sorted(set(os.path.basename(p)
                                    for p in self.artifacts))
                         + [os.path.basename(path)],
            "passed": self.passed,
            "error": self.error,
            "wall_time_s": time.perf_counter() - self._t0,
        })


def _certified(data, args):
    """Certificate of a triple at the run's --eps-zero/--eps-immersion/--tol-exact."""
    return _certificate(data, eps_zero=args.eps_zero, eps_immersion=args.eps_immersion,
                        tol_exact=args.tol_exact)


def _as_kind(cert, kind, args):
    """Certificate of the triple as a ``kind`` triple (first, second or
    third): ``cert`` itself when it is one already, else its conversion,
    certified once at the run's tolerances."""
    if kind == cert.kind:
        return cert
    if kind != "third":
        convert = first_to_second if kind == "second" else second_to_first
        return _certified(convert(cert), args)
    _, gauss, pot1, pot2 = _triple(cert if cert.kind == "first" else second_to_first(cert))
    return _certify("third", gauss, lincomb_real([(1.0, pot1), (-1.0, pot2)]),
                    lincomb_real([(1.0, pot1), (1.0, pot2)]),
                    args.eps_zero, args.eps_immersion, args.tol_exact)


def _represent(certs, rep, anchor, args):
    """The ``rep`` patches of certified triples, from one quadrature sweep."""
    represent = {"first": represent_first, "second": represent_second,
                 "third": represent_third}[rep]
    return represent([_as_kind(cert, rep, args) for cert in certs], anchor=anchor)


def _gate(manifest, name, value, patch, args, scale=1.0):
    """Check ``value`` against the table's cap of ``name`` on the route of
    ``patch``."""
    manifest.add_check(name, value, cap(name, patch.grid, patch.exact, args.tol_exact, scale))


def _patch_checks(manifest, patch, args):
    inv = patch.invariants
    for name in ("conformality", "mean_null", "gauss_tangency", "gauss_null"):
        _gate(manifest, name, inv[name], patch, args)
    manifest.add_check("conformal_min", inv["conformal_min"], 0.0, "min_above")
    for name in ("metric_agreement", "coordinate_identity", "loop_residual"):
        if name in inv:
            _gate(manifest, name, inv[name], patch, args)
    _, h_report = mean_curvature(patch)
    manifest.reports["mean_curvature"] = h_report


def _quadric_check(manifest, patch, constant, args):
    """sup |<X,X> - constant|; off the exact route its cap scales by
    1 + max|X|^2, since the residual grows with |X| times the error of X."""
    scale = 1.0 if patch.exact else 1.0 + float(np.max(np.sum(patch.x_stack ** 2, axis=0)))
    _gate(manifest, "quadric_residual", sup_abs(quadric_residual(patch, constant).values),
          patch, args, scale)


def _congruence_check(manifest, patch, other, args):
    cong = verify_congruence(patch, other, rotation(args.family, args.parameter))
    manifest.reports["congruence"] = cong
    _gate(manifest, "congruence_residual", cong["residual"], patch, args)


def _fixture_checks(manifest, patch, fixture, args):
    expected = fixture.expected
    if expected.get("quadric_constant") is not None:
        _quadric_check(manifest, patch, expected["quadric_constant"], args)
    if "conformal_factor" in expected:
        closed = expected["conformal_factor"](*patch.grid.mesh())
        _gate(manifest, "conformal_factor_match",
              sup_abs(patch.conformal_factor.values - closed), patch, args)
    if expected.get("h_nowhere_zero"):
        manifest.add_check("mean_curvature_min_norm",
                           manifest.reports["mean_curvature"]["min_norm"],
                           0.0, "min_above")
    if "slice" in expected:
        coord, const = expected["slice"]
        _gate(manifest, "slice_%s_constant" % coord,
              sup_abs(patch.x_stack[int(coord[1:]) - 1] - const), patch, args)


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


def _mesh_artifacts(manifest, patch, out_dir, name):
    """OBJ, PLY and patch manifest of ``patch`` in one pass of the writer."""
    stem = os.path.join(out_dir, name)
    manifest.add_artifacts(_write_patch(patch, obj=stem + ".obj", ply=stem + ".ply",
                                        manifest=stem + ".json"))


_RUN_ERRORS = (DomainError, PoleError, InvalidDataError, GridMismatchError,
               ValueError, OSError, MemoryError)


def _run(args, command, inputs, body, table=False):
    """Run ``body(manifest)`` unless a numeric option is nan or inf, record
    that or an expected failure as the run's error (an exception without a
    message by its class name, as a bare MemoryError), save the manifest
    and return the exit status."""
    manifest = RunManifest(command, inputs, {
        "eps_zero": args.eps_zero, "eps_immersion": args.eps_immersion,
        "tol_exact": args.tol_exact, "quadric_tol": QUADRIC_TOL,
        "congruence_tol": CONGRUENCE_TOL, "psi_cutoff": PSI_CUTOFF})
    os.makedirs(args.out, exist_ok=True)
    try:
        for key, val in sorted(vars(args).items()):
            if isinstance(val, float) and not math.isfinite(val):
                raise ValueError("--%s must be finite, got %r" % (key.replace("_", "-"), val))
        body(manifest)
    except _RUN_ERRORS as exc:
        manifest.error = str(exc) or type(exc).__name__
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
        fixture = _resolve_fixture(args) if args.fixture else None
        if fixture is not None and fixture.kind == "patch":
            patch = patch_from_chart(fixture.chart,
                                     provenance={"representation": "chart",
                                                 "fixture": fixture.name})
        else:
            data = fixture.data if fixture is not None else load_data(args.data)
            cert = _certified(data, args)
            manifest.add_report_checks(cert.report, "data_")
            anchor = fixture.expected.get("anchor") if fixture is not None else None
            patch, = _represent([cert], args.rep, anchor, args)
        _patch_checks(manifest, patch, args)
        if fixture is not None:
            _fixture_checks(manifest, patch, fixture, args)
            if fixture.data is not None:
                manifest.add_artifacts(save_data(
                    fixture.data, os.path.join(args.out, args.name + ".data.json")))
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
        base = _as_kind(_certified(base, args), need, args)
        deform = {"parabolic": deform_parabolic, "elliptic": deform_elliptic,
                  "hyperbolic": deform_hyperbolic}[args.family]
        deformed = deform(base, args.parameter)
        cert = _certified(deformed, args)
        manifest.add_report_checks(cert.report, "deformed_")
        ident = deformed.provenance.get("identity_residual")
        if ident is not None:
            manifest.add_check("deformation_identity", ident, cap(
                "deformation_identity", deformed.grid,
                _exact_callbacks(base.holo, base.a, base.b), args.tol_exact))
        _congruence_check(manifest, *_represent([base, cert], need, None, args), args)
        manifest.add_artifacts(
            save_data(deformed, os.path.join(args.out, args.name + ".data.json")))

    return _run(args, "deform", inputs, run)


_HOLO_FOR_WEIGHT = {"re-exp-iz": "exp-iz"}


def cmd_solve(args):
    inputs = {"problem": args.problem, "name": args.name,
              "generate": bool(args.generate)}

    def run(manifest):
        problem = load_problem(args.problem)
        solution, report = solve_weighted_poisson(problem)
        manifest.reports["solver"] = report
        manifest.add_check("solver_residual", report["residual_max"],
                           report["effective_target"])
        out_csv = os.path.join(args.out, args.name + ".csv")
        save_field_csv(solution, out_csv)
        manifest.add_artifacts([out_csv])

        if args.generate:
            doc = read_document(args.problem, "mtsurf-problem", "problem descriptor")
            wspec = doc.get("weight", {})
            holo_name = _HOLO_FOR_WEIGHT.get(wspec.get("name"))
            if holo_name is None:
                raise ValueError(
                    "cannot generate a patch: the problem's weight %r does not "
                    "name a holomorphic field (known: %s)"
                    % (wspec.get("name"), ", ".join(sorted(_HOLO_FOR_WEIGHT))))
            holo = _holo_exp_iz(problem.grid)
            data = WeierstrassSecond(holo, solution, problem.source,
                                     provenance={"transform": "poisson-solve",
                                                 "problem": os.path.basename(
                                                     args.problem)})
            cert = _certified(data, args)
            manifest.add_report_checks(cert.report, "data_")
            if cert.report.ok:
                patch, = _represent([cert], "second", None, args)
                _patch_checks(manifest, patch, args)
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
        if len(parts) != 4 or not all(map(math.isfinite, parts)):
            raise ValueError("--anchor needs four finite comma-separated values")
        return tuple(parts)
    prov = data.provenance
    name = prov.get("name")
    if name in FIXTURE_NAMES:
        params = {k: document_entry(args.input, prov, k, "the provenance", float)
                  for k in ("theta", "alpha", "beta") if k in prov}
        fixture = fixture_by_name(name, grid=data.grid, params=params)
        return fixture.expected.get("anchor")
    return None


_CHECKS = ("validation", "invariants", "quadric", "liu", "mean-curvature", "congruence")


def _applicable_checks(kind, args):
    if args.checks != "auto":
        selected = [c.strip() for c in args.checks.split(",") if c.strip()]
        unknown = [c for c in selected if c not in _CHECKS]
        if unknown:
            raise ValueError("unknown check %s; known: %s"
                             % (", ".join(map(repr, unknown)), ", ".join(_CHECKS)))
        return selected
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
        fmt = doc.get("format") if isinstance(doc, dict) else None
        if fmt == "mtsurf-data":
            kind = "data"
            data = load_data(args.input)
        elif fmt == "mtsurf-patch":
            kind = "patch"
            patch, _ = load_patch_manifest(args.input)
        else:
            raise ValueError("input %r is neither a data document nor a patch "
                             "manifest" % args.input)

        selected = _applicable_checks(kind, args)
        manifest.inputs["resolved_checks"] = selected

        if kind == "data":
            cert = _certified(data, args)
            if "validation" in selected:
                manifest.add_report_checks(cert.report, "data_")
            patch, = _represent([cert], args.rep, _anchor_for_data(data, args), args)
        elif "validation" in selected:
            raise ValueError("the validation check needs a data document, "
                             "not a patch manifest")

        if "invariants" in selected:
            _patch_checks(manifest, patch, args)
        elif "mean-curvature" in selected:
            _, h_report = mean_curvature(patch)
            manifest.reports["mean_curvature"] = h_report

        if "quadric" in selected:
            if args.quadric_constant is None:
                raise ValueError("--quadric-constant is required for the "
                                 "quadric check")
            _quadric_check(manifest, patch, args.quadric_constant, args)

        if "liu" in selected:
            liu = liu_decompose(patch)
            _gate(manifest, "liu_condition4", liu.residuals["condition4"], patch, args)
            manifest.reports["liu"] = liu.residuals

        if "congruence" in selected:
            if args.against is None or args.family is None \
                    or args.parameter is None:
                raise ValueError("--against, --family and --parameter are "
                                 "required for the congruence check")
            other, _ = load_patch_manifest(args.against)
            _congruence_check(manifest, patch, other, args)

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
                   help="pointwise nonvanishing threshold of every data "
                        "certification in the run (default %(default)s)")
    p.add_argument("--eps-immersion", type=float, default=EPS_IMMERSION,
                   help="immersion-condition threshold of every data "
                        "certification in the run (default %(default)s)")
    p.add_argument("--tol-exact", type=float, default=TOL_EXACT,
                   help="residual cap with closed-form derivative providers, "
                        "data certifications and loop caps included; "
                        "finite-difference inputs use the table's C*h^2 instead "
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
    d.add_argument("--out", required=True)
    d.add_argument("--name", default="deformed",
                   help="basename for artifacts (default %(default)s)")
    _add_tolerance_args(d)
    d.set_defaults(func=cmd_deform)

    s = sub.add_parser("solve", help="solve a weighted Poisson problem")
    s.add_argument("--problem", required=True,
                   help="problem descriptor JSON")
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
                   help="comma list among %s (default: all applicable)"
                        % ",".join(_CHECKS))
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
