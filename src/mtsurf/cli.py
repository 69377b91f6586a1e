"""Batch front end: generate, deform, solve and verify from the shell.

Every command writes a JSON run manifest recording the command line, the
resolved inputs (input files by their path relative to the manifest's
directory, so a moved input tree records the same), the cap table's
tolerances, the checks and the list of produced files; the process exits 0
exactly when all checks pass.  A run keeps each check as a
:class:`mtsurf.tolerances.CheckResult`, which the manifest writes as an
object of exactly five keys: name, value, threshold, sense and passed.
Outputs are byte-deterministic except for the manifest's ``wall_time_s``.

Every check is capped through :func:`mtsurf.tolerances.cap` on the route
its patch records (``SurfacePatch.exact``); the command line sets no cap
or floor.  A non-finite numeric option ends the run with an error that
names it.  ``deform`` checks congruence on coordinates alone, from one sweep
of ``surfaces._coordinates``, which also integrates the potentials of its
conversion and deformation: on the exact route it builds no other stack.

``verify`` runs every check its input allows, in one fixed order: the data
certification (for a data document), the patch invariants, the quadric
(with ``--quadric-constant``), the Liu factorization and the congruence
(with ``--against``, of which only the four coordinates are read).  A flag
the run cannot use (``--family`` or ``--parameter`` without ``--against``,
``--anchor`` or ``--rep`` with a patch manifest) ends it in an error naming it.

Grid specifications use the syntax ``umin:umax:vmin:vmax:NUxNV``, e.g.
``-2:2:-2:2:129x129``.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
import time
from types import SimpleNamespace

import numpy as np

from .catalog import FIXTURE_NAMES, _holo_exp_iz, fixture_by_name
from .errors import DomainError
from .export import _coordinates_from_document, _jsonable, _patch_from_document, _write_patch
from .fields import (DOCUMENT_KEYS, Grid2D, deferred_sweeps, document_part, read_document,
                     save_field_csv, sup_abs, write_document)
from .lorentz import rotation
from .poisson import _load_problem, solve_weighted_poisson
from .surfaces import (
    _coordinates,
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
                         TOL_EXACT, CheckResult, cap)
from .weierstrass import (
    WeierstrassSecond,
    _as_kind,
    _certificate,
    _data_from_document,
    _exact_callbacks,
    deform_elliptic,
    deform_hyperbolic,
    deform_parabolic,
    load_data,
    save_data,
)

__all__ = ["main", "parse_grid_spec"]


parse_grid_spec = Grid2D.from_spec   # public name of the --grid parser


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
        self.checks.append(CheckResult(name, float(value), float(threshold), sense))

    def add_report_checks(self, report, prefix=""):
        self.checks.extend(c._replace(name=prefix + c.name) for c in report.checks)

    def add_artifacts(self, paths):
        self.artifacts.extend(paths)

    @property
    def passed(self):
        return self.error is None and all(c.passed for c in self.checks)

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
            "checks": [_jsonable({"name": c.name, "value": c.value, "threshold": c.threshold,
                                  "sense": c.sense, "passed": c.passed})
                       for c in self.checks],
            "reports": _jsonable(self.reports),
            "artifacts": sorted(set(os.path.basename(p)
                                    for p in self.artifacts))
                         + [os.path.basename(path)],
            "passed": self.passed,
            "error": self.error,
            "wall_time_s": time.perf_counter() - self._t0,
        })


def _represent(certs, rep, anchor):
    """The ``rep`` patches of ``certs`` from one sweep, looked up per call
    (as is each deform), so a wrapped function is seen."""
    return {"first": represent_first, "second": represent_second,
            "third": represent_third}[rep](certs, anchor=anchor)


def _gate(manifest, name, value, patch, scale=1.0):
    """Check ``value`` against the table's cap of ``name`` on the route of
    ``patch``."""
    manifest.add_check(name, value, cap(name, patch.grid, patch.exact, scale))


def _patch_checks(manifest, patch):
    inv = patch.invariants
    for name in ("conformality", "mean_null", "gauss_tangency", "gauss_null"):
        _gate(manifest, name, inv[name], patch)
    manifest.add_check("conformal_min", inv["conformal_min"], 0.0, "min_above")
    for name in ("metric_agreement", "coordinate_identity", "loop_residual"):
        if name in inv:
            _gate(manifest, name, inv[name], patch)
    _, h_report = mean_curvature(patch)
    manifest.reports["mean_curvature"] = h_report


def _quadric_check(manifest, patch, constant):
    """sup |<X,X> - constant|; off the exact route its cap scales by
    1 + max|X|^2, since the residual grows with |X| times the error of X."""
    scale = 1.0 if patch.exact else 1.0 + float(np.max(np.sum(patch.x_stack ** 2, axis=0)))
    _gate(manifest, "quadric_residual", sup_abs(quadric_residual(patch, constant).values),
          patch, scale)


def _congruence_check(manifest, patch, other, args):
    cong = verify_congruence(patch, other, rotation(args.family, args.parameter))
    manifest.reports["congruence"] = cong
    _gate(manifest, "congruence_residual", cong["residual"], patch)


def _fixture_checks(manifest, patch, fixture):
    expected = fixture.expected
    if expected.get("quadric_constant") is not None:
        _quadric_check(manifest, patch, expected["quadric_constant"])
    if "conformal_factor" in expected:
        closed = patch.grid.on_nodes(expected["conformal_factor"])
        _gate(manifest, "conformal_factor_match",
              sup_abs(patch.conformal_factor.values - closed), patch)
    if expected.get("h_nowhere_zero"):
        manifest.add_check("mean_curvature_min_norm",
                           manifest.reports["mean_curvature"]["min_norm"],
                           0.0, "min_above")
    if "slice" in expected:
        coord, const = expected["slice"]
        _gate(manifest, "slice_%s_constant" % coord,
              sup_abs(patch.x_stack[int(coord[1:]) - 1] - const), patch)


def _fixture_params(args):
    return {key: getattr(args, key) for key in ("theta", "alpha", "beta")
            if getattr(args, key, None) is not None}


def _resolve_fixture(args):
    grid = Grid2D.from_spec(args.grid) if args.grid else None
    # verify reads a patch back through finite differences, whose edge
    # stencil reads four nodes
    for axis, n in zip("uv", (grid.n_u, grid.n_v) if grid else ()):
        if n < 4:
            raise ValueError("need at least 4 nodes along %s; the grid has %d" % (axis, n))
    return fixture_by_name(args.fixture, grid=grid, params=_fixture_params(args))


def _mesh_artifacts(manifest, patch, out_dir, name):
    """OBJ, PLY and patch manifest of ``patch`` in one pass of the writer."""
    stem = os.path.join(out_dir, name)
    manifest.add_artifacts(_write_patch(patch, obj=stem + ".obj", ply=stem + ".ply",
                                        manifest=stem + ".json"))


_RUN_ERRORS = (ValueError, OSError, MemoryError)   # every mtsurf.errors type is a ValueError

#: The table's constants, which every run manifest records.
_TOLERANCES = {"eps_zero": EPS_ZERO, "eps_immersion": EPS_IMMERSION, "tol_exact": TOL_EXACT,
               "quadric_tol": QUADRIC_TOL, "congruence_tol": CONGRUENCE_TOL,
               "psi_cutoff": PSI_CUTOFF}


def _run(args, command, inputs, body, table=False):
    """Run ``body(manifest)`` unless a numeric option is nan or inf, record
    that or an expected failure as the run's error (an exception without a
    message by its class name, as a bare MemoryError), save the manifest
    and return the exit status."""
    manifest = RunManifest(command, inputs, _TOLERANCES)
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
        manifest.inputs.update(fixture.params if fixture is not None else {})
        if fixture is not None and fixture.kind == "patch":
            patch = patch_from_chart(fixture.chart,
                                     provenance={"representation": "chart",
                                                 "fixture": fixture.name})
        else:
            data = fixture.data if fixture is not None else load_data(args.data)
            cert = _certificate(data)
            manifest.add_report_checks(cert.report, "data_")
            anchor = fixture.expected.get("anchor") if fixture is not None else None
            patch, = _represent([cert], args.rep, anchor)
        _patch_checks(manifest, patch)
        if fixture is not None:
            _fixture_checks(manifest, patch, fixture)
            if fixture.data is not None:
                manifest.add_artifacts(save_data(
                    fixture.data, os.path.join(args.out, args.name + ".data.json")))
        _mesh_artifacts(manifest, patch, args.out, args.name)

    return _run(args, "generate", inputs, run)


def cmd_deform(args):
    """Deform the data and check the congruence of the two patches in one
    quadrature sweep: inside a ``fields.deferred_sweeps`` scope the
    conversion's and the deformation's potentials are integrated with the
    base and deformed coordinates, and their loop gates (and, for a
    rapidity eta >= 0, the range check of e^-eta pot2) fire at the end of
    that sweep, after the deformed certificate's checks are in the manifest.
    A pole or a parameter that takes the data out of the float range is
    refused before any sweep; a potential still unswept when the run fails
    is swept and gated as the scope closes, so its error comes first."""
    inputs = {"fixture": args.fixture, "data": args.data, "grid": args.grid,
              "family": args.family, "parameter": args.parameter,
              "name": args.name}

    def run(manifest):
        if args.fixture:
            fixture = _resolve_fixture(args)
            manifest.inputs.update(fixture.params)
            if fixture.kind == "patch":
                raise DomainError("fixture %r is an explicit chart, not a "
                                  "data triple" % fixture.name)
            base = fixture.data
        else:
            base = load_data(args.data)

        need, deform = {"parabolic": ("first", deform_parabolic),
                        "elliptic": ("second", deform_elliptic),
                        "hyperbolic": ("first", deform_hyperbolic)}[args.family]
        with deferred_sweeps():
            base = _as_kind(base, need)     # once: the congruence check reuses it
            deformed = deform(base, args.parameter)
            cert = _as_kind(deformed, need)
            manifest.add_report_checks(cert.report, "deformed_")
            ident = deformed.provenance.get("identity_residual")
            if ident is not None:
                manifest.add_check("deformation_identity", ident, cap(
                    "deformation_identity", deformed.grid, _exact_callbacks(base)))
            pair = [SimpleNamespace(grid=c.holo.grid, x_stack=x, exact=_exact_callbacks(c))
                    for c, (x, _, _) in zip((base, cert), _coordinates([base, cert], need))]
        _congruence_check(manifest, *pair, args)
        manifest.add_artifacts(
            save_data(deformed, os.path.join(args.out, args.name + ".data.json")))

    return _run(args, "deform", inputs, run)


_HOLO_FOR_WEIGHT = {"re-exp-iz": _holo_exp_iz}


def cmd_solve(args):
    inputs = {"problem": args.problem, "name": args.name,
              "generate": bool(args.generate)}

    def run(manifest):
        problem, doc = _load_problem(args.problem)
        solution, report = solve_weighted_poisson(problem)
        manifest.reports["solver"] = report
        manifest.add_check("solver_residual", report["residual_max"],
                           report["effective_target"])
        out_csv = os.path.join(args.out, args.name + ".csv")
        save_field_csv(solution, out_csv)
        manifest.add_artifacts([out_csv])

        if args.generate:
            weight = doc["weight"].get("name")
            if weight not in _HOLO_FOR_WEIGHT:
                raise ValueError("cannot generate a patch: the problem's weight %r does not "
                                 "name a holomorphic field (known: %s)"
                                 % (weight, ", ".join(sorted(_HOLO_FOR_WEIGHT))))
            prov = {"transform": "poisson-solve", "problem": os.path.basename(args.problem)}
            data = WeierstrassSecond(_HOLO_FOR_WEIGHT[weight](problem.grid), solution,
                                     problem.source, prov)
            cert = _certificate(data)
            manifest.add_report_checks(cert.report, "data_")
            if cert.report.ok:
                patch, = _represent([cert], "second", None)
                _patch_checks(manifest, patch)
                _mesh_artifacts(manifest, patch, args.out, args.name)

    return _run(args, "solve", inputs, run)


def _anchor_for_data(data, args):
    """Anchor from --anchor, else from fixture provenance, else none.

    The quadric check is meaningless without the right additive constants,
    so data saved from a catalog fixture recovers its anchor by rebuilding
    the fixture on a 3x3 grid of the data's bounds, all its anchor reads.
    """
    if args.anchor is not None:
        try:
            parts = [float(x) for x in args.anchor.split(",")]
        except ValueError:
            parts = []
        if len(parts) != 4 or not all(map(math.isfinite, parts)):
            raise ValueError("--anchor needs four finite comma-separated values")
        return tuple(parts)
    name = data.provenance.get("name")
    if name in FIXTURE_NAMES:
        params = {k: v for k, v in data.provenance.items() if k != "name"}
        document_part(args.input, params, "the provenance", DOCUMENT_KEYS["fixture parameters"])
        g = data.grid
        fixture = fixture_by_name(name, Grid2D(g.u_min, g.u_max, g.v_min, g.v_max, 3, 3), params)
        return fixture.expected.get("anchor")
    return None


def cmd_verify(args):
    inputs = {"input": args.input, "rep": args.rep or "second",
              "against": args.against, "family": args.family,
              "parameter": args.parameter,
              "quadric_constant": args.quadric_constant}

    def run(manifest):
        congruence = [flag for flag in ("family", "parameter") if getattr(args, flag) is not None]
        if args.against is None and congruence:
            raise ValueError("--%s needs --against: only the congruence check reads it"
                             % " / --".join(congruence))
        if args.against is not None and len(congruence) < 2:
            raise ValueError("--against, --family and --parameter are "
                             "required for the congruence check")
        doc = read_document(args.input, "mtsurf-data", "mtsurf-patch")
        if doc["format"] == "mtsurf-data":
            data = _data_from_document(args.input, doc)
            cert = _certificate(data)
            manifest.add_report_checks(cert.report, "data_")
            patch, = _represent([cert], manifest.inputs["rep"], _anchor_for_data(data, args))
        else:
            for flag in ("anchor", "rep"):
                if getattr(args, flag) is not None:
                    raise ValueError("--%s needs a data document; %r is a patch manifest"
                                     % (flag, args.input))
            manifest.inputs["rep"] = None
            patch = _patch_from_document(args.input, doc)

        _patch_checks(manifest, patch)
        if args.quadric_constant is not None:
            _quadric_check(manifest, patch, args.quadric_constant)
        liu = liu_decompose(patch)
        _gate(manifest, "liu_condition4", liu["condition4"], patch)
        manifest.reports["liu"] = liu
        if args.against is not None:
            grid, x = _coordinates_from_document(args.against,
                                                 read_document(args.against, "mtsurf-patch"))
            _congruence_check(manifest, patch, SimpleNamespace(grid=grid, x_stack=x), args)

    return _run(args, "verify", inputs, run, table=True)


def _print_check_table(manifest):
    width = max((len(c.name) for c in manifest.checks), default=0)
    for c in manifest.checks:
        rel = "<" if c.sense == "max_below" else ">"
        print("%-*s  %11.4e %s %11.4e  %s"
              % (width, c.name, c.value, rel, c.threshold, "pass" if c.passed else "FAIL"))


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
    s.set_defaults(func=cmd_solve)

    v = sub.add_parser("verify", help="re-run invariant checks on saved "
                                      "data or patches")
    v.add_argument("--input", required=True,
                   help="data document or patch manifest")
    v.add_argument("--rep", choices=("first", "second", "third"), default=None,
                   help="representation used when the input is a data triple "
                        "(default second)")
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
        if args.fixture is None and _fixture_params(args):
            ap.error("--%s needs --fixture" % " / --".join(_fixture_params(args)))
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
