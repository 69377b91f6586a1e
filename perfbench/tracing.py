"""Span tracing of mtsurf's layers from outside the package.

:func:`install` wraps every public function of each layer module, and
replaces the original in every ``mtsurf`` module namespace that holds it:
``cli`` binds its imports by name, ``surfaces`` and ``weierstrass`` call
``validate_*`` and ``integrate_primitive`` through their own namespaces,
and ``cli`` imports ``export`` lazily.  ``Analytic`` evaluations and
``RunManifest.save`` are wrapped on their classes.  Wrappers record a span
(name, start, end, parent) only while the tracer is enabled; spans stay in
memory and are reduced to per-layer metrics after each traced pass.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import os
import sys
from collections import defaultdict
from time import perf_counter

LAYERS = ("cli", "catalog", "weierstrass", "fields", "surfaces", "poisson",
          "export")
ANALYTIC_METHODS = ("value", "du", "dv", "dz", "dzbar", "lap")
_CLI_EXTRA = ("cmd_generate", "cmd_deform", "cmd_solve", "cmd_verify")

# Per-layer metric names, in the order BENCHMARK.json lists them.
METRICS = (
    "cli.generate_s", "cli.deform_s", "cli.solve_s", "cli.verify_s",
    "cli.manifest_save_s", "cli.glue_s",
    "catalog.fixture_s", "catalog.fixture_calls",
    "weierstrass.validate_s", "weierstrass.validate_calls",
    "weierstrass.validate_per_data", "weierstrass.convert_s",
    "weierstrass.deform_s", "weierstrass.data_write_s", "weierstrass.data_read_s",
    "fields.integrate_s", "fields.integrate_calls", "fields.analytic_evals",
    "fields.analytic_s", "fields.csv_write_s", "fields.csv_write_mb",
    "fields.csv_read_s", "fields.csv_read_mb",
    "surfaces.represent_s", "surfaces.represent_calls", "surfaces.chart_s",
    "surfaces.checks_s",
    "poisson.solve_s", "poisson.iterations", "poisson.unknowns",
    "poisson.residual_max", "poisson.load_problem_s",
    "export.obj_s", "export.ply_s", "export.manifest_write_s",
    "export.manifest_read_s", "export.write_mb", "export.write_mb_per_s",
    "host.ref_s", "trace.overhead_frac", "trace.stress_share",
)

# The layer metrics each workload is built to stress; the layer-share check
# expects them to cover at least half of the traced pass.
STRESS = {
    "synth_export": ("export.obj_s", "export.ply_s", "export.manifest_write_s",
                     "fields.csv_write_s", "weierstrass.data_write_s",
                     "cli.manifest_save_s"),
    "deform_congruence": ("surfaces.represent_s", "fields.integrate_s",
                          "fields.analytic_s"),
    "poisson_complete": ("poisson.solve_s",),
    "reload_verify": ("export.manifest_read_s", "fields.csv_read_s",
                      "weierstrass.data_read_s", "surfaces.chart_s"),
}

_EXPORT_WRITERS = ("export.save_obj", "export.save_ply", "export.save_patch_manifest")


def unit(key):
    """Unit of a per-layer metric, as BENCHMARK.json lists it."""
    if key.endswith("_mb_per_s"):
        return "MB/s"
    if key.endswith("_s"):
        return "s"
    if key.endswith("_mb"):
        return "MB"
    if key.endswith(("_frac", "_share", "_per_data")):
        return "ratio"
    if key == "poisson.residual_max":
        return "max_abs"
    return "count"


def _mb(paths):
    return sum(os.path.getsize(p) for p in paths) / 1e6


def _extra(name, args, result):
    """What a span keeps beyond its times, measured after the call."""
    if name == "fields.save_field_csv":
        return _mb([args[1]])
    if name == "fields.load_field_csv":
        return _mb([args[0]])
    if name in _EXPORT_WRITERS:
        return _mb(result)
    if name.startswith("weierstrass.validate_"):
        return args[0]          # held until the pass ends, so ids stay distinct
    if name == "poisson.solve_weighted_poisson":
        return result[1]
    return None


class Tracer:
    """Span recorder; wrappers it makes are no-ops while disabled."""

    def __init__(self):
        self.enabled = False
        self.spans = []         # [name, start, end, parent index, extra]
        self._stack = []

    def wrap(self, name, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            index = len(self.spans)
            span = [name, perf_counter(), None,
                    self._stack[-1] if self._stack else -1, None]
            self.spans.append(span)
            self._stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                self._stack.pop()
            span[4] = _extra(name, args, result)
            return result
        return traced

    def take(self):
        spans, self.spans = self.spans, []
        return spans


def install(tracer):
    """Route every traced mtsurf function through ``tracer``."""
    modules = {layer: importlib.import_module("mtsurf." + layer) for layer in LAYERS}
    replace = {}
    for layer, mod in modules.items():
        names = list(getattr(mod, "__all__", ())) + (list(_CLI_EXTRA) if layer == "cli" else [])
        for attr in names:
            fn = getattr(mod, attr)
            if inspect.isfunction(fn):
                replace[id(fn)] = (fn, tracer.wrap("%s.%s" % (layer, attr), fn))
    for name, mod in list(sys.modules.items()):
        if name == "mtsurf" or name.startswith("mtsurf."):
            for attr, val in list(vars(mod).items()):
                hit = replace.get(id(val))
                if hit is not None and hit[0] is val:
                    setattr(mod, attr, hit[1])
    analytic = modules["fields"].Analytic
    for meth in ANALYTIC_METHODS:
        setattr(analytic, meth,
                tracer.wrap("fields.Analytic." + meth, getattr(analytic, meth)))
    manifest = modules["cli"].RunManifest
    manifest.save = tracer.wrap("cli.RunManifest.save", manifest.save)


def layer_metrics(spans):
    """Self times, counts and sizes per layer from one pass's spans."""
    child = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    self_s = defaultdict(float)
    incl_s = defaultdict(float)
    calls = defaultdict(int)
    extra = defaultdict(list)
    entered = defaultdict(int)   # spans entered from another layer
    for i, (name, start, end, parent, ext) in enumerate(spans):
        self_s[name] += end - start - child[i]
        incl_s[name] += end - start
        calls[name] += 1
        if ext is not None:
            extra[name].append(ext)
        layer = name.split(".", 1)[0]
        if parent < 0 or spans[parent][0].split(".", 1)[0] != layer:
            entered[layer] += 1

    def s(*names):
        return sum(self_s[n] for n in names)

    def n(*names):
        return sum(calls[n] for n in names)

    validated = extra["weierstrass.validate_first"] + extra["weierstrass.validate_second"]
    reports = extra["poisson.solve_weighted_poisson"]
    analytic = ["fields.Analytic." + m for m in ANALYTIC_METHODS]
    catalog = [k for k in self_s if k.startswith("catalog.")]
    export_mb = sum(sum(extra[k]) for k in _EXPORT_WRITERS)
    export_incl = sum(incl_s[k] for k in _EXPORT_WRITERS)
    return {
        "cli.generate_s": s("cli.cmd_generate"),
        "cli.deform_s": s("cli.cmd_deform"),
        "cli.solve_s": s("cli.cmd_solve"),
        "cli.verify_s": s("cli.cmd_verify"),
        "cli.manifest_save_s": s("cli.RunManifest.save"),
        "cli.glue_s": s("cli.main", "cli.parse_grid_spec"),
        "catalog.fixture_s": s(*catalog),
        "catalog.fixture_calls": entered["catalog"],
        "weierstrass.validate_s": s("weierstrass.validate_first",
                                    "weierstrass.validate_second"),
        "weierstrass.validate_calls": len(validated),
        "weierstrass.validate_per_data":
            len(validated) / len({id(d) for d in validated}) if validated else 0.0,
        "weierstrass.convert_s": s("weierstrass.first_to_second",
                                   "weierstrass.second_to_first"),
        "weierstrass.deform_s": s("weierstrass.deform_parabolic",
                                  "weierstrass.deform_elliptic",
                                  "weierstrass.deform_hyperbolic"),
        "weierstrass.data_write_s": s("weierstrass.save_data"),
        "weierstrass.data_read_s": s("weierstrass.load_data"),
        "fields.integrate_s": s("fields.integrate_primitive"),
        "fields.integrate_calls": n("fields.integrate_primitive"),
        "fields.analytic_evals": n(*analytic),
        "fields.analytic_s": s(*analytic),
        "fields.csv_write_s": s("fields.save_field_csv"),
        "fields.csv_write_mb": sum(extra["fields.save_field_csv"]),
        "fields.csv_read_s": s("fields.load_field_csv"),
        "fields.csv_read_mb": sum(extra["fields.load_field_csv"]),
        "surfaces.represent_s": s("surfaces.represent_first", "surfaces.represent_second",
                                  "surfaces.represent_third"),
        "surfaces.represent_calls": n("surfaces.represent_first",
                                      "surfaces.represent_second",
                                      "surfaces.represent_third"),
        "surfaces.chart_s": s("surfaces.patch_from_chart", "surfaces.patch_from_samples"),
        "surfaces.checks_s": s("surfaces.mean_curvature", "surfaces.liu_decompose",
                               "surfaces.verify_congruence", "surfaces.quadric_residual"),
        "poisson.solve_s": s("poisson.solve_weighted_poisson"),
        "poisson.iterations": sum(r["iterations"] for r in reports),
        "poisson.unknowns": sum(r["unknowns"] for r in reports),
        "poisson.residual_max": max((r["residual_max"] for r in reports), default=0.0),
        "poisson.load_problem_s": s("poisson.load_problem"),
        "export.obj_s": s("export.save_obj"),
        "export.ply_s": s("export.save_ply"),
        "export.manifest_write_s": s("export.save_patch_manifest"),
        "export.manifest_read_s": s("export.load_patch_manifest"),
        "export.write_mb": export_mb,
        "export.write_mb_per_s": export_mb / export_incl if export_incl else 0.0,
    }
