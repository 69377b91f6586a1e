"""Mesh and manifest writers for surface patches.

Two mesh formats plus a JSON manifest that lets a patch be reloaded and
re-verified.  OBJ carries only three coordinates, so the spatial part
(x1, x2, x3) becomes the geometry and the timelike coordinate x4 is
written to a per-vertex CSV channel next to the mesh; PLY stores all
four coordinates as named double properties.  All writers format floats
with 17 significant digits and emit rows in a fixed order, so identical
patches produce byte-identical files.
"""

from __future__ import annotations

import json
import os

import numpy as np

from .fields import Grid2D, load_field_csv, save_field_csv
from .surfaces import patch_from_samples

__all__ = [
    "save_obj",
    "save_ply",
    "save_patch_manifest",
    "load_patch_manifest",
]

_FMT = "%.17g"


def _faces(n_u, n_v):
    """Two triangles per grid cell over vertex ids i*n_v + j (0-based)."""
    out = []
    for i in range(n_u - 1):
        for j in range(n_v - 1):
            a = i * n_v + j
            b = (i + 1) * n_v + j
            c = (i + 1) * n_v + j + 1
            d = i * n_v + j + 1
            out.append((a, b, c))
            out.append((a, c, d))
    return out


def save_obj(patch, path):
    """OBJ mesh of (x1, x2, x3) plus an x4 CSV channel alongside.

    Returns the list of files written: the mesh and ``<mesh>.x4.csv``
    holding ``vertex,x4`` rows aligned with the OBJ vertex numbering
    (vertices are 1-based in OBJ).
    """
    n_u, n_v = patch.grid.shape
    stack = patch.x_stack
    lines = ["# mtsurf patch mesh: vertices are (x1, x2, x3); the fourth"
             "\n# coordinate is in the .x4.csv channel file\n"]
    for i in range(n_u):
        for j in range(n_v):
            lines.append("v %s %s %s\n" % (_FMT % stack[0, i, j],
                                           _FMT % stack[1, i, j],
                                           _FMT % stack[2, i, j]))
    for a, b, c in _faces(n_u, n_v):
        lines.append("f %d %d %d\n" % (a + 1, b + 1, c + 1))
    with open(path, "w") as fh:
        fh.writelines(lines)

    channel = path + ".x4.csv"
    with open(channel, "w") as fh:
        fh.write("vertex,x4\n")
        vertex = 1
        for i in range(n_u):
            for j in range(n_v):
                fh.write("%d,%s\n" % (vertex, _FMT % stack[3, i, j]))
                vertex += 1
    return [path, channel]


def save_ply(patch, path):
    """ASCII PLY with all four coordinates as double properties."""
    n_u, n_v = patch.grid.shape
    stack = patch.x_stack
    faces = _faces(n_u, n_v)
    lines = [
        "ply\n",
        "format ascii 1.0\n",
        "comment mtsurf patch mesh with all four ambient coordinates\n",
        "element vertex %d\n" % (n_u * n_v),
        "property double x1\n",
        "property double x2\n",
        "property double x3\n",
        "property double x4\n",
        "element face %d\n" % len(faces),
        "property list uchar int vertex_indices\n",
        "end_header\n",
    ]
    for i in range(n_u):
        for j in range(n_v):
            lines.append("%s %s %s %s\n" % tuple(_FMT % stack[k, i, j]
                                                 for k in range(4)))
    for a, b, c in faces:
        lines.append("3 %d %d %d\n" % (a, b, c))
    with open(path, "w") as fh:
        fh.writelines(lines)
    return [path]


def save_patch_manifest(patch, path):
    """JSON manifest (grid, invariants, provenance) + coordinate CSVs.

    The four coordinate fields are written as CSV payloads referenced
    from the manifest, so :func:`load_patch_manifest` can rebuild the
    patch and re-check its invariants.
    """
    base = os.path.splitext(path)[0]
    base_dir = os.path.dirname(path) or "."
    written = []
    fields = {}
    for k, fld in enumerate(patch.X):
        name = "x%d" % (k + 1)
        fname = os.path.basename(base) + ".%s.csv" % name
        save_field_csv(fld, os.path.join(base_dir, fname))
        fields[name] = {"file": fname, "format": "csv"}
        written.append(os.path.join(base_dir, fname))
    doc = {
        "format": "mtsurf-patch",
        "version": 1,
        "grid": patch.grid.to_dict(),
        "fields": fields,
        "invariants": _jsonable(patch.invariants),
        "provenance": _jsonable(patch.provenance),
    }
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return [path] + written


def load_patch_manifest(path):
    """Rebuild a patch from a manifest; returns (patch, manifest dict).

    The rebuilt patch goes through the chart route (derivatives by finite
    differences), so its invariants are fresh measurements, not copies of
    the stored ones.
    """
    with open(path) as fh:
        doc = json.load(fh)
    if doc.get("format") != "mtsurf-patch":
        raise ValueError("not a patch manifest: %r" % path)
    grid = Grid2D.from_dict(doc["grid"])
    base_dir = os.path.dirname(path) or "."
    coords = []
    for k in range(4):
        entry = doc["fields"]["x%d" % (k + 1)]
        fld = load_field_csv(os.path.join(base_dir, entry["file"]))
        if fld.grid != grid:
            raise ValueError("coordinate payload grid disagrees with manifest")
        coords.append(np.real(fld.values))
    patch = patch_from_samples(grid, np.stack(coords),
                               provenance={"representation": "reloaded",
                                           "manifest": os.path.basename(path)})
    return patch, doc


def _jsonable(obj):
    """Plain JSON types for manifests: numpy scalars unwrapped, tuples as
    lists, anything else unknown as its string."""
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    # bool before int: Python bool subclasses int
    if isinstance(obj, (np.bool_, bool)):
        return bool(obj)
    if isinstance(obj, (np.floating, float)):
        return float(obj)
    if isinstance(obj, (np.integer, int)):
        return int(obj)
    if obj is None or isinstance(obj, str):
        return obj
    return str(obj)
