"""Mesh and manifest writers for surface patches.

Two mesh formats plus a JSON manifest that lets a patch be reloaded and
re-verified.  OBJ carries only three coordinates, so the spatial part
(x1, x2, x3) becomes the geometry and the timelike coordinate x4 is
written to a per-vertex CSV channel next to the mesh; PLY stores all
four coordinates as named double properties.  All writers format floats
with 17 significant digits and emit rows in a fixed order, so identical
patches produce byte-identical files; the rows come from the one row
writer in :mod:`mtsurf.fields`, and the manifest's coordinate payloads
are plain file names next to it.
"""

from __future__ import annotations

import math
import os

import numpy as np

from .fields import (Grid2D, _rows, load_payload, read_document, save_payload,
                     write_document)
from .surfaces import patch_from_samples

__all__ = [
    "save_obj",
    "save_ply",
    "save_patch_manifest",
    "load_patch_manifest",
]


def _faces(n_u, n_v):
    """(m, 3) vertex ids i*n_v + j (0-based), two triangles per grid cell
    (a, b, c) and (a, c, d), cells in row-major order."""
    a = (np.arange(n_u - 1)[:, None] * n_v + np.arange(n_v - 1)).ravel()
    b = a + n_v
    return np.stack([a, b, b + 1, a, b + 1, a + 1], axis=1).reshape(-1, 3)


def save_obj(patch, path):
    """OBJ mesh of (x1, x2, x3) plus an x4 CSV channel alongside.

    Returns the list of files written: the mesh and ``<mesh>.x4.csv``
    holding ``vertex,x4`` rows aligned with the OBJ vertex numbering
    (vertices are 1-based in OBJ).
    """
    x1, x2, x3, x4 = patch.x_stack
    with open(path, "w") as fh:
        fh.write("# mtsurf patch mesh: vertices are (x1, x2, x3); the fourth"
                 "\n# coordinate is in the .x4.csv channel file\n")
        fh.writelines(_rows("v %.17g %.17g %.17g\n", x1, x2, x3))
        fh.writelines(_rows("f %d %d %d\n", *(_faces(*patch.grid.shape) + 1).T))

    channel = path + ".x4.csv"
    with open(channel, "w") as fh:
        fh.write("vertex,x4\n")
        fh.writelines(_rows("%d,%.17g\n", np.arange(1, x4.size + 1), x4))
    return [path, channel]


def save_ply(patch, path):
    """ASCII PLY with all four coordinates as double properties."""
    faces = _faces(*patch.grid.shape)
    with open(path, "w") as fh:
        fh.write("ply\nformat ascii 1.0\n"
                 "comment mtsurf patch mesh with all four ambient coordinates\n"
                 "element vertex %d\n"
                 "property double x1\nproperty double x2\n"
                 "property double x3\nproperty double x4\n"
                 "element face %d\n"
                 "property list uchar int vertex_indices\nend_header\n"
                 % (patch.grid.n_u * patch.grid.n_v, len(faces)))
        fh.writelines(_rows("%.17g %.17g %.17g %.17g\n", *patch.x_stack))
        fh.writelines(_rows("3 %d %d %d\n", *faces.T))
    return [path]


def save_patch_manifest(patch, path):
    """JSON manifest (grid, invariants, provenance) + coordinate CSVs.

    The four coordinate fields are written as CSV payloads referenced
    from the manifest, so :func:`load_patch_manifest` can rebuild the
    patch and re-check its invariants.
    """
    refs, written = {}, []
    for name, fld in zip(("x1", "x2", "x3", "x4"), patch.X):
        refs[name], fpath = save_payload(fld, path, name)
        written.append(fpath)
    write_document(path, {
        "format": "mtsurf-patch",
        "version": 1,
        "grid": patch.grid.to_dict(),
        "fields": refs,
        "invariants": _jsonable(patch.invariants),
        "provenance": _jsonable(patch.provenance),
    })
    return [path] + written


def load_patch_manifest(path):
    """Rebuild a patch from a manifest; returns (patch, manifest dict).

    The rebuilt patch goes through the chart route (derivatives by finite
    differences), so its invariants are fresh measurements, not copies of
    the stored ones.
    """
    doc = read_document(path, "mtsurf-patch", "patch manifest")
    grid = Grid2D.from_dict(doc.get("grid", {}))
    coords = [np.real(load_payload(path, doc.get("fields", {}).get(name), name, grid).values)
              for name in ("x1", "x2", "x3", "x4")]
    patch = patch_from_samples(grid, np.stack(coords),
                               provenance={"representation": "reloaded",
                                           "manifest": os.path.basename(path)})
    return patch, doc


def _jsonable(obj):
    """Plain JSON types for manifests: numpy scalars unwrapped, tuples as
    lists, non-finite floats as the strings "nan", "inf" and "-inf" (strict
    JSON has no literal for them), anything else unknown as its string."""
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    # bool before int: Python bool subclasses int
    if isinstance(obj, (np.bool_, bool)):
        return bool(obj)
    if isinstance(obj, (np.floating, float)):
        return float(obj) if math.isfinite(obj) else repr(float(obj))
    if isinstance(obj, (np.integer, int)):
        return int(obj)
    if obj is None or isinstance(obj, str):
        return obj
    return str(obj)
