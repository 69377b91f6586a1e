"""Mesh and manifest writers for surface patches.

Two mesh formats plus a JSON manifest that lets a patch be reloaded and
re-verified.  OBJ carries only three coordinates, so the spatial part
(x1, x2, x3) becomes the geometry and the timelike coordinate x4 is
written to a per-vertex CSV channel next to the mesh; PLY stores all
four coordinates as named double properties.  All writers format floats
with 17 significant digits and emit rows in a fixed order, so identical
patches produce byte-identical files.  The manifest's coordinate payloads
are plain file names next to it.

Every patch file comes from one streamed writer, ``_write_patch``: per
block of nodes it turns x1..x4 into text once, with the numpy kernel
``fields._float_text``, and lays that text out as the rows of each file
asked for, one ``write`` per file and block, so a patch written as OBJ,
PLY and manifest at once formats each coordinate once, not three times.
Face rows are slices of the text of the vertex ids of a block, each id
formatted once by ``fields._int_text``.  The public writers are its
one-format cases.
"""

from __future__ import annotations

import contextlib
import math
import os

import numpy as np

from .fields import (_CSV_HEADER, _ROW_BLOCK, _csv_text, _float_text, _int_text,
                     _node_blocks, _rows, document_fields, payload_path, read_document,
                     write_document)
from .surfaces import patch_from_samples

__all__ = [
    "save_obj",
    "save_ply",
    "save_patch_manifest",
    "load_patch_manifest",
]

_COORDS = ("x1", "x2", "x3", "x4")

_OBJ_HEADER = ("# mtsurf patch mesh: vertices are (x1, x2, x3); the fourth"
               "\n# coordinate is in the .x4.csv channel file\n")

_PLY_HEADER = ("ply\nformat ascii 1.0\n"
               "comment mtsurf patch mesh with all four ambient coordinates\n"
               "element vertex %d\n"
               "property double x1\nproperty double x2\n"
               "property double x3\nproperty double x4\n"
               "element face %d\n"
               "property list uchar int vertex_indices\nend_header\n")


def _face_blocks(n_u, n_v):
    """The faces of an n_u x n_v grid a few cell rows at a time: per block,
    the text of the ids i * n_v + j of the vertex rows it touches and of the
    id after them, each formatted once.  Without the first row they are
    the 1-based ids, without the last the 0-based ones."""
    rows = max(1, _ROW_BLOCK // (2 * (n_v - 1)))
    for i0 in range(0, n_u - 1, rows):
        touched = min(rows, n_u - 1 - i0) + 1        # vertex rows of the block
        yield _int_text(np.arange(i0 * n_v, (i0 + touched) * n_v + 1))


def _face_text(lead, ids, n_v):
    """Rows ``<lead>a b c`` of the faces of a block of cells, from the text
    of the ids of its vertex rows: two triangles (a, b, b + 1) and
    (a, b + 1, a + 1) per cell, a = (i, j) and b = (i + 1, j), cells in
    row-major order.  The corners are slices of the id text, so no index
    array is built."""
    grid = ids.reshape(-1, n_v, ids.shape[-1])
    a, b, b1, a1 = grid[:-1, :-1], grid[1:, :-1], grid[1:, 1:], grid[:-1, 1:]
    return _rows(lead, a[:, :, None], b" ", np.stack([b, b1], axis=2), b" ",
                 np.stack([b1, a1], axis=2), b"\n")


def _write_patch(patch, obj=None, ply=None, manifest=None):
    """Write the files of ``patch`` that are asked for, in one pass.

    ``obj`` names the OBJ mesh, which gets its ``<obj>.x4.csv`` channel;
    ``ply`` the PLY mesh; ``manifest`` the JSON manifest, which gets its
    four coordinate payloads ``<stem>.x1.csv`` .. ``<stem>.x4.csv``.  Every
    file is ASCII with ``\\n`` line ends.  For each block of nodes x1..x4
    are formatted once and their text is laid out as the rows of every open
    file, one write per file, so memory stays at block scale; faces follow
    the vertices.  Returns the files written in the order of
    :func:`save_obj`, :func:`save_ply` and :func:`save_patch_manifest`.
    """
    grid = patch.grid
    n_u, n_v = grid.shape
    x = patch.x_stack.reshape(4, -1)
    written, refs, payloads = [], {}, []
    with contextlib.ExitStack() as stack:
        def start(path, header):
            fh = stack.enter_context(open(path, "wb"))
            fh.write(header.encode("ascii"))
            written.append(path)
            return fh

        if obj is not None:
            obj_fh = start(obj, _OBJ_HEADER)
            channel_fh = start(obj + ".x4.csv", "vertex,x4\n")
        if ply is not None:
            ply_fh = start(ply, _PLY_HEADER % (n_u * n_v, 2 * (n_u - 1) * (n_v - 1)))
        if manifest is not None:
            written.append(manifest)
            for name in _COORDS:
                refs[name], path = payload_path(manifest, name)
                payloads.append(start(path, _CSV_HEADER))

        for nodes, u, v in _node_blocks(grid):
            x1, x2, x3, x4 = text = [_float_text(c[nodes]) for c in x]
            if obj is not None:
                obj_fh.write(_rows(b"v ", x1, b" ", x2, b" ", x3, b"\n"))
                ids = _int_text(np.arange(nodes.start + 1, nodes.start + len(x4) + 1))
                channel_fh.write(_rows(ids, b",", x4, b"\n"))
            if ply is not None:
                ply_fh.write(_rows(x1, b" ", x2, b" ", x3, b" ", x4, b"\n"))
            for fh, coord in zip(payloads, text):
                fh.write(_csv_text(u, v, coord))

        if obj is not None or ply is not None:
            for ids in _face_blocks(n_u, n_v):
                if obj is not None:
                    obj_fh.write(_face_text(b"f ", ids[1:], n_v))
                if ply is not None:
                    ply_fh.write(_face_text(b"3 ", ids[:-1], n_v))

    if manifest is not None:
        write_document(manifest, {
            "format": "mtsurf-patch",
            "version": 1,
            "grid": grid.to_dict(),
            "fields": refs,
            "invariants": _jsonable(patch.invariants),
            "provenance": _jsonable(patch.provenance),
        })
    return written


def save_obj(patch, path):
    """OBJ mesh of (x1, x2, x3) plus an x4 CSV channel alongside.

    Returns the list of files written: the mesh and ``<mesh>.x4.csv``
    holding ``vertex,x4`` rows aligned with the OBJ vertex numbering
    (vertices are 1-based in OBJ).
    """
    return _write_patch(patch, obj=path)


def save_ply(patch, path):
    """ASCII PLY with all four coordinates as double properties."""
    return _write_patch(patch, ply=path)


def save_patch_manifest(patch, path):
    """JSON manifest (grid, invariants, provenance) + coordinate CSVs.

    The four coordinate fields are written as CSV payloads referenced
    from the manifest, so :func:`load_patch_manifest` can rebuild the
    patch and re-check its invariants.
    """
    return _write_patch(patch, manifest=path)


def load_patch_manifest(path):
    """Rebuild a patch from a manifest; returns (patch, manifest dict).

    The rebuilt patch goes through the chart route (derivatives by finite
    differences), so its invariants are fresh measurements, not copies of
    the stored ones.
    """
    doc = read_document(path, "mtsurf-patch")
    return _patch_from_document(path, doc), doc


def _coordinates_from_document(path, doc):
    """The grid and (4, n_u, n_v) coordinate stack of the manifest ``doc``,
    already read from ``path``."""
    coords = document_fields(path, doc, _COORDS, real=_COORDS)
    return coords[0].grid, np.stack([x.values for x in coords])


def _patch_from_document(path, doc):
    """The patch of the manifest ``doc``, already read from ``path``."""
    return patch_from_samples(*_coordinates_from_document(path, doc),
                              provenance={"representation": "reloaded",
                                          "manifest": os.path.basename(path)})


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
