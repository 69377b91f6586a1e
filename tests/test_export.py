import hashlib
import json
import os

import numpy as np
import pytest

from mtsurf.catalog import fixture_classical, fixture_sigma_theta
from mtsurf.export import (
    load_patch_manifest,
    save_obj,
    save_patch_manifest,
    save_ply,
)
from mtsurf.fields import Grid2D, sup_abs
from mtsurf.poisson import assemble_second_kind, named_field
from mtsurf.surfaces import patch_from_chart, represent_second
from mtsurf.tolerances import fd_cap


def small_patch():
    fx = fixture_classical("catenoid-r3", grid=Grid2D(-1.0, 1.0, -1.0, 1.0, 9, 9))
    return patch_from_chart(fx.chart)


def digest(path):
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def test_obj_layout(tmp_path):
    patch = small_patch()
    path = os.path.join(str(tmp_path), "patch.obj")
    written = save_obj(patch, path)
    assert written == [path, path + ".x4.csv"]
    lines = open(path).read().splitlines()
    verts = [l for l in lines if l.startswith("v ")]
    faces = [l for l in lines if l.startswith("f ")]
    assert len(verts) == 81
    assert len(faces) == 2 * 8 * 8
    ids = {int(tok) for f in faces for tok in f.split()[1:]}
    assert min(ids) >= 1 and max(ids) <= 81
    # each vertex line carries the three spatial coordinates
    first = verts[0].split()
    assert len(first) == 4
    np.testing.assert_allclose(float(first[1]), patch.X[0].values[0, 0])
    # fourth coordinate rides in the side-channel table
    rows = open(path + ".x4.csv").read().splitlines()
    assert rows[0] == "vertex,x4"
    assert len(rows) == 1 + 81


def test_ply_layout(tmp_path):
    patch = small_patch()
    path = os.path.join(str(tmp_path), "patch.ply")
    written = save_ply(patch, path)
    assert written == [path]
    lines = open(path).read().splitlines()
    assert lines[0] == "ply"
    assert "element vertex 81" in lines
    assert "element face 128" in lines
    for k in range(1, 5):
        assert "property double x%d" % k in lines
    body = lines[lines.index("end_header") + 1:]
    assert len(body) == 81 + 128
    assert len(body[0].split()) == 4


def test_mesh_exports_are_deterministic(tmp_path):
    patch = small_patch()
    pairs = []
    for tag in ("a", "b"):
        obj = os.path.join(str(tmp_path), tag + ".obj")
        ply = os.path.join(str(tmp_path), tag + ".ply")
        save_obj(patch, obj)
        save_ply(patch, ply)
        pairs.append((digest(obj), digest(ply), digest(obj + ".x4.csv")))
    assert pairs[0] == pairs[1]


def test_patch_manifest_round_trip(tmp_path):
    fx = fixture_sigma_theta(0.0, grid=Grid2D(-2.0, 2.0, -2.0, 2.0, 17, 17))
    patch = represent_second(fx.data, anchor=fx.expected["anchor"])
    path = os.path.join(str(tmp_path), "patch.json")
    written = save_patch_manifest(patch, path)
    assert written[0] == path
    assert len(written) == 5
    doc = json.load(open(path))
    assert doc["format"] == "mtsurf-patch"
    assert doc["invariants"]["conformality"] < 1e-10

    reloaded, rdoc = load_patch_manifest(path)
    assert reloaded.grid == patch.grid
    np.testing.assert_array_equal(reloaded.x_stack, patch.x_stack)
    assert reloaded.provenance["representation"] == "reloaded"
    assert rdoc["invariants"] == doc["invariants"]
    # re-measured invariants come from finite differences of the samples
    assert reloaded.invariants["conformality"] < fd_cap(patch.grid, 50.0)
    assert reloaded.invariants["conformal_min"] > 0.0


def test_patch_manifest_deterministic(tmp_path):
    # payload references embed the basename, so determinism is judged for
    # one name written into two directories
    patch = small_patch()
    digests = []
    for tag in ("a", "b"):
        sub = os.path.join(str(tmp_path), tag)
        os.mkdir(sub)
        files = save_patch_manifest(patch, os.path.join(sub, "patch.json"))
        digests.append(tuple(digest(f) for f in files))
    assert digests[0] == digests[1]


def test_patch_manifest_keeps_provenance_booleans(tmp_path):
    # the solver report carried in the provenance holds Python bools, which
    # must stay JSON booleans rather than turn into 0/1
    fx = fixture_sigma_theta(0.0, grid=Grid2D(-1.0, 1.0, -1.0, 1.0, 17, 17))
    data, vrep, srep = assemble_second_kind(
        fx.data.holo, named_field("zero", fx.grid),
        lambda u, v: np.asarray(u) + 0.0 * np.asarray(v))
    assert vrep.ok
    path = os.path.join(str(tmp_path), "patch.json")
    save_patch_manifest(represent_second(data), path)
    solver = json.load(open(path))["provenance"]["source"]["solver"]
    assert solver["converged"] is True
    assert solver["floor_warning"] is False
    assert solver["iterations"] == srep["iterations"]


def test_load_rejects_foreign_json(tmp_path):
    path = os.path.join(str(tmp_path), "foreign.json")
    with open(path, "w") as fh:
        json.dump({"format": "not-a-patch"}, fh)
    with pytest.raises(ValueError):
        load_patch_manifest(path)
