"""The persistence layer: exact writer bytes, payload references, round trips."""

import hashlib
import json
import os
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mtsurf import cli
from mtsurf.catalog import fixture_classical, fixture_sigma_theta
from mtsurf.errors import GridMismatchError
from mtsurf.export import _faces, load_patch_manifest, save_obj, save_patch_manifest, save_ply
from mtsurf.fields import (
    ComplexField,
    Grid2D,
    RealField,
    load_field_binary,
    load_field_csv,
    save_field_binary,
    save_field_csv,
    write_document,
)
from mtsurf.poisson import (
    PoissonProblem,
    SolverOptions,
    boundary_from_function,
    load_problem,
    named_field,
    named_weight,
    save_problem,
)
from mtsurf.surfaces import patch_from_chart, patch_from_samples, represent_second
from mtsurf.weierstrass import load_data, save_data


def digest(path):
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def pinned_artifacts(out):
    """Write one file of every writer into ``out``; {file name: sha256}."""
    fx = fixture_classical("catenoid-r3", grid=Grid2D(-1.0, 1.0, -0.5, 0.5, 5, 4))
    patch = patch_from_chart(fx.chart)
    files = save_obj(patch, os.path.join(out, "cat.obj"))
    files += save_ply(patch, os.path.join(out, "cat.ply"))

    # dyadic and correctly rounded values, so the digits do not depend on libm
    g = Grid2D(-1.5, 2.5, 0.25, 1.25, 4, 3)
    i, j = np.indices(g.shape)
    re = (7.0 * i - 3.0 * j) / 11.0
    re[0, 0], re[1, 2], re[3, 1] = -0.0, 5e-324, -1e308
    real = RealField(g, re)
    cplx = ComplexField(g, re + 1j * (1.0 + i * j) / 3.0)
    for name, fld in (("real.csv", real), ("complex.csv", cplx)):
        save_field_csv(fld, os.path.join(out, name))
        files.append(os.path.join(out, name))

    sigma = fixture_sigma_theta(0.3, grid=Grid2D(-2.0, 2.0, -1.0, 1.0, 7, 5))
    files += save_data(sigma.data, os.path.join(out, "sigma.data.json"))
    return {os.path.basename(f): digest(f) for f in files}


PINNED = {
    "cat.obj": "5623ab6c094e78dff248d708abed3210ed09df25fe47e2776c7ca999450a26fb",
    "cat.obj.x4.csv": "eaa9f54a63bc3f7eb1a842bbde6dd53f93f9862ee00fd8c980bc23e2303c3390",
    "cat.ply": "1a2c8f68274f6bc0d66864d2c452fe80cb375511169113ebea613047a06ff561",
    "real.csv": "08580b8c25b0faea68a7ec430396bf78a482c6d038f9c8067803e614c57cb82c",
    "complex.csv": "318cfd1c5b5a647b8092bb152438a19f702dc143fd9c926717bbb3aec6fb5c5d",
    "sigma.data.json": "6b901c1b7c76f14d0f8067d6bbbabcd75a0179cfe10c88f68ac0b3fb53316133",
    "sigma.data.holo.csv": "dc17afb88dd0e782c97b5cdebfad3257dc6118e89c06b58551fec639c9524146",
    "sigma.data.height.csv": "8291b378a2a216d4a254e342c49e0a6e927b312f0ec8a4a982f6a3926ed099da",
    "sigma.data.null_pot.csv": "d20e86b16beed8a0962d48b4093ccde4f95ce9ded51d402d1325accde7abec0c",
}


def test_writer_bytes_are_pinned(tmp_path):
    # digests recorded from the per-node writers; any reordering or
    # reformatting of rows, faces or documents changes them
    assert pinned_artifacts(str(tmp_path)) == PINNED


def wide_artifacts(out):
    """Every writer on inputs PINNED cannot reach: a 97x45 grid, more nodes
    than one row block, whose axes need all 17 digits; a real field; and
    complex fields whose imaginary parts are all +0.0 or mix +0.0 and -0.0."""
    g = Grid2D(-2.0, 0.0, -1.0, 1.3, 97, 45)
    U, V = g.mesh()
    # arithmetic only, so the digits do not depend on libm
    patch = patch_from_samples(g, np.stack([U, V, (U * U - V * V) / 3.0, U * V / 7.0]))
    files = save_obj(patch, os.path.join(out, "wide.obj"))
    files += save_ply(patch, os.path.join(out, "wide.ply"))
    files += save_patch_manifest(patch, os.path.join(out, "wide.json"))
    re = (U - 2.0 * V) / 3.0
    signed = np.zeros(g.shape, dtype=complex)
    signed.real = re
    signed.imag = np.where(np.add(*np.indices(g.shape)) % 3 == 0, -0.0, 0.0)
    for name, fld in (("wide-real.csv", RealField(g, re)),
                      ("wide-complex.csv", ComplexField(g, re + 1j * (U * V / 7.0))),
                      ("zero-im.csv", ComplexField(g, re + 0j)),
                      ("signed-zero-im.csv", ComplexField(g, signed))):
        save_field_csv(fld, os.path.join(out, name))
        files.append(os.path.join(out, name))
    # the manifest document itself is left out: its invariants go through
    # numpy's complex kernels, whose last bit may differ between versions
    return {os.path.basename(f): digest(f) for f in files if not f.endswith(".json")}


WIDE_PINNED = {
    "wide.obj": "95931ec1502b4b63e12c35eb272805b65cb617a43c5ecde0e9b2b7c31586cc06",
    "wide.obj.x4.csv": "825a1763b5559f4144980a116e5585b513ffaae62e62dba35a3abdcc0f6ff1e9",
    "wide.ply": "9b3c6d92d6b9b1eb93a85eb47f3e3712cdd675bd386dcd68b6ce2013725f0417",
    "wide.x1.csv": "f624224a800229c36add3ea32cca24e1901cbb786c9b2ab616641848fee471b1",
    "wide.x2.csv": "202ed5aeb5c4d5264b686fa8bec6a2a4251bec9ed91f44e0787667d022533c07",
    "wide.x3.csv": "93a383d922e4815573dfcc7f71b06472ac5679a9d8356fb6459eff7940479b49",
    "wide.x4.csv": "ae5b05e0f932a4246549901b895423161ed4c1904251485ef6bd5b987157c1f0",
    "wide-real.csv": "0156de885b6b9e9693bea384e88a07b4d1402d3986e2b899753eb6e911d31c1d",
    "wide-complex.csv": "b9ec475ee28288f0f2a83603136b74ea1f2010eaa8fc30e9fa3c9321e0e327ce",
    "zero-im.csv": "0156de885b6b9e9693bea384e88a07b4d1402d3986e2b899753eb6e911d31c1d",
    "signed-zero-im.csv": "259b567a4d23707dd0fb720e7124d6c9771e9d737f0ad657d8b1454ede1d5013",
}


def test_writer_bytes_are_pinned_past_one_row_block(tmp_path):
    # digests recorded from the writers that formatted every node's u, v,
    # re and im, and every patch coordinate once per file
    assert wide_artifacts(str(tmp_path)) == WIDE_PINNED


def test_signed_zero_imaginary_parts_keep_their_sign(tmp_path):
    g = Grid2D(0.0, 1.0, 0.0, 1.0, 3, 3)
    values = np.zeros(g.shape, dtype=complex)
    values.imag[1, 2] = -0.0
    path = os.path.join(str(tmp_path), "f.csv")
    save_field_csv(ComplexField(g, values), path)
    with open(path) as fh:
        ims = [line.rsplit(",", 1)[1] for line in fh.read().splitlines()[1:]]
    assert ims == ["0"] * 5 + ["-0"] + ["0"] * 3


def test_cli_one_pass_patch_write_matches_the_separate_writers(tmp_path):
    fx = fixture_sigma_theta(0.3, grid=Grid2D(-2.0, 0.0, -1.0, 1.3, 97, 45))
    patch = represent_second(fx.data, anchor=fx.expected["anchor"])
    one, apart = str(tmp_path / "one"), str(tmp_path / "apart")
    os.mkdir(one)
    os.mkdir(apart)
    manifest = cli.RunManifest("generate", {}, {})
    cli._mesh_artifacts(manifest, patch, one, "p")
    files = save_obj(patch, os.path.join(apart, "p.obj"))
    files += save_ply(patch, os.path.join(apart, "p.ply"))
    files += save_patch_manifest(patch, os.path.join(apart, "p.json"))
    names = [os.path.basename(f) for f in files]
    assert [os.path.basename(f) for f in manifest.artifacts] == names
    assert sorted(os.listdir(one)) == sorted(os.listdir(apart)) == sorted(names)
    for name in names:
        with open(os.path.join(one, name), "rb") as a, \
                open(os.path.join(apart, name), "rb") as b:
            assert a.read() == b.read(), name


@pytest.mark.parametrize("n_u,n_v", [(3, 3), (5, 4), (4, 7), (9, 3)])
def test_faces_match_the_per_cell_loop(n_u, n_v):
    loop = []
    for i in range(n_u - 1):
        for j in range(n_v - 1):
            a, b = i * n_v + j, (i + 1) * n_v + j
            loop += [(a, b, b + 1), (a, b + 1, a + 1)]
    np.testing.assert_array_equal(_faces(n_u, n_v), np.array(loop))


# ---------------------------------------------------------------------------
# payload references: plain names next to the document, or a typed error

def _data_document(src):
    fx = fixture_sigma_theta(0.3, grid=Grid2D(-2.0, 2.0, -1.0, 1.0, 7, 5))
    save_data(fx.data, os.path.join(src, "doc.data.json"))
    return "doc.data.json", load_data, ("fields", "height")


def _patch_manifest(src):
    fx = fixture_classical("catenoid-r3", grid=Grid2D(-1.0, 1.0, -0.5, 0.5, 5, 4))
    save_patch_manifest(patch_from_chart(fx.chart), os.path.join(src, "doc.json"))
    return "doc.json", load_patch_manifest, ("fields", "x3")


def _problem_descriptor(src):
    g = Grid2D(-1.0, 1.0, -1.0, 1.0, 9, 7)
    problem = PoissonProblem(
        g, RealField(g, named_weight("re-exp-iz", g).values),
        RealField(g, named_field("exp-v-cosh-u", g).values),
        boundary_from_function(g, lambda u, v: 0.0 * u * v), SolverOptions())
    save_problem(problem, os.path.join(src, "doc.json"))
    return "doc.json", load_problem, (None, "source")


DOCUMENTS = {"data": _data_document, "patch": _patch_manifest,
             "problem": _problem_descriptor}


def _tamper(doc, where, case, src):
    table, name = where
    holder = doc if table is None else doc[table]
    if case == "missing":
        del holder[name]
    elif case == "parent":
        holder[name]["file"] = "../src/" + holder[name]["file"]
    elif case == "absolute":
        holder[name]["file"] = os.path.join(src, holder[name]["file"])
    else:
        holder[name]["format"] = "hdf5"


@pytest.mark.parametrize("case", ["parent", "absolute", "missing", "format"])
@pytest.mark.parametrize("kind", sorted(DOCUMENTS))
def test_bad_payload_reference_names_document_and_field(tmp_path, kind, case):
    # the "parent" and "absolute" references point at the readable payloads
    # of a valid document, so only the confinement rule can refuse them
    src = str(tmp_path / "src")
    os.mkdir(src)
    fname, load, where = DOCUMENTS[kind](src)
    load(os.path.join(src, fname))
    with open(os.path.join(src, fname)) as fh:
        doc = json.load(fh)
    _tamper(doc, where, case, src)
    target = os.path.join(src, "evil-" + fname)
    with open(target, "w") as fh:
        json.dump(doc, fh)
    with pytest.raises(ValueError, match=r"evil-doc.*'%s'" % where[1]):
        load(target)


def test_payload_grid_mismatch_is_typed(tmp_path):
    fname, load, _ = _patch_manifest(str(tmp_path))
    path = os.path.join(str(tmp_path), fname)
    with open(path) as fh:
        doc = json.load(fh)
    doc["grid"]["n_v"] = 5
    with open(path, "w") as fh:
        json.dump(doc, fh)
    with pytest.raises(GridMismatchError, match="'x1'"):
        load(path)


@pytest.mark.parametrize("key,value", [
    ("n_u", 9.7), ("n_v", "9"), ("n_u", True), ("n_v", 9.0),
    ("u_min", "0"), ("v_max", False), ("u_max", None),
])
def test_grid_entry_is_not_coerced(key, value):
    entry = {"u_min": -1, "u_max": 1.0, "v_min": 0, "v_max": 2.5, "n_u": 9, "n_v": 5}
    assert Grid2D.from_dict(entry) == Grid2D(-1.0, 1.0, 0.0, 2.5, 9, 5)
    entry[key] = value
    with pytest.raises(ValueError, match="'%s'" % key):
        Grid2D.from_dict(entry)
    with pytest.raises(ValueError, match="object"):
        Grid2D.from_dict([entry])


def test_grid_entry_lacking_a_key_is_named():
    with pytest.raises(ValueError, match="lacks n_v"):
        Grid2D.from_dict({"u_min": 0.0, "u_max": 1.0, "v_min": 0.0, "v_max": 1.0,
                          "n_u": 3})


# ---------------------------------------------------------------------------
# round trips of the field formats and the grid spec

finite = st.one_of(st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308,
                                    1e308, -1e308]),
                   st.floats(allow_nan=False, allow_infinity=False))


@st.composite
def grids(draw):
    u0, v0 = draw(st.floats(-1e3, 1e3)), draw(st.floats(-1e3, 1e3))
    du, dv = draw(st.floats(1e-3, 1e3)), draw(st.floats(1e-3, 1e3))
    return Grid2D(u0, u0 + du, v0, v0 + dv, draw(st.integers(3, 6)),
                  draw(st.integers(3, 6)))


@st.composite
def fields(draw):
    g = draw(grids())
    n = g.n_u * g.n_v
    re = np.array(draw(st.lists(finite, min_size=n, max_size=n))).reshape(g.shape)
    if not draw(st.booleans()):
        return RealField(g, re)
    im = np.array(draw(st.lists(finite, min_size=n, max_size=n))).reshape(g.shape)
    values = np.empty(g.shape, np.complex128)
    values.real, values.imag = re, im
    return ComplexField(g, values)


def bits(arr):
    return np.ascontiguousarray(arr, np.float64).view(np.uint64)


@settings(max_examples=60, deadline=None)
@given(fields())
def test_field_payloads_round_trip_exactly(tmp_path_factory, fld):
    d = str(tmp_path_factory.mktemp("rt"))
    for save, load, name in ((save_field_csv, load_field_csv, "f.csv"),
                             (save_field_binary, load_field_binary, "f.fld")):
        path = os.path.join(d, name)
        save(fld, path)
        back = load(path)
        assert back.grid == fld.grid
        np.testing.assert_array_equal(bits(np.real(back.values)), bits(np.real(fld.values)))
        if isinstance(back, ComplexField):
            np.testing.assert_array_equal(bits(np.imag(back.values)),
                                          bits(np.imag(fld.values)))
        else:
            # a CSV field whose imaginary parts are all zero loads as real
            assert np.all(np.imag(fld.values) == 0.0)


@settings(max_examples=60, deadline=None)
@given(fields())
def test_field_csv_bytes_match_per_node_formatting(tmp_path_factory, fld):
    path = os.path.join(str(tmp_path_factory.mktemp("csv")), "f.csv")
    save_field_csv(fld, path)
    U, V = fld.grid.mesh()
    rows = zip(U.ravel().tolist(), V.ravel().tolist(),
               np.real(fld.values).ravel().tolist(), np.imag(fld.values).ravel().tolist())
    with open(path, "rb") as fh:
        assert fh.read() == ("u,v,re,im\n" + "".join(
            "%.17g,%.17g,%.17g,%.17g\n" % row for row in rows)).encode("ascii")


@settings(max_examples=30, deadline=None)
@given(grids(), st.data())
def test_patch_file_bytes_match_per_node_formatting(tmp_path_factory, g, data):
    # the writers read only the grid, the coordinates, invariants and
    # provenance of a patch, so any finite coordinates will do
    n = g.n_u * g.n_v
    x = np.array(data.draw(st.lists(finite, min_size=4 * n, max_size=4 * n))).reshape(4, n)
    patch = SimpleNamespace(grid=g, x_stack=x.reshape((4,) + g.shape),
                            invariants={}, provenance={})
    d = str(tmp_path_factory.mktemp("mesh"))
    save_obj(patch, os.path.join(d, "m.obj"))
    save_ply(patch, os.path.join(d, "m.ply"))
    save_patch_manifest(patch, os.path.join(d, "m.json"))
    faces = _faces(*g.shape)
    rows = list(zip(*x.tolist()))
    U, V = g.mesh()
    nodes = list(zip(U.ravel().tolist(), V.ravel().tolist()))
    obj = ("# mtsurf patch mesh: vertices are (x1, x2, x3); the fourth\n"
           "# coordinate is in the .x4.csv channel file\n"
           + "".join("v %.17g %.17g %.17g\n" % r[:3] for r in rows)
           + "".join("f %d %d %d\n" % tuple(f + 1) for f in faces))
    channel = "vertex,x4\n" + "".join("%d,%.17g\n" % (k + 1, r[3]) for k, r in enumerate(rows))
    ply = ("ply\nformat ascii 1.0\n"
           "comment mtsurf patch mesh with all four ambient coordinates\n"
           "element vertex %d\nproperty double x1\nproperty double x2\n"
           "property double x3\nproperty double x4\nelement face %d\n"
           "property list uchar int vertex_indices\nend_header\n" % (n, len(faces))
           + "".join("%.17g %.17g %.17g %.17g\n" % r for r in rows)
           + "".join("3 %d %d %d\n" % tuple(f) for f in faces))
    payloads = [("m.x%d.csv" % (k + 1), "u,v,re,im\n" + "".join(
        "%.17g,%.17g,%.17g,%.17g\n" % (u, v, r[k], 0.0) for (u, v), r in zip(nodes, rows)))
        for k in range(4)]
    for name, text in [("m.obj", obj), ("m.obj.x4.csv", channel), ("m.ply", ply)] + payloads:
        with open(os.path.join(d, name), "rb") as fh:
            assert fh.read() == text.encode("ascii"), name


# an ascending pair of distinct finite floats (0.0 and -0.0 count as equal)
_ordered_bounds = st.lists(st.floats(allow_nan=False, allow_infinity=False),
                           min_size=2, max_size=2, unique=True).map(sorted)


@given(_ordered_bounds, _ordered_bounds,
       st.integers(3, 10 ** 6), st.integers(3, 10 ** 6))
def test_grid_spec_round_trip(u_bounds, v_bounds, n_u, n_v):
    g = Grid2D(*u_bounds, *v_bounds, n_u, n_v)
    assert Grid2D.from_spec(g.spec()) == g


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -np.inf])
def test_write_document_refuses_non_finite_floats(tmp_path, bad):
    path = os.path.join(str(tmp_path), "doc.json")
    with pytest.raises(ValueError):
        write_document(path, {"format": "x", "v": [1.0, {"w": bad}]})
    assert not os.path.exists(path)
