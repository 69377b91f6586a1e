"""The persistence layer: exact writer bytes, payload references, round trips."""

import decimal
import hashlib
import json
import math
import os
import re
import tempfile
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from mtsurf import cli
from mtsurf import fields as fields_module
from mtsurf.catalog import fixture_classical, fixture_sigma_theta
from mtsurf.errors import GridMismatchError
from mtsurf.export import (_face_blocks, _face_text, load_patch_manifest, save_obj,
                           save_patch_manifest, save_ply)
from mtsurf.fields import (
    _float_text,
    _int_text,
    DOCUMENT_KEYS,
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


def near_ties(count):
    """``count`` floats whose 17-digit scaled value lies within 0.01 of a
    half-integer, so rounding them to 17 digits is close to a tie: found by
    exact decimal arithmetic among quotients m / 8191 of every decade from
    1e-7 to 1e20 (the quotients themselves are plain IEEE arithmetic)."""
    found = []
    with decimal.localcontext() as ctx:
        ctx.prec = 1000
        for m in range(1, 10 ** 6):
            x = (m / 8191.0) * float("1e%d" % (m % 28 - 7))
            d = decimal.Decimal(x)
            scaled = d.scaleb(16 - d.adjusted())
            frac = scaled - scaled.to_integral_value(decimal.ROUND_FLOOR)
            if abs(frac - decimal.Decimal("0.5")) < decimal.Decimal("0.01"):
                found.append(x)
                if len(found) == count:
                    return found
    raise AssertionError("too few near-ties")


def extreme_artifacts(out):
    """The mesh, manifest and field CSV writers on values PINNED and
    WIDE_PINNED do not reach: axes below 1e-4 and at or above 1e17;
    coordinates of every decade from subnormal to 1e308, both signed zeros,
    exact 17-digit ties and near-ties, powers of ten and their neighbours.
    A 67x67 grid spans two row blocks."""
    g = Grid2D(-3e-5, 5e-5, 1e17, 3.5e17, 67, 67)
    n = g.n_u * g.n_v
    U, V = g.mesh()
    powers = [float("1e%d" % p) for p in range(-20, 23)]
    special = (powers + [np.nextafter(p, 0.0) for p in powers]
               + [np.nextafter(p, np.inf) for p in powers]
               + [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1.7976931348623157e308,
                  -1e-300, 1e200, 1234567890123456.75, 1234567890123456.25, 0.5, 9.5e-5,
                  1e-4, 9.999999999999999e16, 1e17, 1.2345678901234567e17]
               + near_ties(200))
    pool = np.array(special + [-v for v in special])
    x = np.stack([np.resize(pool, n).reshape(g.shape),
                  U * V,                               # about 1e12 .. 2e13
                  U * U / 3.0 - 1e-9,                  # below 1e-4
                  np.resize(pool[::-1], n).reshape(g.shape) * (U / 5e-5)])
    patch = SimpleNamespace(grid=g, x_stack=x, invariants={}, provenance={})
    files = save_obj(patch, os.path.join(out, "extreme.obj"))
    files += save_ply(patch, os.path.join(out, "extreme.ply"))
    files += save_patch_manifest(patch, os.path.join(out, "extreme.json"))
    values = np.empty(g.shape, np.complex128)
    values.real, values.imag = x[3], x[0]
    save_field_csv(ComplexField(g, values), os.path.join(out, "extreme-complex.csv"))
    files.append(os.path.join(out, "extreme-complex.csv"))
    return {os.path.basename(f): digest(f) for f in files}


EXTREME_PINNED = {
    "extreme.obj": "44af8c7debbf6850e2c8493da392a2bcb28dd4db967788801372507df0efcdb2",
    "extreme.obj.x4.csv": "a0f22a32a41e9f88f171004b9a515881a908436d23dc84a596bf5593e0529df9",
    "extreme.ply": "4e57c6b0a99a913742f88055ae6087c51c187e76cff49e1b0e7fa93ff28349fe",
    "extreme.json": "b464bdcca409defd5ccbc70b7c06e4df3fc5745af08d1189eddfc651c0df9d49",
    "extreme.x1.csv": "42dc9ff755ef2109d2286378801be156bd2c0bca197bb242d32893cf608582e1",
    "extreme.x2.csv": "dd53952a78061badc1393b614cc77cf88fd6cf8e855c703cbffa38c7e4ceed12",
    "extreme.x3.csv": "f5c7bfc50a3ae171221f06b0f8bea66011692109b746bcd02d473f60282c2eb6",
    "extreme.x4.csv": "31fade9f15495abac4debdf07e05d632c6e7b8ad37c60fdf161a8bb4b2ef24f4",
    "extreme-complex.csv": "b182f3ad5f47ea90fec10dcc099a5a45a4258b5b82ad5e535e9a05b66806b132",
}


def test_writer_bytes_are_pinned_at_extreme_values(tmp_path):
    # digests recorded from the writers that formatted each number with
    # one '%.17g' per value
    assert extreme_artifacts(str(tmp_path)) == EXTREME_PINNED


def spelled(text):
    """The strings held by the rows of a NUL-padded text array."""
    return [bytes(row[row != 0]).decode("ascii") for row in text]


# any float64 bit pattern, so every exponent is as likely as any other
_bit_floats = st.integers(0, 2 ** 64 - 1).map(
    lambda k: float(np.array(k, np.uint64).view(np.float64)))


@settings(max_examples=300, deadline=None)
@given(st.lists(st.floats() | _bit_floats, max_size=50))
def test_float_text_is_percent_17g(values):
    # st.floats() draws subnormals, signed zeros, infinities and nans
    x = np.array(values, dtype=np.float64)
    assert spelled(_float_text(x)) == ["%.17g" % v for v in x.tolist()]


def edge_floats():
    """Powers of ten and their neighbours one ulp away (the notation
    switches at 1e-4 and 1e17 and the 1e16 boundary among them), exact
    17-digit ties, and the smallest, smallest normal and largest double,
    each with both signs."""
    powers = [float("1e%d" % p) for p in range(-20, 23)]
    values = (powers + [float(np.nextafter(p, 0.0)) for p in powers]
              + [float(np.nextafter(p, np.inf)) for p in powers]
              + [1234567890123456.75, 1234567890123456.25, 0.5, 9.5e-5, 1.5e17, 0.0,
                 5e-324, 2.2250738585072014e-308, 1.7976931348623157e308])
    return values + [-v for v in values]


def test_float_text_at_edges():
    # ties round half to even, as '%.17g' does
    assert "%.17g" % 1234567890123456.75 == "1234567890123456.8"
    assert "%.17g" % 1234567890123456.25 == "1234567890123456.2"
    x = np.array(edge_floats())
    assert spelled(_float_text(x)) == ["%.17g" % v for v in x.tolist()]
    # one value per block, so no block shares the layout of another
    for v in x.tolist():
        assert spelled(_float_text([v])) == ["%.17g" % v]


def test_float_text_where_longdouble_is_a_plain_double(monkeypatch):
    # the window then covers every fraction: every value takes the '%'
    # path, and the text stays exact
    monkeypatch.setattr(fields_module, "_LD", np.float64)
    monkeypatch.setattr(fields_module, "_TIE_WINDOW", 1.01 * float(np.finfo(np.float64).eps))
    fields_module._text_tables.cache_clear()
    try:
        x = np.array(edge_floats() + [k / 7.0 for k in range(1, 200)])
        assert fields_module._decimal(x)[2].size == x.size
        assert spelled(_float_text(x)) == ["%.17g" % v for v in x.tolist()]
    finally:
        fields_module._text_tables.cache_clear()


@pytest.mark.skipif(np.finfo(np.longdouble).nmant < 63,
                    reason="longdouble is no wider than double here")
def test_fast_path_decides_most_values():
    x = np.random.default_rng(0).standard_normal(4096) * 3.0
    assert fields_module._decimal(x)[2].size < 0.03 * x.size


def test_int_text_at_digit_boundaries():
    k = [0] + [m for p in range(1, 8) for m in (10 ** p - 1, 10 ** p)]
    assert spelled(_int_text(np.array(k))) == ["%d" % m for m in k]
    assert spelled(_int_text(np.array(k[::-1]))) == ["%d" % m for m in k[::-1]]


@pytest.mark.parametrize("keep", [0.5, len("u,v,re,im\n")])
def test_truncated_csv_payload_is_named(tmp_path, keep):
    # cut in a row, or after the header
    path = os.path.join(str(tmp_path), "f.csv")
    g = Grid2D(0.0, 1.0, 0.0, 1.0, 3, 3)
    save_field_csv(RealField(g, np.ones(g.shape) / 3.0), path)
    with open(path, "rb") as fh:
        body = fh.read()
    with open(path, "wb") as fh:
        fh.write(body[:int(keep * len(body)) if keep < 1 else keep])
    with pytest.raises(ValueError, match="f.csv"):
        load_field_csv(path)


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


def cell_faces(n_u, n_v):
    """The 0-based faces of an n_u x n_v grid from a per-cell loop."""
    faces = []
    for i in range(n_u - 1):
        for j in range(n_v - 1):
            a, b = i * n_v + j, (i + 1) * n_v + j
            faces += [(a, b, b + 1), (a, b + 1, a + 1)]
    return faces


@pytest.mark.parametrize("n_u,n_v", [(3, 3), (5, 4), (4, 7), (9, 3), (40, 120)])
def test_faces_match_the_per_cell_loop(n_u, n_v):
    # 40x120 spans three face blocks
    blocks = list(_face_blocks(n_u, n_v))
    faces = cell_faces(n_u, n_v)
    assert b"".join(_face_text(b"f ", ids[1:], n_v) for ids in blocks) == b"".join(
        b"f %d %d %d\n" % (a + 1, b + 1, c + 1) for a, b, c in faces)
    assert b"".join(_face_text(b"3 ", ids[:-1], n_v) for ids in blocks) == b"".join(
        b"3 %d %d %d\n" % f for f in faces)


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
        boundary_from_function(g, lambda u, v: 0.0 * u * v))
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


@pytest.mark.parametrize("kind", sorted(DOCUMENTS))
def test_complex_payload_of_a_real_field_is_refused(tmp_path, kind):
    # a real field's payload replaced by a complex CSV on the same grid:
    # its imaginary part must neither be dropped nor reach the geometry
    fname, load, (table, name) = DOCUMENTS[kind](str(tmp_path))
    path = os.path.join(str(tmp_path), fname)
    with open(path) as fh:
        doc = json.load(fh)
    payload = os.path.join(str(tmp_path), (doc if table is None else doc[table])[name]["file"])
    real = load_field_csv(payload)
    save_field_csv(ComplexField(real.grid, real.values + 0.5j), payload)
    with pytest.raises(ValueError, match=r"doc.*'%s' holds complex values" % name):
        load(path)
    command = ["solve", "--problem"] if kind == "problem" else ["verify", "--input"]
    out = str(tmp_path / "out")
    assert cli.main(command + [path, "--out", out, "--name", "run"]) == 1
    with open(os.path.join(out, "run.manifest.json")) as fh:
        assert "'%s' holds complex values" % name in json.load(fh)["error"]


_json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=6), inner, max_size=3),
    max_leaves=6)

_tampering = st.one_of(
    # a top-level entry replaced by any JSON value
    st.tuples(st.just("entry"),
              st.sampled_from(["format", "kind", "grid", "fields", "provenance", "invariants"]),
              _json_values),
    # a payload cut to a fraction of its bytes
    st.tuples(st.just("truncate"), st.integers(0, 3), st.floats(0.0, 1.0)),
    # two payloads swapped
    st.tuples(st.just("swap"), st.integers(0, 3), st.integers(0, 3)))


def _tamper_with(path, edit):
    with open(path) as fh:
        doc = json.load(fh)
    payloads = [os.path.join(os.path.dirname(path), ref["file"])
                for _, ref in sorted(doc["fields"].items())]
    how, a, b = edit
    if how == "entry":
        doc[a] = b
        with open(path, "w") as fh:
            json.dump(doc, fh)
        return
    a = payloads[a % len(payloads)]
    with open(a, "rb") as fh:
        body = fh.read()
    if how == "truncate":
        with open(a, "wb") as fh:
            fh.write(body[:int(b * len(body))])
        return
    b = payloads[b % len(payloads)]
    with open(b, "rb") as fh:
        other = fh.read()
    for target, text in ((a, other), (b, body)):
        with open(target, "wb") as fh:
            fh.write(text)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(["data", "patch"]), _tampering)
@example("data", ("entry", "provenance", [1, 2]))
@example("data", ("entry", "provenance", {"name": "sigma-theta", "theta": [0.3]}))
@example("data", ("entry", "kind", {}))
@example("patch", ("entry", "grid", {"u_min": 0}))
@example("patch", ("truncate", 2, 0.5))
@example("data", ("truncate", 0, 0.0))
@example("data", ("swap", 0, 1))
def test_tampered_documents_load_or_fail_typed(kind, edit):
    """A data document or patch manifest with one entry replaced or a
    payload cut or swapped loads, or fails with an expected error; verify
    exits 0 or 1 with a strict JSON manifest, 1 with an error when the
    reader failed."""
    def reject(token):
        raise ValueError("non-standard JSON constant %s" % token)

    with tempfile.TemporaryDirectory() as tmp:
        fname, load, _ = DOCUMENTS[kind](tmp)
        path = os.path.join(tmp, fname)
        _tamper_with(path, edit)
        try:
            load(path)
            error = None
        except cli._RUN_ERRORS as exc:
            error = exc
        out = os.path.join(tmp, "out")
        rc = cli.main(["verify", "--input", path, "--out", out])
        with open(os.path.join(out, "verify.manifest.json")) as fh:
            manifest = json.load(fh, parse_constant=reject)
    assert rc in (0, 1) and manifest["passed"] is (rc == 0)
    if error is not None:
        assert rc == 1 and manifest["error"]


@pytest.mark.parametrize("kind", sorted(DOCUMENTS))
def test_huge_integer_grid_bound_fails_with_manifest(kind, tmp_path):
    """A grid bound that is an integer beyond float range (401 digits), or a
    node count as large, is refused by name: the command exits 1 with a run
    manifest, not in an OverflowError traceback."""
    for key, value, words in (("u_min", -10 ** 400, ["'u_min'", "finite number"]),
                              ("n_u", 10 ** 400, ["grid nodes along u would repeat"])):
        src = str(tmp_path / key)
        os.mkdir(src)
        fname, _, _ = DOCUMENTS[kind](src)
        path = os.path.join(src, fname)
        with open(path) as fh:
            doc = json.load(fh)
        doc["grid"][key] = value
        with open(path, "w") as fh:
            json.dump(doc, fh)
        out = os.path.join(src, "out")
        command = ["solve", "--problem"] if kind == "problem" else ["verify", "--input"]
        rc = cli.main(command + [path, "--out", out, "--name", "run"])
        with open(os.path.join(out, "run.manifest.json")) as fh:
            manifest = json.load(fh)
        assert rc == 1 and manifest["passed"] is False
        for word in words:
            assert word in manifest["error"], (key, word)
        assert os.listdir(out) == ["run.manifest.json"]


#: The parts of a document a test may add a key to, by the name of the
#: field whose reference the test tampers with.
_PARTS = {"top-level": lambda doc, name: doc, "grid": lambda doc, name: doc["grid"],
          "fields": lambda doc, name: doc["fields"],
          "reference": lambda doc, name: doc["fields"][name]}


@pytest.mark.parametrize("kind,part,key,value", [
    (kind, part, key, value) for part, key, value in [
        ("top-level", "notes", ""), ("grid", "n_w", 17), ("reference", "sha256", "0"),
        ("fields", "x5", {"file": "doc.x5.csv", "format": "csv"}),
        ("top-level", "version", 2), ("top-level", "version", True)]
    for kind in sorted(DOCUMENTS)
    # a descriptor's fields are entries of their own kinds, not references
    if kind != "problem" or part in ("top-level", "grid")])
def test_a_key_outside_the_table_is_refused_by_name(tmp_path, kind, part, key, value):
    """Every part of a document holds only its own keys, and a version is
    the JSON integer 1: the loader and the command refuse anything else by
    the document and the key."""
    fname, load, (_, name) = DOCUMENTS[kind](str(tmp_path))
    path = os.path.join(str(tmp_path), fname)
    with open(path) as fh:
        doc = json.load(fh)
    _PARTS[part](doc, name)[key] = value
    with open(path, "w") as fh:
        json.dump(doc, fh)
    with pytest.raises(ValueError, match=r"doc.*'%s'" % key):
        load(path)
    out = str(tmp_path / "out")
    command = ["solve", "--problem"] if kind == "problem" else ["verify", "--input"]
    assert cli.main(command + [path, "--out", out, "--name", "run"]) == 1
    with open(os.path.join(out, "run.manifest.json")) as fh:
        manifest = json.load(fh)
    assert manifest["passed"] is False
    assert fname in manifest["error"] and "'%s'" % key in manifest["error"]


def test_a_misspelt_provenance_is_refused_not_dropped(tmp_path):
    # the sigma-theta provenance names the fixture verify rebuilds the
    # quadric anchor from, so a misspelt key must not load as {}
    fname, _, _ = _data_document(str(tmp_path))
    path = os.path.join(str(tmp_path), fname)
    with open(path) as fh:
        doc = json.load(fh)
    assert doc["provenance"]["name"] == "sigma-theta"
    doc["provenace"] = doc.pop("provenance")
    with open(path, "w") as fh:
        json.dump(doc, fh)
    with pytest.raises(ValueError, match="unknown key 'provenace'"):
        load_data(path)
    out = str(tmp_path / "out")
    assert cli.main(["verify", "--input", path, "--out", out, "--name", "run"]) == 1
    with open(os.path.join(out, "run.manifest.json")) as fh:
        assert "unknown key 'provenace'" in json.load(fh)["error"]


def test_a_data_document_of_the_third_kind_is_refused_by_kind(tmp_path):
    # a data document holds a first- or second-kind triple; the third kind
    # is a representation only
    fname, _, _ = _data_document(str(tmp_path))
    path = os.path.join(str(tmp_path), fname)
    with open(path) as fh:
        doc = json.load(fh)
    doc["kind"] = "third"
    with open(path, "w") as fh:
        json.dump(doc, fh)
    with pytest.raises(ValueError, match="unknown data kind 'third'"):
        load_data(path)
    out = str(tmp_path / "out")
    assert cli.main(["verify", "--input", path, "--out", out, "--name", "run"]) == 1
    with open(os.path.join(out, "run.manifest.json")) as fh:
        manifest = json.load(fh)
    assert manifest["passed"] is False and "unknown data kind 'third'" in manifest["error"]


def _named_weight(doc):
    doc["weight"] = {"kind": "named", "name": "re-exp-iz"}
    return doc["weight"]


def _constant_boundary(doc):
    doc["boundary"] = {"kind": "constant", "value": 0.0}
    return doc["boundary"]


#: Where each row of the table sits: the kind of document of ``DOCUMENTS``
#: that holds it, and the part of that document the row describes, put in
#: place first where the document holds another kind of entry there.
_ROW_SITES = {
    "mtsurf-data": ("data", lambda doc: doc), "mtsurf-patch": ("patch", lambda doc: doc),
    "mtsurf-problem": ("problem", lambda doc: doc), "grid": ("data", lambda doc: doc["grid"]),
    "payload": ("data", lambda doc: doc["fields"]["height"]),
    "named": ("problem", _named_weight), "constant": ("problem", _constant_boundary),
    "edges": ("problem", lambda doc: doc["boundary"]),
    "file": ("problem", lambda doc: doc["source"]),
    "options": ("problem", lambda doc: doc["options"]),
    "boundary edges": ("problem", lambda doc: doc["boundary"]["edges"]),
    "fixture parameters": ("data", lambda doc: doc["provenance"]),
}

#: A value of another JSON type than each type of the table (a type that
#: names a row is an object).
_MISTYPED = {"string": 5, "integer": True, "number": "1", "list": {}, "object": []}


def test_every_row_of_the_table_has_a_site():
    assert set(_ROW_SITES) == set(DOCUMENT_KEYS)


@pytest.mark.parametrize("row,key,case", [
    (row, key, case) for row in sorted(DOCUMENT_KEYS)
    for key, kind in DOCUMENT_KEYS[row].items()
    for case in ("mistyped",) + (() if kind.endswith("?") else ("missing",))])
def test_every_key_of_the_table_is_refused_by_name(tmp_path, row, key, case):
    """For every row and key of ``DOCUMENT_KEYS``, a value of another JSON
    type, or the absence of a required key, is refused by the loader and by
    the command (exit 1, a manifest naming the document and the key)."""
    kind, site = _ROW_SITES[row]
    fname, load, _ = DOCUMENTS[kind](str(tmp_path))
    path = os.path.join(str(tmp_path), fname)
    with open(path) as fh:
        doc = json.load(fh)
    part = site(doc)
    if case == "missing":
        del part[key]
    else:
        part[key] = _MISTYPED.get(DOCUMENT_KEYS[row][key].rstrip("?"), [])
    with open(path, "w") as fh:
        json.dump(doc, fh)
    if row == "fixture parameters":     # read by verify only, to rebuild the anchor
        def load(path):
            return cli._anchor_for_data(load_data(path), SimpleNamespace(anchor=None, input=path))
    with pytest.raises(ValueError, match=r"%s.*'%s'" % (re.escape(fname), key)):
        load(path)
    out = str(tmp_path / "out")
    command = ["solve", "--problem"] if kind == "problem" else ["verify", "--input"]
    assert cli.main(command + [path, "--out", out, "--name", "run"]) == 1
    with open(os.path.join(out, "run.manifest.json")) as fh:
        manifest = json.load(fh)
    assert manifest["passed"] is False
    assert fname in manifest["error"] and "'%s'" % key in manifest["error"]


#: An object of each kind of document whose values no loader reads.
_FREE_OBJECT = {"data": '"provenance": {', "patch": '"invariants": {', "problem": '"options": {'}


@pytest.mark.parametrize("case,word", [
    ("twice", "key 'grid' appears twice"), ("twice-in-grid", "key 'n_u' appears twice"),
    ("NaN", "NaN is not strict JSON"), ("Infinity", "Infinity is not strict JSON"),
    ("-Infinity", "-Infinity is not strict JSON")])
@pytest.mark.parametrize("kind", sorted(DOCUMENTS))
def test_repeated_keys_and_non_json_constants_are_refused(tmp_path, kind, case, word):
    """The one parse refuses a key repeated in an object (json.load would
    keep the last) and the literals NaN and Infinity, which strict JSON
    lacks, by the document and the key or the literal.  Every repeat here
    comes first, so the value kept would be the document's own."""
    fname, load, _ = DOCUMENTS[kind](str(tmp_path))
    path = os.path.join(str(tmp_path), fname)
    with open(path) as fh:
        text = fh.read()
    if case == "twice":
        text = '{"grid": {},' + text[1:]
    elif case == "twice-in-grid":
        text = text.replace('"grid": {', '"grid": {"n_u": 0,', 1)
    else:
        text = text.replace(_FREE_OBJECT[kind], '%s"note": %s,' % (_FREE_OBJECT[kind], case), 1)
    with open(path, "w") as fh:
        fh.write(text)
    with pytest.raises(ValueError) as exc:
        load(path)
    assert fname in str(exc.value) and word in str(exc.value)


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
    with pytest.raises(ValueError, match="has no 'n_v' entry"):
        Grid2D.from_dict({"u_min": 0.0, "u_max": 1.0, "v_min": 0.0, "v_max": 1.0,
                          "n_u": 3})


@pytest.mark.parametrize("key,value", [("u_min", -10 ** 400), ("v_max", 10 ** 400),
                                       ("n_u", float("inf"))], ids=["u_min", "v_max", "n_u"])
def test_grid_bound_beyond_float_range_is_a_value_error(key, value):
    # a library caller's bound, not a document's: the cast itself refuses it
    bounds = {"u_min": -1, "u_max": 1, "v_min": -1, "v_max": 1, "n_u": 9, "n_v": 9}
    bounds[key] = value
    with pytest.raises(ValueError, match="grid %s lies beyond the float range" % key):
        Grid2D(**bounds)


@pytest.mark.parametrize("kind,against,reads", [("data", False, 1), ("patch", False, 1),
                                                ("patch", True, 2)])
def test_verify_reads_each_document_once(tmp_path, monkeypatch, kind, against, reads):
    # the document that picks the loader is the one loaded
    fname, _, _ = DOCUMENTS[kind](str(tmp_path))
    path = str(tmp_path / fname)
    opened, load = [], json.load
    monkeypatch.setattr(json, "load", lambda fh, **kw: opened.append(fh.name) or load(fh, **kw))
    argv = ["verify", "--input", path, "--out", str(tmp_path / "out"), "--name", "run"]
    if against:
        argv += ["--against", path, "--family", "parabolic", "--parameter", "0"]
    cli.main(argv)
    assert opened == [path] * reads


def test_bad_binary_payload_names_its_file(tmp_path):
    fx = fixture_sigma_theta(0.3, grid=Grid2D(-2.0, 2.0, -1.0, 1.0, 7, 5))
    path = str(tmp_path / "d.data.json")
    save_data(fx.data, path, payload="binary")
    (tmp_path / "d.data.holo.fld").write_bytes(b"garbage")
    out = str(tmp_path / "out")
    assert cli.main(["verify", "--input", path, "--out", out, "--name", "run"]) == 1
    with open(os.path.join(out, "run.manifest.json")) as fh:
        error = json.load(fh)["error"]
    for word in ("d.data.json", "field 'holo'", "d.data.holo.fld", "bad magic"):
        assert word in error, word


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
    faces = cell_faces(*g.shape)
    rows = list(zip(*x.tolist()))
    U, V = g.mesh()
    nodes = list(zip(U.ravel().tolist(), V.ravel().tolist()))
    obj = ("# mtsurf patch mesh: vertices are (x1, x2, x3); the fourth\n"
           "# coordinate is in the .x4.csv channel file\n"
           + "".join("v %.17g %.17g %.17g\n" % r[:3] for r in rows)
           + "".join("f %d %d %d\n" % tuple(k + 1 for k in f) for f in faces))
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
@example([0.0, 1.0], [1.0, 1.0000000000000004], 9, 9)
def test_grid_spec_round_trip(u_bounds, v_bounds, n_u, n_v):
    # the first axis whose span overflows, or whose step is under 8 ulps of
    # its bounds so that nodes could repeat, is refused by name
    for axis, (low, high), n in (("u", u_bounds, n_u), ("v", v_bounds, n_v)):
        if not np.isfinite(high - low):
            refusal = r"grid span %s_max - %s_min = .* overflows" % (axis, axis)
        elif (high - low) / (n - 1) < 8.0 * math.ulp(max(abs(low), abs(high))):
            refusal = "grid nodes along %s would repeat" % axis
        else:
            continue
        with pytest.raises(ValueError, match=refusal):
            Grid2D(*u_bounds, *v_bounds, n_u, n_v)
        return
    g = Grid2D(*u_bounds, *v_bounds, n_u, n_v)
    assert Grid2D.from_spec(g.spec()) == g


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -np.inf])
def test_write_document_refuses_non_finite_floats(tmp_path, bad):
    path = os.path.join(str(tmp_path), "doc.json")
    with pytest.raises(ValueError):
        write_document(path, {"format": "x", "v": [1.0, {"w": bad}]})
    assert not os.path.exists(path)


# ---------------------------------------------------------------------------
# the canonical CSV reader: exact where it reads, np.loadtxt everywhere else

@pytest.mark.parametrize("kind", sorted(DOCUMENTS))
def test_payload_linked_from_outside_the_document_directory_is_refused(tmp_path, kind):
    # a payload linked from another directory under its plain name is as
    # far outside as "../src/...", so it is refused by name; a link to a
    # file in the document's own directory still loads
    src, elsewhere = tmp_path / "src", tmp_path / "elsewhere"
    src.mkdir()
    elsewhere.mkdir()
    fname, load, _ = DOCUMENTS[kind](str(src))
    path = str(src / fname)
    payloads = sorted(p for p in os.listdir(src) if p.endswith(".csv"))
    os.rename(src / payloads[0], src / ("kept-" + payloads[0]))
    os.symlink("kept-" + payloads[0], src / payloads[0])
    load(path)
    for name in payloads[1:]:
        os.rename(src / name, elsewhere / name)
        os.symlink(elsewhere / name, src / name)
    with pytest.raises(ValueError, match=r"doc.*resolves to .*elsewhere.*outside the "
                                         r"document's directory"):
        load(path)
    out = str(tmp_path / "out")
    command = ["solve", "--problem"] if kind == "problem" else ["verify", "--input"]
    assert cli.main(command + [path, "--out", out, "--name", "run"]) == 1
    with open(os.path.join(out, "run.manifest.json")) as fh:
        assert "outside the document's directory" in json.load(fh)["error"]


_READ_GRIDS = {"dyadic-129": Grid2D(-2.0, 2.0, -2.0, 2.0, 129, 129),
               "non-dyadic-97": Grid2D(-2.0, 2.0, -2.0, 0.0, 97, 97)}

_payload_values = st.one_of(
    finite,                                               # every magnitude, +-0, subnormals
    _bit_floats.filter(np.isfinite),
    st.integers(2 ** 53, 10 ** 17).map(float),            # past the double's integers
    st.floats(1e-300, 1e-4) | st.floats(1e17, 1e300))     # scientific notation

#: Tokens in the longdouble tie window, which the reader leaves to float():
#: half-way points between neighbouring doubles spelled with at most 18
#: digits, and 17-digit decimals within 2^-62 (relative) of one, whose
#: longdouble quotient rounds to the other side of it.  '%.17g' writes
#: neither; the window is there for other spellings.
_TIE_TOKENS = [b"9007199254740993", b"-4503599627370496.5", b"2251799813685248.25",
               b"18014398509481986", b"9007199254740993.0", b"103.67867085682132",
               b"-0.67726909148632225", b"2.4012198315278519", b"114.97046953005934"]

#: 16-digit tokens (m < 2^53) near a half-way point between doubles: the
#: first three within 2^-68 of it (relative), inside the tie window, the
#: rest about 2^-62.2 from it, just outside.
_SHORT_TOKENS = [b"623779.2158591763", b"-6366.848592593587", b"71.32842256918196",
                 b"-0.3362039072856500", b"280682.5921926593", b"7.187027059072014"]


def _spy_canonical(mp):
    """Record what each call of the canonical reader returns."""
    taken, read = [], fields_module._read_canonical

    def spy(path, grid):
        taken.append(read(path, grid))
        return taken[-1]
    mp.setattr(fields_module, "_read_canonical", spy)
    return taken


@pytest.mark.parametrize("ld_exact", [True, False], ids=["longdouble", "plain-double"])
@settings(max_examples=10, deadline=None)
@given(grid=st.sampled_from(sorted(_READ_GRIDS)),
       values=st.lists(_payload_values, min_size=1, max_size=300),
       is_complex=st.booleans(), seed=st.integers(0, 2 ** 32 - 1))
def test_canonical_reader_matches_loadtxt_bit_for_bit(tmp_path_factory, ld_exact, grid,
                                                      values, is_complex, seed):
    """Doubles written by save_field_csv, with some re tokens spelled as
    exact ties, as 16-digit decimals near a tie or with '%.15g', read back
    as np.loadtxt reads them; where longdouble is a plain double the
    canonical reader is not used at all."""
    g = _READ_GRIDS[grid]
    rng = np.random.default_rng(seed)
    columns = rng.standard_normal((2, g.n_u * g.n_v)) * 10.0 ** rng.integers(-3, 4)
    for col in columns[:1 + is_complex]:
        at = rng.choice(col.size, min(len(values), col.size), replace=False)
        col[at] = values[:at.size]
    fld = (ComplexField(g, columns.T.copy().view(np.complex128).reshape(g.shape))
           if is_complex else RealField(g, columns[0].reshape(g.shape)))
    path = os.path.join(str(tmp_path_factory.mktemp("read")), "f.csv")
    save_field_csv(fld, path)
    with open(path, "rb") as fh:
        rows = fh.read().split(b"\n")
    for k in range(2, len(rows) - 1, 5):
        cells = rows[k].split(b",")
        short = b"%.15g" % float(cells[2])
        if np.isfinite(float(short)):   # 15 digits round DBL_MAX's neighbours past it
            rows[k] = b",".join(cells[:2] + [short] + cells[3:])
    for k, token in enumerate(_TIE_TOKENS + _SHORT_TOKENS):
        cells = rows[1 + 37 * k].split(b",")
        rows[1 + 37 * k] = b",".join(cells[:2] + [token] + cells[3:])
    with open(path, "wb") as fh:
        fh.write(b"\n".join(rows))
    expected = np.loadtxt(path, delimiter=",", skiprows=1)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(fields_module, "_LD_EXACT", ld_exact)
        taken = _spy_canonical(mp)
        back = load_field_csv(path, g)
    assert len(taken) == ld_exact and all(f is not None for f in taken)
    assert back.grid == g
    np.testing.assert_array_equal(bits(np.real(back.values)).ravel(), bits(expected[:, 2]))
    if isinstance(back, ComplexField):
        np.testing.assert_array_equal(bits(np.imag(back.values)).ravel(), bits(expected[:, 3]))
    else:
        assert np.all(expected[:, 3] == 0.0)


@settings(max_examples=50, deadline=None)
@given(st.integers(8, 32).flatmap(lambda w: st.tuples(st.just(w), st.binary(min_size=w))),
       st.lists(st.integers(0, 2 ** 16)))
def test_gather_moves_the_windows_sliding_window_view_holds(window, picks):
    # the last window, which ends on the last byte, is always gathered
    width, data = window
    buf = np.frombuffer(data, np.uint8)
    at = np.array([k % (buf.size - width + 1) for k in picks] + [buf.size - width], np.intp)
    got = fields_module._gather(buf, at, width)
    np.testing.assert_array_equal(got, np.lib.stride_tricks.sliding_window_view(buf, width)[at])
    assert got.dtype == np.uint8 and got.flags.writeable


def test_a_patch_manifest_builds_each_axis_table_once(tmp_path, monkeypatch):
    # its four payloads lie on one grid: one table per axis, not one per payload
    fname, load, _ = _patch_manifest(str(tmp_path))
    built, build = [], fields_module._axis_text
    monkeypatch.setattr(fields_module, "_axis_text", lambda axis: built.append(axis.size)
                        or build(axis))
    fields_module._prefix_tables.cache_clear()
    load(str(tmp_path / fname))
    assert built == [5, 4]


# v runs over 10..26, so another grid on 11..27 and rows swapped within a
# u row keep every prefix's length: only the byte comparison tells them
_FALLBACK_GRID = Grid2D(-2.0, 2.0, 10.0, 26.0, 17, 17)


def _fallback_payload(path, grid=_FALLBACK_GRID):
    """A 17^2 real payload whose first two values are 1.5 and 0.001."""
    values = np.random.default_rng(5).standard_normal(grid.shape)
    values[0, :2] = 1.5, 0.001
    save_field_csv(RealField(grid, values), path)


def _edit_rows(rows):
    return lambda data: b"\n".join(rows(data.split(b"\n")[:-1])) + b"\n"


def _swap_rows(rows):
    rows[2], rows[4] = rows[4], rows[2]
    return rows


#: name: (edit of the payload bytes, whether the canonical reader reads it)
_VARIANTS = {
    "as-written": (None, True),
    "u-spelled-2.0": (lambda d: d.replace(b"\n-2,", b"\n-2.0,"), False),
    "crlf": (lambda d: d.replace(b"\n", b"\r\n"), False),
    "trailing-space": (lambda d: d.replace(b",0\n", b",0 \n"), False),
    "plus-sign": (lambda d: d.replace(b",1.5,0\n", b",+1.5,0\n", 1), True),
    "capital-exponent": (lambda d: d.replace(b",0.001,0\n", b",1E-3,0\n", 1), True),
    "no-final-newline": (lambda d: d[:-1], False),
    "nan": (lambda d: d.replace(b",1.5,0\n", b",nan,0\n", 1), False),
    "inf": (lambda d: d.replace(b",0.001,0\n", b",-inf,0\n", 1), False),
    "truncated-last-row": (lambda d: d[:d.rindex(b",")] + b"\n", False),
    "rows-out-of-order": (_edit_rows(_swap_rows), False),
    "another-grid": ("grid", False),
    "huge-document-grid": ("huge", False),
}


def _read_outcome(doc_path, grid, ld_exact):
    """What load_payload makes of the payload f.csv next to ``doc_path``:
    the field's type, grid and bits, or the error's type and message."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(fields_module, "_LD_EXACT", ld_exact)
        taken = _spy_canonical(mp)
        try:
            fld = fields_module.load_payload(doc_path, {"file": "f.csv", "format": "csv"},
                                             "f", grid)
        except ValueError as exc:
            return (type(exc).__name__, str(exc)), taken
    return (type(fld).__name__, fld.grid, bits(fld.values.view(np.float64)).tolist()), taken


@pytest.mark.parametrize("variant", sorted(_VARIANTS))
def test_non_canonical_payloads_read_as_before(tmp_path, monkeypatch, variant):
    """Each edit gives the field or the exact error of the np.loadtxt route
    (the reader's route before the canonical reader, kept as its fallback),
    and only the canonical layout, numbers spelled any way float() reads
    them, takes the canonical route; every writer's payloads do."""
    edit, canonical = _VARIANTS[variant]
    doc, path, grid = str(tmp_path / "doc.json"), str(tmp_path / "f.csv"), _FALLBACK_GRID
    _fallback_payload(path, Grid2D(-2.0, 2.0, 11.0, 27.0, 17, 17) if edit == "grid" else grid)
    if edit == "huge":
        grid = Grid2D(-2.0, 2.0, -2.0, 2.0, 10 ** 6, 10 ** 6)
        for name in ("axis_u", "axis_v"):
            cached = getattr(Grid2D, name)

            def guarded(self, cached=cached):
                assert self.n_u * self.n_v < 10 ** 12, "the document grid's axes were built"
                return cached.__get__(self, Grid2D)
            monkeypatch.setattr(Grid2D, name, property(guarded))
    elif callable(edit):
        with open(path, "rb") as fh:
            data = fh.read()
        assert edit(data) != data
        with open(path, "wb") as fh:
            fh.write(edit(data))

    before, _ = _read_outcome(doc, grid, ld_exact=False)
    after, taken = _read_outcome(doc, grid, ld_exact=True)
    assert after == before
    assert [f is not None for f in taken] == [canonical]
    if edit == "huge":
        assert before[0] == "GridMismatchError"
    if canonical or variant in ("u-spelled-2.0", "crlf", "trailing-space", "no-final-newline"):
        fresh = str(tmp_path / "fresh.csv")
        _fallback_payload(fresh)
        assert after == ("RealField", grid, bits(load_field_csv(fresh).values).tolist())

    if variant == "as-written":
        # every writer's payloads
        for kind, make in sorted(DOCUMENTS.items()):
            src = tmp_path / kind
            src.mkdir()
            fname, _, _ = make(str(src))
            with open(src / fname) as fh:
                written = json.load(fh)
            refs = [r for r in list(written.get("fields", {}).values()) + list(written.values())
                    if isinstance(r, dict) and "file" in r]
            assert refs
            for ref in refs:
                payload = str(src / ref["file"])
                back = fields_module._read_canonical(payload, Grid2D.from_dict(written["grid"]))
                assert back is not None, (kind, ref)
                assert bits(back.values.view(np.float64)).tolist() == bits(
                    load_field_csv(payload).values.view(np.float64)).tolist()
        for fld in (RealField(grid, np.full(grid.shape, -0.0)),
                    ComplexField(grid, np.full(grid.shape, 0.25 - 3e-300j))):
            save_field_csv(fld, path)
            assert fields_module._read_canonical(path, grid) is not None


# ---------------------------------------------------------------------------
# run manifests: strict JSON whatever the checks and reports hold

_NON_SPELLED = ("nan", "inf", "-inf")     # how a manifest writes non-finite floats


def _plain(obj):
    """A report value as a run manifest must spell it: numpy scalars as the
    Python numbers they hold, tuples as lists, and nan, inf and -inf as
    those strings, which strict JSON has in place of literals."""
    if isinstance(obj, dict):
        return {k: _plain(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_plain(v) for v in obj]
    if isinstance(obj, (bool, np.bool_)):
        return bool(obj)
    if isinstance(obj, (float, np.floating)):
        return float(obj) if math.isfinite(obj) else repr(float(obj))
    if isinstance(obj, (int, np.integer)):
        return int(obj)
    return obj


_scalars = st.one_of(
    st.floats(), st.integers(-2 ** 70, 2 ** 70), st.booleans(), st.none(), st.text(max_size=6),
    st.floats().map(np.float64), st.floats(width=32).map(np.float32),
    st.integers(-2 ** 63, 2 ** 63 - 1).map(np.int64), st.booleans().map(np.bool_))
_reports = st.recursive(
    _scalars, lambda inner: st.one_of(st.lists(inner, max_size=3),
                                      st.lists(inner, max_size=3).map(tuple),
                                      st.dictionaries(st.text(max_size=6), inner, max_size=3)),
    max_leaves=10)
_checks = st.lists(st.tuples(st.text(min_size=1, max_size=8), st.floats(), st.floats(),
                             st.sampled_from(["max_below", "min_above"])), max_size=5)


@settings(max_examples=80, deadline=None)
@given(_checks, st.dictionaries(st.text(max_size=6), _reports, max_size=3),
       st.dictionaries(st.text(max_size=6), st.floats(), max_size=3))
def test_run_manifest_is_strict_json_that_round_trips(checks, reports, tolerances):
    def reject(token):
        raise ValueError("non-standard JSON constant %s" % token)

    with tempfile.TemporaryDirectory() as tmp:
        manifest = cli.RunManifest("verify", {"input": os.path.join(tmp, "in", "p.json"),
                                              "name": "run"}, tolerances)
        for check in checks:
            manifest.add_check(*check)
        manifest.reports.update(reports)
        path = os.path.join(tmp, "run.manifest.json")
        saved = []
        for _ in range(2):
            manifest.save(path)
            with open(path, "rb") as fh:
                saved.append(fh.read())
    doc = json.loads(saved[0], parse_constant=reject)
    wall = [re.sub(rb'"wall_time_s": [^\n]*', b"", raw) for raw in saved]
    assert wall[0] == wall[1]
    assert doc["reports"] == _plain(reports)
    assert doc["tolerances"] == _plain(tolerances)
    assert doc["inputs"] == {"input": os.path.join("in", "p.json"), "name": "run"}
    want = [{"name": name, "value": _plain(value), "threshold": _plain(threshold),
             "sense": sense, "passed": math.isfinite(value)
             and (value < threshold if sense == "max_below" else value > threshold)}
            for name, value, threshold, sense in checks]
    assert doc["checks"] == want
    assert doc["passed"] is all(c["passed"] for c in want) and doc["error"] is None
    assert all(isinstance(c[key], float) or c[key] in _NON_SPELLED
               for c in doc["checks"] for key in ("value", "threshold"))
