import dataclasses
import json
import math
import os
import re
import subprocess
import sys
from types import SimpleNamespace

import numpy as np
import pytest

from mtsurf import catalog, cli, surfaces, tolerances, weierstrass
from mtsurf.catalog import fixture_sigma_theta
from mtsurf.cli import main, parse_grid_spec
from mtsurf.export import load_patch_manifest, save_patch_manifest
from mtsurf.fields import Analytic, ComplexField, Grid2D, RealField
from mtsurf.lorentz import rotation
from mtsurf.poisson import (
    PoissonProblem,
    boundary_from_function,
    named_field,
    named_weight,
    save_problem,
)
from mtsurf.tolerances import CONGRUENCE_TOL, FD_FACTOR, FIXED_CAP, QUADRIC_TOL, TOL_EXACT, cap
from mtsurf.weierstrass import WeierstrassSecond, save_data


def run(argv):
    return main([str(a) for a in argv])


def manifest_of(out_dir, name):
    with open(os.path.join(out_dir, name + ".manifest.json")) as fh:
        return json.load(fh)


def check_map(doc):
    return {c["name"]: c for c in doc["checks"]}


def failed_run(out_dir, name):
    """The manifest of a run that failed, parsed as strict JSON."""
    def reject(token):
        raise ValueError("non-standard JSON constant %s" % token)

    with open(os.path.join(out_dir, name + ".manifest.json")) as fh:
        doc = json.load(fh, parse_constant=reject)
    assert doc["passed"] is False
    return doc


def boosted_document(out):
    """The first-kind data document that ``deform --family hyperbolic``
    writes for sigma-theta; its provenance names no fixture."""
    assert run(["deform", "--fixture", "sigma-theta", "--theta", "0.3",
                "--grid", "-2:2:-2:0:17x17", "--family", "hyperbolic",
                "--parameter", "0.6", "--out", out, "--name", "boost"]) == 0
    return os.path.join(out, "boost.data.json")


class TestGridSpec:
    def test_valid(self):
        g = parse_grid_spec("-2:2:-1.5:1.5:65x33")
        assert g == Grid2D(-2.0, 2.0, -1.5, 1.5, 65, 33)

    def test_invalid(self):
        for text in ("1:2:3", "a:b:c:d:9x9", "0:1:0:1:9y9", "0:1:0:1"):
            with pytest.raises(ValueError):
                parse_grid_spec(text)


class TestGenerate:
    def test_fixture_run_passes(self, tmp_path):
        out = str(tmp_path)
        rc = run(["generate", "--fixture", "sigma-theta", "--theta", "0.0",
                  "--grid", "-2:2:-2:2:17x17", "--out", out, "--name", "patch"])
        assert rc == 0
        doc = manifest_of(out, "patch")
        assert doc["format"] == "mtsurf-run"
        assert doc["passed"] is True
        assert doc["error"] is None
        checks = check_map(doc)
        for name in ("data_nonvanishing", "conformality", "quadric_residual",
                     "conformal_factor_match", "mean_curvature_min_norm"):
            assert checks[name]["passed"], name
        for artifact in doc["artifacts"]:
            assert os.path.exists(os.path.join(out, artifact)), artifact
        assert doc["reports"]["mean_curvature"]["min_norm"] > 0.1

    def test_negative_grid_value_is_parsed(self, tmp_path):
        # "--grid" followed by a value starting with "-" must not be read
        # as a new option
        rc = run(["generate", "--fixture", "two-param", "--alpha", "0.3",
                  "--beta", "0.4", "--grid", "-1:1:-1:1:9x9",
                  "--out", str(tmp_path)])
        assert rc == 0

    def test_domain_violation_exits_nonzero(self, tmp_path):
        out = str(tmp_path)
        rc = run(["generate", "--fixture", "sigma-theta",
                  "--theta", repr(math.pi / 2), "--grid", "-2:2:-2:2:17x17",
                  "--out", out, "--name", "bad"])
        assert rc == 1
        doc = manifest_of(out, "bad")
        assert doc["passed"] is False
        assert "admissible-domain" in doc["error"]
        assert doc["checks"] == []

    def test_non_finite_grid_fails_with_strict_manifest(self, tmp_path):
        out = str(tmp_path)
        rc = run(["generate", "--fixture", "sigma-theta", "--grid",
                  "0:inf:-2:2:9x9", "--out", out, "--name", "inf"])
        assert rc == 1

        def reject(token):
            raise ValueError("non-standard JSON constant %s" % token)

        with open(os.path.join(out, "inf.manifest.json")) as fh:
            doc = json.load(fh, parse_constant=reject)
        assert doc["passed"] is False
        assert "finite" in doc["error"]
        assert doc["checks"] == []

    def test_requires_exactly_one_source(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            run(["generate", "--out", str(tmp_path)])
        assert exc.value.code == 2
        with pytest.raises(SystemExit):
            run(["generate", "--fixture", "sigma-theta", "--data", "x.json",
                 "--out", str(tmp_path)])

    @pytest.mark.parametrize("command,fixture,flags", [
        ("generate", "catenoid-r3", ["--theta", "0.3", "--alpha", "0.9"]),
        ("generate", "sigma-theta", ["--alpha", "0.3", "--beta", "0.1"]),
        ("deform", "two-param", ["--theta", "0.3"]),
    ], ids=["catenoid-theta-alpha", "sigma-theta-alpha-beta", "two-param-theta"])
    def test_parameter_the_fixture_does_not_take_fails_with_manifest(
            self, tmp_path, command, fixture, flags):
        out = str(tmp_path)
        family = ["--family", "elliptic", "--parameter", "0.5"] if command == "deform" else []
        rc = run([command, "--fixture", fixture, "--grid", "-1:1:-1:1:9x9", *flags,
                  *family, "--out", out, "--name", "refused"])
        assert rc == 1
        error = failed_run(out, "refused")["error"]
        assert fixture in error
        for flag in flags[::2]:
            assert flag[2:] in error

    def test_fixture_parameter_needs_fixture(self, tmp_path):
        fx = fixture_sigma_theta(0.3, grid=Grid2D(-1.0, 1.0, -1.0, 1.0, 9, 9))
        data_path = os.path.join(str(tmp_path), "input.data.json")
        save_data(fx.data, data_path)
        with pytest.raises(SystemExit) as exc:
            run(["generate", "--data", data_path, "--theta", "0.3", "--out", str(tmp_path)])
        assert exc.value.code == 2

    def test_missing_data_document_fails_with_manifest(self, tmp_path):
        out = str(tmp_path)
        missing = os.path.join(out, "absent.data.json")
        rc = run(["generate", "--data", missing, "--out", out, "--name", "gone"])
        assert rc == 1
        assert "absent.data.json" in failed_run(out, "gone")["error"]

    def test_generate_from_data_document(self, tmp_path):
        out = str(tmp_path)
        fx = fixture_sigma_theta(0.0, grid=Grid2D(-2.0, 2.0, -2.0, 2.0, 17, 17))
        data_path = os.path.join(out, "input.data.json")
        save_data(fx.data, data_path)
        rc = run(["generate", "--data", data_path, "--rep", "second",
                  "--out", out, "--name", "fromdata"])
        assert rc == 0
        doc = manifest_of(out, "fromdata")
        # a saved document has no derivative callbacks: checks run at the
        # finite-difference caps and no quadric anchor is available
        assert "quadric_residual" not in check_map(doc)
        assert doc["passed"] is True

    @pytest.mark.parametrize("rep", ["first", "third"])
    def test_converted_callback_data_checked_at_exact_caps(self, tmp_path, rep):
        # second_to_first integrates pot2 from exact callbacks, so the patch
        # is built from exact callbacks and its checks use the 1e-8 caps
        out = str(tmp_path)
        rc = run(["generate", "--fixture", "sigma-theta", "--theta", "0.3",
                  "--grid", "-2:2:-2:2:33x33", "--rep", rep, "--out", out,
                  "--name", "conv"])
        assert rc == 0
        checks = check_map(manifest_of(out, "conv"))
        for name in ("conformality", "mean_null", "loop_residual",
                     "conformal_factor_match"):
            assert checks[name]["threshold"] == 1e-8, name
        assert checks["quadric_residual"]["threshold"] == 1e-10

    @pytest.mark.parametrize("rep", ["first", "second", "third"])
    def test_failed_certification_exports_nothing(self, tmp_path, rep):
        # holo = z vanishes at the origin node; its other conditions hold
        # (height u, null_pot 0), so only the nonvanishing floor fails, and
        # every --rep stops before a conversion or a mesh
        out = str(tmp_path)
        g = Grid2D(-1.0, 1.0, -1.0, 1.0, 9, 9)
        u, v = np.meshgrid(g.axis_u, g.axis_v, indexing="ij")
        path = os.path.join(out, "zero.data.json")
        save_data(WeierstrassSecond(ComplexField(g, u + 1j * v), RealField(g, u),
                                    RealField(g, np.zeros(g.shape))), path)
        rc = run(["generate", "--data", path, "--rep", rep, "--out", out, "--name", "zero"])
        assert rc == 1
        doc = failed_run(out, "zero")
        assert "nonvanishing FAIL  0.000e+00 > 1.000e-06" in doc["error"]
        checks = check_map(doc)
        assert not checks["data_nonvanishing"]["passed"]
        assert all(checks["data_" + name]["passed"]
                   for name in ("holomorphic", "compatible", "immersion"))
        assert not [f for f in os.listdir(out) if f.endswith((".obj", ".ply"))]


class TestDeform:
    def test_parabolic_congruence(self, tmp_path):
        out = str(tmp_path)
        rc = run(["deform", "--fixture", "sigma-theta", "--theta", "0.0",
                  "--grid", "-2:2:-2:0:17x17", "--family", "parabolic",
                  "--parameter", "0.5", "--out", out, "--name", "par"])
        assert rc == 0
        doc = manifest_of(out, "par")
        checks = check_map(doc)
        assert checks["congruence_residual"]["value"] < 1e-6
        assert checks["deformation_identity"]["passed"]
        assert "par.data.json" in doc["artifacts"]

    def test_elliptic_congruence(self, tmp_path):
        out = str(tmp_path)
        rc = run(["deform", "--fixture", "sigma-theta", "--theta", "0.0",
                  "--grid", "-2:2:-2:2:17x17", "--family", "elliptic",
                  "--parameter", "0.8", "--out", out])
        assert rc == 0
        doc = manifest_of(out, "deformed")
        assert check_map(doc)["congruence_residual"]["passed"]

    def test_pole_on_grid_refused(self, tmp_path):
        # lambda = 2 has its pole exactly on a node of this grid: the
        # center lands on (-pi/2, -ln 2) where 1 + i lambda gauss = 0
        out = str(tmp_path)
        gridspec = "%r:%r:%r:%r:65x65" % (-math.pi / 2 - 1.0, -math.pi / 2 + 1.0,
                                          -math.log(2.0) - 1.0,
                                          -math.log(2.0) + 1.0)
        rc = run(["deform", "--fixture", "sigma-theta", "--theta", "0.0",
                  "--grid", gridspec, "--family", "parabolic",
                  "--parameter", "2.0", "--out", out, "--name", "pole"])
        assert rc == 1
        doc = manifest_of(out, "pole")
        assert "pole" in doc["error"]

    def test_same_parameter_off_pole_passes(self, tmp_path):
        rc = run(["deform", "--fixture", "sigma-theta", "--theta", "0.0",
                  "--grid", "-2:2:-2:2:17x17", "--family", "parabolic",
                  "--parameter", "2.0", "--out", str(tmp_path)])
        assert rc == 0

    @pytest.mark.parametrize("family,parameter", [("parabolic", "0.5"),
                                                  ("hyperbolic", "0.6")])
    def test_identity_of_converted_data_checked_at_exact_cap(self, tmp_path, family,
                                                             parameter):
        out = str(tmp_path)
        rc = run(["deform", "--fixture", "sigma-theta", "--theta", "0.3",
                  "--grid", "-2:2:-2:2:33x33", "--family", family,
                  "--parameter", parameter, "--out", out, "--name", "d"])
        assert rc == 0
        check = check_map(manifest_of(out, "d"))["deformation_identity"]
        assert check["threshold"] == 1e-8
        assert check["passed"]

    def test_boost_below_the_floors_is_refused(self, tmp_path):
        # at eta = -14 the boost rescales the gauss field to min 1.1e-7 and
        # the immersion term with it, under both absolute 1e-6 floors: the
        # deformed data fail their certificate although the boost of valid
        # data is valid, and nothing is written
        out = str(tmp_path)
        rc = run(["deform", "--fixture", "sigma-theta", "--theta", "0.3",
                  "--grid", "-2:2:-2:2:33x33", "--family", "hyperbolic",
                  "--parameter", "-14", "--out", out, "--name", "d"])
        assert rc == 1
        doc = failed_run(out, "d")
        checks = check_map(doc)
        for name in ("deformed_nonvanishing", "deformed_immersion"):
            assert checks[name]["threshold"] == 1e-6 and not checks[name]["passed"], name
            assert re.search(r"%s\s+FAIL" % name[len("deformed_"):], doc["error"])
        assert checks["deformed_nonvanishing"]["value"] == pytest.approx(1.125e-7, rel=1e-3)
        assert checks["deformed_holomorphic"]["passed"] and checks["deformed_compatible"]["passed"]
        assert sorted(os.listdir(out)) == ["d.manifest.json"]

    def test_one_sweep_evaluates_each_closed_form_once_per_node_set(self, tmp_path,
                                                                    monkeypatch):
        # the parabolic deform integrates the coordinates of its base and
        # deformed patches in one quadrature sweep of the coordinates core
        # over 129 rows, three row blocks of two node sets each; the deformed
        # patch's nested callbacks reach the fixture's closed forms only
        # through evaluations the base patch made
        calls, counting = {}, [False]

        def counted(fld, name):
            def wrap(slot, cb):
                def leaf(u, v):
                    if counting[0] and np.ndim(u) == 3:
                        calls[name + "." + slot] = calls.get(name + "." + slot, 0) + 1
                    return cb(u, v)
                return leaf
            a = fld.analytic
            return type(fld)(fld.grid, fld.values, Analytic(**{
                slot: wrap(slot, getattr(a, slot)) for slot in ("value", "dz", "dzbar", "lap")
                if getattr(a, "_" + slot) is not None}))

        def fixture(args, _resolve=cli._resolve_fixture):
            fx = _resolve(args)
            d = fx.data
            return dataclasses.replace(fx, data=type(d)(
                counted(d.holo, "holo"), counted(d.height, "height"),
                counted(d.null_pot, "null_pot"), d.provenance))

        def sweep(*args, _coordinates=cli._coordinates, **kwargs):
            counting[0] = True
            try:
                return _coordinates(*args, **kwargs)
            finally:
                counting[0] = False

        monkeypatch.setattr(cli, "_resolve_fixture", fixture)
        monkeypatch.setattr(cli, "_coordinates", sweep)
        rc = run(["deform", "--fixture", "sigma-theta", "--theta", "0.3",
                  "--grid", "-2:2:-2:0:129x33", "--family", "parabolic",
                  "--parameter", "0.5", "--out", str(tmp_path)])
        assert rc == 0
        assert calls == {"holo.value": 6, "height.dz": 6, "null_pot.dz": 6}

    def test_chart_fixture_is_refused(self, tmp_path):
        out = str(tmp_path)
        assert run(["deform", "--fixture", "catenoid-r3", "--family", "elliptic",
                    "--parameter", "0.5", "--out", out, "--name", "chart"]) == 1
        doc = failed_run(out, "chart")
        assert "is an explicit chart, not a data triple" in doc["error"]
        assert doc["artifacts"] == ["chart.manifest.json"]

    def test_boosted_document_boosts_again(self, tmp_path):
        # the hyperbolic family reads the first kind it writes, so a saved
        # boost deforms again with no kind conversion
        out = str(tmp_path)
        assert run(["deform", "--data", boosted_document(out), "--family", "hyperbolic",
                    "--parameter", "0.6", "--out", out, "--name", "again"]) == 0
        checks = check_map(manifest_of(out, "again"))
        assert checks["congruence_residual"]["passed"]
        assert checks["deformed_nonvanishing"]["passed"]


@pytest.mark.parametrize("theta,bounds", [
    (0.0, "-2:2:-2:0"), (0.3, "-2:2:-2:0"), (math.pi / 2, "-1:1:-1:1")])
@pytest.mark.parametrize("family", ["parabolic", "elliptic", "hyperbolic"])
def test_deform_integrates_the_coordinates_represent_gives(tmp_path, monkeypatch, theta,
                                                           bounds, family):
    # the coordinates core, called by deform without Xz samples, gives in
    # every bit the x_stack of the patches represent builds from the same
    # pair; at theta 0 and pi/2 a partial of a potential is exactly +-0 on
    # some nodes
    seen = []

    def core(certs, kind, *args, _coordinates=cli._coordinates, **kwargs):
        result = _coordinates(certs, kind, *args, **kwargs)
        seen.append((certs, kind, result))
        return result

    monkeypatch.setattr(cli, "_coordinates", core)
    assert run(["deform", "--fixture", "sigma-theta", "--theta", repr(theta),
                "--grid", bounds + ":17x17", "--family", family, "--parameter", "0.5",
                "--out", tmp_path]) == 0
    (certs, kind, result), = seen
    patches = {"first": surfaces.represent_first, "second": surfaces.represent_second}[kind](
        list(certs))
    assert len(result) == len(patches) == 2
    for (x, xz, _), patch in zip(result, patches):
        assert xz is None
        assert np.array_equal(x.view(np.uint64), patch.x_stack.view(np.uint64))


def test_represent_third_of_second_kind_data_is_the_generate_patch(tmp_path):
    fx = fixture_sigma_theta(0.3, grid=Grid2D(-2.0, 2.0, -2.0, 2.0, 17, 17))
    assert run(["generate", "--fixture", "sigma-theta", "--theta", "0.3", "--grid",
                "-2:2:-2:2:17x17", "--rep", "third", "--out", tmp_path]) == 0
    reloaded, _ = load_patch_manifest(os.path.join(str(tmp_path), "patch.json"))
    patch = surfaces.represent_third(fx.data, anchor=fx.expected.get("anchor"))
    assert patch.x_stack.tobytes() == reloaded.x_stack.tobytes()


class TestOneSweepDeform:
    """``deform`` integrates its transforms' potentials in its coordinate
    sweep (``fields.deferred_sweeps``): the bytes and residuals of the eager
    library path, each closed form once per Gauss node set, refusals before
    any sweep, and a scope that closes however the run ends."""

    FAMILIES = {"parabolic": ("first", weierstrass.deform_parabolic, 0.5),
                "elliptic": ("second", weierstrass.deform_elliptic, 0.8),
                "hyperbolic": ("first", weierstrass.deform_hyperbolic, 0.6)}

    @staticmethod
    def deform(out, family, parameter, gridspec="-2:2:-2:0:17x17", name="d"):
        return run(["deform", "--fixture", "sigma-theta", "--theta", "0.3", "--grid", gridspec,
                    "--family", family, "--parameter=%r" % parameter, "--out", out,
                    "--name", name])

    # 129 rows: three row blocks of the coordinate sweep
    @pytest.mark.parametrize("gridspec", ["-2:2:-2:0:17x17", "-2:2:-2:0:129x33"])
    @pytest.mark.parametrize("family", sorted(FAMILIES))
    def test_the_eager_path_gives_the_same_bytes(self, tmp_path, family, gridspec):
        kind, deform, parameter = self.FAMILIES[family]
        fused, eager = str(tmp_path / "fused"), str(tmp_path / "eager")
        assert self.deform(fused, family, parameter, gridspec) == 0
        os.makedirs(eager)
        fixture = fixture_sigma_theta(0.3, grid=parse_grid_spec(gridspec))
        base = weierstrass._as_kind(fixture.data, kind)
        deformed = deform(base, parameter)
        for path in save_data(deformed, os.path.join(eager, "d.data.json")):
            with open(path, "rb") as a, open(os.path.join(fused, os.path.basename(path)), "rb") as b:
                assert a.read() == b.read(), path
        prov = deformed.provenance
        residuals = [p["loop_residual"] for p in (prov, prov.get("source", {})) if "loop_residual" in p]
        assert len(residuals) == {"parabolic": 2, "elliptic": 1, "hyperbolic": 1}[family]
        assert all(0.0 < r < 1e-8 for r in residuals)
        certs = [base, weierstrass._as_kind(deformed, kind)]
        residual = surfaces.verify_congruence(
            *[SimpleNamespace(grid=base.holo.grid, x_stack=x, exact=True)
              for x, _, _ in surfaces._coordinates(certs, kind)],
            rotation(family, parameter))["residual"]
        assert check_map(manifest_of(fused, "d"))["congruence_residual"]["value"] == residual

    @pytest.mark.parametrize("family", sorted(FAMILIES))
    def test_each_closed_form_runs_once_per_node_set(self, tmp_path, monkeypatch, family):
        # over the whole run at 129x33 (three row blocks of two node sets):
        # the conversion's and the deformation's potentials share the
        # coordinate sweep, where separate sweeps ran each closed form 18
        # (parabolic) or 12 times
        calls = {}

        def counted(fld, name):
            def wrap(slot, cb):
                def leaf(u, v):
                    if np.ndim(u) == 3:
                        calls[name + "." + slot] = calls.get(name + "." + slot, 0) + 1
                    return cb(u, v)
                return leaf
            a = fld.analytic
            return type(fld)(fld.grid, fld.values, Analytic(**{
                slot: wrap(slot, getattr(a, slot)) for slot in ("value", "dz", "dzbar", "lap")
                if getattr(a, "_" + slot) is not None}))

        def fixture(args, _resolve=cli._resolve_fixture):
            fx = _resolve(args)
            d = fx.data
            return dataclasses.replace(fx, data=type(d)(
                counted(d.holo, "holo"), counted(d.height, "height"),
                counted(d.null_pot, "null_pot"), d.provenance))

        monkeypatch.setattr(cli, "_resolve_fixture", fixture)
        assert self.deform(str(tmp_path), family, self.FAMILIES[family][2],
                           "-2:2:-2:0:129x33") == 0
        assert calls == {"holo.value": 6, "height.dz": 6, "null_pot.dz": 6}

    @pytest.mark.parametrize("family,count", [("parabolic", 3), ("elliptic", 1),
                                              ("hyperbolic", 2)])
    def test_integrands_run_on_the_grid_nodes_only_to_certify(self, tmp_path, monkeypatch,
                                                               family, count):
        # a transform takes its new potential's node dz from the certificate's
        # samples; an integrand's callback runs on the grid nodes only in the
        # certification of a new triple (parabolic: the converted triple, and
        # the deformed one, whose integrand calls the converted one's), where
        # the transform's own dz of the primitive ran it too (6, 2 and 3)
        calls = []

        def certificate_field(cert, formula, out=None, _field=weierstrass._certificate_field):
            def counted(w, a_z, b_z):
                calls.extend([1] if np.ndim(w) == 2 else [])
                return formula(w, a_z, b_z)
            return _field(cert, counted, out)

        monkeypatch.setattr(weierstrass, "_certificate_field", certificate_field)
        assert self.deform(str(tmp_path), family, self.FAMILIES[family][2]) == 0
        assert len(calls) == count

    @pytest.mark.parametrize("parameter", [1e154, 1e160, -1e200, 1e308, -1.7e308])
    def test_an_overflowing_parabolic_parameter_is_refused(self, tmp_path, parameter):
        # lambda^2 takes dz (or, near 1e154, lap) of the deformed pot2, or
        # (1 + i lambda gauss)^2, out of the float range: refused on the grid
        # nodes before any sweep or certification, with numeric warnings as
        # errors
        out = str(tmp_path)
        assert self.deform(out, "parabolic", parameter) == 1
        doc = failed_run(out, "d")
        assert "the parabolic parameter %g (--parameter)" % parameter in doc["error"]
        assert not any(c["name"].startswith("deformed_") for c in doc["checks"])
        assert os.listdir(out) == ["d.manifest.json"]

    @pytest.mark.parametrize("failure", ["pole", "overflow"])
    def test_the_scope_closes_when_a_deform_fails_before_its_sweep(self, tmp_path, monkeypatch,
                                                                  failure):
        out = str(tmp_path)
        if failure == "pole":
            gridspec = "%r:%r:%r:%r:65x65" % (-math.pi / 2 - 1.0, -math.pi / 2 + 1.0,
                                              -math.log(2.0) - 1.0, -math.log(2.0) + 1.0)
            rc = run(["deform", "--fixture", "sigma-theta", "--theta", "0.0", "--grid", gridspec,
                      "--family", "parabolic", "--parameter", "2.0", "--out", out])
        else:
            rc = self.deform(out, "parabolic", 1e200)
        assert rc == 1
        # a library call after the run integrates eagerly again: on (exp(iz),
        # u, 0), whose certification residuals are exact zeros, the loop gate
        # raises within the call
        g = Grid2D(-1.0, 1.0, -1.0, 1.0, 17, 17)
        zeros = catalog._zeros
        linear = Analytic(value=lambda u, v: u + zeros(u, v), du=lambda u, v: 1.0 + zeros(u, v),
                          dv=zeros, lap=zeros)
        data = weierstrass.WeierstrassFirst(
            catalog._holo_exp_iz(g), RealField.sample(g, linear),
            RealField.sample(g, Analytic(value=zeros, du=zeros, dv=zeros, lap=zeros)))
        monkeypatch.setattr(tolerances, "TOL_EXACT", 1e-300)
        with pytest.raises(ValueError, match=r"first_to_second: loop residual .* exceeds 1\.000e-300"):
            weierstrass.first_to_second(data)


class TestSolve:
    def descriptor(self, tmp_path, n=17, target=1e-10, weight="re-exp-iz"):
        g = Grid2D(-1.0, 1.0, -1.0, 1.0, n, n)
        problem = PoissonProblem(
            g, named_weight(weight, g), named_field("exp-v-cosh-u", g),
            boundary_from_function(
                g, lambda u, v: np.sinh(u) * np.sin(u) + 0.0 * np.asarray(v)),
            target=target)
        path = os.path.join(str(tmp_path), "problem.json")
        save_problem(problem, path, weight_name=weight,
                     source_name="exp-v-cosh-u")
        return path

    def test_solve_run(self, tmp_path):
        out = os.path.join(str(tmp_path), "out")
        path = self.descriptor(tmp_path)
        rc = run(["solve", "--problem", path, "--out", out])
        assert rc == 0
        doc = manifest_of(out, "solution")
        assert doc["reports"]["solver"]["converged"] is True
        assert check_map(doc)["solver_residual"]["passed"]
        assert os.path.exists(os.path.join(out, "solution.csv"))

    def test_solve_generate_patch(self, tmp_path):
        out = os.path.join(str(tmp_path), "out")
        path = self.descriptor(tmp_path, n=33)
        rc = run(["solve", "--problem", path, "--generate", "--out", out])
        assert rc == 0
        doc = manifest_of(out, "solution")
        checks = check_map(doc)
        assert checks["data_immersion"]["passed"]
        assert checks["conformality"]["passed"]
        assert "solution.obj" in doc["artifacts"]
        assert "solution.json" in doc["artifacts"]

    def test_generate_reads_its_descriptor_once(self, tmp_path, monkeypatch):
        # the weight's name comes from the one read that built the problem
        path = self.descriptor(tmp_path)
        reads, real_load = [], json.load

        def counted(fh, *args, **kwargs):
            reads.append(fh.name)
            return real_load(fh, *args, **kwargs)

        monkeypatch.setattr(json, "load", counted)
        out = os.path.join(str(tmp_path), "out")
        assert run(["solve", "--generate", "--problem", path, "--out", out]) == 0
        assert reads == [path]

    def test_a_residual_on_its_gate_takes_another_solve(self, tmp_path):
        # the first solve of this problem lands exactly on the roundoff floor,
        # 2^-34; the gate is strict, so the solve must refine once more
        path = os.path.join(str(tmp_path), "tie.json")
        with open(path, "w") as fh:
            json.dump({"format": "mtsurf-problem", "version": 1,
                       "grid": {"u_min": -1.0, "u_max": 1.0, "v_min": -1.0, "v_max": 1.0,
                                "n_u": 257, "n_v": 257},
                       "weight": {"kind": "named", "name": "one"},
                       "source": {"kind": "named", "name": "exp-v-cosh-u"},
                       "boundary": {"kind": "named", "name": "coord-u"},
                       "options": {"target": 1e-11}}, fh)
        out = os.path.join(str(tmp_path), "out")
        with pytest.warns(UserWarning, match="roundoff floor"):
            assert run(["solve", "--problem", path, "--out", out]) == 0
        solver = manifest_of(out, "solution")["reports"]["solver"]
        assert solver["effective_target"] == 2.0 ** -34
        assert solver["converged"] is True and solver["iterations"] == 2

    def test_generate_needs_a_weight_with_a_holomorphic_field(self, tmp_path):
        # the solve itself runs and writes its CSV; only the patch is refused
        out = os.path.join(str(tmp_path), "out")
        path = self.descriptor(tmp_path, weight="one")
        assert run(["solve", "--problem", path, "--generate", "--out", out]) == 1
        doc = failed_run(out, "solution")
        assert ("the problem's weight 'one' does not name a holomorphic field "
                "(known: re-exp-iz)") in doc["error"]
        assert check_map(doc)["solver_residual"]["passed"]
        assert doc["artifacts"] == ["solution.csv", "solution.manifest.json"]

    @pytest.mark.parametrize("edit,words", [
        (lambda d: d.pop("boundary"), ["'boundary'"]),
        (lambda d: d.update(source={"kind": "constant"}), ["'source'", "'value'"]),
        (lambda d: d["boundary"].update(edges={}), ["boundary edges", "'u_min'"]),
        (lambda d: d["weight"].update(name="cosh"), ["'weight'", "'cosh'"]),
        (lambda d: d["source"].update(name="cosh"), ["'source'", "'cosh'"]),
        (lambda d: d.update(boundary={"kind": "named", "name": "cosh"}),
         ["boundary", "'cosh'"]),
        (lambda d: d.update(weight={"kind": "spline"}), ["'weight'", "'spline'"]),
        (lambda d: d.update(options=[]), ["'options'"]),
        (lambda d: d.update(grid=7), ["grid", "7"]),
        # a document grid is not coerced: 9.7 and "9" are not node counts
        (lambda d: d["grid"].update(n_u=9.7, n_v="9"), ["'n_u'", "9.7"]),
        # nor is a scalar: a list or a bool is not a JSON number
        (lambda d: d.update(options={"target": []}), ["options", "'target'"]),
        (lambda d: d.update(options={"target": True}), ["options", "'target'"]),
        (lambda d: d.update(source={"kind": "constant", "value": [1]}),
         ["'source'", "'value'"]),
        (lambda d: d.update(boundary={"kind": "constant", "value": [0]}),
         ["boundary", "'value'"]),
        # nor an edge value
        (lambda d: d["boundary"].update(edges={name: ["0"] * 9 for name in (
            "u_min", "u_max", "v_min", "v_max")}), ["boundary edge", "'u_min'"]),
        # edges that do not fit the grid or each other, and unknown options
        (lambda d: d["boundary"]["edges"]["u_max"].pop(), ["'u_max'", "length 8"]),
        (lambda d: d["boundary"]["edges"]["v_max"].__setitem__(-1, 1.0), ["corner"]),
        (lambda d: d["options"].update(targt=1e-3), ["options", "'targt'"]),
        # every part of a descriptor holds only its own keys
        (lambda d: d.update(optoins={"target": 1e-3}), ["the descriptor", "'optoins'"]),
        (lambda d: d["weight"].update(scale=2.0), ["'weight'", "'scale'"]),
        (lambda d: d.update(boundary={"kind": "named", "name": "coord-u", "value": 1.0}),
         ["boundary", "'value'"]),
        (lambda d: d.update(source={"kind": "constant", "value": 1.0, "name": "one"}),
         ["'source'", "'name'"]),
        (lambda d: d.update(weight={"kind": "file", "file": "w.csv", "format": "csv",
                                    "grid": {}}), ["'weight'", "'grid'"]),
        (lambda d: d["boundary"].update(value=0.0), ["boundary", "'value'"]),
        (lambda d: d["boundary"]["edges"].update(w_min=[0.0] * 9),
         ["boundary edges", "'w_min'"]),
        (lambda d: d["options"].update(max_iter="abc"), ["options", "'max_iter'"]),
        (lambda d: d["options"].update(max_iter=True), ["options", "'max_iter'"]),
        (lambda d: d["options"].update(max_iter=100.0), ["options", "'max_iter'"]),
    ], ids=["no-boundary", "no-source-value", "empty-edges", "unknown-weight",
            "unknown-source", "unknown-boundary", "unknown-weight-kind", "list-options",
            "number-grid", "non-integer-node-count", "list-target", "bool-target",
            "list-constant-field", "list-constant-boundary", "string-edges",
            "short-edge", "corner", "unknown-option", "stray-top-level-key",
            "stray-named-key", "stray-named-boundary-key", "stray-constant-key",
            "stray-file-key", "stray-edges-entry-key", "stray-edge", "string-max-iter",
            "bool-max-iter", "float-max-iter"])
    def test_bad_descriptor_fails_with_manifest(self, tmp_path, edit, words):
        out = os.path.join(str(tmp_path), "out")
        path = self.descriptor(tmp_path, n=9)
        with open(path) as fh:
            doc = json.load(fh)
        edit(doc)
        with open(path, "w") as fh:
            json.dump(doc, fh)
        rc = run(["solve", "--problem", path, "--out", out])
        assert rc == 1
        error = failed_run(out, "solution")["error"]
        for word in ["problem.json"] + words:
            assert word in error, word
        assert not os.path.exists(os.path.join(out, "solution.csv"))

    def test_overflow_fails_with_manifest(self, tmp_path):
        # a 1e308 boundary overflows the stencil: the run ends in an error
        # naming the overflow, with no solver report and no nan solution
        out = os.path.join(str(tmp_path), "out")
        path = self.descriptor(tmp_path)
        with open(path) as fh:
            doc = json.load(fh)
        doc["boundary"] = {"kind": "constant", "value": 1e308}
        with open(path, "w") as fh:
            json.dump(doc, fh)
        assert run(["solve", "--problem", path, "--out", out]) == 1
        doc = failed_run(out, "solution")
        assert "float64 overflows" in doc["error"]
        assert "solver" not in doc["reports"]
        assert doc["artifacts"] == ["solution.manifest.json"]

    def test_nonconvergence_fails_run(self, tmp_path):
        # a 1e10-scale source over a zero boundary puts the 1e-10 target
        # out of reach of float64 solves; the run must fail, not raise
        out = os.path.join(str(tmp_path), "out")
        g = Grid2D(-1.0, 1.0, -1.0, 1.0, 65, 65)
        problem = PoissonProblem(
            g, named_weight("one", g),
            RealField(g, 1e10 * named_field("exp-v-cosh-u", g).values),
            boundary_from_function(g, lambda u, v: 0.0 * u * v))
        path = os.path.join(str(tmp_path), "problem.json")
        save_problem(problem, path, weight_name="one")
        rc = run(["solve", "--problem", path, "--out", out])
        assert rc == 1
        doc = manifest_of(out, "solution")
        assert doc["reports"]["solver"]["converged"] is False
        assert not check_map(doc)["solver_residual"]["passed"]


class TestVerify:
    def test_boosted_document_verifies_without_an_anchor(self, tmp_path):
        # no fixture name, so no anchor is recovered and no quadric checked
        out = str(tmp_path)
        assert run(["verify", "--input", boosted_document(out), "--out", out]) == 0
        checks = check_map(manifest_of(out, "verify"))
        assert "quadric_residual" not in checks
        assert checks["data_nonvanishing"]["passed"] and checks["liu_condition4"]["passed"]

    @pytest.mark.parametrize("given", [[], ["--family", "elliptic"], ["--parameter", "0.5"]])
    def test_against_needs_family_and_parameter(self, tmp_path, given):
        out = str(tmp_path)
        assert run(["generate", "--fixture", "sigma-theta", "--grid", "-2:2:-2:2:9x9",
                    "--out", out]) == 0
        patch = os.path.join(out, "patch.json")
        assert run(["verify", "--input", patch, "--against", patch] + given
                   + ["--out", out, "--name", "v"]) == 1
        assert ("--against, --family and --parameter are required for the congruence check"
                in failed_run(out, "v")["error"])

    @pytest.mark.parametrize("given,named", [
        (["--family", "elliptic"], "--family needs --against"),
        (["--parameter", "0.5"], "--parameter needs --against"),
        (["--family", "elliptic", "--parameter", "0.5"], "--family / --parameter needs --against"),
    ])
    @pytest.mark.parametrize("kind", ["data", "patch"])
    def test_congruence_flags_without_against_are_refused(self, tmp_path, given, named, kind):
        # refused before any payload is read: the input's payloads are gone
        out = str(tmp_path)
        assert run(["generate", "--fixture", "sigma-theta", "--grid", "-2:2:-2:2:9x9",
                    "--out", out]) == 0
        for name in os.listdir(out):
            if name.endswith(".csv"):
                os.remove(os.path.join(out, name))
        path = os.path.join(out, "patch.data.json" if kind == "data" else "patch.json")
        assert run(["verify", "--input", path] + given + ["--out", out, "--name", "v"]) == 1
        doc = failed_run(out, "v")
        assert named in doc["error"] and doc["checks"] == []

    @pytest.mark.parametrize("anchor", ["0,0,0,0", "nan"])
    def test_anchor_with_a_patch_manifest_is_refused(self, tmp_path, anchor):
        out = str(tmp_path)
        assert run(["generate", "--fixture", "sigma-theta", "--grid", "-2:2:-2:2:9x9",
                    "--out", out]) == 0
        patch = os.path.join(out, "patch.json")
        assert run(["verify", "--input", patch, "--anchor", anchor,
                    "--out", out, "--name", "v"]) == 1
        doc = failed_run(out, "v")
        assert "--anchor needs a data document" in doc["error"] and doc["checks"] == []
        # a data document still takes it
        assert run(["verify", "--input", os.path.join(out, "patch.data.json"),
                    "--anchor", "0,0,0,0", "--out", out, "--name", "d"]) == 0

    @pytest.mark.parametrize("rep", ["first", "second", "third"])
    def test_rep_with_a_patch_manifest_is_refused(self, tmp_path, rep):
        # refused before any payload is read: the manifest's payloads are gone
        out = str(tmp_path)
        assert run(["generate", "--fixture", "sigma-theta", "--grid", "-2:2:-2:2:9x9",
                    "--out", out]) == 0
        assert run(["verify", "--input", os.path.join(out, "patch.json"),
                    "--out", out, "--name", "p"]) == 0
        assert manifest_of(out, "p")["inputs"]["rep"] is None
        assert run(["verify", "--input", os.path.join(out, "patch.data.json"),
                    "--out", out, "--name", "d"]) == 0
        assert manifest_of(out, "d")["inputs"]["rep"] == "second"
        for name in os.listdir(out):
            if name.startswith("patch.x"):
                os.remove(os.path.join(out, name))
        assert run(["verify", "--input", os.path.join(out, "patch.json"), "--rep", rep,
                    "--out", out, "--name", "v"]) == 1
        doc = failed_run(out, "v")
        assert "--rep needs a data document" in doc["error"] and "patch.json" in doc["error"]
        assert doc["checks"] == [] and doc["inputs"]["rep"] == rep

    @pytest.mark.parametrize("edit,word", [
        (lambda text: text.replace('"provenance": {', '"provenance": {}, "provenance": {', 1),
         "key 'provenance' appears twice"),
        (lambda text: text.replace('"theta": 0.3', '"theta": NaN', 1), "NaN is not strict JSON"),
    ], ids=["repeated-provenance", "nan-theta"])
    def test_a_document_that_is_not_strict_json_fails_with_manifest(self, tmp_path, edit, word):
        # json.load keeps the last of two keys, so the repeat alone would
        # verify, with the fixture anchor of the provenance written second
        out = str(tmp_path)
        fx = fixture_sigma_theta(0.3, grid=Grid2D(-2.0, 2.0, -2.0, 2.0, 9, 9))
        path = os.path.join(out, "doc.data.json")
        save_data(fx.data, path)
        with open(path) as fh:
            text = fh.read()
        with open(path, "w") as fh:
            fh.write(edit(text))
        assert run(["verify", "--input", path, "--out", out]) == 1
        error = failed_run(out, "verify")["error"]
        assert "doc.data.json" in error and word in error

    @pytest.mark.parametrize("raw", [b'{"format": "mtsurf-patch", ',
                                     b'\xff\xfe{"format": "mtsurf-patch"}'])
    def test_a_file_that_is_not_json_fails_with_a_manifest_naming_it(self, tmp_path, raw):
        # a truncated document and one that is not UTF-8 (a UTF-16 byte order mark)
        out = str(tmp_path)
        path = os.path.join(out, "broken.json")
        with open(path, "wb") as fh:
            fh.write(raw)
        assert run(["verify", "--input", path, "--out", out]) == 1
        assert "broken.json" in failed_run(out, "verify")["error"]

    def test_data_document_auto_checks(self, tmp_path):
        out = str(tmp_path)
        fx = fixture_sigma_theta(0.0, grid=Grid2D(-2.0, 2.0, -2.0, 2.0, 17, 17))
        path = os.path.join(out, "sigma.data.json")
        save_data(fx.data, path)
        rc = run(["verify", "--input", path, "--out", out])
        assert rc == 0
        doc = manifest_of(out, "verify")
        assert [c["name"] for c in doc["checks"]] == [
            "data_nonvanishing", "data_holomorphic", "data_compatible", "data_immersion",
            "conformality", "mean_null", "gauss_tangency", "gauss_null", "conformal_min",
            "metric_agreement", "coordinate_identity", "loop_residual", "liu_condition4"]
        assert set(doc["reports"]) == {"mean_curvature", "liu"}
        assert set(doc["reports"]["liu"]) == {"condition4", "masked_fraction"}
        assert "checks" not in doc["inputs"] and "resolved_checks" not in doc["inputs"]

    def test_non_finite_payload_fails_with_strict_manifest(self, tmp_path):
        out = str(tmp_path)
        fx = fixture_sigma_theta(0.0, grid=Grid2D(-2.0, 2.0, -2.0, 2.0, 9, 9))
        path = os.path.join(out, "sigma.data.json")
        save_data(fx.data, path)
        height = os.path.join(out, "sigma.data.height.csv")
        with open(height) as fh:
            lines = fh.read().splitlines()
        u, v, _, im = lines[20].split(",")
        lines[20] = ",".join((u, v, "nan", im))
        with open(height, "w") as fh:
            fh.write("\n".join(lines) + "\n")
        rc = run(["verify", "--input", path, "--out", out, "--name", "nan"])
        assert rc == 1

        def reject(token):
            raise ValueError("non-standard JSON constant %s" % token)

        with open(os.path.join(out, "nan.manifest.json")) as fh:
            doc = json.load(fh, parse_constant=reject)
        assert doc["passed"] is False
        assert "sigma.data.height.csv" in doc["error"]
        assert "line 21" in doc["error"]

    def test_foreign_payload_header_fails_with_manifest(self, tmp_path):
        out = str(tmp_path)
        fx = fixture_sigma_theta(0.0, grid=Grid2D(-2.0, 2.0, -2.0, 2.0, 9, 9))
        path = os.path.join(out, "sigma.data.json")
        save_data(fx.data, path)
        height = os.path.join(out, "sigma.data.height.csv")
        with open(height) as fh:
            lines = fh.read().splitlines()
        with open(height, "w") as fh:
            fh.write("\n".join(["x,y,z,w"] + lines[1:]) + "\n")
        assert run(["verify", "--input", path, "--out", out, "--name", "foreign"]) == 1
        error = failed_run(out, "foreign")["error"]
        assert "sigma.data.height.csv" in error and "u,v,re,im" in error

    def test_quadric_check_recovers_fixture_anchor(self, tmp_path):
        out = str(tmp_path)
        fx = fixture_sigma_theta(0.0, grid=Grid2D(-2.0, 2.0, -2.0, 2.0, 17, 17))
        path = os.path.join(out, "sigma.data.json")
        save_data(fx.data, path)
        rc = run(["verify", "--input", path, "--quadric-constant", "-1.0",
                  "--out", out, "--name", "quad"])
        assert rc == 0
        auto = check_map(manifest_of(out, "quad"))["quadric_residual"]
        assert auto["passed"]
        # recovery must reproduce the anchor the fixture would use, so the
        # residual matches an explicit --anchor run bit for bit
        anchor = ",".join(repr(x) for x in fx.expected["anchor"])
        rc = run(["verify", "--input", path, "--quadric-constant", "-1.0",
                  "--anchor", anchor, "--out", out, "--name", "quadx"])
        assert rc == 0
        explicit = check_map(manifest_of(out, "quadx"))["quadric_residual"]
        assert explicit["value"] == auto["value"]

    def test_patch_manifest_checks(self, tmp_path):
        out = str(tmp_path)
        rc = run(["generate", "--fixture", "sigma-theta", "--theta", "0.0",
                  "--grid", "-2:2:-2:2:17x17", "--out", out, "--name", "patch"])
        assert rc == 0
        patch_json = os.path.join(out, "patch.json")
        rc = run(["verify", "--input", patch_json, "--out", out,
                  "--name", "vpatch"])
        assert rc == 0
        invariants = ["conformality", "mean_null", "gauss_tangency", "gauss_null",
                      "conformal_min", "loop_residual"]
        assert [c["name"] for c in manifest_of(out, "vpatch")["checks"]] == \
            invariants + ["liu_condition4"]

        rc = run(["verify", "--input", patch_json, "--against", patch_json,
                  "--family", "elliptic", "--parameter", "0.0",
                  "--out", out, "--name", "vcong"])
        assert rc == 0
        checks = check_map(manifest_of(out, "vcong"))
        assert checks["congruence_residual"]["value"] == 0.0

        rc = run(["verify", "--input", patch_json, "--quadric-constant", "-1.0",
                  "--against", patch_json, "--family", "elliptic", "--parameter", "0.0",
                  "--out", out, "--name", "vboth"])
        assert rc == 0
        doc = manifest_of(out, "vboth")
        assert [c["name"] for c in doc["checks"]] == invariants + [
            "quadric_residual", "liu_condition4", "congruence_residual"]
        assert set(doc["reports"]) == {"mean_curvature", "liu", "congruence"}

    def test_checks_switch_is_a_usage_error(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            run(["verify", "--input", "p.json", "--checks", "invariants",
                 "--out", str(tmp_path)])
        assert exc.value.code == 2

    def test_missing_input_fails_with_manifest(self, tmp_path):
        out = str(tmp_path)
        missing = os.path.join(out, "absent.json")
        rc = run(["verify", "--input", missing, "--out", out])
        assert rc == 1
        assert "absent.json" in failed_run(out, "verify")["error"]

    def test_grid_lacking_a_key_fails_with_manifest(self, tmp_path):
        out = str(tmp_path)
        fx = fixture_sigma_theta(0.0, grid=Grid2D(-2.0, 2.0, -2.0, 2.0, 9, 9))
        path = os.path.join(out, "sigma.data.json")
        save_data(fx.data, path)
        with open(path) as fh:
            doc = json.load(fh)
        del doc["grid"]["n_v"]
        with open(path, "w") as fh:
            json.dump(doc, fh)
        rc = run(["verify", "--input", path, "--out", out])
        assert rc == 1
        assert "n_v" in failed_run(out, "verify")["error"]

    @pytest.mark.parametrize("kind,key,value", [
        ("data", "grid", 5), ("data", "fields", []), ("patch", "fields", []),
        ("data", "provenance", [1, 2]), ("data", "provenance", "x"),
        ("data", "provenance", 3), ("data", "kind", ["second"]),
    ], ids=["data-grid", "data-fields", "patch-fields", "data-provenance-list",
            "data-provenance-string", "data-provenance-number", "data-kind-list"])
    def test_malformed_document_entry_fails_with_manifest(self, tmp_path, kind, key, value):
        out = str(tmp_path)
        if kind == "data":
            fx = fixture_sigma_theta(0.0, grid=Grid2D(-2.0, 2.0, -2.0, 2.0, 9, 9))
            path = os.path.join(out, "doc.json")
            save_data(fx.data, path)
        else:
            assert run(["generate", "--fixture", "catenoid-r3", "--grid", "-1:1:-1:1:9x9",
                        "--out", out, "--name", "doc"]) == 0
            path = os.path.join(out, "doc.json")
        with open(path) as fh:
            doc = json.load(fh)
        doc[key] = value
        with open(path, "w") as fh:
            json.dump(doc, fh)
        assert run(["verify", "--input", path, "--out", out]) == 1
        error = failed_run(out, "verify")["error"]
        assert "doc.json" in error and key in error

    @pytest.mark.parametrize("theta", [[0.3], "0.3", None])
    def test_mistyped_fixture_parameter_fails_with_manifest(self, tmp_path, theta):
        # the anchor of fixture data is rebuilt from its provenance
        out = str(tmp_path)
        fx = fixture_sigma_theta(0.3, grid=Grid2D(-2.0, 2.0, -2.0, 2.0, 9, 9))
        path = os.path.join(out, "doc.json")
        save_data(fx.data, path)
        with open(path) as fh:
            doc = json.load(fh)
        doc["provenance"]["theta"] = theta
        with open(path, "w") as fh:
            json.dump(doc, fh)
        assert run(["verify", "--input", path, "--out", out]) == 1
        error = failed_run(out, "verify")["error"]
        assert "doc.json" in error and "'theta'" in error

    def test_escaping_payload_fails_with_manifest(self, tmp_path):
        # the payloads of a valid document in a sibling directory, reached
        # through "../": readable, but outside the document's directory
        out = str(tmp_path / "docs")
        fx = fixture_sigma_theta(0.0, grid=Grid2D(-2.0, 2.0, -2.0, 2.0, 17, 17))
        src = str(tmp_path / "secret")
        os.mkdir(src)
        save_data(fx.data, os.path.join(src, "src.data.json"))
        with open(os.path.join(src, "src.data.json")) as fh:
            doc = json.load(fh)
        for ref in doc["fields"].values():
            ref["file"] = "../secret/" + ref["file"]
        os.mkdir(out)
        path = os.path.join(out, "evil.data.json")
        with open(path, "w") as fh:
            json.dump(doc, fh)
        rc = run(["verify", "--input", path, "--out", out])
        assert rc == 1
        error = failed_run(out, "verify")["error"]
        assert "evil.data.json" in error and "'holo'" in error

    def test_foreign_json_rejected(self, tmp_path):
        out = str(tmp_path)
        path = os.path.join(out, "foreign.json")
        with open(path, "w") as fh:
            json.dump({"format": "unknown"}, fh)
        rc = run(["verify", "--input", path, "--out", out])
        assert rc == 1
        assert "neither" in manifest_of(out, "verify")["error"]

    def test_non_object_json_rejected(self, tmp_path):
        out = str(tmp_path)
        path = os.path.join(out, "list.json")
        with open(path, "w") as fh:
            json.dump([1, 2], fh)
        rc = run(["verify", "--input", path, "--out", out])
        assert rc == 1
        assert "neither" in failed_run(out, "verify")["error"]


#: family -> (the kind it deforms, its parameter)
_DEFORMS = {"parabolic": ("first", 0.5), "elliptic": ("second", 0.8),
            "hyperbolic": ("first", 0.6)}


@pytest.fixture(scope="module")
def against_inputs(tmp_path_factory):
    """(base patch manifest, deformed patch manifest) of sigma-theta at
    theta 0.3 on an n x n grid, per (n, family), written once."""
    made = {}

    def inputs(n, family):
        if (n, family) not in made:
            out = str(tmp_path_factory.mktemp("against%d-%s" % (n, family)))
            fx = fixture_sigma_theta(0.3, grid=Grid2D(-2.0, 2.0, -2.0, 0.0, n, n))
            kind, param = _DEFORMS[family]
            base = weierstrass._as_kind(fx.data, kind)
            deformed = getattr(weierstrass, "deform_" + family)(base, param)
            represent = getattr(surfaces, "represent_" + kind)
            paths = (os.path.join(out, "base.json"), os.path.join(out, "deformed.json"))
            save_patch_manifest(represent(base, anchor=fx.expected["anchor"]), paths[0])
            save_patch_manifest(represent(deformed), paths[1])
            made[n, family] = paths
        return made[n, family]

    return inputs


class TestAgainstCoordinates:
    """``verify --against`` reads the four coordinates of the second
    manifest, not a patch, and reports what the library's congruence check
    of the two reloaded patches reports."""

    @pytest.mark.parametrize("n", [33, 129])
    @pytest.mark.parametrize("family", sorted(_DEFORMS))
    def test_report_is_the_library_check_bit_for_bit(self, tmp_path, against_inputs, n,
                                                     family):
        base, deformed = against_inputs(n, family)
        param = _DEFORMS[family][1]
        out = str(tmp_path)
        run(["verify", "--input", base, "--against", deformed, "--family", family,
             "--parameter", repr(param), "--out", out])
        doc = manifest_of(out, "verify")
        want = surfaces.verify_congruence(load_patch_manifest(base)[0],
                                          load_patch_manifest(deformed)[0],
                                          rotation(family, param))
        got = doc["reports"]["congruence"]
        for key in ("residual", "tol", "passed", "translation"):
            assert got[key] == want[key], key
        assert check_map(doc)["congruence_residual"]["value"] == want["residual"]
        assert want["passed"]

    def test_the_congruence_gate_fails_on_a_patch_not_so_rotated(self, tmp_path):
        # the gate's negative control: a patch against itself under a
        # nontrivial rotation
        out = str(tmp_path)
        assert run(["generate", "--fixture", "sigma-theta", "--grid", "-2:2:-2:2:17x17",
                    "--out", out]) == 0
        patch = os.path.join(out, "patch.json")
        assert run(["verify", "--input", patch, "--against", patch, "--family", "elliptic",
                    "--parameter", "0.5", "--out", out, "--name", "v"]) == 1
        doc = failed_run(out, "v")
        checks = check_map(doc)
        assert doc["error"] is None and not checks["congruence_residual"]["passed"]
        assert all(c["passed"] for name, c in checks.items() if name != "congruence_residual")

    @staticmethod
    def broken(out, case):
        """A copy of the 9x9 patch manifest in ``out`` broken as ``case``
        says, in a directory of its own; returns its path and a word the
        refusal must hold."""
        src, tree = os.path.join(out, "patch.json"), os.path.join(out, case)
        os.makedirs(tree)
        with open(src) as fh:
            doc = json.load(fh)
        for k in range(1, 5):
            name = "patch.x%d.csv" % k
            with open(os.path.join(out, name)) as fi, open(os.path.join(tree, name), "w") as fo:
                fo.write(fi.read())
        word = "patch.json"
        if case == "format":
            doc["format"] = "mtsurf-data"
            word = "patch manifest"
        elif case == "stray":
            doc["grid"]["n_w"] = 9
            word = "unknown key 'n_w'"
        elif case == "escape":
            doc["fields"]["x1"]["file"] = "../patch.x1.csv"
            word = "not a plain file name"
        elif case == "nan":
            with open(os.path.join(tree, "patch.x2.csv")) as fh:
                lines = fh.read().splitlines()
            u, v, _, im = lines[5].split(",")
            lines[5] = ",".join((u, v, "nan", im))
            with open(os.path.join(tree, "patch.x2.csv"), "w") as fh:
                fh.write("\n".join(lines) + "\n")
            word = "non-finite"
        path = os.path.join(tree, "patch.json")
        with open(path, "w") as fh:
            json.dump(doc, fh)
        return path, word

    @pytest.mark.parametrize("case", ["format", "stray", "escape", "nan", "grid"])
    def test_a_broken_against_document_is_refused(self, tmp_path, case):
        out = str(tmp_path)
        assert run(["generate", "--fixture", "sigma-theta", "--grid", "-2:2:-2:2:9x9",
                    "--out", out]) == 0
        if case == "grid":
            other = os.path.join(out, "other")
            assert run(["generate", "--fixture", "sigma-theta", "--grid", "-2:2:-2:2:11x9",
                        "--out", other]) == 0
            against, word = os.path.join(other, "patch.json"), "both patches on one grid"
        else:
            against, word = self.broken(out, case)
        assert run(["verify", "--input", os.path.join(out, "patch.json"), "--against",
                    against, "--family", "elliptic", "--parameter", "0",
                    "--out", out, "--name", "v"]) == 1
        doc = failed_run(out, "v")
        assert word in doc["error"]
        assert case == "grid" or against in doc["error"]
        assert "congruence_residual" not in check_map(doc)


def test_repeated_runs_are_deterministic(tmp_path):
    args = ["generate", "--fixture", "sigma-theta", "--theta", "0.392699",
            "--grid", "-2:2:-2:2:17x17", "--name", "patch"]
    outs = []
    for tag in ("a", "b"):
        out = os.path.join(str(tmp_path), tag)
        assert run(args + ["--out", out]) == 0
        outs.append(out)

    names = sorted(os.listdir(outs[0]))
    assert names == sorted(os.listdir(outs[1]))
    for name in names:
        a, b = (os.path.join(o, name) for o in outs)
        if name.endswith(".manifest.json"):
            da, db = (manifest_of(o, name[:-len(".manifest.json")]) for o in outs)
            da.pop("wall_time_s"), db.pop("wall_time_s")
            assert da == db
        else:
            with open(a, "rb") as fa, open(b, "rb") as fb:
                assert fa.read() == fb.read(), name


def test_run_manifest_is_the_same_wherever_the_inputs_live(tmp_path):
    # one input tree under two roots of different path lengths, named by
    # absolute paths: the manifests record input files relative to
    # themselves, so they agree but for the wall time
    src = str(tmp_path / "src")
    assert run(["generate", "--fixture", "sigma-theta", "--grid", "-2:2:-2:2:9x9",
                "--out", src]) == 0
    docs = []
    for root in (tmp_path / "a", tmp_path / "a-much-longer-root"):
        tree = str(root / "in")
        os.makedirs(tree)
        for name in os.listdir(src):
            with open(os.path.join(src, name), "rb") as fi, \
                    open(os.path.join(tree, name), "wb") as fo:
                fo.write(fi.read())
        out = str(root / "out")
        patch = os.path.join(tree, "patch.json")
        assert run(["verify", "--input", patch, "--against", patch, "--family",
                    "elliptic", "--parameter", "0", "--out", out]) == 0
        doc = manifest_of(out, "verify")
        doc.pop("wall_time_s")
        docs.append(doc)
    assert docs[0] == docs[1]
    assert docs[0]["inputs"]["input"] == os.path.join("..", "in", "patch.json")
    assert docs[0]["inputs"]["against"] == docs[0]["inputs"]["input"]


_COLD_START = r"""
import json, os, sys
from mtsurf import cli

out, problem = sys.argv[1:]
grid = "--grid=-2:2:-2:2:17x17"
codes = [cli.main(argv) for argv in (
    ["generate", "--fixture", "sigma-theta", grid, "--out", out],
    ["deform", "--fixture", "sigma-theta", grid, "--family", "elliptic",
     "--parameter", "0.5", "--out", out],
    ["verify", "--input", os.path.join(out, "patch.data.json"), "--out", out,
     "--name", "data"],
    ["verify", "--input", os.path.join(out, "patch.json"), "--out", out,
     "--name", "patch-manifest"],
)]
before = sorted(m for m in sys.modules if m.split(".")[0] == "scipy")
codes.append(cli.main(["solve", "--problem", problem, "--out", out]))
print(json.dumps({"codes": codes, "scipy_before_solve": before,
                  "fft_after_solve": "scipy.fft" in sys.modules}))
"""


def test_only_the_solve_imports_scipy(tmp_path):
    """A fresh process that generates, deforms and verifies never loads
    scipy; a solve loads its transform."""
    problem = os.path.join(str(tmp_path), "problem.json")
    with open(problem, "w") as fh:
        json.dump({"format": "mtsurf-problem", "version": 1,
                   "grid": {"u_min": -1.0, "u_max": 1.0, "v_min": -1.0,
                            "v_max": 1.0, "n_u": 17, "n_v": 17},
                   "weight": {"kind": "named", "name": "re-exp-iz"},
                   "source": {"kind": "named", "name": "exp-v-cosh-u"},
                   "boundary": {"kind": "named", "name": "sinh-u-sin-u"}}, fh)
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    proc = subprocess.run(
        [sys.executable, "-c", _COLD_START, os.path.join(str(tmp_path), "out"), problem],
        env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["codes"] == [0] * 5
    assert result["scipy_before_solve"] == []
    assert result["fft_after_solve"] is True


class TestCertifiedOnce:
    """Every triple a command builds is certified exactly once."""

    @pytest.fixture
    def certified(self, monkeypatch):
        seen = []           # the triples themselves, so their ids stay distinct
        real = weierstrass._certify

        def counting(kind, holo, a, b, *args, **kwargs):
            seen.append((kind, holo, a, b))
            return real(kind, holo, a, b, *args, **kwargs)

        for module in (weierstrass, surfaces, cli):
            if hasattr(module, "_certify"):
                monkeypatch.setattr(module, "_certify", counting)
        return seen

    @staticmethod
    def data_document(tmp_path):
        fx = fixture_sigma_theta(0.3, grid=Grid2D(-2.0, 2.0, -2.0, 2.0, 17, 17))
        path = os.path.join(str(tmp_path), "in.data.json")
        save_data(fx.data, path)
        return path

    @staticmethod
    def assert_each_once(seen, count):
        ids = [tuple(id(x) for x in triple[1:]) + (triple[0],) for triple in seen]
        assert len(set(ids)) == len(ids), "a triple was certified twice"
        assert len(seen) == count

    FIXTURE = ["--fixture", "sigma-theta", "--theta", "0.3", "--grid", "-2:2:-2:2:17x17"]

    @pytest.mark.parametrize("family,count", [("parabolic", 3), ("elliptic", 2),
                                              ("hyperbolic", 3)])
    def test_deform(self, tmp_path, certified, family, count):
        rc = run(["deform"] + self.FIXTURE + ["--family", family, "--parameter", "0.5",
                                              "--out", str(tmp_path)])
        assert rc == 0
        self.assert_each_once(certified, count)

    @pytest.mark.parametrize("source", ["fixture", "data"])
    @pytest.mark.parametrize("rep,count", [("first", 2), ("second", 1), ("third", 2)])
    def test_generate(self, tmp_path, certified, source, rep, count):
        args = self.FIXTURE if source == "fixture" else [
            "--data", self.data_document(tmp_path)]
        run(["generate"] + args + ["--rep", rep, "--out", str(tmp_path)])
        self.assert_each_once(certified, count)

    @pytest.mark.parametrize("rep,count", [("first", 2), ("second", 1), ("third", 2)])
    def test_verify_data_document(self, tmp_path, certified, rep, count):
        path = self.data_document(tmp_path)
        run(["verify", "--input", path, "--rep", rep, "--out", str(tmp_path)])
        self.assert_each_once(certified, count)

    def test_solve_generate(self, tmp_path, certified):
        path = TestSolve().descriptor(tmp_path, n=17)
        assert run(["solve", "--problem", path, "--generate", "--out", str(tmp_path)]) == 0
        self.assert_each_once(certified, 1)


class TestTolExact:
    """The table's TOL_EXACT is the exact cap of every check in a run, the
    data certifications and the cores' loop caps included; the command line
    cannot set it."""

    GRID = ["--fixture", "sigma-theta", "--grid", "-2:2:-2:2:17x17"]

    def test_reaches_the_data_certification(self, tmp_path, monkeypatch):
        monkeypatch.setattr(tolerances, "TOL_EXACT", 1e-20)
        assert run(["generate"] + self.GRID + ["--out", tmp_path]) == 1
        doc = failed_run(str(tmp_path), "patch")
        checks = check_map(doc)
        assert checks["data_holomorphic"]["threshold"] == 1e-20
        assert checks["data_compatible"]["threshold"] == 1e-20
        assert "compatible   FAIL" in doc["error"]

    def test_default_is_unchanged(self, tmp_path):
        assert run(["generate"] + self.GRID + ["--out", tmp_path]) == 0
        checks = check_map(manifest_of(str(tmp_path), "patch"))
        for name in ("data_holomorphic", "data_compatible", "conformality", "loop_residual"):
            assert checks[name]["threshold"] == 1e-8

    @pytest.mark.parametrize("flag", ["--tol-exact", "--eps-zero", "--eps-immersion"])
    @pytest.mark.parametrize("argv", [
        ["generate", "--fixture", "sigma-theta"],
        ["deform", "--fixture", "sigma-theta", "--family", "elliptic", "--parameter", "0.5"],
        ["solve", "--problem", "problem.json"],
        ["verify", "--input", "patch.json"],
    ], ids=lambda argv: argv[0])
    def test_no_flag_sets_a_cap_or_floor(self, tmp_path, capsys, argv, flag):
        out = os.path.join(str(tmp_path), "out")
        with pytest.raises(SystemExit) as exc:
            run(argv + [flag, "1e-20", "--out", out])
        assert exc.value.code == 2
        assert "unrecognized arguments: %s" % flag in capsys.readouterr().err
        assert not os.path.exists(out)


class TestMemoryError:
    # the dependency raises at once: nothing large is ever allocated
    @pytest.mark.parametrize("exc, text", [
        (MemoryError(), "MemoryError"),
        (MemoryError("Unable to allocate 7.63 TiB for an array"),
         "Unable to allocate 7.63 TiB for an array"),
    ])
    def test_generate_ends_in_a_manifest(self, tmp_path, monkeypatch, exc, text):
        def exhausted(*args, **kwargs):
            raise exc

        monkeypatch.setattr(cli, "represent_second", exhausted)
        out = str(tmp_path)
        rc = run(["generate", "--fixture", "sigma-theta", "--grid", "-2:2:-2:2:9x9",
                  "--out", out, "--name", "oom"])
        assert rc == 1
        doc = failed_run(out, "oom")
        assert doc["error"] == text
        assert sorted(os.listdir(out)) == ["oom.manifest.json"]

    def test_verify_ends_in_a_manifest(self, tmp_path, monkeypatch):
        def exhausted(path, doc):
            raise MemoryError()

        monkeypatch.setattr(cli, "_patch_from_document", exhausted)
        out = str(tmp_path)
        doc_path = os.path.join(out, "patch.json")
        with open(doc_path, "w") as fh:
            # the table's required keys; the stub loader reads no payload
            json.dump({"format": "mtsurf-patch", "grid": Grid2D(-1.0, 1.0, -1.0, 1.0, 9, 9)
                       .to_dict(), "fields": {}}, fh)
        assert run(["verify", "--input", doc_path, "--out", out, "--name", "oom"]) == 1
        assert failed_run(out, "oom")["error"] == "MemoryError"


class TestStrictManifest:
    def test_non_finite_check_value_is_a_string_and_fails(self, tmp_path):
        manifest = cli.RunManifest("generate", {}, {"tol_exact": float("inf")})
        manifest.add_check("nan_residual", float("nan"), 1.0)
        manifest.add_check("inf_minimum", float("inf"), 0.0, "min_above")
        manifest.add_check("finite", 0.5, 1.0)
        manifest.reports["solver"] = {"residual_max": np.float64("nan")}
        manifest.save(os.path.join(str(tmp_path), "run.manifest.json"))
        doc = failed_run(str(tmp_path), "run")
        checks = check_map(doc)
        assert checks["nan_residual"]["value"] == "nan"
        assert checks["inf_minimum"]["value"] == "inf"
        assert not checks["nan_residual"]["passed"] and not checks["inf_minimum"]["passed"]
        assert checks["finite"]["passed"]
        assert doc["tolerances"]["tol_exact"] == "inf"
        assert doc["reports"]["solver"]["residual_max"] == "nan"


class TestNonFiniteInputs:
    """A nan numeric input ends the run in a manifest whose error names its
    flag."""

    GRID = ["--grid", "-2:2:-2:2:9x9"]

    def refused(self, out, argv, flag):
        assert run(argv + ["--out", out, "--name", "run"]) == 1
        doc = failed_run(out, "run")
        assert flag in doc["error"] and "finite" in doc["error"]

    @pytest.fixture
    def saved(self, tmp_path):
        out = str(tmp_path)
        assert run(["generate", "--fixture", "sigma-theta"] + self.GRID
                   + ["--out", out, "--name", "patch"]) == 0
        return out

    @pytest.mark.parametrize("anchor", ["nan,0,0,0", "a,0,0,0", "1,2,3"])
    def test_anchor(self, saved, anchor):
        self.refused(saved, ["verify", "--input", os.path.join(saved, "patch.data.json"),
                             "--anchor", anchor], "--anchor")

    def test_quadric_constant(self, saved):
        self.refused(saved, ["verify", "--input", os.path.join(saved, "patch.json"),
                             "--quadric-constant", "nan"], "--quadric-constant")

    def test_verify_parameter(self, saved):
        patch = os.path.join(saved, "patch.json")
        self.refused(saved, ["verify", "--input", patch, "--against", patch,
                             "--family", "elliptic", "--parameter", "nan"], "--parameter")

    def test_deform_parameter(self, tmp_path):
        self.refused(str(tmp_path), ["deform", "--fixture", "sigma-theta"] + self.GRID
                     + ["--family", "elliptic", "--parameter", "nan"], "--parameter")

    def test_alpha(self, tmp_path):
        self.refused(str(tmp_path), ["generate", "--fixture", "two-param", "--alpha", "nan"]
                     + self.GRID, "--alpha")


def test_an_infinite_certificate_value_fails_in_the_report_too(tmp_path):
    # at eta = 1e6 e^eta overflows: the deform refuses the rapidity before it
    # builds inf data, so no deformed certificate is made (that a certificate
    # fails on an infinite value is tested on _certify in test_weierstrass)
    out = str(tmp_path)
    rc = run(["deform", "--fixture", "sigma-theta", "--grid", "-2:2:-2:2:9x9",
              "--family", "hyperbolic", "--parameter", "1e6", "--out", out, "--name", "d"])
    assert rc == 1
    doc = failed_run(out, "d")
    assert "(--parameter) scales the data out of the float range" in doc["error"]
    assert not any(c["name"].startswith("deformed_") for c in doc["checks"])


@pytest.mark.parametrize("eta", ["400", "-1e6"])
def test_an_overflowing_hyperbolic_rapidity_is_refused(tmp_path, eta):
    # past e^eta overflowing (1e6, above): e^eta squares out of range in the
    # coupling weight (400), or underflows to 0 so that e^-eta divides by
    # zero (-1e6); each ends in a manifest that names the option, with
    # numeric warnings as errors (the tests' warning policy)
    out = str(tmp_path)
    rc = run(["deform", "--fixture", "sigma-theta", "--grid", "-2:2:-2:2:9x9",
              "--family", "hyperbolic", "--parameter=" + eta, "--out", out, "--name", "d"])
    assert rc == 1
    assert "--parameter" in failed_run(out, "d")["error"]


@pytest.mark.parametrize("command", ["generate", "verify", "solve"])
def test_an_overflowing_grid_span_is_refused(tmp_path, command):
    # finite bounds whose span u_max - u_min overflows, from --grid, a data
    # document or a problem descriptor: a manifest names the span and
    # nothing else is written
    out = str(tmp_path)
    bounds = {"u_min": -1.7e308, "u_max": 1.7e308, "v_min": -1.0, "v_max": 1.0,
              "n_u": 9, "n_v": 9}
    if command == "generate":
        argv = ["generate", "--fixture", "catenoid-r3", "--grid=-1.7e308:1.7e308:-1:1:9x9"]
    elif command == "verify":
        path = os.path.join(out, "in.data.json")
        save_data(fixture_sigma_theta(0.3, grid=Grid2D(-1.0, 1.0, -1.0, 1.0, 9, 9)).data, path)
        with open(path) as fh:
            doc = json.load(fh)
        doc["grid"] = bounds
        with open(path, "w") as fh:
            json.dump(doc, fh)
        argv = ["verify", "--input", path]
    else:
        path = os.path.join(out, "problem.json")
        with open(path, "w") as fh:
            json.dump({"format": "mtsurf-problem", "version": 1, "grid": bounds,
                       "weight": {"kind": "named", "name": "re-exp-iz"},
                       "source": {"kind": "named", "name": "exp-v-cosh-u"},
                       "boundary": {"kind": "named", "name": "sinh-u-sin-u"}}, fh)
        argv = ["solve", "--problem", path]
    run_dir = os.path.join(out, "run")
    assert run(argv + ["--out", run_dir, "--name", "r"]) == 1
    doc = failed_run(run_dir, "r")
    assert "grid span u_max - u_min" in doc["error"] and "overflows" in doc["error"]
    assert sorted(os.listdir(run_dir)) == ["r.manifest.json"] == doc["artifacts"]


def test_a_grid_whose_nodes_repeat_is_refused(tmp_path):
    # 9 nodes over 2 ulps of 1.0: np.linspace gives 3 distinct u values, on
    # which a written patch reads back with gauss_null at 1.9e33
    out = str(tmp_path)
    assert run(["generate", "--fixture", "catenoid-r3",
                "--grid=1:1.0000000000000004:-1:1:9x9", "--out", out, "--name", "r"]) == 1
    doc = failed_run(out, "r")
    assert "grid nodes along u would repeat" in doc["error"]
    assert sorted(os.listdir(out)) == ["r.manifest.json"] == doc["artifacts"]


def test_a_node_count_beyond_float_range_is_refused(tmp_path):
    # 400 digits: the step (u_max - u_min) / (n_u - 1) has no float, so the
    # count is refused before the division
    out = str(tmp_path)
    assert run(["generate", "--fixture", "catenoid-r3",
                "--grid=-1:1:-1:1:%sx9" % ("1" * 400), "--out", out, "--name", "r"]) == 1
    doc = failed_run(out, "r")
    assert "grid nodes along u would repeat" in doc["error"]
    assert sorted(os.listdir(out)) == ["r.manifest.json"] == doc["artifacts"]


@pytest.mark.parametrize("command", ["generate", "solve"])
def test_a_closed_form_that_overflows_on_the_grid_is_refused(tmp_path, command):
    # a finite span far out, where cosh u overflows in a chart coordinate
    # (generate) or a named Poisson field (solve): a manifest names the
    # closed form's first non-finite node and nothing else is written
    out = str(tmp_path)
    if command == "generate":
        argv = ["generate", "--fixture", "catenoid-r3", "--grid=1e300:1.1e300:-1:1:9x9"]
    else:
        path = os.path.join(out, "problem.json")
        with open(path, "w") as fh:
            json.dump({"format": "mtsurf-problem", "version": 1,
                       "grid": {"u_min": 1e300, "u_max": 1.1e300, "v_min": -1.0,
                                "v_max": 1.0, "n_u": 9, "n_v": 9},
                       "weight": {"kind": "named", "name": "re-exp-iz"},
                       "source": {"kind": "named", "name": "exp-v-cosh-u"},
                       "boundary": {"kind": "named", "name": "sinh-u-sin-u"}}, fh)
        argv = ["solve", "--generate", "--problem", path]
    run_dir = os.path.join(out, "run")
    assert run(argv + ["--out", run_dir, "--name", "r"]) == 1
    doc = failed_run(run_dir, "r")
    assert "RealField closed form is " in doc["error"]
    assert "at (u,v)=(1.0000000000000001e+300, -1)" in doc["error"]
    assert sorted(os.listdir(run_dir)) == ["r.manifest.json"] == doc["artifacts"]


@pytest.mark.parametrize("command", ["generate", "deform"])
@pytest.mark.parametrize("bounds", ["800:900", "1e300:1.1e300"])
def test_a_far_sigma_theta_grid_is_refused_with_a_manifest(tmp_path, command, bounds):
    # the domain guard's cosh u overflows past |u| = 710, far from zero: the
    # guard passes the grid and sampling names the first non-finite closed form
    argv = [command, "--fixture", "sigma-theta", "--grid=%s:-1:1:9x9" % bounds]
    if command == "deform":
        argv += ["--family", "elliptic", "--parameter", "0.5"]
    run_dir = os.path.join(str(tmp_path), "run")
    assert run(argv + ["--out", run_dir, "--name", "r"]) == 1
    doc = failed_run(run_dir, "r")
    assert "RealField closed form is " in doc["error"]
    assert sorted(os.listdir(run_dir)) == ["r.manifest.json"] == doc["artifacts"]


def test_a_manifest_check_is_the_five_keys_of_its_record(tmp_path):
    # each data_ check is the certificate's record under a prefixed name;
    # the record stores no pass bool, the manifest writes the computed one
    out = str(tmp_path)
    assert run(["generate", "--fixture", "sigma-theta", "--grid", "-2:2:-2:2:17x17",
                "--out", out]) == 0
    doc = manifest_of(out, "patch")
    for c in doc["checks"]:
        assert set(c) == {"name", "value", "threshold", "sense", "passed"}, c
    fx = fixture_sigma_theta(0.0, grid=parse_grid_spec("-2:2:-2:2:17x17"))
    report = weierstrass._certificate(fx.data).report
    data = {c["name"]: c for c in doc["checks"] if c["name"].startswith("data_")}
    assert sorted(data) == sorted("data_" + c.name for c in report.checks)
    for c in report.checks:
        entry = data["data_" + c.name]
        assert (entry["value"], entry["threshold"], entry["sense"]) == c[1:4]
        assert entry["passed"] is c.passed is True
    assert "passed" not in weierstrass.CheckResult._fields


def test_fixture_parameters_are_recorded_in_the_manifest(tmp_path):
    out = str(tmp_path)
    grid = ["--grid", "-1:1:-1:1:9x9", "--out", out, "--name"]
    assert run(["generate", "--fixture", "sigma-theta", "--theta", "0.3"] + grid + ["g"]) == 0
    assert manifest_of(out, "g")["inputs"]["theta"] == 0.3
    assert run(["generate", "--fixture", "sigma-theta"] + grid + ["default"]) == 0
    assert manifest_of(out, "default")["inputs"]["theta"] == 0.0    # resolved, not absent
    assert run(["deform", "--fixture", "two-param", "--alpha", "0.3", "--beta", "0.2",
                "--family", "elliptic", "--parameter", "0.5"] + grid + ["d"]) == 0
    inputs = manifest_of(out, "d")["inputs"]
    assert (inputs["alpha"], inputs["beta"]) == (0.3, 0.2)
    assert run(["generate", "--fixture", "catenoid-r3"] + grid + ["c"]) == 0
    assert not {"theta", "alpha", "beta"} & set(manifest_of(out, "c")["inputs"])


@pytest.mark.parametrize("command,axis", [("verify", "u"), ("generate", "v")])
def test_three_nodes_are_too_few_for_finite_differences(tmp_path, command, axis):
    # verify reads a catalog patch back through the chart route, and the
    # certification of a 9x3 data document differentiates it: both take
    # second derivatives by finite differences, whose one-sided edge stencil
    # reads four nodes.  A manifest names the axis; generate refuses a 3x3
    # fixture grid before it writes a patch that verify could not read.
    out = str(tmp_path)
    if command == "verify":
        argv = ["generate", "--fixture", "catenoid-r3", "--grid", "-1:1:-1:1:3x3"]
    else:
        fx = fixture_sigma_theta(0.0, grid=Grid2D(-2.0, 2.0, -2.0, 2.0, 9, 3))
        save_data(fx.data, os.path.join(out, "d.data.json"))
        argv = ["generate", "--data", os.path.join(out, "d.data.json")]
    assert run(argv + ["--out", out, "--name", "r"]) == 1
    assert ("need at least 4 nodes along %s; the grid has 3" % axis
            in failed_run(out, "r")["error"])
    assert not os.path.exists(os.path.join(out, "r.json"))


class TestCapTable:
    """Every capped check of a manifest carries the cap the table gives its
    name on its route, and every table entry caps some check."""

    GRID = "-2:2:-2:2:17x17"

    def assert_caps(self, doc, grid, exact, scale=1.0):
        """``exact``: the route of every check, or the set of the names that
        exact callbacks produced.  Returns the capped names."""
        names = set()
        for c in doc["checks"]:
            if c["sense"] != "max_below" or c["name"] == "solver_residual":
                continue
            name = c["name"]
            if name.startswith(("data_", "deformed_")):
                name = name.split("_", 1)[1]
            assert name in FD_FACTOR or name in FIXED_CAP, name
            route = exact if isinstance(exact, bool) else name in exact
            expected = cap(name, grid, route, scale=scale if name == "quadric_residual" else 1.0)
            assert c["threshold"] == expected, (c, expected)
            names.add(name)
        return names

    def test_every_manifest_check_is_capped_from_the_table(self, tmp_path):
        out = str(tmp_path)
        grid = parse_grid_spec(self.GRID)
        names = set()

        assert run(["generate", "--fixture", "sigma-theta", "--theta", "0.3", "--grid",
                    self.GRID, "--out", out, "--name", "exact"]) == 0
        names |= self.assert_caps(manifest_of(out, "exact"), grid, True)

        for fixture, bounds in (("catenoid-r3", "-2:2:-2:2"),
                                ("hyperbolic-catenoid-l3", "-2:2:-1.4:1.4")):
            spec = bounds + ":17x17"
            assert run(["generate", "--fixture", fixture, "--grid", spec,
                        "--out", out, "--name", fixture]) == 0
            names |= self.assert_caps(manifest_of(out, fixture), parse_grid_spec(spec), True)

        assert run(["deform", "--fixture", "sigma-theta", "--theta", "0.3", "--grid",
                    self.GRID, "--family", "parabolic", "--parameter", "0.5",
                    "--out", out, "--name", "deformed"]) == 0
        names |= self.assert_caps(manifest_of(out, "deformed"), grid, True)

        problem = TestSolve().descriptor(tmp_path)
        assert run(["solve", "--problem", problem, "--generate", "--out", out,
                    "--name", "solved"]) == 0
        # exp(iz) keeps its callbacks; the solved potential is samples only
        names |= self.assert_caps(manifest_of(out, "solved"), parse_grid_spec("-1:1:-1:1:17x17"),
                                  {"holomorphic"})

        patch = os.path.join(out, "exact.json")
        assert run(["verify", "--input", patch, "--quadric-constant",
                    repr(-math.cos(0.6)), "--against", patch, "--family", "elliptic",
                    "--parameter", "0", "--out", out, "--name", "reloaded"]) == 0
        x = load_patch_manifest(patch)[0].x_stack
        names |= self.assert_caps(manifest_of(out, "reloaded"), grid, False,
                                  scale=1.0 + float(np.max(np.sum(x ** 2, axis=0))))

        assert run(["verify", "--input", os.path.join(out, "exact.data.json"), "--out", out,
                    "--name", "reloaded-data"]) == 0
        names |= self.assert_caps(manifest_of(out, "reloaded-data"), grid, False)

        assert names == (set(FD_FACTOR) | set(FIXED_CAP)) - {"slice_x2_constant",
                                                             "slice_x3_constant"}

    def test_cap_rule(self):
        g = Grid2D(0.0, 2.0, 0.0, 1.0, 5, 5)           # h = max(0.5, 0.25)
        assert cap("holomorphic", g, False) == 50.0 * 0.25
        assert cap("liu_condition4", g, False) == 100.0 * 0.25
        assert cap("quadric_residual", g, False, scale=3.0) == 100.0 * 0.25 * 3.0
        assert cap("liu_condition4", g, True) == TOL_EXACT
        assert cap("quadric_residual", g, True) == QUADRIC_TOL
        assert cap("slice_x1_constant", g, False) == QUADRIC_TOL
        assert cap("congruence_residual", g, False) == CONGRUENCE_TOL
        with pytest.raises(KeyError):
            cap("conformal_min", g, False)          # a floor, not a cap
