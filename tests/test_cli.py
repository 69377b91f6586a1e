import dataclasses
import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

from mtsurf import cli, surfaces, weierstrass
from mtsurf.catalog import fixture_sigma_theta
from mtsurf.cli import main, parse_grid_spec
from mtsurf.export import load_patch_manifest
from mtsurf.fields import Analytic, Grid2D, RealField
from mtsurf.poisson import (
    PoissonProblem,
    SolverOptions,
    boundary_from_function,
    named_field,
    named_weight,
    save_problem,
)
from mtsurf.tolerances import CONGRUENCE_TOL, FD_FACTOR, FIXED_CAP, QUADRIC_TOL, cap
from mtsurf.weierstrass import save_data


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
    def test_eps_zero_governs_the_certification(self, tmp_path, rep):
        # min |holo| = e^-2 = 0.135 on this grid, below --eps-zero 0.5: the
        # run fails on its own threshold and exports nothing
        out = str(tmp_path)
        rc = run(["generate", "--fixture", "sigma-theta", "--theta", "0.3",
                  "--grid", "-2:2:-2:2:17x17", "--rep", rep, "--eps-zero", "0.5",
                  "--out", out, "--name", "eps"])
        assert rc == 1
        doc = failed_run(out, "eps")
        assert "nonvanishing FAIL  1.353e-01 > 5.000e-01" in doc["error"]
        assert not check_map(doc)["data_nonvanishing"]["passed"]
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

    def test_eps_flags_reach_every_certification(self, tmp_path):
        # at eta = -14 the deformed gauss field drops to 1.1e-7, under the
        # default 1e-6 floor but above the 1e-12 this run asks for
        out = str(tmp_path)
        rc = run(["deform", "--fixture", "sigma-theta", "--theta", "0.3",
                  "--grid", "-2:2:-2:2:33x33", "--family", "hyperbolic",
                  "--parameter", "-14", "--eps-zero", "1e-12",
                  "--eps-immersion", "1e-12", "--out", out, "--name", "d"])
        assert rc == 0
        doc = manifest_of(out, "d")
        assert doc["error"] is None
        checks = check_map(doc)
        assert checks["deformed_nonvanishing"]["threshold"] == 1e-12
        assert checks["deformed_nonvanishing"]["value"] < 1e-6
        assert checks["congruence_residual"]["passed"]

    def test_one_sweep_evaluates_each_closed_form_once_per_node_set(self, tmp_path,
                                                                    monkeypatch):
        # the parabolic deform represents its base and deformed patches in
        # one quadrature sweep over 129 rows, three row blocks of two node
        # sets each; the deformed patch's nested callbacks reach the fixture's
        # closed forms only through evaluations the base patch made
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

        def sweep(*args, _represent=cli.represent_first, **kwargs):
            counting[0] = True
            try:
                return _represent(*args, **kwargs)
            finally:
                counting[0] = False

        monkeypatch.setattr(cli, "_resolve_fixture", fixture)
        monkeypatch.setattr(cli, "represent_first", sweep)
        rc = run(["deform", "--fixture", "sigma-theta", "--theta", "0.3",
                  "--grid", "-2:2:-2:0:129x33", "--family", "parabolic",
                  "--parameter", "0.5", "--out", str(tmp_path)])
        assert rc == 0
        assert calls == {"holo.value": 6, "height.dz": 6, "null_pot.dz": 6}


class TestSolve:
    def descriptor(self, tmp_path, n=17, target=1e-10):
        g = Grid2D(-1.0, 1.0, -1.0, 1.0, n, n)
        problem = PoissonProblem(
            g, named_weight("re-exp-iz", g), named_field("exp-v-cosh-u", g),
            boundary_from_function(
                g, lambda u, v: np.sinh(u) * np.sin(u) + 0.0 * np.asarray(v)),
            SolverOptions(target=target))
        path = os.path.join(str(tmp_path), "problem.json")
        save_problem(problem, path, weight_name="re-exp-iz",
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
    ], ids=["no-boundary", "no-source-value", "empty-edges", "unknown-weight",
            "unknown-source", "unknown-boundary", "unknown-weight-kind", "list-options",
            "number-grid", "non-integer-node-count", "list-target", "bool-target",
            "list-constant-field", "list-constant-boundary", "string-edges"])
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
    def test_data_document_auto_checks(self, tmp_path):
        out = str(tmp_path)
        fx = fixture_sigma_theta(0.0, grid=Grid2D(-2.0, 2.0, -2.0, 2.0, 17, 17))
        path = os.path.join(out, "sigma.data.json")
        save_data(fx.data, path)
        rc = run(["verify", "--input", path, "--out", out])
        assert rc == 0
        doc = manifest_of(out, "verify")
        checks = check_map(doc)
        assert "data_immersion" in checks
        assert [n for n in checks if n.startswith("liu_")] == ["liu_condition4"]
        assert set(doc["reports"]["liu"]) == {"condition4", "masked_fraction"}
        assert checks["conformality"]["passed"]
        assert doc["inputs"]["resolved_checks"] == [
            "validation", "invariants", "liu", "mean-curvature"]

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
        doc = manifest_of(out, "vpatch")
        assert doc["inputs"]["resolved_checks"] == [
            "invariants", "liu", "mean-curvature"]

        rc = run(["verify", "--input", patch_json, "--against", patch_json,
                  "--family", "elliptic", "--parameter", "0.0",
                  "--out", out, "--name", "vcong"])
        assert rc == 0
        checks = check_map(manifest_of(out, "vcong"))
        assert checks["congruence_residual"]["value"] == 0.0

    def test_validation_check_rejected_for_patch(self, tmp_path):
        out = str(tmp_path)
        rc = run(["generate", "--fixture", "catenoid-r3",
                  "--grid", "-1:1:-1:1:9x9", "--out", out, "--name", "cat"])
        assert rc == 0
        rc = run(["verify", "--input", os.path.join(out, "cat.json"),
                  "--checks", "validation", "--out", out, "--name", "bad"])
        assert rc == 1
        doc = manifest_of(out, "bad")
        assert "needs a data document" in doc["error"]

    def test_unknown_check_name_rejected(self, tmp_path):
        out = str(tmp_path)
        rc = run(["generate", "--fixture", "catenoid-r3",
                  "--grid", "-1:1:-1:1:9x9", "--out", out, "--name", "cat"])
        assert rc == 0
        rc = run(["verify", "--input", os.path.join(out, "cat.json"),
                  "--checks", "invariants,quadrc", "--out", out, "--name", "typo"])
        assert rc == 1
        doc = failed_run(out, "typo")
        assert "'quadrc'" in doc["error"]
        assert "validation, invariants, quadric, liu, mean-curvature, congruence" \
            in doc["error"]
        assert doc["checks"] == []

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
    """--tol-exact is the exact cap of every check in a run, the data
    certifications and the cores' loop caps included."""

    GRID = ["--fixture", "sigma-theta", "--grid", "-2:2:-2:2:17x17"]

    def test_reaches_the_data_certification(self, tmp_path):
        assert run(["generate"] + self.GRID + ["--tol-exact", "1e-20",
                                                "--out", tmp_path]) == 1
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
        def exhausted(path):
            raise MemoryError()

        monkeypatch.setattr(cli, "load_patch_manifest", exhausted)
        out = str(tmp_path)
        doc_path = os.path.join(out, "patch.json")
        with open(doc_path, "w") as fh:
            json.dump({"format": "mtsurf-patch"}, fh)
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

    def test_anchor(self, saved):
        self.refused(saved, ["verify", "--input", os.path.join(saved, "patch.data.json"),
                             "--anchor", "nan,0,0,0"], "--anchor")

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
        assert cap("liu_condition4", g, True, tol_exact=1e-20) == 1e-20
        assert cap("quadric_residual", g, True) == QUADRIC_TOL
        assert cap("slice_x1_constant", g, False) == QUADRIC_TOL
        assert cap("congruence_residual", g, False) == CONGRUENCE_TOL
        with pytest.raises(KeyError):
            cap("conformal_min", g, False)          # a floor, not a cap
