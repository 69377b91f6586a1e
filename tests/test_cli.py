import hashlib
import json
import math
import os

import numpy as np
import pytest

from mtsurf.catalog import fixture_sigma_theta
from mtsurf.cli import main, parse_grid_spec
from mtsurf.fields import Grid2D
from mtsurf.poisson import (
    PoissonProblem,
    SolverOptions,
    boundary_from_function,
    named_field,
    named_weight,
    save_problem,
)
from mtsurf.weierstrass import save_data


def run(argv):
    return main([str(a) for a in argv])


def manifest_of(out_dir, name):
    with open(os.path.join(out_dir, name + ".manifest.json")) as fh:
        return json.load(fh)


def check_map(doc):
    return {c["name"]: c for c in doc["checks"]}


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


class TestSolve:
    def descriptor(self, tmp_path, n=17, max_iter=20000, target=1e-10):
        g = Grid2D(-1.0, 1.0, -1.0, 1.0, n, n)
        problem = PoissonProblem(
            g, named_weight("re-exp-iz", g), named_field("exp-v-cosh-u", g),
            boundary_from_function(
                g, lambda u, v: np.sinh(u) * np.sin(u) + 0.0 * np.asarray(v)),
            SolverOptions(max_iter=max_iter, target=target))
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

    def test_nonconvergence_fails_run(self, tmp_path):
        out = os.path.join(str(tmp_path), "out")
        path = self.descriptor(tmp_path, n=65, max_iter=2)
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
        assert "liu_condition4" in checks
        assert checks["conformality"]["passed"]
        assert doc["inputs"]["resolved_checks"] == [
            "validation", "invariants", "liu", "mean-curvature"]

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

    def test_foreign_json_rejected(self, tmp_path):
        out = str(tmp_path)
        path = os.path.join(out, "foreign.json")
        with open(path, "w") as fh:
            json.dump({"format": "unknown"}, fh)
        rc = run(["verify", "--input", path, "--out", out])
        assert rc == 1
        assert "neither" in manifest_of(out, "verify")["error"]


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
            da, db = json.load(open(a)), json.load(open(b))
            da.pop("wall_time_s"), db.pop("wall_time_s")
            assert da == db
        else:
            ha = hashlib.sha256(open(a, "rb").read()).hexdigest()
            hb = hashlib.sha256(open(b, "rb").read()).hexdigest()
            assert ha == hb, name
