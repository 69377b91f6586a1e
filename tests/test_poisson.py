import json
import os
import sys
import tempfile

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from mtsurf.catalog import fixture_sigma_theta
from mtsurf.errors import DomainError
from mtsurf.fields import Grid2D, RealField, sup_abs
from mtsurf.poisson import (
    NAMED_FIELDS,
    NAMED_WEIGHTS,
    PoissonProblem,
    assemble_second_kind,
    boundary_from_function,
    load_problem,
    named_field,
    named_weight,
    save_problem,
    solve_weighted_poisson,
)


_EDGES = ("u_min", "u_max", "v_min", "v_max")


def reference_problem(n, target=1e-10):
    # weight e^{-v} cos u, source e^v cosh u, boundary sinh u sin u; the
    # exact solution of lap M = w lap N with that boundary is sinh u sin u
    g = Grid2D(-1.0, 1.0, -1.0, 1.0, n, n)
    boundary = boundary_from_function(
        g, lambda u, v: np.sinh(u) * np.sin(u) + 0.0 * np.asarray(v))
    return PoissonProblem(g, named_weight("re-exp-iz", g),
                          named_field("exp-v-cosh-u", g), boundary, target)


def exact_solution(grid):
    U, V = grid.mesh()
    return np.sinh(U) * np.sin(U)


class TestSolver:
    def test_reference_problem_errors_and_order(self):
        errors = {}
        for n in (17, 33, 65):
            problem = reference_problem(n)
            sol, report = solve_weighted_poisson(problem)
            assert report["converged"]
            assert report["residual_max"] <= report["effective_target"]
            errors[n] = sup_abs(sol.values - exact_solution(problem.grid))
            # fourth derivatives of solution and source stay below ~4.2
            h = problem.grid.h_u
            assert errors[n] <= 0.5 * h * h * 4.2
        assert 3.5 <= errors[17] / errors[33] <= 4.5
        assert 3.5 <= errors[33] / errors[65] <= 4.5

    def test_zero_weight_zero_boundary_gives_zero(self):
        g = Grid2D(-1.0, 1.0, -1.0, 1.0, 17, 17)
        problem = PoissonProblem(g, named_weight("zero", g),
                                 named_field("exp-v-cosh-u", g),
                                 boundary_from_function(g, lambda u, v: 0.0 * u * v))
        sol, report = solve_weighted_poisson(problem)
        assert report["converged"]
        assert report["iterations"] == 0
        np.testing.assert_array_equal(sol.values, np.zeros(g.shape))

    def test_unit_weight_recovers_source(self):
        g = Grid2D(-1.0, 1.0, -1.0, 1.0, 33, 33)
        source = named_field("exp-v-cosh-u", g)
        problem = PoissonProblem(g, named_weight("one", g), source, source)
        sol, report = solve_weighted_poisson(problem)
        assert report["converged"]
        assert sup_abs(sol.values - source.values) < 1e-9

    def test_discrete_maximum_principle(self):
        # weight zero makes the solution discrete-harmonic: its extrema
        # must sit on the boundary ring whatever the edge data
        g = Grid2D(0.0, 1.0, 0.0, 2.0, 21, 29)
        rng = np.random.default_rng(11)
        edge = RealField(g, rng.standard_normal(g.shape))
        problem = PoissonProblem(g, named_weight("zero", g),
                                 named_field("zero", g), edge)
        sol, report = solve_weighted_poisson(problem)
        assert report["converged"]
        ring = np.concatenate([sol.values[0, :], sol.values[-1, :],
                               sol.values[:, 0], sol.values[:, -1]])
        assert np.max(sol.values) <= np.max(ring) + 1e-9
        assert np.min(sol.values) >= np.min(ring) - 1e-9

    def test_floor_warning_for_unreachable_target(self):
        problem = reference_problem(33, target=1e-18)
        with pytest.warns(UserWarning, match="roundoff"):
            sol, report = solve_weighted_poisson(problem)
        assert report["floor_warning"]
        assert report["effective_target"] == report["roundoff_floor"]
        assert report["target"] == 1e-18

    def test_nonconvergence_reported_not_raised(self):
        # a 1e10-scale source with a zero boundary: the floor follows the
        # boundary scale, so the target is out of reach of float64 solves
        g = Grid2D(-1.0, 1.0, -1.0, 1.0, 65, 65)
        source = RealField(g, 1e10 * named_field("exp-v-cosh-u", g).values)
        problem = PoissonProblem(g, named_weight("one", g), source,
                                 boundary_from_function(g, lambda u, v: 0.0 * u * v))
        sol, report = solve_weighted_poisson(problem)
        assert not report["converged"]
        assert 1 <= report["iterations"] <= 3
        assert report["residual_max"] > report["effective_target"]
        assert np.all(np.isfinite(sol.values))

    @pytest.mark.parametrize("source,boundary,what", [
        (1.0, np.nan, "boundary ring"),
        (1.0, 1e308, "solution residual"),
        (1e308, 0.0, "right-hand side"),
    ], ids=["nan-ring", "huge-ring", "huge-source"])
    def test_overflow_raises_domain_error(self, source, boundary, what):
        # the stencil of a 1e308 ring overflows float64; no warning, no nan
        # solution, but an error naming the part that is not finite
        g = Grid2D(-1.0, 1.0, -1.0, 1.0, 17, 17)
        U, _ = g.mesh()
        problem = PoissonProblem(g, named_weight("one", g),
                                 RealField(g, source * U * U),
                                 RealField(g, np.full(g.shape, boundary)))
        with pytest.raises(DomainError, match="%s is not finite" % what):
            solve_weighted_poisson(problem)

    def test_matches_dense_solve_on_anisotropic_grid(self):
        # h_u != h_v and n_u != n_v: a wrong eigenvalue or transform
        # normalisation shows here, not on the square reference grids
        g = Grid2D(0.0, 1.0, 0.0, 2.0, 9, 13)
        rng = np.random.default_rng(5)
        problem = PoissonProblem(g, RealField(g, rng.standard_normal(g.shape)),
                                 RealField(g, rng.standard_normal(g.shape)),
                                 RealField(g, rng.standard_normal(g.shape)))
        sol, report = solve_weighted_poisson(problem)
        assert report["converged"]
        assert report["method"] == "dst-I"

        mu, mv = g.n_u - 2, g.n_v - 2
        full = problem.boundary.values
        src = problem.source.values
        a = np.zeros((mu * mv, mu * mv))
        b = np.zeros(mu * mv)
        for i in range(mu):
            for j in range(mv):
                row = i * mv + j
                I, J = i + 1, j + 1
                lap_src = ((src[I - 1, J] - 2 * src[I, J] + src[I + 1, J]) / g.h_u ** 2
                           + (src[I, J - 1] - 2 * src[I, J] + src[I, J + 1]) / g.h_v ** 2)
                b[row] = problem.weight.values[I, J] * lap_src
                for di, dj, c in ((-1, 0, g.h_u ** -2), (1, 0, g.h_u ** -2),
                                  (0, -1, g.h_v ** -2), (0, 1, g.h_v ** -2),
                                  (0, 0, -2 * (g.h_u ** -2 + g.h_v ** -2))):
                    ii, jj = I + di, J + dj
                    if 1 <= ii <= mu and 1 <= jj <= mv:
                        a[row, (ii - 1) * mv + (jj - 1)] += c
                    else:
                        b[row] -= c * full[ii, jj]
        dense = np.linalg.solve(a, b).reshape(mu, mv)
        assert sup_abs(sol.values[1:-1, 1:-1] - dense) <= 1e-12
        np.testing.assert_array_equal(sol.values[0, :], full[0, :])
        np.testing.assert_array_equal(sol.values[:, -1], full[:, -1])

    def test_large_anisotropic_grid_converges(self):
        g = Grid2D(-1.0, 1.0, -0.5, 0.5, 257, 129)
        problem = PoissonProblem(g, named_weight("re-exp-iz", g),
                                 named_field("exp-v-cosh-u", g),
                                 boundary_from_function(g, NAMED_FIELDS["sinh-u-sin-u"]()[0]))
        sol, report = solve_weighted_poisson(problem)
        assert report["converged"]
        assert report["residual_max"] <= report["effective_target"]
        U, _ = g.mesh()
        assert sup_abs(sol.values - np.sinh(U) * np.sin(U)) <= 0.5 * g.h_u ** 2 * 4.2

    def test_unknown_count(self):
        _, report = solve_weighted_poisson(reference_problem(17))
        assert report["unknowns"] == 15 * 15


def load_edited(tmp_path, edit):
    """load_problem of a valid 9x9 descriptor after ``edit(doc)``."""
    doc = _descriptor_with("target", 1e-10, "u_min", 0)
    edit(doc)
    path = os.path.join(str(tmp_path), "problem.json")
    with open(path, "w") as fh:
        json.dump(doc, fh)
    return load_problem(path)


class TestBoundary:
    def test_edge_length_checked(self, tmp_path):
        with pytest.raises(ValueError, match=r"problem\.json.*'u_min' has length 5, "
                                             r"grid needs 9"):
            load_edited(tmp_path, lambda d: d["boundary"]["edges"].update(u_min=[0.0] * 5))

    def test_corner_agreement_checked(self, tmp_path):
        def edit(doc):
            doc["boundary"]["edges"]["v_min"][0] = 1.0

        with pytest.raises(ValueError, match=r"problem\.json.*corner by 1\.000e\+00"):
            load_edited(tmp_path, edit)

    def test_descriptor_edges_round_trip(self, tmp_path):
        # the ring of any field is saved as four edges that agree exactly at
        # the corners, and loads back as that ring with a zero interior
        g = Grid2D(0.0, 1.0, 0.0, 1.0, 9, 13)
        U, V = g.mesh()
        problem = PoissonProblem(g, named_weight("one", g), named_field("zero", g),
                                 RealField(g, U + 2.0 * V))
        path = os.path.join(str(tmp_path), "problem.json")
        save_problem(problem, path, weight_name="one", source_name="zero")
        with open(path) as fh:
            edges = json.load(fh)["boundary"]["edges"]
        assert edges["v_min"][0] == edges["u_min"][0]
        assert edges["v_max"][-1] == edges["u_max"][-1]
        full = load_problem(path).boundary.values
        np.testing.assert_array_equal(full[0, :], (U + 2.0 * V)[0, :])
        np.testing.assert_array_equal(full[:, -1], (U + 2.0 * V)[:, -1])
        assert np.all(full[1:-1, 1:-1] == 0.0)

    def test_edge_values_are_not_coerced(self, tmp_path):
        assert load_edited(tmp_path, lambda d: None).boundary.values.dtype == float
        for bad in (["0"] * 9, [False] * 9, [[0.0]] * 9, "0", None):
            with pytest.raises(ValueError, match=r"problem\.json.*'v_min'"):
                load_edited(tmp_path, lambda d: d["boundary"]["edges"].update(v_min=bad))

    def test_interior_is_never_read(self):
        g = Grid2D(0.0, 1.0, 0.0, 2.0, 21, 29)
        rng = np.random.default_rng(3)
        ring = boundary_from_function(g, lambda u, v: np.cos(3.0 * u) * np.exp(v))
        noisy = ring.values.copy()
        noisy[1:-1, 1:-1] = rng.standard_normal((19, 27))
        solutions = [solve_weighted_poisson(PoissonProblem(
            g, named_weight("re-exp-iz", g), named_field("exp-v-cosh-u", g), b))[0]
            for b in (ring, RealField(g, noisy))]
        np.testing.assert_array_equal(solutions[0].values, solutions[1].values)

    def test_problem_grid_mismatch(self):
        g = Grid2D(-1.0, 1.0, -1.0, 1.0, 9, 9)
        other = Grid2D(-1.0, 1.0, -1.0, 1.0, 17, 17)
        with pytest.raises(ValueError):
            PoissonProblem(g, named_weight("one", other), named_field("zero", g),
                           boundary_from_function(g, lambda u, v: 0.0 * u * v))
        with pytest.raises(ValueError):
            PoissonProblem(g, named_weight("one", g), named_field("zero", g),
                           boundary_from_function(other, lambda u, v: 0.0 * u * v))


class TestAssembleSecondKind:
    def test_harmonic_height_from_linear_boundary(self):
        # zero source: the solve returns the discrete-harmonic extension
        # of the boundary, here exactly u, and the triple validates
        fx = fixture_sigma_theta(0.0, grid=Grid2D(-1.0, 1.0, -1.0, 1.0, 17, 17))
        g = fx.grid
        data, vrep, srep = assemble_second_kind(
            fx.data.holo, named_field("zero", g),
            lambda u, v: np.asarray(u) + 0.0 * np.asarray(v))
        assert srep["converged"]
        U, _ = g.mesh()
        assert sup_abs(data.height.values - U) < 1e-9
        assert vrep.ok
        assert data.provenance["transform"] == "poisson-solve"

    def test_reference_height_recovered(self):
        fx = fixture_sigma_theta(0.0, grid=Grid2D(-1.0, 1.0, -1.0, 1.0, 33, 33))
        g = fx.grid
        data, vrep, srep = assemble_second_kind(
            fx.data.holo, fx.data.null_pot,
            fx.data.height)
        assert srep["converged"]
        assert vrep.ok
        assert sup_abs(data.height.values - fx.data.height.values) < 1e-3

    def test_scalar_boundary_accepted(self):
        fx = fixture_sigma_theta(0.0, grid=Grid2D(-1.0, 1.0, -1.0, 1.0, 9, 9))
        data, vrep, srep = assemble_second_kind(
            fx.data.holo, named_field("zero", fx.grid), 0.0)
        assert srep["converged"]
        np.testing.assert_array_equal(data.height.values, np.zeros(fx.grid.shape))
        # constant height with zero source has no spacelike tangent
        assert not vrep.ok
        assert not vrep.check("immersion").passed

    def test_bad_boundary_spec_rejected(self):
        fx = fixture_sigma_theta(0.0, grid=Grid2D(-1.0, 1.0, -1.0, 1.0, 9, 9))
        with pytest.raises(TypeError):
            assemble_second_kind(fx.data.holo, named_field("zero", fx.grid),
                                 object())


class TestDescriptors:
    def test_round_trip_named_fields(self, tmp_path):
        problem = reference_problem(17)
        path = os.path.join(str(tmp_path), "problem.json")
        save_problem(problem, path, weight_name="re-exp-iz",
                     source_name="exp-v-cosh-u")
        assert os.listdir(str(tmp_path)) == ["problem.json"]
        loaded = load_problem(path)
        sol_a, _ = solve_weighted_poisson(problem)
        sol_b, _ = solve_weighted_poisson(loaded)
        np.testing.assert_array_equal(sol_a.values, sol_b.values)

    def test_round_trip_file_payloads(self, tmp_path):
        problem = reference_problem(9)
        path = os.path.join(str(tmp_path), "problem.json")
        save_problem(problem, path)
        names = sorted(os.listdir(str(tmp_path)))
        assert names == ["problem.json", "problem.source.csv", "problem.weight.csv"]
        loaded = load_problem(path)
        np.testing.assert_array_equal(loaded.weight.values, problem.weight.values)
        np.testing.assert_array_equal(loaded.source.values, problem.source.values)

    def test_max_iter_option_is_accepted_and_not_written(self, tmp_path):
        path = os.path.join(str(tmp_path), "problem.json")
        doc = {"format": "mtsurf-problem", "version": 1,
               "grid": {"u_min": -1.0, "u_max": 1.0, "v_min": -1.0,
                        "v_max": 1.0, "n_u": 17, "n_v": 17},
               "weight": {"kind": "named", "name": "re-exp-iz"},
               "source": {"kind": "named", "name": "exp-v-cosh-u"},
               "boundary": {"kind": "named", "name": "sinh-u-sin-u"},
               "options": {"max_iter": 20000, "target": 1e-10}}
        with open(path, "w") as fh:
            json.dump(doc, fh)
        loaded = load_problem(path)
        assert loaded.target == 1e-10
        _, report = solve_weighted_poisson(loaded)
        assert report["converged"]
        assert "max_iter" not in report and "cg_info" not in report

        again = os.path.join(str(tmp_path), "again.json")
        save_problem(loaded, again, weight_name="re-exp-iz",
                     source_name="exp-v-cosh-u")
        with open(again) as fh:
            assert json.load(fh)["options"] == {"target": 1e-10}

    def test_unknown_option_refused(self, tmp_path):
        # a misspelt target must not leave the solve at the default target
        with pytest.raises(ValueError, match=r"problem\.json.*options.*'targt'"):
            load_edited(tmp_path, lambda d: d["options"].update(targt=1e-3))

    def test_format_guard(self, tmp_path):
        path = os.path.join(str(tmp_path), "other.json")
        with open(path, "w") as fh:
            json.dump({"format": "something-else"}, fh)
        with pytest.raises(ValueError, match="descriptor"):
            load_problem(path)

    def test_named_registries(self):
        g = Grid2D(-1.0, 1.0, -1.0, 1.0, 9, 9)
        assert set(NAMED_WEIGHTS) == {"zero", "one", "re-exp-iz", "tanh-u"}
        assert set(NAMED_FIELDS) == {"zero", "one", "coord-u", "exp-v-cosh-u",
                                     "sinh-u-sin-u"}
        with pytest.raises(KeyError):
            named_weight("cosh", g)
        with pytest.raises(KeyError):
            named_field("cosh", g)
        U, _ = g.mesh()
        np.testing.assert_allclose(named_weight("tanh-u", g).values, np.tanh(U),
                                   rtol=1e-15)


_json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=6), inner, max_size=3),
    max_leaves=6)


def _descriptor_with(slot, value, edge, index):
    """A valid 9x9 descriptor with ``value`` put into one scalar slot."""
    doc = {"format": "mtsurf-problem", "version": 1,
           "grid": {"u_min": -1.0, "u_max": 1.0, "v_min": -1.0,
                    "v_max": 1.0, "n_u": 9, "n_v": 9},
           "weight": {"kind": "named", "name": "one"},
           "source": {"kind": "named", "name": "zero"},
           "boundary": {"kind": "edges", "edges": {name: [0.0] * 9 for name in _EDGES}},
           "options": {"target": 1e-10}}
    if slot == "target":
        doc["options"]["target"] = value
    elif slot == "field":
        doc["source"] = {"kind": "constant", "value": value}
    elif slot == "boundary":
        doc["boundary"] = {"kind": "constant", "value": value}
    else:
        doc["boundary"]["edges"][edge][index] = value
    return doc


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(["target", "field", "boundary", "edge"]), _json_values,
       st.sampled_from(_EDGES), st.integers(0, 8))
@example("target", True, "u_min", 0)
@example("field", [1], "u_min", 0)
@example("boundary", 10 ** 400, "u_min", 0)
@example("edge", {}, "v_max", 4)
@example("edge", -1.7e308, "u_min", 0)
def test_descriptor_reader_refuses_mistyped_scalars(slot, value, edge, index):
    """A mistyped scalar is a ValueError, never a TypeError or a silent
    coercion; a number in a scalar slot is read as that number."""
    number = type(value) in (int, float) and abs(value) <= sys.float_info.max
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "problem.json")
        with open(path, "w") as fh:
            json.dump(_descriptor_with(slot, value, edge, index), fh)
        if not number:
            with pytest.raises(ValueError, match="problem.json"):
                load_problem(path)
            return
        try:
            problem = load_problem(path)
        except ValueError:
            # only an edge value can make a number inconsistent (a corner)
            assert slot == "edge"
            return
    ring = problem.boundary.values
    edges = dict(zip(_EDGES, (ring[0, :], ring[-1, :], ring[:, 0], ring[:, -1])))
    read = {"target": problem.target,
            "field": problem.source.values[4, 4],
            "boundary": ring[0, 4],
            "edge": edges[edge][index]}[slot]
    if slot == "edge" and edge.startswith("v") and index in (0, 8):
        # a v-edge corner agrees with the u edge's 0.0 to 1e-10 (else the
        # descriptor is refused), and the ring takes the u edge's value
        assert read == 0.0
    else:
        assert read == float(value)
