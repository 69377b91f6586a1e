import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mtsurf import catalog, fields
from mtsurf.catalog import (
    FIXTURE_NAMES,
    fixture_by_name,
    fixture_classical,
    fixture_sigma_theta,
    fixture_two_parameter,
    recommended_bounds,
)
from mtsurf.errors import DomainError
from mtsurf.fields import (Grid2D, RealField, laplacian, sup_abs, sup_abs_interior,
                           wirtinger_dz)
from mtsurf.poisson import NAMED_FIELDS, NAMED_WEIGHTS, named_field, named_weight
from mtsurf.surfaces import represent_second
from mtsurf.tolerances import fd_cap
from mtsurf.weierstrass import validate_second

THETAS = (0.0, math.pi / 8, math.pi / 4, 3 * math.pi / 8, math.pi / 2)


@pytest.mark.parametrize("theta", THETAS)
def test_sigma_theta_data_validates_exactly(theta):
    fx = fixture_sigma_theta(theta)
    report = validate_second(fx.data)
    assert report.ok
    assert report.exact
    assert report.check("holomorphic").value < 1e-12
    assert report.check("compatible").value < 1e-10
    assert report.check("immersion").value > 1e-3


@pytest.mark.parametrize("theta", THETAS)
def test_sigma_theta_chart_lies_in_quadric(theta):
    fx = fixture_sigma_theta(theta)
    x = np.stack([c.values for c in fx.chart])
    inner = x[0] ** 2 + x[1] ** 2 + x[2] ** 2 - x[3] ** 2
    assert fx.expected["quadric_constant"] == -math.cos(2.0 * theta)
    # coordinate values reach ~70 at theta = pi/4, so squaring costs ~1e-12
    np.testing.assert_allclose(inner, fx.expected["quadric_constant"], atol=1e-11)


_CLOSED_FORMS = ([("chart", name) for name in FIXTURE_NAMES]
                 + [("weight", name) for name in sorted(NAMED_WEIGHTS)]
                 + [("field", name) for name in sorted(NAMED_FIELDS)])


@pytest.mark.parametrize("kind,name", _CLOSED_FORMS,
                         ids=["%s-%s" % form for form in _CLOSED_FORMS])
def test_closed_form_callbacks_match_samples(kind, name):
    """The closed-form dz and Laplacian of every fixture chart coordinate and
    every named Poisson weight and field agree with finite differences of
    its own samples, on an off-centre grid, to O(h^2)."""
    grid = Grid2D(-1.5, 1.0, -1.2, 1.3, 51, 51)
    if kind == "chart":
        params = {"sigma-theta": {"theta": math.pi / 8},
                  "two-param": {"alpha": 0.3, "beta": -0.2}}
        closed = fixture_by_name(name, grid=grid, params=params.get(name)).chart
    else:
        closed = [(named_weight if kind == "weight" else named_field)(name, grid)]
    U, V = grid.mesh()
    cap = fd_cap(grid, 5.0)     # the largest constant is 1.9, on exp-v-cosh-u's dz
    for fld in closed:
        stripped = RealField(grid, fld.values)
        assert sup_abs(wirtinger_dz(stripped).values - fld.analytic.dz(U, V)) < cap
        assert sup_abs_interior(laplacian(stripped).values - fld.analytic.lap(U, V)) < cap


def test_sigma_theta_expected_fields():
    fx = fixture_sigma_theta(0.0)
    assert fx.kind == "second-kind"
    assert fx.params == {"theta": 0.0}
    assert fx.expected["h_nowhere_zero"] is True
    assert fx.expected["anchor"] == tuple(c.values[0, 0] for c in fx.chart)
    # both closed forms evaluate to 2 sqrt(2) at the origin
    np.testing.assert_allclose(fx.expected["mean_curvature_norm"](0.0, 0.0),
                               2.0 * math.sqrt(2.0), rtol=1e-14)
    np.testing.assert_allclose(fx.expected["conformal_factor"](0.0, 0.0), 1.0,
                               rtol=1e-14)
    U, V = fx.grid.mesh()
    assert np.min(fx.expected["conformal_factor"](U, V)) > 0.0


@pytest.mark.parametrize("make,params", [
    *((fixture_sigma_theta, (theta,)) for theta in (0.0, 0.3, 0.7, math.pi / 4, 1.2)),
    (fixture_two_parameter, (0.3, 0.2)), (fixture_two_parameter, (-0.5, 0.6))])
def test_mean_curvature_norm_matches_the_represented_patch(make, params):
    # the catalog's closed-form Euclidean |H| against the patch the second
    # representation integrates on the default grid
    fx = make(*params)
    patch = represent_second(fx.data, anchor=fx.expected["anchor"])
    norm = np.sqrt(np.sum(patch.h_stack ** 2, axis=0))
    closed = fx.data.grid.on_nodes(fx.expected["mean_curvature_norm"])
    np.testing.assert_allclose(norm, closed, rtol=1e-13, atol=0.0)


def test_sigma_theta_rejects_bad_parameter():
    with pytest.raises(ValueError):
        fixture_sigma_theta(-0.1)
    with pytest.raises(ValueError):
        fixture_sigma_theta(math.pi / 2 + 0.2)


def test_recommended_bounds_switch():
    assert recommended_bounds(0.0) == (-2.0, 2.0, -2.0, 2.0)
    assert recommended_bounds(math.pi / 8) == (-2.0, 2.0, -2.0, 2.0)
    assert recommended_bounds(math.pi / 4) == (0.1, 3.0, -3.0, 3.0)
    assert recommended_bounds(3 * math.pi / 8) == (-2.0, 2.0, -1.4, 1.4)
    assert recommended_bounds(math.pi / 2) == (-2.0, 2.0, -1.4, 1.4)


def test_domain_guard_theta_half_pi():
    # cos v changes sign inside [-2, 2]
    with pytest.raises(DomainError) as err:
        fixture_sigma_theta(math.pi / 2, grid=Grid2D(-2.0, 2.0, -2.0, 2.0, 33, 33))
    assert "cos(theta) cosh u + sin(theta) cos v" in str(err.value)


def test_domain_guard_catches_zero_between_nodes():
    # cosh u + cos v vanishes at (0, pi), inside this rectangle but not on
    # any node of the coarse grid
    with pytest.raises(DomainError):
        fixture_sigma_theta(math.pi / 4,
                            grid=Grid2D(-0.5, 0.5, 2.5, 3.5, 9, 9))


def test_two_parameter_reduces_to_theta_zero():
    fx0 = fixture_sigma_theta(0.0)
    fx = fixture_two_parameter(0.0, 0.0)
    np.testing.assert_array_equal(fx.data.height.values, fx0.data.height.values)
    np.testing.assert_array_equal(fx.data.null_pot.values, fx0.data.null_pot.values)
    np.testing.assert_array_equal(fx.data.holo.values, fx0.data.holo.values)


def test_two_parameter_validates_inside_disc():
    fx = fixture_two_parameter(0.3, 0.4)
    report = validate_second(fx.data)
    assert report.ok
    assert fx.expected["quadric_constant"] is None
    assert fx.params == {"alpha": 0.3, "beta": 0.4}


def test_two_parameter_rejects_unit_disc_boundary():
    with pytest.raises(ValueError) as err:
        fixture_two_parameter(0.8, 0.7)
    assert "alpha^2 + beta^2" in str(err.value)
    with pytest.raises(ValueError):
        fixture_two_parameter(1.0, 0.0)


@pytest.mark.parametrize("alpha,beta", [(float("nan"), 0.0), (0.0, float("nan"))])
def test_two_parameter_rejects_nan(alpha, beta):
    # NaN fails every comparison, so it must not slip past the disc guard
    with pytest.raises(ValueError, match=r"alpha\^2 \+ beta\^2"):
        fixture_two_parameter(alpha, beta)


@settings(max_examples=15, deadline=None)
@given(theta=st.floats(min_value=0.0, max_value=0.7, allow_nan=False),
       alpha=st.floats(min_value=-0.6, max_value=0.6, allow_nan=False),
       beta=st.floats(min_value=-0.6, max_value=0.6, allow_nan=False))
def test_fixture_data_always_validates(theta, alpha, beta):
    g = Grid2D(-2.0, 2.0, -2.0, 2.0, 17, 17)
    assert validate_second(fixture_sigma_theta(theta, grid=g).data).ok
    assert validate_second(fixture_two_parameter(alpha, beta, grid=g).data).ok


def test_classical_catenoid_chart():
    fx = fixture_classical("catenoid-r3")
    assert fx.kind == "patch"
    assert fx.data is None
    assert fx.expected["slice"] == ("x4", 0.0)
    assert fx.expected["h_nowhere_zero"] is False
    np.testing.assert_array_equal(fx.chart[3].values, 0.0 * fx.chart[3].values)
    U, V = fx.grid.mesh()
    np.testing.assert_allclose(fx.expected["conformal_factor"](U, V),
                               np.cosh(U) ** 2, rtol=1e-14)


def test_classical_hyperbolic_catenoid_chart():
    fx = fixture_classical("hyperbolic-catenoid-l3")
    assert fx.expected["slice"] == ("x1", 0.0)
    np.testing.assert_array_equal(fx.chart[0].values, 0.0 * fx.chart[0].values)
    assert fx.grid.v_min > -math.pi / 2 and fx.grid.v_max < math.pi / 2


def test_classical_hyperbolic_catenoid_domain_guard():
    with pytest.raises(DomainError) as err:
        fixture_classical("hyperbolic-catenoid-l3",
                          grid=Grid2D(-1.0, 1.0, -2.0, 2.0, 17, 17))
    assert "v in (-pi/2, pi/2)" in str(err.value)


def test_classical_name_normalization():
    fx = fixture_classical("Catenoid_R3")
    assert fx.name == "catenoid-r3"
    with pytest.raises(KeyError):
        fixture_classical("helicoid")


def test_fixture_by_name_dispatch():
    fx = fixture_by_name("sigma-theta", params={"theta": math.pi / 8})
    assert fx.params["theta"] == math.pi / 8
    fx = fixture_by_name("two-param", params={"alpha": 0.2, "beta": -0.1})
    assert fx.params == {"alpha": 0.2, "beta": -0.1}
    g = Grid2D(-1.0, 1.0, -1.0, 1.0, 9, 9)
    assert fixture_by_name("catenoid-r3", grid=g).grid == g
    assert set(FIXTURE_NAMES) == {"sigma-theta", "two-param", "catenoid-r3",
                                  "hyperbolic-catenoid-l3"}
    with pytest.raises(KeyError):
        fixture_by_name("nonsense")


@pytest.mark.parametrize("name,params,extra", [
    ("catenoid-r3", {"theta": 0.3, "alpha": 0.9}, "alpha, theta"),
    ("hyperbolic-catenoid-l3", {"beta": 0.1}, "beta"),
    ("sigma-theta", {"theta": 0.3, "alpha": 0.3, "beta": 0.1}, "alpha, beta"),
    ("two-param", {"theta": 0.3}, "theta"),
], ids=["catenoid-r3", "hyperbolic-catenoid-l3", "sigma-theta", "two-param"])
def test_fixture_by_name_refuses_a_parameter_it_does_not_take(name, params, extra):
    with pytest.raises(ValueError, match="%r does not take %s" % (name, extra)):
        fixture_by_name(name, grid=Grid2D(-1.0, 1.0, -1.0, 1.0, 9, 9), params=params)


@pytest.mark.parametrize("name,tables", [
    ("sigma-theta", lambda ct, st: ((ct, catalog._CHART_HYP), (st, catalog._CHART_DESITTER))),
    ("two-param", lambda a, b: ((a, catalog._CHART_LIN_A), (b, catalog._CHART_LIN_B),
                                (1.0, catalog._CHART_HYP))),
    ("catenoid-r3", lambda *_: ((1.0, catalog._CHART_CATENOID),)),
    ("hyperbolic-catenoid-l3", lambda *_: ((1.0, catalog._CHART_HYP_CATENOID),)),
])
def test_chart_samples_are_the_weighted_sum_of_their_parts(name, tables):
    """Each chart coordinate is 0.0 + w1 f1 + w2 f2 + ... of its closed-form
    parts evaluated on the grid nodes, summed in table order: the samples,
    and so the fixture's anchor, are exactly that sum, bit for bit."""
    grid = Grid2D(-1.5, 1.0, -1.2, 1.3, 13, 11)
    params = {"sigma-theta": {"theta": 0.4}, "two-param": {"alpha": 0.3, "beta": -0.2}}
    fx = fixture_by_name(name, grid=grid, params=params.get(name))
    weights = {"sigma-theta": (math.cos(0.4), math.sin(0.4)),
               "two-param": (0.3, -0.2)}.get(name, ())
    U, V = grid.mesh()
    for k, coord in enumerate(fx.chart):
        total = 0.0
        for w, table in tables(*weights):
            total = total + w * np.asarray(table[k]["value"](U, V), dtype=float)
        assert coord.values.tobytes() == np.asarray(total, dtype=float).tobytes()
        assert fx.expected["anchor"][k] == float(total[0, 0])
        # the summed callbacks keep the derivative slots of every part
        u, v = 0.25, -0.5
        for slot in ("du", "dv", "lap"):
            want = sum(w * table[k][slot](u, v) for w, table in tables(*weights))
            assert getattr(coord.analytic, slot)(u, v) == want


def _bits(arr, shape):
    """dtype and bytes of ``arr`` broadcast to ``shape``."""
    arr = np.asarray(arr)
    return arr.dtype, np.ascontiguousarray(np.broadcast_to(arr, shape)).tobytes()


def _fixture_closed_forms(fx):
    """(label, callback) of every closed form a fixture carries: each slot of
    its data fields and chart coordinates, and its expected closed forms."""
    members = [("x%d" % (k + 1), c) for k, c in enumerate(fx.chart)]
    if fx.data is not None:
        members += [(name, getattr(fx.data, name)) for name in ("holo", "height", "null_pot")]
    for label, fld in members:
        for slot in ("value", "dz", "dzbar", "lap"):
            cb = getattr(fld.analytic, "_" + slot)
            if cb is not None:
                yield "%s.%s" % (label, slot), cb
    for key in ("conformal_factor", "mean_curvature_norm"):
        if key in fx.expected:
            yield key, fx.expected[key]


_AXIS_FIXTURES = [("sigma-theta", {"theta": t}, recommended_bounds(t)) for t in THETAS] + [
    ("two-param", {"alpha": 0.3, "beta": -0.2}, (-2.0, 2.0, -2.0, 2.0)),
    ("catenoid-r3", None, (-2.0, 2.0, -2.0, 2.0)),
    ("hyperbolic-catenoid-l3", None, (-2.0, 2.0, -1.4, 1.4))]


@pytest.mark.parametrize("n_u,n_v", [(17, 17), (33, 65)])
def test_closed_forms_on_the_axes_match_the_mesh_bit_for_bit(n_u, n_v):
    """Every slot of every c f(u) g(v) of the forms table, and every closed
    form of every fixture, gives the same bits at the nodes from an axis
    column and row (Grid2D.on_nodes) as from the full mesh."""
    grid = Grid2D(-2.0, 2.0, -1.4, 1.4, n_u, n_v)
    U, V = grid.mesh()
    for f in catalog._FORMS:
        for g in catalog._FORMS:
            for slot, cb in catalog._product(f, g, -0.7).items():
                assert _bits(grid.on_nodes(cb), grid.shape) == _bits(cb(U, V), grid.shape), \
                    (f, g, slot)
    for name, params, bounds in _AXIS_FIXTURES:
        grid = Grid2D(*bounds, n_u, n_v)
        U, V = grid.mesh()
        for label, cb in _fixture_closed_forms(fixture_by_name(name, grid=grid, params=params)):
            assert _bits(grid.on_nodes(cb), grid.shape) == _bits(cb(U, V), grid.shape), \
                (name, params, label)


@pytest.mark.parametrize("n", [17, 97, 257])
def test_separable_exp_iz_is_within_one_ulp_of_the_joint_exp(n):
    """exp(iz) = e^{iu} e^{-v} against exp(iu - v), value and dz, on the grid
    nodes and on the u-edge and v-edge Gauss node sets of the quadrature."""
    grid = Grid2D(-2.0, 2.0, -2.0, 2.0, n, n)
    a = catalog._holo_exp_iz(grid).analytic
    au, av = grid.axis_u, grid.axis_v
    uq = au[:-1, None] + (fields._GAUSS_X + 1.0) * (grid.h_u / 2.0)
    vq = av[:-1, None] + (fields._GAUSS_X + 1.0) * (grid.h_v / 2.0)
    for u, v in ((au[:, None], av[None, :]), (uq[:, :, None], av[None, None, :]),
                 (au[:, None, None], vq[None, :, :])):
        joint = np.exp(1j * u - v)
        for got, want in ((a.value(u, v), joint), (a.dz(u, v), 1j * joint)):
            assert got.shape == want.shape
            np.testing.assert_array_max_ulp(got.real, want.real, maxulp=1)
            np.testing.assert_array_max_ulp(got.imag, want.imag, maxulp=1)
