import os
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mtsurf import surfaces, tolerances, weierstrass
from mtsurf.catalog import fixture_sigma_theta
from mtsurf.errors import GridMismatchError, InvalidDataError, PoleError
from mtsurf.fields import (
    Analytic,
    ComplexField,
    Grid2D,
    RealField,
    deferred_sweeps,
    sup_abs,
    wirtinger_dz,
)
from mtsurf.surfaces import represent_first, represent_second, represent_third
from mtsurf.weierstrass import (
    WeierstrassFirst,
    WeierstrassSecond,
    deform_elliptic,
    deform_hyperbolic,
    deform_parabolic,
    first_to_second,
    load_data,
    save_data,
    second_to_first,
    validate_first,
    validate_second,
)


def grid(n=17, bounds=(-1.0, 1.0, -1.0, 1.0)):
    return Grid2D(bounds[0], bounds[1], bounds[2], bounds[3], n, n)


def z0(u, v):
    # zero broadcast over both arguments; quadrature callbacks see mixed shapes
    return 0.0 * (np.asarray(u) + np.asarray(v))


def const_complex(g, c):
    return ComplexField.sample(g, Analytic(
        value=lambda u, v, _c=c: _c + z0(u, v) + 0j,
        dz=lambda u, v: z0(u, v) + 0j,
        dzbar=lambda u, v: z0(u, v) + 0j,
    ))


def linear_u(g):
    return RealField.sample(g, Analytic(
        value=lambda u, v: np.asarray(u) + 0.0 * np.asarray(v),
        du=lambda u, v: 1.0 + z0(u, v),
        dv=z0,
        lap=z0,
    ))


def zero_real(g):
    return RealField.sample(g, Analytic(value=z0, du=z0, dv=z0, lap=z0))


def plane_data(g=None):
    g = g or grid()
    return WeierstrassFirst(const_complex(g, 1.0), linear_u(g), zero_real(g))


def shift_residual(actual, target):
    diff = np.asarray(actual) - np.asarray(target)
    return sup_abs(diff - diff[0, 0])


# ---------------------------------------------------------------------------
# validators


def test_validate_first_plane_data_passes():
    report = validate_first(plane_data())
    assert report.ok
    assert report.kind == "first"
    assert report.exact
    im = report.check("immersion")
    assert im.sense == "min_above"
    np.testing.assert_allclose(im.value, 0.5, rtol=1e-14)
    for name in ("nonvanishing", "holomorphic", "compatible"):
        assert report.check(name).passed


def test_validate_first_zero_locus_reported():
    g = grid()
    gauss = ComplexField.sample(g, Analytic(
        value=lambda u, v: np.asarray(u) + 1j * np.asarray(v),
        dz=lambda u, v: 1.0 + 0.0 * np.asarray(u) + 0j,
        dzbar=lambda u, v: 0.0 * np.asarray(u) + 0j,
    ))
    report = validate_first(WeierstrassFirst(gauss, linear_u(g), zero_real(g)))
    assert not report.ok
    bad = report.check("nonvanishing")
    assert not bad.passed
    assert bad.value == 0.0
    assert bad.where == (0.0, 0.0)
    with pytest.raises(InvalidDataError):
        report.raise_for_failure()


def test_validate_second_known_solutions_pass():
    # h = exp(iz) with the two independent potentials M = sinh u sin u,
    # N = e^v cosh u and M = -cos u cos v, N = e^v sin v.
    g = grid(33, (-1.0, 1.0, -1.0, 1.0))
    holo = ComplexField.sample(g, Analytic(
        value=lambda u, v: np.exp(1j * np.asarray(u) - np.asarray(v, dtype=float)),
        dz=lambda u, v: 1j * np.exp(1j * np.asarray(u) - np.asarray(v, dtype=float)),
        dzbar=lambda u, v: 1j * z0(u, v),
    ))
    m1 = RealField.sample(g, Analytic(
        value=lambda u, v: np.sinh(u) * np.sin(u) + z0(u, v),
        du=lambda u, v: np.cosh(u) * np.sin(u) + np.sinh(u) * np.cos(u) + z0(u, v),
        dv=z0,
        lap=lambda u, v: 2.0 * np.cosh(u) * np.cos(u) + z0(u, v),
    ))
    n1 = RealField.sample(g, Analytic(
        value=lambda u, v: np.exp(v) * np.cosh(u),
        du=lambda u, v: np.exp(v) * np.sinh(u),
        dv=lambda u, v: np.exp(v) * np.cosh(u),
        lap=lambda u, v: 2.0 * np.exp(v) * np.cosh(u),
    ))
    rep1 = validate_second(WeierstrassSecond(holo, m1, n1))
    assert rep1.ok and rep1.exact

    m2 = RealField.sample(g, Analytic(
        value=lambda u, v: -np.cos(u) * np.cos(v),
        du=lambda u, v: np.sin(u) * np.cos(v),
        dv=lambda u, v: np.cos(u) * np.sin(v),
        lap=lambda u, v: 2.0 * np.cos(u) * np.cos(v),
    ))
    n2 = RealField.sample(g, Analytic(
        value=lambda u, v: np.exp(v) * np.sin(v) + z0(u, v),
        du=z0,
        dv=lambda u, v: np.exp(v) * (np.sin(v) + np.cos(v)) + z0(u, v),
        lap=lambda u, v: 2.0 * np.exp(v) * np.cos(v) + z0(u, v),
    ))
    rep2 = validate_second(WeierstrassSecond(holo, m2, n2))
    assert rep2.ok
    # min |M_z - Re(h) N_z| = min |cos v| / 2 on this grid
    np.testing.assert_allclose(rep2.check("immersion").value,
                               np.cos(1.0) / 2.0, rtol=1e-12)


def test_validate_second_immersion_failure_located():
    # With M = 0 the immersion expression is |cos u| sqrt(sinh^2 u +
    # cosh^2 u)/2; a grid node exactly at u = pi/2 kills it.
    g = Grid2D(0.0, np.pi, -1.0, 1.0, 33, 17)
    fx = fixture_sigma_theta(0.0, grid=g)
    data = WeierstrassSecond(fx.data.holo, zero_real(g), fx.data.null_pot)
    report = validate_second(data)
    assert not report.ok
    bad = report.check("immersion")
    assert not bad.passed
    assert bad.value < 1e-12
    np.testing.assert_allclose(bad.where[0], np.pi / 2.0, atol=1e-15)
    assert report.check("nonvanishing").passed
    assert report.check("holomorphic").passed


def test_report_to_dict_shape():
    doc = validate_first(plane_data()).to_dict()
    assert doc["kind"] == "first"
    assert doc["ok"] is True
    assert len(doc["checks"]) == 4
    for entry in doc["checks"]:
        assert set(entry) == {"name", "passed", "value", "threshold", "sense", "where"}
    text = str(validate_first(plane_data()))
    assert "first-kind data" in text
    assert "immersion" in text


def test_mixed_grids_rejected():
    g1, g2 = grid(17), grid(9)
    with pytest.raises(GridMismatchError):
        WeierstrassFirst(const_complex(g1, 1.0), linear_u(g1), zero_real(g2))


# ---------------------------------------------------------------------------
# equivalence transforms


def test_first_to_second_constant_example():
    g = grid()
    out = first_to_second(plane_data(g))
    U, _ = g.mesh()
    np.testing.assert_allclose(out.holo.values, 1.0, atol=1e-15)
    np.testing.assert_array_equal(out.null_pot.values, 2.0 * U)
    # dz(height) = 1/2, anchored at the origin node
    assert shift_residual(out.height.values, U) < 1e-12
    assert out.provenance["transform"] == "first_to_second"
    assert out.provenance["identity_residual"] < 1e-12
    assert validate_second(out).ok


def test_second_to_first_constant_example():
    g = grid()
    U, _ = g.mesh()
    two_u = RealField.sample(g, Analytic(
        value=lambda u, v: 2.0 * np.asarray(u) + 0.0 * np.asarray(v),
        du=lambda u, v: 2.0 + z0(u, v),
        dv=z0,
        lap=z0,
    ))
    data = WeierstrassSecond(const_complex(g, 1.0), linear_u(g), two_u)
    out = second_to_first(data)
    np.testing.assert_allclose(out.gauss.values, 1.0, atol=1e-15)
    np.testing.assert_array_equal(out.pot1.values, U)
    # dz(pot2) = 1/2 - 1/2 = 0: the potential is a constant
    assert sup_abs(out.pot2.values - out.pot2.values[0, 0]) < 1e-14
    assert validate_first(out).ok


def test_round_trip_on_theta_zero_data():
    fx = fixture_sigma_theta(0.0, grid=Grid2D(-2.0, 2.0, -2.0, 2.0, 33, 33))
    first = second_to_first(fx.data)
    assert first.provenance["identity_residual"] < 1e-8
    back = first_to_second(first)
    assert back.provenance["identity_residual"] < 1e-8

    assert sup_abs(back.holo.values - fx.data.holo.values) < 1e-12
    assert sup_abs(back.null_pot.values - fx.data.null_pot.values) < 1e-12
    assert shift_residual(back.height.values, fx.data.height.values) < 1e-8
    assert sup_abs(first.gauss.values * fx.data.holo.values - 1.0) < 1e-14
    assert validate_first(first).ok
    assert validate_second(back).ok


# ---------------------------------------------------------------------------
# deformation families


def test_parabolic_frozen_constant_integrand():
    # g = 1, P = u, Q = 0, lambda = 1: the integrand is (1+i)(-i/2) =
    # (1-i)/2, so the new potential is u + v up to the anchoring constant.
    g = grid()
    out = deform_parabolic(plane_data(g), 1.0)
    U, V = g.mesh()
    np.testing.assert_allclose(out.gauss.values, (1.0 - 1j) / 2.0, atol=1e-15)
    np.testing.assert_array_equal(out.pot1.values, U)
    assert shift_residual(out.pot2.values, U + V) < 1e-12
    assert out.provenance["family"] == "parabolic"
    assert out.provenance["parameter"] == 1.0
    assert out.provenance["identity_residual"] < 1e-12
    assert validate_first(out).ok


def test_parabolic_zero_parameter_is_identity():
    data = plane_data()
    out = deform_parabolic(data, 0.0)
    np.testing.assert_array_equal(out.gauss.values, data.gauss.values)
    np.testing.assert_array_equal(out.pot1.values, data.pot1.values)
    assert shift_residual(out.pot2.values, data.pot2.values) < 1e-14


def test_parabolic_pole_refused():
    # g = 2i constant: 1 + i*lambda*g = 1 - 2 lambda vanishes at 0.5.
    g = grid()
    data = WeierstrassFirst(const_complex(g, 2.0j), linear_u(g), zero_real(g))
    assert validate_first(data).ok
    with pytest.raises(PoleError) as err:
        deform_parabolic(data, 0.5)
    assert "pole" in str(err.value)
    # parameters clear of the pole go through
    assert validate_first(deform_parabolic(data, 0.2)).ok


def test_elliptic_full_turn_returns_data():
    fx = fixture_sigma_theta(0.0, grid=grid(17, (-2.0, 2.0, -2.0, -0.5)))
    out = deform_elliptic(fx.data, 2.0 * np.pi)
    assert sup_abs(out.holo.values - fx.data.holo.values) < 1e-12
    np.testing.assert_array_equal(out.null_pot.values, fx.data.null_pot.values)
    assert shift_residual(out.height.values, fx.data.height.values) < 1e-12


def test_hyperbolic_scaling_frozen():
    fx = fixture_sigma_theta(0.0, grid=grid(17, (-2.0, 2.0, -2.0, -0.5)))
    data = second_to_first(fx.data)
    eta = np.log(2.0)
    out = deform_hyperbolic(data, eta)
    assert sup_abs(out.gauss.values - 2.0 * data.gauss.values) < 1e-12
    assert sup_abs(out.pot1.values - 2.0 * data.pot1.values) < 1e-12
    assert sup_abs(out.pot2.values - 0.5 * data.pot2.values) < 1e-12
    assert out.provenance["identity_residual"] < 1e-10
    # the immersion expression scales by e^eta
    old = (wirtinger_dz(data.pot1).values
           - np.abs(data.gauss.values) ** 2 * wirtinger_dz(data.pot2).values)
    new = (wirtinger_dz(out.pot1).values
           - np.abs(out.gauss.values) ** 2 * wirtinger_dz(out.pot2).values)
    assert sup_abs(new - np.exp(eta) * old) < 1e-10
    assert validate_first(out).ok


_FIRST_KIND = second_to_first(
    fixture_sigma_theta(0.0, grid=grid(17, (-2.0, 2.0, -2.0, -0.5))).data)
_SECOND_KIND = fixture_sigma_theta(0.0, grid=grid(17, (-2.0, 2.0, -2.0, -0.5))).data

small = st.floats(min_value=-0.7, max_value=0.7, allow_nan=False)
angles = st.floats(min_value=-3.0, max_value=3.0, allow_nan=False)


@settings(max_examples=20, deadline=None)
@given(p=small, q=small)
def test_parabolic_group_law(p, q):
    once = deform_parabolic(_FIRST_KIND, p + q)
    twice = deform_parabolic(deform_parabolic(_FIRST_KIND, p), q)
    assert sup_abs(twice.gauss.values - once.gauss.values) < 1e-12
    np.testing.assert_array_equal(twice.pot1.values, once.pot1.values)
    assert shift_residual(twice.pot2.values, once.pot2.values) < 1e-12


@settings(max_examples=20, deadline=None)
@given(p=angles, q=angles)
def test_elliptic_group_law(p, q):
    once = deform_elliptic(_SECOND_KIND, p + q)
    twice = deform_elliptic(deform_elliptic(_SECOND_KIND, p), q)
    assert sup_abs(twice.holo.values - once.holo.values) < 1e-12
    np.testing.assert_array_equal(twice.null_pot.values, once.null_pot.values)
    assert shift_residual(twice.height.values, once.height.values) < 1e-12


@settings(max_examples=20, deadline=None)
@given(p=st.floats(min_value=-1.0, max_value=1.0, allow_nan=False),
       q=st.floats(min_value=-1.0, max_value=1.0, allow_nan=False))
def test_hyperbolic_group_law(p, q):
    once = deform_hyperbolic(_FIRST_KIND, p + q)
    twice = deform_hyperbolic(deform_hyperbolic(_FIRST_KIND, p), q)
    assert sup_abs(twice.gauss.values - once.gauss.values) < 1e-12
    assert sup_abs(twice.pot1.values - once.pot1.values) < 1e-12
    assert sup_abs(twice.pot2.values - once.pot2.values) < 1e-12


def test_deformed_data_revalidates_without_callbacks():
    g = Grid2D(-2.0, 2.0, -2.0, -0.5, 33, 33)
    data = second_to_first(fixture_sigma_theta(0.0, grid=g).data)
    out = deform_parabolic(data, 0.5)
    stripped = WeierstrassFirst(
        ComplexField(g, out.gauss.values),
        RealField(g, out.pot1.values),
        RealField(g, out.pot2.values))
    report = validate_first(stripped)
    assert not report.exact
    assert report.ok


# ---------------------------------------------------------------------------
# the callback-free route of the transform core


def _strip(data):
    """The same triple with samples only, as a reloaded document has."""
    cls = type(data)
    holo, a, b = (getattr(data, f.name) for f in fields(cls)[:3])
    return cls(ComplexField(holo.grid, holo.values), RealField(a.grid, a.values),
               RealField(b.grid, b.values), data.provenance)


_TRANSFORMS = [
    ("first_to_second", "first", first_to_second, {"transform": "first_to_second"}),
    ("second_to_first", "second", second_to_first, {"transform": "second_to_first"}),
    ("parabolic", "first", lambda d: deform_parabolic(d, 0.5),
     {"family": "parabolic", "parameter": 0.5}),
    ("elliptic", "second", lambda d: deform_elliptic(d, 0.8),
     {"family": "elliptic", "parameter": 0.8}),
    ("hyperbolic", "first", lambda d: deform_hyperbolic(d, 0.6),
     {"family": "hyperbolic", "parameter": 0.6}),
]


@pytest.mark.parametrize("n", [33, 65])
@pytest.mark.parametrize("name,kind,transform,head", _TRANSFORMS,
                         ids=[t[0] for t in _TRANSFORMS])
def test_transforms_on_sample_only_data(n, name, kind, transform, head):
    g = Grid2D(-2.0, 2.0, -2.0, 2.0, n, n)
    second = fixture_sigma_theta(0.3, grid=g).data
    data = _strip(second if kind == "second" else second_to_first(second))
    out = transform(data)
    for f in fields(type(out))[:3]:
        assert not getattr(out, f.name).analytic, f.name          # an empty bundle
    prov = out.provenance
    for key, value in head.items():
        assert prov[key] == value
    assert prov["source"] == dict(data.provenance)
    assert np.isfinite(prov["identity_residual"])
    if name == "hyperbolic":
        assert "loop_residual" not in prov
    else:
        assert prov["loop_residual"] <= 50.0 * g.h_u ** 2


def test_one_invalid_triple_stops_every_transform():
    # pot1 = u against a noisy pot2 breaks the coupling under either kind
    g = grid(17)
    noise = RealField(g, 5.0 * np.random.default_rng(7).standard_normal(g.shape))
    holo = ComplexField(g, np.ones(g.shape, complex))
    pot = RealField(g, g.mesh()[0])
    triples = {"first": WeierstrassFirst(holo, pot, noise),
               "second": WeierstrassSecond(holo, pot, noise)}
    for _, kind, transform, _ in _TRANSFORMS:
        with pytest.raises(InvalidDataError, match=r"compatible\s+FAIL"):
            transform(triples[kind])


_CONVERT = {"first": second_to_first, "second": first_to_second}


@pytest.mark.parametrize("kind,transform", [t[1:3] for t in _TRANSFORMS],
                         ids=[t[0] for t in _TRANSFORMS])
def test_transforms_convert_data_of_the_other_kind(kind, transform):
    # one kind rule: data of the other kind gets the conversion a caller
    # would apply first, bit for bit
    second = fixture_sigma_theta(0.3, grid=grid(33, (-2.0, 2.0, -2.0, 0.0))).data
    other = second if kind == "first" else second_to_first(second)
    out, explicit = transform(other), transform(_CONVERT[kind](other))
    assert type(out) is type(explicit)
    for f in fields(type(out))[:3]:
        assert (getattr(out, f.name).values.tobytes()
                == getattr(explicit, f.name).values.tobytes()), f.name
    assert out.provenance == explicit.provenance


def test_invalid_data_of_the_other_kind_raises_before_any_integration(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("an uncertified triple was integrated")

    monkeypatch.setattr(weierstrass, "integrate_primitive", refuse)
    monkeypatch.setattr(surfaces, "_integrate_primitives", refuse)
    g = grid(17)
    noise = RealField(g, 5.0 * np.random.default_rng(7).standard_normal(g.shape))
    holo = ComplexField(g, np.ones(g.shape, complex))
    pot = RealField(g, g.mesh()[0])
    # the triple of the kind other than each transform's own
    other = {"first": WeierstrassSecond(holo, pot, noise),
             "second": WeierstrassFirst(holo, pot, noise)}
    calls = [(transform, other[kind]) for _, kind, transform, _ in _TRANSFORMS]
    calls += [(represent_first, other["first"]), (represent_second, other["second"]),
              (represent_third, other["first"])]
    for call, data in calls:
        with pytest.raises(InvalidDataError, match=r"compatible\s+FAIL"):
            call(data)


def exp_iz_plane(g):
    """First-kind data (exp(iz), u, 0): every certification residual is an
    exact zero, while integrals of exp(-iz) keep a roundoff loop residual."""
    gauss = ComplexField.sample(g, Analytic(
        value=lambda u, v: np.exp(1j * (u + 1j * np.asarray(v))),
        dz=lambda u, v: 1j * np.exp(1j * (u + 1j * np.asarray(v))),
        dzbar=lambda u, v: z0(u, v) + 0j))
    return WeierstrassFirst(gauss, linear_u(g), zero_real(g))


def test_tol_exact_reaches_certification_and_loop_caps(monkeypatch):
    # the table's TOL_EXACT is read wherever an exact cap is set
    data = exp_iz_plane(grid(17))
    monkeypatch.setattr(tolerances, "TOL_EXACT", 1e-300)
    cert = weierstrass._certificate(data)
    assert cert.report.ok
    assert cert.report.check("holomorphic").threshold == 1e-300
    assert cert.report.check("compatible").threshold == 1e-300
    # the loop caps of the transform core and the representation read it too
    with pytest.raises(ValueError, match=r"first_to_second: loop residual .* exceeds 1\.000e-300"):
        first_to_second(cert)
    with pytest.raises(ValueError, match=r"represent_first: coordinate 1 loop .* exceeds 1\.000e-300"):
        represent_first(cert)
    monkeypatch.undo()
    assert first_to_second(weierstrass._certificate(data)).provenance["loop_residual"] > 0.0


def test_a_deferred_loop_failure_keeps_its_message(monkeypatch):
    # inside a deferral scope the conversion's loop gate fires when its
    # potential is swept: on the first read of its samples, or when the
    # scope closes, with the message of the eager gate
    cert = weierstrass._certificate(exp_iz_plane(grid(17)))
    monkeypatch.setattr(tolerances, "TOL_EXACT", 1e-300)
    message = r"first_to_second: loop residual .* exceeds 1\.000e-300"
    with deferred_sweeps():
        out = first_to_second(cert)
        with pytest.raises(ValueError, match=message):
            out.height.values
    with pytest.raises(ValueError, match=message):
        with deferred_sweeps():
            first_to_second(cert)


def test_deferred_provenance_records_the_swept_residuals():
    # the conversion's residual reaches its own provenance and the copy that
    # the deformation keeps as its source
    data = fixture_sigma_theta(0.3, grid=grid(17)).data
    eager = deform_parabolic(second_to_first(data), 0.5).provenance
    with deferred_sweeps():
        deferred = deform_parabolic(second_to_first(data), 0.5).provenance
        assert np.isnan(deferred["loop_residual"]) and np.isnan(deferred["source"]["loop_residual"])
    assert list(deferred) == list(eager) and list(deferred["source"]) == list(eager["source"])
    assert deferred == eager


def test_parabolic_gauss_evaluates_its_input_once_per_call():
    data = exp_iz_plane(grid(9))
    calls = []
    inner = data.gauss.analytic

    def value(u, v):
        calls.append(1)
        return inner.value(u, v)

    counted = WeierstrassFirst(ComplexField(data.grid, data.gauss.values,
                                            Analytic(value=value, dz=inner.dz,
                                                     dzbar=inner.dzbar)),
                               data.pot1, data.pot2)
    out = deform_parabolic(counted, 0.3).gauss.analytic
    del calls[:]
    out.value(0.1, 0.2)
    assert len(calls) == 1
    del calls[:]
    out.dz(0.1, 0.2)
    assert len(calls) == 1


def test_integrated_potential_keeps_a_direct_dz():
    out = first_to_second(exp_iz_plane(grid(9))).height.analytic
    assert out._dz is not None and out._dzbar is not None and out.has_lap
    np.testing.assert_allclose(out.dz(0.3, -0.2), np.exp(-1j * (0.3 - 0.2j)) / 2.0, rtol=1e-15)


def bits(x):
    return np.ascontiguousarray(x).view(np.uint64)


def node_set():
    """Off-grid (rows, 5, n_v) coordinates, shaped like a Gauss node set."""
    return (np.linspace(-1.3, 1.7, 20).reshape(4, 5, 1),
            np.linspace(-1.1, 0.9, 7)[None, None, :])


# Each transform's new holomorphic field as its value, dz and dzbar used to
# be written out by hand, from the callbacks a of the input field.
_RECIPROCAL = (lambda a, u, v: 1.0 / a.value(u, v),
               lambda a, u, v: -a.dz(u, v) / a.value(u, v) ** 2,
               lambda a, u, v: -a.dzbar(u, v) / a.value(u, v) ** 2)
_CHAIN_RULE = {
    "first_to_second": ("first", "holo", first_to_second, _RECIPROCAL),
    "second_to_first": ("second", "gauss", second_to_first, _RECIPROCAL),
    "parabolic": ("first", "gauss", lambda d: deform_parabolic(d, 0.5), (
        lambda a, u, v: a.value(u, v) / (1.0 + 1j * 0.5 * a.value(u, v)),
        lambda a, u, v: a.dz(u, v) / (1.0 + 1j * 0.5 * a.value(u, v)) ** 2,
        lambda a, u, v: a.dzbar(u, v) / (1.0 + 1j * 0.5 * a.value(u, v)) ** 2)),
    "elliptic": ("second", "holo", lambda d: deform_elliptic(d, 0.8), (
        lambda a, u, v: np.exp(-1j * 0.8) * a.value(u, v),
        lambda a, u, v: np.exp(-1j * 0.8) * a.dz(u, v),
        lambda a, u, v: np.exp(-1j * 0.8) * a.dzbar(u, v))),
    "hyperbolic": ("first", "gauss", lambda d: deform_hyperbolic(d, 0.6), (
        lambda a, u, v: np.exp(0.6) * a.value(u, v),
        lambda a, u, v: np.exp(0.6) * a.dz(u, v),
        lambda a, u, v: np.exp(0.6) * a.dzbar(u, v))),
}


@pytest.mark.parametrize("name", sorted(_CHAIN_RULE))
def test_holomorphic_callbacks_follow_the_chain_rule_bit_for_bit(name):
    kind, out_name, transform, closed_forms = _CHAIN_RULE[name]
    second = fixture_sigma_theta(0.3, grid=grid(17, (-2.0, 2.0, -2.0, 2.0))).data
    data = second if kind == "second" else second_to_first(second)
    a = (data.holo if kind == "second" else data.gauss).analytic
    out = getattr(transform(data), out_name).analytic
    u, v = node_set()
    for slot, closed in zip(("value", "dz", "dzbar"), closed_forms):
        assert np.array_equal(bits(getattr(out, slot)(u, v)), bits(closed(a, u, v))), slot


def test_a_scaled_potential_is_c_times_its_input_signed_zeros_included():
    g = grid(9)

    def negative_zero(u, v):
        return -0.0 * (np.asarray(u) ** 2 + np.asarray(v) ** 2)

    nz = RealField.sample(g, Analytic(value=negative_zero, du=negative_zero,
                                      dv=negative_zero, lap=negative_zero))
    gauss = exp_iz_plane(g).gauss
    s = np.exp(0.6)
    cases = [(first_to_second(WeierstrassFirst(gauss, nz, linear_u(g))).null_pot, 2.0, nz),
             (deform_hyperbolic(WeierstrassFirst(gauss, linear_u(g), nz), 0.6).pot2, 1.0 / s, nz),
             (deform_hyperbolic(WeierstrassFirst(gauss, linear_u(g), nz), 0.6).pot1, s,
              linear_u(g))]
    assert np.signbit(nz.values).all()
    u, v = node_set()
    for out, c, f in cases:
        assert np.array_equal(bits(out.values), bits(c * f.values))
        for slot in ("value", "dz", "dzbar", "lap"):
            got = getattr(out.analytic, slot)(u, v)
            assert np.array_equal(bits(got), bits(c * getattr(f.analytic, slot)(u, v))), slot
    assert np.signbit(cases[0][0].values).all() and np.signbit(cases[1][0].values).all()


# ---------------------------------------------------------------------------
# serialization


@pytest.mark.parametrize("payload", ["csv", "binary"])
def test_save_load_round_trip_second_kind(tmp_path, payload):
    fx = fixture_sigma_theta(0.25, grid=grid(17, (-2.0, 2.0, -2.0, 2.0)))
    path = os.path.join(str(tmp_path), "data.json")
    written = save_data(fx.data, path, payload=payload)
    assert written[0] == path
    for f in written:
        assert os.path.exists(f)
    loaded = load_data(path)
    assert isinstance(loaded, WeierstrassSecond)
    assert loaded.grid == fx.grid
    np.testing.assert_array_equal(loaded.holo.values, fx.data.holo.values)
    np.testing.assert_array_equal(loaded.height.values, fx.data.height.values)
    np.testing.assert_array_equal(loaded.null_pot.values, fx.data.null_pot.values)
    assert loaded.provenance["name"] == "sigma-theta"
    assert loaded.provenance["theta"] == 0.25


def test_save_load_round_trip_first_kind(tmp_path):
    data = deform_parabolic(plane_data(), 1.0)
    path = os.path.join(str(tmp_path), "first.json")
    save_data(data, path)
    loaded = load_data(path)
    assert isinstance(loaded, WeierstrassFirst)
    np.testing.assert_array_equal(loaded.gauss.values, data.gauss.values)
    np.testing.assert_array_equal(loaded.pot2.values, data.pot2.values)
    assert loaded.provenance["family"] == "parabolic"


@pytest.mark.filterwarnings("ignore::RuntimeWarning")     # inf - inf in the differences
def test_an_infinite_field_fails_its_certificate():
    # a gauss field that is inf everywhere: the report fails nonvanishing
    # and raising for it says so
    g = Grid2D(-1.0, 1.0, -1.0, 1.0, 9, 9)
    U, V = g.mesh()
    cert = weierstrass._certify("first", ComplexField(g, np.full(g.shape, np.inf + 0j)),
                                RealField(g, U), RealField(g, V))
    check = cert.report.check("nonvanishing")
    assert check.value == np.inf and not check.passed and not cert.report.ok
    with pytest.raises(InvalidDataError, match="nonvanishing FAIL"):
        cert.report.raise_for_failure()


@pytest.mark.parametrize("value", [np.inf, -np.inf, np.nan])
def test_a_non_finite_certificate_value_fails_in_either_sense(value):
    # the rule of the manifest checks: a nonvanishing floor of inf is no pass
    g = Grid2D(0.0, 1.0, 0.0, 1.0, 5, 5)
    arr = np.full(g.shape, value)
    assert not weierstrass._min_check("nonvanishing", g, arr, 1e-6).passed
    assert not weierstrass._sup_interior_check("holomorphic", g, arr, 1e-6).passed
