import dataclasses
import math
import tracemalloc

import numpy as np
import pytest

from mtsurf import cli, fields, surfaces
from mtsurf.catalog import fixture_classical, fixture_sigma_theta
from mtsurf.errors import DomainError, InvalidDataError
from mtsurf.fields import (
    _QUAD_ROWS,
    Analytic,
    ComplexField,
    Grid2D,
    RealField,
    lincomb_real,
    sup_abs,
    wirtinger_dz,
)
from mtsurf.lorentz import rotation
from mtsurf.surfaces import (
    SurfacePatch,
    liu_decompose,
    mean_curvature,
    patch_from_chart,
    patch_from_samples,
    quadric_residual,
    represent_first,
    represent_second,
    represent_third,
    verify_congruence,
)
from mtsurf.tolerances import PSI_CUTOFF, cap, fd_cap
from mtsurf.weierstrass import (
    WeierstrassFirst,
    _certificate,
    deform_elliptic,
    deform_hyperbolic,
    deform_parabolic,
    first_to_second,
    second_to_first,
)

INVARIANT_KEYS = {"conformality", "conformal_min", "mean_null", "gauss_tangency",
                  "gauss_null", "metric_agreement", "loop_residual",
                  "coordinate_identity"}


def grid33(bounds=(-2.0, 2.0, -2.0, 2.0)):
    return Grid2D(bounds[0], bounds[1], bounds[2], bounds[3], 33, 33)


def z0(u, v):
    return 0.0 * (np.asarray(u) + np.asarray(v))


def real_u(g):
    return RealField.sample(g, Analytic(
        value=lambda u, v: np.asarray(u) + 0.0 * np.asarray(v),
        du=lambda u, v: 1.0 + z0(u, v), dv=z0, lap=z0))


def real_zero(g):
    return RealField.sample(g, Analytic(value=z0, du=z0, dv=z0, lap=z0))


def plane_first(g):
    gauss = ComplexField.sample(g, Analytic(
        value=lambda u, v: 1.0 + z0(u, v) + 0j,
        dz=lambda u, v: z0(u, v) + 0j,
        dzbar=lambda u, v: z0(u, v) + 0j))
    return WeierstrassFirst(gauss, real_u(g), real_zero(g))


def mean_centered(patch):
    x = patch.x_stack
    return x - x.mean(axis=(1, 2))[:, None, None]


# ---------------------------------------------------------------------------
# representation routes


def test_plane_patch_frozen():
    g = Grid2D(-1.0, 1.0, -1.0, 1.0, 17, 17)
    patch = represent_first(plane_first(g))
    U, V = g.mesh()
    np.testing.assert_allclose(patch.x_stack[0], U + 1.0, atol=1e-14)
    np.testing.assert_allclose(patch.x_stack[1], -(V + 1.0), atol=1e-14)
    np.testing.assert_allclose(patch.x_stack[2], U + 1.0, atol=1e-14)
    np.testing.assert_allclose(patch.x_stack[3], U + 1.0, atol=1e-14)
    assert sup_abs(patch.h_stack) == 0.0
    assert patch.invariants["conformality"] < 1e-15
    assert patch.invariants["conformal_min"] > 0.0


def test_represent_second_matches_chart():
    fx = fixture_sigma_theta(math.pi / 8, grid=grid33())
    patch = represent_second(fx.data, anchor=fx.expected["anchor"])
    chart = np.stack([c.values for c in fx.chart])
    assert sup_abs(patch.x_stack - chart) < 1e-8
    inv = patch.invariants
    assert set(inv) == INVARIANT_KEYS
    assert inv["conformality"] < 1e-10
    assert inv["metric_agreement"] < 1e-10
    assert inv["mean_null"] < 1e-12
    assert inv["gauss_tangency"] < 1e-10
    assert inv["gauss_null"] < 1e-10
    assert inv["coordinate_identity"] < 1e-10
    assert inv["loop_residual"] < 1e-8
    assert inv["conformal_min"] > 0.0
    assert patch.provenance["representation"] == "second"


def test_three_routes_agree():
    fx = fixture_sigma_theta(0.0, grid=grid33())
    p2 = represent_second(fx.data)
    d1 = second_to_first(fx.data)
    p1 = represent_first(d1)
    assert sup_abs(mean_centered(p1) - mean_centered(p2)) < 1e-8

    coord3 = lincomb_real([(1.0, d1.pot1), (-1.0, d1.pot2)])
    coord4 = lincomb_real([(1.0, d1.pot1), (1.0, d1.pot2)])
    p3 = represent_third(d1.gauss, coord3, coord4)
    assert sup_abs(mean_centered(p3) - mean_centered(p1)) < 1e-8
    assert p3.provenance["representation"] == "third"


def test_represent_rejects_invalid_data():
    g = Grid2D(-1.0, 1.0, -1.0, 1.0, 17, 17)
    gauss = ComplexField.sample(g, Analytic(
        value=lambda u, v: np.asarray(u) + 1j * np.asarray(v),
        dz=lambda u, v: 1.0 + z0(u, v) + 0j,
        dzbar=lambda u, v: z0(u, v) + 0j))
    bad = WeierstrassFirst(gauss, real_u(g), real_zero(g))
    with pytest.raises(InvalidDataError):
        represent_first(bad)
    with pytest.raises(InvalidDataError):
        represent_third(gauss, real_u(g), real_zero(g))


def test_third_route_minimal_reduction():
    # gauss = e^z, coord3 = u, coord4 = 0: a minimal catenoid patch inside
    # the Euclidean slice x4 = const with factor cosh^2 u
    g = grid33((-1.0, 1.0, -1.0, 1.0))
    gauss = ComplexField.sample(g, Analytic(
        value=lambda u, v: np.exp(u) * np.exp(1j * np.asarray(v)),
        dz=lambda u, v: np.exp(u) * np.exp(1j * np.asarray(v)),
        dzbar=lambda u, v: z0(u, v) + 0j))
    patch = represent_third(gauss, real_u(g), real_zero(g))
    U, _ = g.mesh()
    assert sup_abs(patch.x_stack[3]) == 0.0
    assert sup_abs(patch.h_stack) == 0.0
    np.testing.assert_allclose(patch.conformal_factor.values, np.cosh(U) ** 2,
                               atol=1e-12)
    assert patch.invariants["conformality"] < 1e-12


def test_third_route_maximal_reduction():
    # gauss = 2 e^z keeps |gauss| > 1; coord3 = 0, coord4 = u gives a
    # maximal patch inside the Lorentz slice x3 = const
    g = grid33((-0.5, 0.5, -0.5, 0.5))
    gauss = ComplexField.sample(g, Analytic(
        value=lambda u, v: 2.0 * np.exp(u) * np.exp(1j * np.asarray(v)),
        dz=lambda u, v: 2.0 * np.exp(u) * np.exp(1j * np.asarray(v)),
        dzbar=lambda u, v: z0(u, v) + 0j))
    patch = represent_third(gauss, real_zero(g), real_u(g))
    U, _ = g.mesh()
    mag = 2.0 * np.exp(U)
    assert sup_abs(patch.x_stack[2]) == 0.0
    assert sup_abs(patch.h_stack) == 0.0
    np.testing.assert_allclose(patch.conformal_factor.values,
                               (mag - 1.0 / mag) ** 2 / 4.0, atol=1e-12)


def test_anchor_lands_on_requested_point():
    fx = fixture_sigma_theta(0.0, grid=grid33())
    anchor = (1.0, -2.0, 3.0, 0.5)
    patch = represent_second(fx.data, anchor=anchor)
    got = tuple(float(c) for c in patch.x_stack[:, 0, 0])
    assert got == anchor
    default = represent_second(fx.data)
    assert tuple(float(c) for c in default.x_stack[:, 0, 0]) == (0.0,) * 4


def test_loop_certificate_rejects_nonintegrable_input():
    g = Grid2D(-1.0, 1.0, -1.0, 1.0, 17, 17)
    rng = np.random.default_rng(7)
    noise = RealField(g, 5.0 * rng.standard_normal(g.shape))
    data = WeierstrassFirst(ComplexField(g, np.ones(g.shape, complex)),
                            RealField(g, g.mesh()[0]), noise)
    with pytest.raises(InvalidDataError, match=r"compatible\s+FAIL"):
        represent_first(data)
    # the loop certificate itself, on the tangent field of the same data
    w = data.gauss.values
    p_z = wirtinger_dz(data.pot1).values
    q_z = wirtinger_dz(data.pot2).values
    spec = surfaces._KINDS["first"]
    xz = np.stack([p_z * c1(w) + q_z * c2(w) for c1, c2 in zip(spec.frame1, spec.frame2)])
    with pytest.raises(ValueError) as err:
        surfaces._integrate_coords([ComplexField(g, row) for row in xz], None,
                                   cap("loop_residual", g, False), "represent_first")
    assert "loop residual" in str(err.value)


def test_nonintegrable_coordinate_is_named():
    # coordinates 1, 2 and 4 integrate z (dzbar z = 0); coordinate 3 is
    # i conj(z), whose dzbar = i is not real, so only it breaks the loop cap
    g = Grid2D(-1.0, 1.0, -1.0, 1.0, 9, 9)
    formulas = [lambda z: z, lambda z: 2.0 * z, lambda z: 1j * np.conj(z), lambda z: -z]
    U, V = g.mesh()
    tangents = [ComplexField(g, f(U + 1j * V), Analytic(value=lambda u, v, _f=f: _f(u + 1j * v)))
                for f in formulas]
    with pytest.raises(ValueError, match=r"represent_first: coordinate 3 loop residual"):
        surfaces._integrate_coords(tangents, None, 1e-8, "represent_first")


def _counted(fld, calls, name):
    """``fld`` with callbacks that record each evaluation on a Gauss node set
    (3-D coordinate arrays; evaluations on the grid nodes are 2-D)."""
    a = fld.analytic

    def wrap(slot, cb):
        def counted(u, v):
            if np.ndim(u) == 3:
                calls[name + "." + slot] = calls.get(name + "." + slot, 0) + 1
            return cb(u, v)
        return counted

    slots = {"dz": a.dz, "dzbar": a.dzbar, "lap": a.lap}
    if a.has_value:
        slots["value"] = a.value
    return type(fld)(fld.grid, fld.values,
                     Analytic(**{k: wrap(k, cb) for k, cb in slots.items()}))


@pytest.mark.parametrize("rep", ["first", "second", "third"])
def test_represent_evaluates_each_input_once_per_node_set_block(rep):
    n_u = _QUAD_ROWS + 2                            # two row blocks
    fx = fixture_sigma_theta(0.3, grid=Grid2D(-2.0, 2.0, -2.0, 0.0, n_u, 9))
    calls = {}
    if rep == "second":
        d = fx.data
        triple = (d.holo, d.height, d.null_pot)
    else:
        d = second_to_first(fx.data)
        triple = (d.gauss, d.pot1, d.pot2)
        if rep == "third":
            triple = (d.gauss, lincomb_real([(1.0, d.pot1), (-1.0, d.pot2)]),
                      lincomb_real([(1.0, d.pot1), (1.0, d.pot2)]))
    holo, a, b = (_counted(f, calls, name) for f, name in zip(triple, "wab"))
    if rep == "first":
        represent_first(WeierstrassFirst(holo, a, b))
    elif rep == "second":
        represent_second(type(fx.data)(holo, a, b))
    else:
        represent_third(holo, a, b)
    # per block one u-edge and one v-edge node set, shared by the four
    # coordinates; the potentials are read through dz only
    assert calls == {"w.value": 4, "a.dz": 4, "b.dz": 4}


# ---------------------------------------------------------------------------
# congruence with the deformation families


def test_parabolic_deformation_is_congruent():
    fx = fixture_sigma_theta(0.0, grid=grid33((-2.0, 2.0, -2.0, 0.0)))
    d1 = second_to_first(fx.data)
    lam = 0.5
    before = represent_first(d1)
    after = represent_first(deform_parabolic(d1, lam))
    report = verify_congruence(before, after, rotation("parabolic", lam))
    assert report["passed"]
    assert report["residual"] < 1e-6
    assert report["rotation_family"] == "parabolic"


def test_elliptic_deformation_is_congruent():
    fx = fixture_sigma_theta(0.0, grid=grid33())
    tau = 0.8
    before = represent_second(fx.data)
    after = represent_second(deform_elliptic(fx.data, tau))
    report = verify_congruence(before, after, rotation("elliptic", tau))
    assert report["passed"]
    assert report["residual"] < 1e-6


def test_hyperbolic_deformation_is_congruent():
    fx = fixture_sigma_theta(0.0, grid=grid33())
    d1 = second_to_first(fx.data)
    eta = 0.6
    before = represent_first(d1)
    after = represent_first(deform_hyperbolic(d1, eta))
    report = verify_congruence(before, after, rotation("hyperbolic", eta))
    assert report["passed"]
    assert report["residual"] < 1e-6


def test_congruence_identity_and_grid_guard():
    fx = fixture_sigma_theta(0.0, grid=grid33())
    patch = represent_second(fx.data)
    report = verify_congruence(patch, patch, rotation("elliptic", 0.0))
    assert report["residual"] == 0.0
    assert report["translation"] == [0.0, 0.0, 0.0, 0.0]

    other = represent_second(fixture_sigma_theta(0.0, grid=Grid2D(
        -2.0, 2.0, -2.0, 2.0, 17, 17)).data)
    with pytest.raises(DomainError):
        verify_congruence(patch, other, rotation("elliptic", 0.0))


# ---------------------------------------------------------------------------
# one quadrature sweep for the two patches of a deformation

_FAMILIES = {"parabolic": ("first", deform_parabolic, 0.5),
             "elliptic": ("second", deform_elliptic, 0.8),
             "hyperbolic": ("first", deform_hyperbolic, 0.6)}


def _deform_pair(family, grid):
    """(represent, base certificate, deformed certificate) of ``family``, as
    the deform command builds them from the sigma-theta data."""
    kind, deform, parameter = _FAMILIES[family]
    data = fixture_sigma_theta(0.3, grid=grid).data
    base = _certificate(data if kind == "second" else second_to_first(data))
    represent = represent_first if kind == "first" else represent_second
    return represent, base, _certificate(deform(base, parameter))


@pytest.mark.parametrize("family", sorted(_FAMILIES))
@pytest.mark.parametrize("shape", [(33, 33), (65, 65), (129, 33)])
def test_one_sweep_gives_the_patches_of_separate_calls_bit_for_bit(family, shape):
    # 129 rows span three row blocks of the quadrature
    grid = Grid2D(-2.0, 2.0, -2.0, 0.0, *shape)
    represent, base, deformed = _deform_pair(family, grid)
    together = represent([base, deformed])
    assert len(together) == 2
    for swept, alone in zip(together, (represent(base), represent(deformed))):
        for name in ("x_stack", "xz_stack", "xzzbar_stack", "h_stack", "gauss_stack"):
            assert getattr(swept, name).tobytes() == getattr(alone, name).tobytes(), name
            assert not getattr(swept, name).flags.writeable
        assert swept.conformal_factor.values.tobytes() == alone.conformal_factor.values.tobytes()
        assert swept.invariants == alone.invariants
        assert swept.provenance == alone.provenance
        assert swept.exact is alone.exact is True


def test_representations_convert_data_of_the_other_kind_bit_for_bit():
    second = fixture_sigma_theta(0.3, grid=grid33()).data
    for represent, other, convert in ((represent_first, second, second_to_first),
                                      (represent_second, second_to_first(second),
                                       first_to_second)):
        patch, explicit = represent(other), represent(convert(other))
        for name in ("x_stack", "xz_stack", "xzzbar_stack", "h_stack", "gauss_stack"):
            assert getattr(patch, name).tobytes() == getattr(explicit, name).tobytes(), name
        assert patch.invariants == explicit.invariants
        assert patch.provenance == explicit.provenance
        assert patch.provenance["source"]["transform"] == convert.__name__


def test_constant_frame_entries_multiply_as_their_complex_forms_did():
    # 1 + 0j and -1 + 0j hold the bits of 1.0 + 0j * w and -1.0 + 0j * w for
    # every finite w, whichever zeros w's parts are
    parts = np.array([0.0, -0.0, 5e-324, -5e-324, 1.5, -2.5, 1e308, -1e308])
    w = (parts[:, None] + 1j * parts[None, :]).ravel()
    a_z = w[::-1]
    for frame, old in ((surfaces._one, 1.0 + 0j * w),
                       (surfaces._KINDS["first"].frame2[2], -1.0 + 0j * w)):
        assert (a_z * frame(w)).tobytes() == (a_z * old).tobytes()


def test_triples_of_different_routes_or_grids_are_swept_one_at_a_time():
    # the FD copy of a triple, or a triple on another grid, cannot share the
    # exact triple's Gauss sweep
    grid = Grid2D(-2.0, 2.0, -2.0, 0.0, 17, 17)
    data = fixture_sigma_theta(0.3, grid=grid).data
    plain = type(data)(*(type(f)(grid, f.values) for f in (data.holo, data.height,
                                                           data.null_pot)))
    other = fixture_sigma_theta(0.3, grid=grid33()).data
    patches = represent_second([data, plain, other])
    assert [p.exact for p in patches] == [True, False, True]
    for patch, triple in zip(patches, (data, plain, other)):
        assert patch.grid == triple.grid
        assert patch.x_stack.tobytes() == represent_second(triple).x_stack.tobytes()


def test_every_certificate_raises_before_the_sweep():
    grid = Grid2D(-1.0, 1.0, -1.0, 1.0, 17, 17)
    noise = RealField(grid, np.random.default_rng(3).standard_normal(grid.shape))
    bad = WeierstrassFirst(ComplexField(grid, np.ones(grid.shape, complex)),
                           RealField(grid, grid.mesh()[0]), noise)
    good = second_to_first(fixture_sigma_theta(0.3, grid=grid).data)
    calls = {}
    counted = WeierstrassFirst(*(_counted(f, calls, name) for f, name
                                 in zip((good.gauss, good.pot1, good.pot2), "wab")))
    with pytest.raises(InvalidDataError, match=r"compatible\s+FAIL"):
        represent_first([counted, bad])
    assert calls == {}                              # no Gauss node was evaluated


def test_the_evaluation_scope_is_empty_after_a_sweep_and_after_a_raise():
    grid = Grid2D(-2.0, 2.0, -2.0, 0.0, _QUAD_ROWS + 2, 9)
    represent, base, deformed = _deform_pair("parabolic", grid)
    represent([base, deformed])
    assert getattr(fields._EVAL, "scope", None) is None

    seen = []

    def value(u, v):
        if np.ndim(u) == 3:
            seen.append(dict(fields._EVAL.scope))
            if len(seen) == 2:                      # the second node set
                raise ZeroDivisionError("mid-sweep")
        return np.exp(1j * (u + 1j * v))

    field = ComplexField.sample(grid, Analytic(value=value))
    with pytest.raises(ZeroDivisionError, match="mid-sweep"):
        fields.integrate_primitive(field)
    assert len(seen) == 2 and seen[1] == {}         # one fresh scope per node set
    assert getattr(fields._EVAL, "scope", None) is None


def test_a_memoised_result_is_read_only_and_keyed_by_identity():
    # within a node set a nested callback answers a repeated call on the same
    # arrays with its first, read-only result; other arrays and calls
    # outside a sweep are evaluated afresh
    inner = Analytic(value=lambda u, v: np.exp(1j * (u + 1j * v)))
    seen = []

    def outer(u, v):
        first = inner.value(u, v)
        if np.ndim(u) == 3:
            seen.append((first, inner.value(u, v), inner.value(u.copy(), v)))
        return first

    grid = Grid2D(-1.0, 1.0, -1.0, 1.0, 9, 9)
    fields.integrate_primitive(ComplexField.sample(grid, Analytic(value=outer)))
    assert len(seen) == 2                           # one block, two node sets
    for first, again, copied in seen:
        assert again is first and copied is not first
        assert not first.flags.writeable
        with pytest.raises(ValueError):
            first[0, 0, 0] = 0.0
    u, v = grid.mesh()
    assert inner.value(u, v) is not inner.value(u, v)
    assert inner.value(u, v).flags.writeable


def _deform_17(tmp_path):
    assert cli.main(["deform", "--fixture", "sigma-theta", "--theta", "0.3",
                     "--grid=-2:2:-2:0:17x17", "--family", "parabolic", "--parameter", "0.5",
                     "--out", str(tmp_path)]) == 0


def _sweep_reading_du(tmp_path):
    # Analytic.du reads both dz and dzbar of the height's (du, dv) bundle
    grid = Grid2D(-2.0, 2.0, -2.0, 0.0, 17, 17)
    height = fixture_sigma_theta(0.3, grid=grid).data.height.analytic
    fields.integrate_primitive(ComplexField.sample(grid, Analytic(value=height.du)))


@pytest.mark.parametrize("run", [_deform_17, _sweep_reading_du])
def test_a_partials_bundle_runs_each_partial_once_per_node_set(run, monkeypatch, tmp_path):
    # the sigma-theta potentials are (du, dv) bundles: however many of dz and
    # dzbar a node set reads, each raw partial runs once on its arrays
    calls = []
    init = Analytic.__init__

    def counted(cb):
        def partial(u, v):
            scope = getattr(fields._EVAL, "scope", None)
            if scope is not None:
                calls.append((scope, partial, u, v))    # held, so no id is reused
            return cb(u, v)
        return partial

    def init_counted(self, value=None, du=None, dv=None, **slots):
        init(self, value, du and counted(du), dv and counted(dv), **slots)

    monkeypatch.setattr(Analytic, "__init__", init_counted)
    run(tmp_path)
    keys = [tuple(map(id, call)) for call in calls]
    assert keys and len(set(keys)) == len(keys)


def test_a_deform_pair_sweep_peaks_within_58_grid_arrays():
    # base and deformed patch of a parabolic deform at 257^2 from one sweep:
    # 55.3 grid arrays traced above the call's start, where two separate
    # calls peaked at 57.8
    n = 257
    represent, base, deformed = _deform_pair(
        "parabolic", Grid2D(-2.0, 2.0, -2.0, 0.0, n, n))
    represent([base, deformed])                     # warm-up
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        start, _ = tracemalloc.get_traced_memory()
        patches = represent([base, deformed])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        if not tracing:
            tracemalloc.stop()
    arrays = (peak - start) / (8.0 * n * n)
    assert arrays <= 58.0, "traced peak of %.1f grid arrays" % arrays
    assert verify_congruence(*patches, rotation("parabolic", 0.5))["passed"]


# ---------------------------------------------------------------------------
# chart route, samples route


def test_patch_from_chart_zero_mean_curvature():
    fx = fixture_classical("catenoid-r3", grid=grid33())
    patch = patch_from_chart(fx.chart)
    assert patch.invariants["conformality"] < 1e-12
    assert "metric_agreement" not in patch.invariants
    _, report = mean_curvature(patch)
    assert report["max_norm"] == 0.0
    assert sup_abs(patch.x_stack[3]) == 0.0
    U, _ = patch.grid.mesh()
    np.testing.assert_allclose(patch.conformal_factor.values, np.cosh(U) ** 2,
                               rtol=1e-12)


def test_patch_from_chart_rejects_nonspacelike():
    g = Grid2D(-1.0, 1.0, -1.0, 1.0, 17, 17)
    U, V = g.mesh()
    coords = (RealField(g, U), RealField(g, 0.0 * U),
              RealField(g, 0.0 * U), RealField(g, V))
    with pytest.raises(DomainError) as err:
        patch_from_chart(coords)
    assert "spacelike" in str(err.value)


def test_patch_from_samples_round_trip():
    fx = fixture_sigma_theta(0.0, grid=grid33())
    chart = np.stack([c.values for c in fx.chart])
    patch = patch_from_samples(fx.grid, chart, provenance={"origin": "test"})
    np.testing.assert_array_equal(patch.x_stack, chart)
    assert patch.invariants["conformal_min"] > 0.0
    with pytest.raises(ValueError):
        patch_from_samples(fx.grid, chart[:3])


def _complex_wirtinger(grid, values):
    """(f_u - 1j f_v)/2.0 through complex temporaries, the form whose bits
    the finite-difference wirtinger_dz builds in place."""
    f_u = np.gradient(values, grid.h_u, axis=0, edge_order=2)
    f_v = np.gradient(values, grid.h_v, axis=1, edge_order=2)
    return (f_u - 1j * f_v) / 2.0


@pytest.mark.parametrize("chart", [0.3, 0.7, "catenoid-r3"])
def test_fd_chart_patch_is_the_complex_wirtinger_form(chart):
    # catenoid-r3's x4 is all zeros, so its partials take the complex form
    # of _from_partials on every node
    grid = Grid2D(-2.0, 2.0, -1.4, 1.4, 65, 65)
    fx = (fixture_classical(chart, grid=grid) if isinstance(chart, str)
          else fixture_sigma_theta(chart, grid=grid))
    x = np.stack([c.values for c in fx.chart])
    patch = patch_from_samples(grid, x)
    xz = np.stack([_complex_wirtinger(grid, row) for row in x])
    xzzbar = np.stack([fields.laplacian(RealField(grid, row)).values / 4.0 for row in x])
    assert np.array_equal(patch.xz_stack.view(np.int64), xz.view(np.int64))
    for row, want in zip(x, xz):
        assert np.array_equal(wirtinger_dz(RealField(grid, row)).values.view(np.int64),
                              want.view(np.int64))
    lam = surfaces._measured_factor(xz)
    h = 4.0 * xzzbar / lam
    assert patch.invariants == surfaces._patch_invariants(
        xz, h, xzzbar, lam, extra={"loop_residual": 0.0})
    np.testing.assert_array_equal(patch.x_stack, x)


def test_a_mixed_chart_takes_callbacks_where_it_has_them():
    # catenoid-r3 with x1 and x3 stripped of their callbacks: those rows go
    # the finite-difference route, x2 and x4 keep their exact dz
    chart = fixture_classical("catenoid-r3", grid=grid33()).chart
    coords = tuple(RealField(c.grid, c.values) if k in (0, 2) else c
                   for k, c in enumerate(chart))
    patch = patch_from_chart(coords)
    for k, c in enumerate(coords):
        want = (_complex_wirtinger(c.grid, c.values) if k in (0, 2)
                else wirtinger_dz(c).values)
        assert np.array_equal(patch.xz_stack[k].view(np.int64), want.view(np.int64)), k
    assert not patch.exact


# ---------------------------------------------------------------------------
# stored stacks and memory

STACKS = ("x_stack", "xz_stack", "xzzbar_stack", "h_stack", "gauss_stack")


@pytest.mark.parametrize("route", ["represent", "chart"])
def test_patch_stacks_are_read_only_and_stored_once(route):
    if route == "represent":
        patch = represent_second(fixture_sigma_theta(0.3, grid=grid33()).data)
    else:
        patch = patch_from_chart(fixture_classical("catenoid-r3", grid=grid33()).chart)
    for stack_name in STACKS:
        stack = getattr(patch, stack_name)
        assert getattr(patch, stack_name) is stack
        assert stack.shape == (4,) + patch.grid.shape
        assert not stack.flags.writeable
        with pytest.raises(ValueError):
            stack[0, 0, 0] = 1.0
    assert not patch.conformal_factor.values.flags.writeable


def test_comparing_patches_compares_no_array():
    assert {f.name for f in dataclasses.fields(SurfacePatch)} \
        == set(STACKS) | {"grid", "conformal_factor", "provenance", "invariants", "exact"}
    assert {f.name for f in dataclasses.fields(SurfacePatch) if not f.compare} \
        == set(STACKS) | {"provenance", "invariants", "exact"}
    data = fixture_sigma_theta(0.3, grid=grid33()).data
    a, b = represent_second(data), represent_second(data)
    assert a == a
    assert a != b               # fields compare by identity, never elementwise


def test_represent_second_traced_peak_is_bounded():
    # a patch keeps 25 grid arrays (x, Xzzbar, H, the Gauss map, the
    # conformal factor and the complex Xz); building it may hold at most 48
    # at once above the call's start, where copying every quantity into a
    # second stack peaked at 69
    n = 257
    fx = fixture_sigma_theta(0.0, grid=Grid2D(-2.0, 2.0, -2.0, 2.0, n, n))
    represent_second(fx.data)                       # warm-up
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        start, _ = tracemalloc.get_traced_memory()
        patch = represent_second(fx.data)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        if not tracing:
            tracemalloc.stop()
    arrays = (peak - start) / (8.0 * n * n)
    assert arrays <= 48.0, "traced peak of %.1f grid arrays" % arrays
    assert patch.invariants["conformality"] < 1e-8


# ---------------------------------------------------------------------------
# mean curvature and quadric diagnostics


def test_mean_curvature_report_frozen():
    fx = fixture_sigma_theta(0.0, grid=grid33())
    patch = represent_second(fx.data, anchor=fx.expected["anchor"])
    h, report = mean_curvature(patch)
    assert h is patch.h_stack
    U, V = fx.grid.mesh()
    closed = 2.0 * math.sqrt(2.0) * np.cosh(V) / np.cosh(U)
    norm = np.sqrt(np.sum(h ** 2, axis=0))
    assert sup_abs(norm - closed) < 1e-10
    np.testing.assert_allclose(report["min_norm"],
                               2.0 * math.sqrt(2.0) / math.cosh(2.0), rtol=1e-12)
    np.testing.assert_allclose(report["max_norm"],
                               2.0 * math.sqrt(2.0) * math.cosh(2.0), rtol=1e-12)
    assert report["min_norm_location"] == (-2.0, 0.0)
    assert report["sup_null_residual"] < 1e-12
    assert report["min_norm"] > 0.1


def test_quadric_residual_theta_zero():
    fx = fixture_sigma_theta(0.0, grid=grid33())
    patch = represent_second(fx.data, anchor=fx.expected["anchor"])
    res = quadric_residual(patch, -1.0)
    assert res.grid == fx.grid
    assert sup_abs(res.values) < 1e-10


# ---------------------------------------------------------------------------
# null-direction factorization


def _factors(patch):
    """psi, f1 and f2 of Xz = psi (f1+f2, -i(f1-f2), 1-f1 f2, 1+f1 f2),
    read from the stored Xz stack."""
    xz = patch.xz_stack
    psi = (xz[2] + xz[3]) / 2.0
    return psi, (xz[0] + 1j * xz[1]) / 2.0 / psi, (xz[0] - 1j * xz[1]) / 2.0 / psi


def test_liu_exact_route_on_represented_patch():
    fx = fixture_sigma_theta(0.0, grid=grid33())
    patch = represent_second(fx.data)
    res = liu_decompose(patch)
    assert set(res) == {"condition4", "masked_fraction"}
    assert res["condition4"] < 1e-8
    assert res["masked_fraction"] == 0.0
    # the second factor of the tangent field recovers the generating
    # holomorphic field
    _, _, f2 = _factors(patch)
    assert sup_abs(f2 - fx.data.holo.values) < 1e-8


def _product_condition(patch):
    """condition4 by the four-product formula dzbar(psi f1) dzbar(psi f2)
    - dzbar(psi) dzbar(psi f1 f2), divided by psi^2 on the mask."""
    xz, xzzb = patch.xz_stack, patch.xzzbar_stack
    psi = (xz[2] + xz[3]) / 2.0
    mask = np.abs(psi) > PSI_CUTOFF
    safe = np.where(mask, psi, 1.0)
    psi_zb = (xzzb[2] + xzzb[3]) / 2.0 + 0j
    p1_zb = (xzzb[0] + 1j * xzzb[1]) / 2.0
    p2_zb = (xzzb[0] - 1j * xzzb[1]) / 2.0
    p12_zb = (-xzzb[2] + xzzb[3]) / 2.0 + 0j
    product = p1_zb * p2_zb - psi_zb * p12_zb
    return fields.sup_abs_interior(np.where(mask, product / (safe * safe), 0.0))


def _unit_sphere_patch(n):
    # the unit sphere in the x4 = 0 slice, in stereographic coordinates
    g = Grid2D(-1.0, 1.0, -1.0, 1.0, n, n)
    U, V = g.mesh()
    d = 1.0 + U ** 2 + V ** 2
    return patch_from_samples(
        g, np.stack([2.0 * U / d, 2.0 * V / d, (U ** 2 + V ** 2 - 1.0) / d, 0.0 * U]))


@pytest.mark.parametrize("case", ["theta=0.3", "theta=0.7", "sphere"])
def test_liu_condition4_is_the_product_condition(case):
    # condition4 = |<X_zzbar, X_zzbar>| / (4|psi|^2) is the product condition
    # of the factorization, whose numerator is <X_zzbar, X_zzbar>/4 for a
    # real X_zzbar; checked on reloaded sigma-theta patches (the chart route
    # on the coordinate samples) and on the sphere negative control
    if case == "sphere":
        patch = _unit_sphere_patch(65)
    else:
        g = Grid2D(-2.0, 2.0, -2.0, 2.0, 65, 65)
        fx = fixture_sigma_theta(float(case.split("=")[1]), grid=g)
        patch = patch_from_samples(g, represent_second(fx.data).x_stack)
    expected = _product_condition(patch)
    assert expected > 1e-6
    assert liu_decompose(patch)["condition4"] == pytest.approx(expected, rel=1e-10)


def test_liu_fd_route_is_second_order():
    # the chart route takes X_zzbar as lap(X)/4 by finite differences of
    # the coordinate samples, independently of the Xz samples
    fx = fixture_sigma_theta(0.0, grid=grid33())
    patch = represent_second(fx.data)
    res = liu_decompose(patch_from_samples(fx.grid, patch.x_stack))
    cap = fd_cap(fx.grid, 50.0)
    # the product condition is a genuine truncation-limited residual here
    assert 1e-4 < res["condition4"] < cap


@pytest.mark.parametrize("n", [65, 129])
def test_liu_condition4_fails_on_a_sphere(n):
    # the unit sphere in the x4 = 0 slice is conformal in stereographic
    # coordinates but not marginally trapped: its mean curvature vector is
    # spacelike, so the Liu product condition must fail far above its cap
    patch = _unit_sphere_patch(n)
    cap = fd_cap(patch.grid, 100.0)
    assert patch.invariants["conformality"] < cap
    assert liu_decompose(patch)["condition4"] > 50.0 * cap


def test_liu_cutoff_guard():
    g = Grid2D(-1.0, 1.0, -1.0, 1.0, 17, 17)
    U, V = g.mesh()
    coords = (RealField(g, U), RealField(g, -V),
              RealField(g, 0.0 * U), RealField(g, 0.0 * U))
    patch = patch_from_chart(coords)
    with pytest.raises(ValueError) as err:
        liu_decompose(patch)
    assert "cutoff" in str(err.value)


def test_liu_plane_factors_are_constant():
    g = Grid2D(-1.0, 1.0, -1.0, 1.0, 17, 17)
    patch = represent_first(plane_first(g))
    assert liu_decompose(patch)["masked_fraction"] == 0.0
    psi, f1, f2 = _factors(patch)
    np.testing.assert_allclose(psi, 0.5, atol=1e-15)
    np.testing.assert_allclose(f1, 0.0, atol=1e-14)
    np.testing.assert_allclose(f2, 1.0, atol=1e-14)
