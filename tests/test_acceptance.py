"""End-to-end gate: one test per advertised capability, at the advertised
tolerance.  Everything here is checked against closed forms or structural
identities; nothing is compared against stored program output."""

import functools
import math
import time

import numpy as np

from mtsurf.catalog import (
    fixture_classical,
    fixture_sigma_theta,
    fixture_two_parameter,
)
from mtsurf.fields import (
    Analytic,
    ComplexField,
    Grid2D,
    RealField,
    interior,
    sup_abs,
)
from mtsurf.tolerances import fd_cap
from mtsurf.lorentz import rotation
from mtsurf.poisson import (
    PoissonProblem,
    assemble_second_kind,
    boundary_from_function,
    named_field,
    named_weight,
    solve_weighted_poisson,
)
from mtsurf.surfaces import (
    liu_decompose,
    mean_curvature,
    patch_from_chart,
    quadric_residual,
    represent_first,
    represent_second,
    represent_third,
    verify_congruence,
)
from mtsurf.weierstrass import (
    WeierstrassSecond,
    deform_elliptic,
    deform_hyperbolic,
    deform_parabolic,
    first_to_second,
    second_to_first,
)

THETAS = (0.0, math.pi / 8, math.pi / 4, 3 * math.pi / 8, math.pi / 2)


def z0(u, v):
    return 0.0 * (np.asarray(u) + np.asarray(v))


def up_to_constant(a, b):
    d = a - b
    return sup_abs(d - d.flat[0])


@functools.lru_cache(maxsize=None)
def sigma_member(theta):
    fx = fixture_sigma_theta(theta)
    return fx, represent_second(fx.data, anchor=fx.expected["anchor"])


@functools.lru_cache(maxsize=None)
def theta_zero_129():
    fx = fixture_sigma_theta(0.0, grid=Grid2D(-2.0, 2.0, -2.0, 2.0, 129, 129))
    return fx, represent_second(fx.data, anchor=fx.expected["anchor"])


@functools.lru_cache(maxsize=None)
def two_param_member():
    fx = fixture_two_parameter(0.3, 0.4)
    return fx, represent_second(fx.data, anchor=fx.expected["anchor"])


@functools.lru_cache(maxsize=None)
def minimal_r3_patch():
    g = Grid2D(-1.0, 1.0, -1.0, 1.0, 65, 65)
    gauss = ComplexField.sample(g, Analytic(
        value=lambda u, v: np.exp(u) * np.exp(1j * np.asarray(v)),
        dz=lambda u, v: np.exp(u) * np.exp(1j * np.asarray(v)),
        dzbar=lambda u, v: z0(u, v) + 0j))
    return represent_third(gauss, real_u(g), real_zero(g))


@functools.lru_cache(maxsize=None)
def maximal_l3_patch():
    g = Grid2D(-0.5, 0.5, -0.5, 0.5, 65, 65)
    gauss = ComplexField.sample(g, Analytic(
        value=lambda u, v: 2.0 * np.exp(u) * np.exp(1j * np.asarray(v)),
        dz=lambda u, v: 2.0 * np.exp(u) * np.exp(1j * np.asarray(v)),
        dzbar=lambda u, v: z0(u, v) + 0j))
    return represent_third(gauss, real_zero(g), real_u(g))


@functools.lru_cache(maxsize=None)
def constant_height_patch():
    g = Grid2D(-1.0, 1.0, -1.0, 1.0, 65, 65)
    holo = ComplexField.sample(g, Analytic(
        value=lambda u, v: np.exp(1j * (np.asarray(u) + 1j * np.asarray(v))),
        dz=lambda u, v: 1j * np.exp(1j * (np.asarray(u) + 1j * np.asarray(v))),
        dzbar=lambda u, v: z0(u, v) + 0j))
    data = WeierstrassSecond(holo, real_zero(g), real_u(g))
    return represent_second(data)


@functools.lru_cache(maxsize=None)
def classical_chart_patch(name):
    fx = fixture_classical(name)
    return fx, patch_from_chart(fx.chart)


@functools.lru_cache(maxsize=None)
def deformed_family():
    grid = Grid2D(-2.0, 2.0, -2.0, 0.0, 65, 65)
    base2 = fixture_sigma_theta(0.0, grid=grid).data
    base1 = second_to_first(base2)
    out = {
        "base1": base1,
        "base2": base2,
        "patch1": represent_first(base1),
        "patch2": represent_second(base2),
    }
    out["parabolic"] = deform_parabolic(base1, 0.5)
    out["elliptic"] = deform_elliptic(base2, 0.8)
    out["hyperbolic"] = deform_hyperbolic(base1, 0.6)
    return out


def real_u(g):
    return RealField.sample(g, Analytic(
        value=lambda u, v: np.asarray(u) + 0.0 * np.asarray(v),
        du=lambda u, v: 1.0 + z0(u, v), dv=z0, lap=z0))


def real_zero(g):
    return RealField.sample(g, Analytic(value=z0, du=z0, dv=z0, lap=z0))


def test_theta_zero_patch_all_invariants_under_five_seconds():
    start = time.perf_counter()
    fx, patch = theta_zero_129()
    quad = sup_abs(quadric_residual(patch, -1.0).values)
    U, _ = fx.grid.mesh()
    factor_err = sup_abs(patch.conformal_factor.values - np.cosh(U) ** 2)
    _, h_report = mean_curvature(patch)
    elapsed = time.perf_counter() - start

    assert quad < 1e-10
    assert factor_err < 1e-8
    assert patch.invariants["conformality"] < 1e-8
    assert h_report["sup_null_residual"] < 1e-6
    assert h_report["min_norm"] > 0.1
    assert elapsed < 5.0
    print("criterion 1 PASS: quadric %.2e, factor %.2e, conformality %.2e, "
          "null %.2e, min|H| %.3f, %.2fs"
          % (quad, factor_err, patch.invariants["conformality"],
             h_report["sup_null_residual"], h_report["min_norm"], elapsed))


def test_family_sweep_quadric_and_conformal_factor():
    for theta in THETAS:
        fx, patch = sigma_member(theta)
        c = fx.expected["quadric_constant"]
        assert abs(c - (-math.cos(2.0 * theta))) < 1e-15
        quad = sup_abs(quadric_residual(patch, c).values)
        U, V = fx.grid.mesh()
        factor_err = sup_abs(patch.conformal_factor.values
                             - fx.expected["conformal_factor"](U, V))
        assert quad < 1e-10, theta
        assert factor_err < 1e-8, theta
    print("criterion 2 PASS: 5 family members in their quadrics to 1e-10, "
          "conformal factors to 1e-8")


def test_two_parameter_member_conformal_factor_and_h_certificate():
    fx, patch = two_param_member()
    U, V = fx.grid.mesh()
    expected = ((0.3 + np.cosh(U) * np.sin(U)) ** 2
                + (-0.4 + np.cosh(U) * np.cos(U)) ** 2)
    factor_err = sup_abs(patch.conformal_factor.values - expected)
    _, h_report = mean_curvature(patch)
    assert factor_err < 1e-8
    assert h_report["min_norm"] > 0.0
    print("criterion 3 PASS: factor %.2e, min|H| %.4f at (u,v)=(%g, %g)"
          % (factor_err, h_report["min_norm"], *h_report["min_norm_location"]))


def test_solver_matches_closed_form_with_second_order_convergence():
    start = time.perf_counter()
    errors = {}
    for n in (33, 65, 129):
        g = Grid2D(-1.0, 1.0, -1.0, 1.0, n, n)
        problem = PoissonProblem(
            g, named_weight("re-exp-iz", g), named_field("exp-v-cosh-u", g),
            boundary_from_function(
                g, lambda u, v: np.sinh(u) * np.sin(u) + z0(u, v)),
            target=1e-10)
        solution, report = solve_weighted_poisson(problem)
        assert report["converged"]
        U, _ = g.mesh()
        errors[n] = sup_abs(interior(solution.values - np.sinh(U) * np.sin(U)))
        # fourth derivatives of the closed-form pair stay below 4.2
        assert errors[n] <= 0.5 * g.h_u ** 2 * 4.2
    elapsed = time.perf_counter() - start
    r1 = errors[33] / errors[65]
    r2 = errors[65] / errors[129]
    assert 3.5 <= r1 <= 4.5
    assert 3.5 <= r2 <= 4.5
    assert elapsed < 30.0
    print("criterion 4 PASS: errors %.3e / %.3e / %.3e, ratios %.3f / %.3f, "
          "%.1fs" % (errors[33], errors[65], errors[129], r1, r2, elapsed))


def test_equivalence_round_trip_recovers_data_and_identities():
    base = fixture_sigma_theta(0.0, grid=Grid2D(-2.0, 2.0, -2.0, 2.0, 65, 65)).data
    start_first = second_to_first(base)
    mid = first_to_second(start_first)
    end = second_to_first(mid)

    gauss_err = sup_abs(end.gauss.values - start_first.gauss.values)
    pot1_err = sup_abs(end.pot1.values - start_first.pot1.values)
    pot2_err = up_to_constant(end.pot2.values, start_first.pot2.values)
    assert gauss_err < 1e-12
    assert pot1_err < 1e-12
    assert pot2_err < 1e-8
    assert mid.provenance["identity_residual"] < 1e-8
    assert end.provenance["identity_residual"] < 1e-8
    print("criterion 5 PASS: gauss %.2e, pot1 %.2e, pot2 %.2e, identities "
          "%.2e / %.2e" % (gauss_err, pot1_err, pot2_err,
                           mid.provenance["identity_residual"],
                           end.provenance["identity_residual"]))


def test_deformation_congruence_and_group_laws():
    fam = deformed_family()
    residuals = {}
    pairs = (
        ("parabolic", fam["patch1"], represent_first(fam["parabolic"]), 0.5),
        ("elliptic", fam["patch2"], represent_second(fam["elliptic"]), 0.8),
        ("hyperbolic", fam["patch1"], represent_first(fam["hyperbolic"]), 0.6),
    )
    for family, before, after, parameter in pairs:
        report = verify_congruence(before, after, rotation(family, parameter))
        residuals[family] = report["residual"]
        assert report["passed"], (family, report["residual"])
        assert report["residual"] < 1e-6

    base1, base2 = fam["base1"], fam["base2"]
    laws = {}
    two_step = deform_parabolic(deform_parabolic(base1, 0.2), 0.3)
    one_step = deform_parabolic(base1, 0.5)
    laws["parabolic"] = max(
        sup_abs(two_step.gauss.values - one_step.gauss.values),
        sup_abs(two_step.pot1.values - one_step.pot1.values),
        up_to_constant(two_step.pot2.values, one_step.pot2.values))

    two_step = deform_elliptic(deform_elliptic(base2, 0.2), 0.3)
    one_step = deform_elliptic(base2, 0.5)
    laws["elliptic"] = max(
        sup_abs(two_step.holo.values - one_step.holo.values),
        sup_abs(two_step.null_pot.values - one_step.null_pot.values),
        up_to_constant(two_step.height.values, one_step.height.values))

    two_step = deform_hyperbolic(deform_hyperbolic(base1, 0.2), 0.3)
    one_step = deform_hyperbolic(base1, 0.5)
    laws["hyperbolic"] = max(
        sup_abs(two_step.gauss.values - one_step.gauss.values),
        sup_abs(two_step.pot1.values - one_step.pot1.values),
        up_to_constant(two_step.pot2.values, one_step.pot2.values))

    for family, err in laws.items():
        assert err < 1e-12, (family, err)
    print("criterion 6 PASS: congruence %.2e / %.2e / %.2e, group laws "
          "%.2e / %.2e / %.2e"
          % (residuals["parabolic"], residuals["elliptic"],
             residuals["hyperbolic"], laws["parabolic"], laws["elliptic"],
             laws["hyperbolic"]))


def test_classical_reductions_slice_and_zero_mean_curvature():
    cases = [
        ("x4", minimal_r3_patch()),
        ("x3", maximal_l3_patch()),
        ("x1", constant_height_patch()),
    ]
    for name in ("catenoid-r3", "hyperbolic-catenoid-l3"):
        fx, patch = classical_chart_patch(name)
        cases.append((fx.expected["slice"][0], patch))

    index = {"x1": 0, "x2": 1, "x3": 2, "x4": 3}
    for slice_name, patch in cases:
        vals = patch.x_stack[index[slice_name]]
        assert up_to_constant(vals, np.zeros_like(vals)) < 1e-10, slice_name
        assert sup_abs(patch.h_stack) < 1e-6, slice_name
    print("criterion 7 PASS: 5 reductions with sup|H| < 1e-6 and constant "
          "%s slices to 1e-10" % ", ".join(s for s, _ in cases))


def test_liu_conditions_on_every_generated_patch():
    patches = [theta_zero_129()[1], two_param_member()[1],
               minimal_r3_patch(), maximal_l3_patch(), constant_height_patch()]
    patches += [sigma_member(theta)[1] for theta in THETAS]
    patches += [classical_chart_patch(n)[1]
                for n in ("catenoid-r3", "hyperbolic-catenoid-l3")]
    fam = deformed_family()
    patches += [represent_first(fam["parabolic"]),
                represent_second(fam["elliptic"]),
                represent_first(fam["hyperbolic"])]

    worst = 0.0
    for patch in patches:
        condition4 = liu_decompose(patch)["condition4"]
        worst = max(worst, condition4)
        assert condition4 < 1e-8, patch.provenance
    print("criterion 8 PASS: %d patches, worst condition4 %.2e"
          % (len(patches), worst))


def test_random_datasets_validate_or_reject_with_located_failure():
    # every tenth draw is centrally symmetric (no linear terms anywhere), so
    # its tangent expression vanishes exactly at the origin node and the
    # validator must reject it with that location; the rest are generic
    rng = np.random.default_rng(20260814)
    grid = Grid2D(-1.0, 1.0, -1.0, 1.0, 33, 33)
    U, V = grid.mesh()
    cap = fd_cap(grid, 100.0)
    accepted = rejected = 0

    for k in range(200):
        symmetric = k % 10 == 9
        c0 = rng.uniform(-0.5, 0.5) + 1j * rng.uniform(-0.5, 0.5)
        c1 = 0.0 if symmetric else rng.uniform(-0.5, 0.5) + 1j * rng.uniform(-0.5, 0.5)
        c2 = rng.uniform(-0.25, 0.25) + 1j * rng.uniform(-0.25, 0.25)
        if symmetric:
            coeff = np.zeros((4, 4))
            coeff[2, 0], coeff[1, 1], coeff[0, 2] = rng.uniform(-1.0, 1.0, 3)
        else:
            coeff = rng.uniform(-1.0, 1.0, (4, 4))
            for i in range(4):
                for j in range(4):
                    if i + j == 3:
                        coeff[i, j] *= 0.5

        def hval(u, v, c0=c0, c1=c1, c2=c2):
            z = np.asarray(u) + 1j * np.asarray(v)
            return np.exp(c0 + c1 * z + c2 * z * z)

        def hdz(u, v, c0=c0, c1=c1, c2=c2):
            z = np.asarray(u) + 1j * np.asarray(v)
            return (c1 + 2.0 * c2 * z) * np.exp(c0 + c1 * z + c2 * z * z)

        holo = ComplexField.sample(grid, Analytic(
            value=hval, dz=hdz, dzbar=lambda u, v: z0(u, v) + 0j))
        null_vals = sum(coeff[i, j] * U ** i * V ** j
                        for i in range(4) for j in range(4) if 0 < i + j <= 3)
        null_pot = RealField(grid, null_vals)

        data, report, _ = assemble_second_kind(
            holo, null_pot, 0.0, target=1e-9)
        if report.ok:
            patch = represent_second(data)
            inv = patch.invariants
            assert inv["conformality"] < cap
            assert inv["mean_null"] < cap
            assert inv["gauss_tangency"] < cap
            assert inv["gauss_null"] < cap
            assert inv["conformal_min"] > 0.0
            accepted += 1
        else:
            failed = [ch.name for ch in report.checks if not ch.passed]
            assert failed == ["immersion"], failed
            where = report.check("immersion").where
            assert grid.u_min <= where[0] <= grid.u_max
            assert grid.v_min <= where[1] <= grid.v_max
            rejected += 1

    assert accepted + rejected == 200
    assert accepted > 0
    assert rejected > 0
    print("criterion 9 PASS: %d accepted, %d rejected with located immersion "
          "failures" % (accepted, rejected))
