import numpy as np
import pytest

from mtsurf.errors import GridMismatchError
from mtsurf.fields import (
    Analytic,
    ComplexField,
    Grid2D,
    RealField,
    integrate_primitive,
    interior,
    laplacian,
    load_field_binary,
    load_field_csv,
    min_abs_location,
    save_field_binary,
    save_field_csv,
    sup_abs,
    sup_abs_interior,
    wirtinger_dz,
    wirtinger_dzbar,
    worst_abs_location,
)


def grid(n=33, bounds=(-1.0, 1.0, -1.0, 1.0)):
    return Grid2D(bounds[0], bounds[1], bounds[2], bounds[3], n, n)


class TestGrid2D:
    def test_spacing_and_axes(self):
        g = Grid2D(0.0, 1.0, -2.0, 2.0, 5, 9)
        assert g.h_u == 0.25
        assert g.h_v == 0.5
        assert g.shape == (5, 9)
        np.testing.assert_allclose(g.axis_u, [0, 0.25, 0.5, 0.75, 1.0])
        U, V = g.mesh()
        assert U[3, 0] == g.axis_u[3]
        assert V[0, 4] == g.axis_v[4]
        assert g.origin == (0.0, -2.0)

    def test_spec_round_trip(self):
        g = Grid2D.from_spec("-2:2:-1.4:1.4:129x65")
        assert g.n_u == 129 and g.n_v == 65
        assert g.u_min == -2.0 and g.v_max == 1.4
        assert Grid2D.from_spec(g.spec()) == g

    @pytest.mark.parametrize("bad", ["1:2:3:4", "1:2:3:4:9", "1:2:3:4:3x", "a:2:3:4:3x3"])
    def test_bad_specs(self, bad):
        with pytest.raises(ValueError):
            Grid2D.from_spec(bad)

    @pytest.mark.parametrize("bad", ["0:inf:0:1:9x9", "-inf:0:0:1:9x9",
                                     "0:1:nan:1:9x9", "0:1:0:inf:9x9"])
    def test_non_finite_bounds_rejected(self, bad):
        with pytest.raises(ValueError, match="finite"):
            Grid2D.from_spec(bad)

    def test_too_small_or_inverted(self):
        with pytest.raises(ValueError):
            Grid2D(0, 1, 0, 1, 2, 5)
        with pytest.raises(ValueError):
            Grid2D(1, 0, 0, 1, 5, 5)

    def test_dict_round_trip(self):
        g = grid()
        assert Grid2D.from_dict(g.to_dict()) == g


class TestFields:
    def test_shape_check(self):
        with pytest.raises(GridMismatchError):
            RealField(grid(5), np.zeros((4, 5)))

    def test_values_read_only(self):
        f = RealField(grid(5), np.zeros((5, 5)))
        with pytest.raises(ValueError):
            f.values[0, 0] = 1.0

    def test_real_field_rejects_complex(self):
        with pytest.raises(TypeError):
            RealField(grid(5), np.zeros((5, 5), dtype=complex) + 1j)

    def test_sample_keeps_callbacks(self):
        a = Analytic(value=lambda u, v: u * v)
        f = RealField.sample(grid(5), a)
        assert f.analytic is a
        U, V = grid(5).mesh()
        np.testing.assert_array_equal(f.values, U * V)


class TestAnalytic:
    def test_first_derivative_conversions(self):
        # holomorphic e^{iz}: f_u = i e^{iz}, f_v = -e^{iz}
        f = lambda u, v: np.exp(1j * u - v)
        a = Analytic(value=f, dz=lambda u, v: 1j * f(u, v), dzbar=lambda u, v: 0.0 * u)
        u, v = 0.3, -0.7
        assert abs(a.du(u, v) - 1j * f(u, v)) < 1e-15
        assert abs(a.dv(u, v) - (-f(u, v))) < 1e-15
        b = Analytic(du=lambda u, v: 1j * f(u, v), dv=lambda u, v: -f(u, v))
        assert abs(b.dz(u, v) - 1j * f(u, v)) < 1e-15
        assert abs(b.dzbar(u, v)) < 1e-15

    def test_lap_from_split_second_derivatives(self):
        a = Analytic(duu=lambda u, v: 2.0 + 0 * u, dvv=lambda u, v: 4.0 + 0 * u)
        assert a.lap(0.0, 0.0) == 6.0
        assert a.has_lap

    def test_missing_callback_raises(self):
        a = Analytic(value=lambda u, v: u)
        assert not a.has_first
        with pytest.raises(AttributeError):
            a.du(0.0, 0.0)


class TestWirtinger:
    def test_dz_plus_dzbar_is_du_exactly(self):
        # arithmetic identity, holds to 1e-14 even for random samples
        rng = np.random.default_rng(3)
        f = ComplexField(grid(17), rng.normal(size=(17, 17)) + 1j * rng.normal(size=(17, 17)))
        fu = np.gradient(f.values, f.grid.h_u, axis=0, edge_order=2)
        total = wirtinger_dz(f).values + wirtinger_dzbar(f).values
        assert sup_abs(total - fu) < 1e-14

    def test_quadratic_is_differentiated_exactly(self):
        # f = u^2 + v^2 has f_z = conj(z); second-order stencils are exact on it
        g = grid(21)
        U, V = g.mesh()
        f = RealField(g, U ** 2 + V ** 2)
        got = wirtinger_dz(f).values
        assert sup_abs(got - (U - 1j * V)) < 1e-13

    def test_callbacks_short_circuit_fd(self):
        g = grid(9, (-2, 2, -2, 2))
        a = Analytic(value=lambda u, v: np.sinh(u) * np.sin(v),
                     du=lambda u, v: np.cosh(u) * np.sin(v),
                     dv=lambda u, v: np.sinh(u) * np.cos(v))
        f = RealField.sample(g, a)
        U, V = g.mesh()
        expected = (np.cosh(U) * np.sin(V) - 1j * np.sinh(U) * np.cos(V)) / 2
        assert sup_abs(wirtinger_dz(f).values - expected) < 1e-15
        out = wirtinger_dz(f)
        assert out.analytic is not None and out.analytic.has_value

    def test_holomorphic_detection_with_callbacks(self):
        g = grid(9)
        f = lambda u, v: np.exp(1j * u - v)
        a = Analytic(value=f, dz=lambda u, v: 1j * f(u, v), dzbar=lambda u, v: 0.0 * (u + v))
        h = ComplexField.sample(g, a)
        assert sup_abs(wirtinger_dzbar(h).values) == 0.0

    def test_fd_first_derivative_converges_at_second_order(self):
        # compare errors on a fixed subregion so the sup location cannot
        # migrate toward the boundary as h shrinks
        errs = []
        for n in (17, 33):
            g = grid(n, (-2, 2, -2, 2))
            U, V = g.mesh()
            f = RealField(g, np.sinh(U) * np.sin(U) * np.exp(V / 2))
            fz = wirtinger_dz(f).values
            fu = (np.cosh(U) * np.sin(U) + np.sinh(U) * np.cos(U)) * np.exp(V / 2)
            fv = np.sinh(U) * np.sin(U) * np.exp(V / 2) / 2
            mask = (np.abs(U) <= 1.5) & (np.abs(V) <= 1.5)
            errs.append(sup_abs((fz - (fu - 1j * fv) / 2)[mask]))
        assert 3.5 < errs[0] / errs[1] < 4.5


class TestLaplacian:
    def test_frozen_value_with_callbacks(self):
        # lap(sinh u sin u) = 2 cosh u cos u
        g = grid(9, (-2, 2, -2, 2))
        a = Analytic(value=lambda u, v: np.sinh(u) * np.sin(u),
                     du=lambda u, v: np.cosh(u) * np.sin(u) + np.sinh(u) * np.cos(u),
                     dv=lambda u, v: 0.0 * u,
                     lap=lambda u, v: 2 * np.cosh(u) * np.cos(u))
        f = RealField.sample(g, a)
        U, _ = g.mesh()
        assert sup_abs(laplacian(f).values - 2 * np.cosh(U) * np.cos(U)) == 0.0

    def test_fd_interior_accuracy_and_convergence(self):
        errs = []
        for n in (33, 65):
            g = grid(n, (-2, 2, -2, 2))
            U, V = g.mesh()
            f = RealField(g, np.sinh(U) * np.sin(U) + np.cos(U) * np.cos(V))
            expected = 2 * np.cosh(U) * np.cos(U) - 2 * np.cos(U) * np.cos(V)
            errs.append(sup_abs_interior(laplacian(f).values - expected))
            assert errs[-1] < 50 * max(g.h_u, g.h_v) ** 2
        assert 3.5 < errs[0] / errs[1] < 4.5

    def test_preserves_field_kind(self):
        g = grid(9)
        assert isinstance(laplacian(RealField(g, np.zeros(g.shape))), RealField)
        assert isinstance(laplacian(ComplexField(g, np.zeros(g.shape, complex))), ComplexField)


class TestIntegratePrimitive:
    def test_conjugate_z_is_integrable(self):
        # (conj z)_zbar = 1 is real: primitive exists and equals u^2 + v^2.
        # trapezoid is exact here because the edge integrands are linear.
        g = grid(33, (-1, 1, -1, 1))
        U, V = g.mesh()
        res = integrate_primitive(ComplexField(g, U - 1j * V))
        expected = U ** 2 + V ** 2 - (g.u_min ** 2 + g.v_min ** 2)
        assert sup_abs(res.field.values - expected) < 1e-13
        assert res.loop_residual < 1e-15
        assert res.field.values[0, 0] == 0.0

    def test_i_conjugate_z_violates_integrability(self):
        # (i conj z)_zbar = i is not real; plaquette circulation is -4 h_u h_v
        g = grid(33, (-1, 1, -1, 1))
        U, V = g.mesh()
        res = integrate_primitive(ComplexField(g, 1j * (U - 1j * V)))
        assert res.loop_residual == pytest.approx(4 * g.h_u * g.h_v, rel=1e-12)

    def test_gauss_quadrature_hits_closed_form(self):
        # E = z: F = 2 Re(z^2/2) = u^2 - v^2, Gauss path is exact to roundoff
        g = grid(65, (-2, 2, -2, 2))
        U, V = g.mesh()
        a = Analytic(value=lambda u, v: u + 1j * v)
        res = integrate_primitive(ComplexField.sample(g, a))
        expected = U ** 2 - V ** 2 - (g.u_min ** 2 - g.v_min ** 2)
        assert sup_abs(res.field.values - expected) < 1e-12
        # the primitive keeps exact first-derivative callbacks
        out = res.field.analytic
        assert out is not None and out.has_first
        assert abs(out.du(0.5, 0.25) - 1.0) < 1e-15

    def test_path_order_difference_bounded_by_total_circulation(self):
        # the rows-vs-columns discrepancy at a node is the sum of plaquette
        # circulations over the enclosed rectangle, so n_cells * loop_residual
        # bounds it (plus a roundoff floor when both are machine-zero)
        g = grid(65, (-2, 2, -2, 2))
        U, V = g.mesh()
        fu = np.cos(U) * np.exp(V) + 2 * U * V ** 3
        fv = np.sin(U) * np.exp(V) + 3 * U ** 2 * V ** 2
        field = ComplexField(g, (fu - 1j * fv) / 2)
        r1 = integrate_primitive(field, "rows")
        r2 = integrate_primitive(field, "columns")
        diff = sup_abs(r1.field.values - r2.field.values)
        n_cells = (g.n_u - 1) * (g.n_v - 1)
        scale = sup_abs(r1.field.values)
        assert diff <= n_cells * r1.loop_residual + 1e-13 * (1 + scale)

    def test_gauss_path_order_agreement(self):
        g = grid(65, (-2, 2, -2, 2))

        def val(u, v):
            fu = np.cos(u) * np.exp(v) + np.cosh(u) * np.sin(u) + np.sinh(u) * np.cos(u)
            fv = np.sin(u) * np.exp(v)
            return (fu - 1j * fv) / 2

        U, V = g.mesh()
        field = ComplexField(g, val(U, V), Analytic(value=val))
        r1 = integrate_primitive(field, "rows")
        r2 = integrate_primitive(field, "columns")
        closed = np.sin(U) * np.exp(V) + np.sinh(U) * np.sin(U)
        closed -= closed[0, 0]
        assert sup_abs(r1.field.values - closed) < 1e-12
        assert sup_abs(r2.field.values - closed) < 1e-12
        assert r1.loop_residual < 1e-13

    def test_bad_order_rejected(self):
        g = grid(5)
        with pytest.raises(ValueError):
            integrate_primitive(ComplexField(g, np.zeros(g.shape, complex)), order="spiral")


class TestNormHelpers:
    def test_interior_strips_one_ring(self):
        arr = np.arange(25.0).reshape(5, 5)
        assert interior(arr).shape == (3, 3)
        stacked = np.stack([arr, arr])
        assert interior(stacked).shape == (2, 3, 3)

    def test_locations(self):
        g = grid(5)
        arr = np.zeros(g.shape)
        arr[3, 1] = -7.0
        u, v, mag = worst_abs_location(g, arr)
        assert (u, v) == (g.axis_u[3], g.axis_v[1])
        assert mag == 7.0
        arr = np.full(g.shape, 5.0)
        arr[3, 1] = 0.25
        u, v, mag = min_abs_location(g, arr)
        assert (u, v) == (g.axis_u[3], g.axis_v[1])
        assert mag == 0.25


class TestSerialization:
    def test_csv_round_trip_real(self, tmp_path):
        g = grid(7, (-1.5, 2.5, 0.25, 1.25))
        rng = np.random.default_rng(11)
        f = RealField(g, rng.normal(size=g.shape))
        p = tmp_path / "f.csv"
        save_field_csv(f, p)
        back = load_field_csv(p)
        assert isinstance(back, RealField)
        assert back.grid == g
        np.testing.assert_array_equal(back.values, f.values)

    def test_csv_round_trip_complex(self, tmp_path):
        g = grid(6)
        rng = np.random.default_rng(12)
        f = ComplexField(g, rng.normal(size=g.shape) + 1j * rng.normal(size=g.shape))
        p = tmp_path / "f.csv"
        save_field_csv(f, p)
        back = load_field_csv(p)
        assert isinstance(back, ComplexField)
        np.testing.assert_array_equal(back.values, f.values)

    def test_csv_header_and_determinism(self, tmp_path):
        g = grid(4)
        f = RealField(g, np.ones(g.shape) / 3)
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        save_field_csv(f, p1)
        save_field_csv(f, p2)
        b1 = p1.read_bytes()
        assert b1.splitlines()[0] == b"u,v,re,im"
        assert b1 == p2.read_bytes()

    def test_binary_round_trip(self, tmp_path):
        g = grid(5, (-3, 3, -1, 1))
        rng = np.random.default_rng(13)
        for f in (RealField(g, rng.normal(size=g.shape)),
                  ComplexField(g, rng.normal(size=g.shape) * 1j + rng.normal(size=g.shape))):
            p = tmp_path / "f.bin"
            save_field_binary(f, p)
            back = load_field_binary(p)
            assert type(back) is type(f)
            assert back.grid == g
            np.testing.assert_array_equal(back.values, f.values)

    def test_binary_magic_guard(self, tmp_path):
        p = tmp_path / "junk.bin"
        p.write_bytes(b"not a field")
        with pytest.raises(ValueError):
            load_field_binary(p)
