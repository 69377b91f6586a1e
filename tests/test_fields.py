import math

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from mtsurf import fields
from mtsurf.errors import DomainError, GridMismatchError
from mtsurf.fields import (
    Analytic,
    ComplexField,
    Grid2D,
    RealField,
    integrate_primitive,
    interior,
    laplacian,
    lincomb_real,
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


#: Finite partials, with zeros of both signs, subnormals and values near the
#: float range's edge drawn often.
_partial = st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from(
    [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e308, -1e308])


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

    @pytest.mark.parametrize("bounds, axis", [
        ((1.0, 1.0 + 4.5e-16, 0.0, 1.0, 5, 3), "u"),   # linspace: 3 distinct values in 5
        ((0.0, 1.0, 0.0, 5e-324, 3, 3), "v"),          # a step that rounds to 0
    ])
    def test_repeated_nodes_refused(self, bounds, axis):
        with pytest.raises(ValueError, match="grid nodes along %s would repeat" % axis):
            Grid2D(*bounds)

    @given(st.floats(-1e300, 1e300), st.integers(1, 200), st.integers(3, 64))
    @example(1.0, 16, 3)         # a step of exactly 8 ulps is accepted
    def test_accepted_axes_strictly_increase(self, low, ulps, n):
        high = low
        for _ in range(ulps):
            high = math.nextafter(high, math.inf)
        try:
            g = Grid2D(low, high, 0.0, 1.0, n, 3)
        except ValueError as exc:
            assert "grid nodes along u would repeat" in str(exc)
            return
        assert np.all(np.diff(g.axis_u) > 0) and np.all(np.diff(g.axis_v) > 0)

    def test_axes_are_computed_once_and_read_only(self):
        g, twin = Grid2D(0.0, 1.0, -2.0, 2.0, 5, 9), Grid2D(0.0, 1.0, -2.0, 2.0, 5, 9)
        assert g.axis_u is g.axis_u and g.axis_v is g.axis_v
        for axis in (g.axis_u, g.axis_v):
            with pytest.raises(ValueError):
                axis[0] = 1.0
        # the cached axes are not fields: equality, hashing and to_dict
        # still see the six bounds and counts alone
        assert g == twin and hash(g) == hash(twin)
        assert g.to_dict() == {"u_min": 0.0, "u_max": 1.0, "v_min": -2.0, "v_max": 2.0,
                               "n_u": 5, "n_v": 9}


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

    def test_sample_evaluates_the_closed_form_once_per_axis(self):
        # one call on a column of u and a row of v, so each one-variable
        # factor of a closed form runs once per axis value
        g = Grid2D(0.0, 1.0, -2.0, 2.0, 5, 9)
        seen = []

        def value(u, v):
            seen.append((u.shape, v.shape))
            return np.sin(u) * np.exp(v)

        f = RealField.sample(g, Analytic(value=value))
        assert seen == [((5, 1), (1, 9))]
        U, V = g.mesh()
        assert f.values.tobytes() == (np.sin(U) * np.exp(V)).tobytes()

    @pytest.mark.parametrize("kind,value,bad", [
        (RealField, lambda u, v: np.cosh(u) * np.sin(v), "-inf"),
        (RealField, lambda u, v: np.cosh(u) * np.cos(v) - np.cosh(u), "nan"),
        (ComplexField, lambda u, v: np.exp(1j * v) * np.exp(u), "inf"),
    ])
    def test_sample_refuses_a_closed_form_that_is_not_finite(self, kind, value, bad):
        # cosh and exp overflow on a far grid; no numeric warning escapes
        # (the tests turn them into errors), and the error names the field's
        # kind, the first bad node and the grid's bounds
        g = Grid2D(1e300, 1.1e300, -1.0, 1.0, 9, 9)
        with pytest.raises(DomainError) as exc:
            kind.sample(g, Analytic(value=value))
        head, tail = str(exc.value).split(" at ")
        assert head.startswith(kind.__name__ + " closed form is ") and bad in head
        assert tail == ("(u,v)=(1.0000000000000001e+300, -1) "
                        "on the grid [1e+300, 1.1e+300] x [-1.0, 1.0]")


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
        # the bundle takes lap itself; split second derivatives are summed
        # by the caller
        with pytest.raises(TypeError):
            Analytic(duu=lambda u, v: 2.0 + 0 * u, dvv=lambda u, v: 4.0 + 0 * u)
        a = Analytic(lap=lambda u, v: (2.0 + 0 * u) + (4.0 + 0 * u))
        assert a.lap(0.0, 0.0) == 6.0
        assert a.has_lap

    def test_split_derivatives_are_stored_bit_for_bit(self):
        # (du, dv) become dz, dzbar = (du -/+ i dv)/2 with the very
        # arithmetic, signed zeros included, and imply no lap
        def bits(x):
            return np.ascontiguousarray(x).view(np.uint64)

        u = np.array([0.0, -0.0, 0.3, -1.7, 2.0])
        v = np.array([-0.0, 0.5, -0.0, 0.4, 1e-300])
        du = lambda u, v: np.array([-0.0, 0.0, 1.25, -3.5, 5e-324]) * np.cosh(u + v)
        dv = lambda u, v: np.array([-0.0, -0.0, 0.0, 7.0 / 3.0, -2.0]) * np.exp(v)
        a = Analytic(du=du, dv=dv)
        assert np.array_equal(bits(a.dz(u, v)), bits((du(u, v) - 1j * dv(u, v)) / 2.0))
        assert np.array_equal(bits(a.dzbar(u, v)), bits((du(u, v) + 1j * dv(u, v)) / 2.0))
        assert a.has_first and not a.has_lap

    @given(st.lists(_partial, min_size=1, max_size=12),
           st.lists(_partial, min_size=1, max_size=12),
           st.sampled_from(["real", "complex du", "complex dv"]))
    @example([0.0, -0.0, 1.0, -1.0, 5e-324, 1e308], [-0.0, 0.0, -2.0, 1e308, -5e-324], "real")
    @example([1e308, -1e308], [1e308, 2.0], "complex du")
    def test_split_derivatives_are_the_complex_form_bit_for_bit(self, du, dv, kind):
        # real partials take the direct fill wherever du and dv are finite
        # and nonzero and the complex form elsewhere; complex ones the complex
        # form: either way the bits of (du -/+ i dv)/2, every pair of values
        # meeting once as a column against a row
        du, dv = np.array(du)[:, None], np.array(dv)[None, :]
        if kind == "complex du":
            du = du + 1j * du[::-1]
        elif kind == "complex dv":
            dv = dv - 1j * dv[:, ::-1]
        a = Analytic(du=lambda u, v: du, dv=lambda u, v: dv)
        with np.errstate(over="ignore", invalid="ignore"):     # complex ones may overflow
            pairs = ((a.dz(0.0, 0.0), (du - 1j * dv) / 2.0),
                     (a.dzbar(0.0, 0.0), (du + 1j * dv) / 2.0))
        for got, want in pairs:
            assert got.shape == want.shape and got.dtype == want.dtype
            assert np.array_equal(np.ascontiguousarray(got).view(np.uint64),
                                  np.ascontiguousarray(want).view(np.uint64))

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

    @pytest.mark.parametrize("kind", [RealField, ComplexField])
    def test_fd_is_the_complex_form_bit_for_bit(self, kind):
        # samples of +-0 and +-1 give derivatives of both signs and both zeros
        g = grid(9)
        values = np.random.default_rng(5).choice([0.0, -0.0, 1.0, -1.0], size=(2,) + g.shape)
        f = kind(g, values[0] if kind is RealField else values[0] + 1j * values[1])
        fu = np.gradient(f.values, g.h_u, axis=0, edge_order=2)
        fv = np.gradient(f.values, g.h_v, axis=1, edge_order=2)
        for d in (fu, fv):
            parts = np.ravel(d).view(np.float64)
            assert (np.signbit(parts) & (parts == 0)).any()
        for op, combine in ((wirtinger_dz, np.subtract), (wirtinger_dzbar, np.add)):
            want = combine(fu, 1j * fv) / 2.0
            assert np.array_equal(op(f).values.view(np.int64), want.view(np.int64))

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


def transposed(field):
    """The problem of ``field`` on the grid with u and v swapped.

    G(s, t) = F(t, s) has G_z = -i conj(E(t, s)), so the rows-first
    primitive of the result, transposed, is the columns-first primitive of
    ``field``: along its first column, then along each row.
    """
    g = field.grid
    a = Analytic()
    if field.analytic.has_value:
        a = Analytic(value=lambda s, t: -1j * np.conj(field.analytic.value(t, s)))
    return ComplexField(Grid2D(g.v_min, g.v_max, g.u_min, g.u_max, g.n_v, g.n_u),
                        -1j * np.conj(field.values.T), a)


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
        r1 = integrate_primitive(field)
        r2 = integrate_primitive(transposed(field))
        diff = sup_abs(r1.field.values - r2.field.values.T)
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
        r1 = integrate_primitive(field)
        r2 = integrate_primitive(transposed(field))
        closed = np.sin(U) * np.exp(V) + np.sinh(U) * np.sin(U)
        closed -= closed[0, 0]
        assert sup_abs(r1.field.values - closed) < 1e-12
        assert sup_abs(r2.field.values.T - closed) < 1e-12
        assert r1.loop_residual < 1e-13


class TestSharedQuadrature:
    """k fields whose value callbacks share closed forms, each of them
    evaluated once per node set."""

    @staticmethod
    def shared(g, calls=None):
        def exp_iz(u, v):
            if calls is not None:
                calls.append(np.shape(u))
            return np.exp(1j * (u + 1j * v))
        e = Analytic(value=exp_iz)
        c = Analytic(value=lambda u, v: np.cos(u) * np.exp(v) + 0j)
        formulas = [
            lambda e, c: e,
            lambda e, c: 1j * e * c + 0.5 * e,
            lambda e, c: c * c - e,
            lambda e, c: e / (2.0 + c),
        ]
        U, V = g.mesh()
        return [ComplexField(g, f(e.value(U, V), c.value(U, V)),
                             Analytic(value=lambda u, v, _f=f: _f(e.value(u, v), c.value(u, v))))
                for f in formulas]

    # 98 rows span several row blocks, the last one short
    @pytest.mark.parametrize("n_u,n_v", [(3, 3), (98, 7)])
    def test_matches_one_integrate_primitive_per_field(self, n_u, n_v):
        g = Grid2D(-1.0, 1.5, -0.5, 1.0, n_u, n_v)
        flds = self.shared(g)
        together = fields._integrate_primitives(flds)
        for fld, res in zip(flds, together):
            alone = integrate_primitive(fld)
            scale = sup_abs(alone.field.values)
            assert sup_abs(res.field.values - alone.field.values) <= 1e-15 * scale
            assert res.loop_residual == pytest.approx(alone.loop_residual, rel=1e-12, abs=1e-16)
            assert res.field.values[0, 0] == 0.0

    def test_inputs_evaluated_once_per_node_set_and_block(self):
        g = Grid2D(-1.0, 1.0, -1.0, 1.0, fields._QUAD_ROWS + 2, 5)
        calls = []
        flds = self.shared(g, calls)
        del calls[:]                                # the samples on the nodes
        fields._integrate_primitives(flds)
        # four fields share exp(iz); two row blocks, each with a u-edge and a v-edge node set
        assert [len(s) for s in calls] == [3, 3, 3, 3]
        assert sum(s[0] for s in calls[0::2]) == g.n_u - 1
        assert sum(s[0] for s in calls[1::2]) == g.n_u

    def test_primitive_dz_callback_returns_the_integrand(self):
        g = grid(9)
        a = Analytic(value=lambda u, v: np.exp(1j * (u + 1j * v)))
        res = integrate_primitive(ComplexField.sample(g, a))
        out = res.field.analytic
        u = np.linspace(-1.0, 1.0, 6)[:, None]
        v = np.linspace(-1.0, 1.0, 4)[None, :]
        np.testing.assert_array_equal(out.dz(u, v), a.value(u, v))
        np.testing.assert_array_equal(out.dzbar(u, v), np.conj(a.value(u, v)))
        np.testing.assert_array_equal(out.du(u, v), 2.0 * np.real(a.value(u, v)))

    def test_primitive_lap_callback_is_four_re_dzbar_of_the_integrand(self):
        # E = dz(u^2 v^2) = u v^2 - i u^2 v, whose dzbar is (u^2 + v^2)/2
        g = grid(9)
        a = Analytic(value=lambda u, v: u * v ** 2 - 1j * u ** 2 * v,
                     dz=lambda u, v: (v ** 2 - u ** 2) / 2.0 - 2j * u * v,
                     dzbar=lambda u, v: (u ** 2 + v ** 2) / 2.0 + 0j)
        out = integrate_primitive(ComplexField.sample(g, a)).field.analytic
        u = np.linspace(-1.0, 1.0, 6)[:, None]
        v = np.linspace(-1.0, 1.0, 4)[None, :]
        np.testing.assert_array_equal(out.lap(u, v), 4.0 * np.real(a.dzbar(u, v)))
        np.testing.assert_allclose(out.lap(u, v), 2.0 * (u ** 2 + v ** 2), rtol=1e-15)

    def test_needs_one_integrand_per_field_on_one_grid(self):
        g = grid(5)
        fld = ComplexField(g, np.zeros(g.shape, complex))
        with pytest.raises(ValueError):
            fields._integrate_primitives([])
        with pytest.raises(GridMismatchError):
            fields._integrate_primitives([fld, ComplexField(grid(7), np.zeros((7, 7)))])


class TestDeferredSweeps:
    """Inside ``fields.deferred_sweeps`` the primitive of a field with a value
    callback waits for the next sweep on its grid; whenever its samples
    come, they are the bits an eager integration gives."""

    @staticmethod
    def same_bits(res, ref):
        assert res.field.values.tobytes() == ref.field.values.tobytes()
        assert res.loop_residual == ref.loop_residual

    # 98 rows span three row blocks
    def test_the_next_sweep_integrates_the_deferred_primitives(self):
        g = Grid2D(-1.0, 1.5, -0.5, 1.0, 98, 7)
        flds = TestSharedQuadrature.shared(g)
        eager = [integrate_primitive(f) for f in flds]
        swept = []
        with fields.deferred_sweeps():
            pending = [integrate_primitive(f) for f in flds[:2]]
            assert all("_pending" in vars(p.field) for p in pending)
            fields._when_swept(pending[1].field, lambda: swept.append(pending[1].loop_residual))
            assert swept == []
            own = fields._integrate_primitives(flds[2:])
            assert swept == [eager[1].loop_residual]
            assert fields._EVAL.deferred == []
        for res, ref in zip(pending + own, eager):
            self.same_bits(res, ref)

    def test_a_read_before_the_sweep_sweeps_alone(self):
        f = TestSharedQuadrature.shared(grid(17))[1]
        ref = integrate_primitive(f)
        with fields.deferred_sweeps():
            res = integrate_primitive(f)
            half = lincomb_real([(0.5, res.field)])
            assert "_pending" in vars(half)
            self.same_bits(res, ref)
            assert half.values.tobytes() == (0.5 * ref.field.values).tobytes()
            assert fields._EVAL.deferred == []
        assert fields._EVAL.deferred is None

    def test_what_is_left_is_swept_when_the_scope_closes(self):
        f = TestSharedQuadrature.shared(grid(17))[2]
        ran = []
        with fields.deferred_sweeps():
            res = integrate_primitive(f)
            fields._when_swept(res.field, lambda: ran.append(True))
        assert ran == [True] and "_pending" not in vars(res.field)
        self.same_bits(res, integrate_primitive(f))

    def test_a_trapezoid_sweep_is_eager_and_leaves_the_deferred(self):
        g = grid(17)
        f = TestSharedQuadrature.shared(g)[0]
        samples = ComplexField(g, f.values)         # no callback: the trapezoid route
        with fields.deferred_sweeps():
            res = integrate_primitive(f)
            trapezoid = integrate_primitive(samples)
            assert isinstance(trapezoid, fields.PathIntegralResult)
            assert fields._EVAL.deferred != []
        self.same_bits(res, integrate_primitive(f))


class TestLincomb:
    def test_third_kind_coordinate_dz_evaluates_the_integrand_once(self, monkeypatch):
        # pot1 -/+ pot2 are the third-kind coordinates; pot2 is a primitive
        # whose dz is its integrand, pot1 has du and dv callbacks
        from mtsurf.catalog import fixture_sigma_theta
        from mtsurf.weierstrass import second_to_first

        calls, depth = [], [0]
        value = Analytic.value

        def counted(self, u, v):
            # only outermost evaluations: the integrand evaluates the
            # holomorphic field's callbacks inside its own
            if not depth[0]:
                calls.append(self)
            depth[0] += 1
            try:
                return value(self, u, v)
            finally:
                depth[0] -= 1

        monkeypatch.setattr(Analytic, "value", counted)
        first = second_to_first(fixture_sigma_theta(0.3, grid=grid(9, (-2, 2, -2, 2))).data)
        for sign in (-1.0, 1.0):
            coord = lincomb_real([(1.0, first.pot1), (sign, first.pot2)])
            U, V = coord.grid.mesh()
            calls.clear()
            dz = coord.analytic.dz(U, V)
            assert len(calls) == 1
            dzbar = coord.analytic.dzbar(U, V)
            # the same values, bit for bit, as (du -/+ i dv)/2 of the sums
            # of the summands' du and dv
            pairs = ((1.0, first.pot1), (sign, first.pot2))
            split = Analytic(du=lambda u, v: sum(w * f.analytic.du(u, v) for w, f in pairs),
                             dv=lambda u, v: sum(w * f.analytic.dv(u, v) for w, f in pairs))
            np.testing.assert_array_equal(dz, split.dz(U, V))
            np.testing.assert_array_equal(dzbar, split.dzbar(U, V))

    def test_no_direct_dz_without_first_derivatives(self):
        g = grid(5)
        with_first = RealField.sample(g, Analytic(value=lambda u, v: u * v,
                                                  du=lambda u, v: v, dv=lambda u, v: u))
        value_only = RealField.sample(g, Analytic(value=lambda u, v: u + v))
        coord = lincomb_real([(1.0, with_first), (2.0, value_only)])
        assert coord.analytic._dz is None and not coord.analytic.has_first


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

    def test_binary_truncated_body_names_byte_counts(self, tmp_path):
        g = grid(5)
        p = tmp_path / "f.bin"
        save_field_binary(RealField(g, np.ones(g.shape)), p)
        raw = p.read_bytes()
        p.write_bytes(raw[:len(raw) - 22 * 8])
        with pytest.raises(ValueError, match=r"f\.bin.*24 bytes.*needs 200"):
            load_field_binary(p)

    def test_binary_unknown_kind_byte_rejected(self, tmp_path):
        g = grid(5)
        p = tmp_path / "f.bin"
        save_field_binary(RealField(g, np.ones(g.shape)), p)
        raw = bytearray(p.read_bytes())
        raw[5] = 7
        p.write_bytes(bytes(raw))
        with pytest.raises(ValueError, match="kind byte 7"):
            load_field_binary(p)

    def test_csv_foreign_header_rejected(self, tmp_path):
        # a 4-column numeric CSV on a uniform grid, but not a field CSV
        g = grid(4)
        p = tmp_path / "f.csv"
        save_field_csv(RealField(g, np.ones(g.shape)), p)
        lines = p.read_text().splitlines()
        for header in ("x,y,z,w", "", "u,v,re"):
            p.write_text("\n".join([header] + lines[1:]) + "\n")
            with pytest.raises(ValueError, match=r"f\.csv.*not the header 'u,v,re,im'"):
                load_field_csv(p)

    def test_csv_non_finite_sample_rejected(self, tmp_path):
        g = grid(5)
        vals = np.ones(g.shape)
        vals[2, 3] = np.nan
        p = tmp_path / "f.csv"
        save_field_csv(RealField(g, vals), p)
        # node (2, 3) is the 14th data row, on line 15 after the header
        with pytest.raises(ValueError, match=r"f\.csv.*non-finite.*line 15, node 13"):
            load_field_csv(p)

    def test_binary_non_finite_sample_rejected(self, tmp_path):
        g = grid(5)
        vals = np.ones(g.shape, complex)
        vals[1, 4] = 1.0 + 1j * np.inf
        vals[3, 0] = np.nan
        p = tmp_path / "f.bin"
        save_field_binary(ComplexField(g, vals), p)
        with pytest.raises(ValueError, match=r"f\.bin.*non-finite.*node \(1, 4\)"):
            load_field_binary(p)
