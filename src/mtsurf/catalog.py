"""Closed-form catalog of benchmark surfaces and their generating data.

Each fixture bundles second-kind data and/or an explicit coordinate chart,
with exact value/derivative callbacks on every field so that validators
and representation residuals stay at roundoff instead of h^2.  Expected
invariants (quadric constant, conformal factor, mean-curvature norm) come
along as closed forms for use as oracles.

The sigma-theta family interpolates, as theta runs over [0, pi/2], from a
surface inside the unit hyperboloid <X,X> = -1 to one inside the de Sitter
quadric <X,X> = +1, crossing the light cone at theta = pi/4.  All of its
members share the holomorphic field exp(iz) and live where
cos(theta) cosh u + sin(theta) cos v stays away from zero.  The two-param
family perturbs the theta = 0 member by harmonic linear terms.  Two
classical zero-mean-curvature charts (a catenoid inside the x4 = 0 slice
and its timelike-slice counterpart inside x1 = 0) are included for
metric-isometry comparisons.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError
from .fields import Analytic, ComplexField, Grid2D, RealField, lincomb_real
from .weierstrass import WeierstrassSecond

__all__ = [
    "Fixture",
    "FIXTURE_NAMES",
    "fixture_sigma_theta",
    "fixture_two_parameter",
    "fixture_classical",
    "fixture_by_name",
    "recommended_bounds",
]


@dataclass(frozen=True)
class Fixture:
    """A named benchmark: generating data, explicit chart, expected facts.

    ``kind`` is "second-kind" when generating data is present (the chart
    rides along for oracle comparisons) and "patch" for chart-only
    fixtures.  ``expected`` keys, when present:

    - "quadric_constant": c with <X,X> = c on the whole chart
    - "conformal_factor": callable (u,v) -> closed-form metric factor
    - "mean_curvature_norm": callable (u,v) -> Euclidean |H|
    - "anchor": chart value at the grid origin node (4 floats), the
      constants a representation must use to land on the chart exactly
    - "h_nowhere_zero": whether min |H| > 0 is expected on the grid
    - "slice": (coordinate name, constant) for charts confined to an
      axis-aligned slice
    """

    name: str
    kind: str
    params: dict
    grid: Grid2D
    data: object
    parts: tuple = field(repr=False)      # the chart's closed forms, sampled when read
    expected: dict = field(compare=False)

    @functools.cached_property
    def chart(self):
        return _chart_fields(self.grid, self.parts)


def _zeros(u, v):
    return np.zeros(np.broadcast(np.asarray(u), np.asarray(v)).shape)


def _holo_exp_iz(grid):
    """exp(iz) = e^{iu} e^{-v}: nowhere zero, holomorphic.  Written as that
    product, it takes one complex exp per u value and one per v value.  The
    factor exp(0j - v) has an imaginary part of +0, so the product adds only
    exact zeros to e^{-v} cos u and e^{-v} sin u, the parts of exp(iu - v)."""
    return ComplexField.sample(grid, Analytic(
        value=lambda u, v: np.exp(1j * u) * np.exp(0j - v),
        dz=lambda u, v: 1j * (np.exp(1j * u) * np.exp(0j - v)),
        dzbar=lambda u, v: _zeros(u, v) * 1j,
    ))


def _chart_fields(grid, component_parts):
    """Four coordinate RealFields from per-component (weight, slots) lists:
    each part is sampled with its callbacks and the parts are summed by
    :func:`mtsurf.fields.lincomb_real`."""
    return tuple(lincomb_real([(w, RealField.sample(grid, Analytic(**slots)))
                               for w, slots in parts])
                 for parts in component_parts)


def _chart_anchor(grid, component_parts):
    """Node (0, 0) of the chart, sampled on a 3x3 grid with the same bounds."""
    corners = Grid2D(grid.u_min, grid.u_max, grid.v_min, grid.v_max, 3, 3)
    return tuple(float(c.values[0, 0]) for c in _chart_fields(corners, component_parts))


# One-variable closed forms t -> (f, f', f''), the building blocks of every
# chart coordinate here and of the named Poisson fields.  A derivative that is
# a constant multiple k f of the form itself is given as the number k, so the
# product rule reuses f for it and drops it when k is zero.
_FORMS = {
    "1": (np.ones_like, 0.0, 0.0),
    "t": (lambda t: t, np.ones_like, 0.0),
    "sin": (np.sin, np.cos, -1.0),
    "cos": (np.cos, lambda t: -np.sin(t), -1.0),
    "sinh": (np.sinh, np.cosh, 1.0),
    "cosh": (np.cosh, np.sinh, 1.0),
    "exp": (np.exp, 1.0, 1.0),
    "exp(-t)": (lambda t: np.exp(-t), -1.0, 1.0),
    "tanh": (np.tanh, lambda t: 1.0 / np.cosh(t) ** 2,
             lambda t: -2.0 * np.tanh(t) / np.cosh(t) ** 2),
    "sinh*sin": (lambda t: np.sinh(t) * np.sin(t),
                 lambda t: np.cosh(t) * np.sin(t) + np.sinh(t) * np.cos(t),
                 lambda t: 2.0 * np.cosh(t) * np.cos(t)),
    "sinh*cos": (lambda t: np.sinh(t) * np.cos(t),
                 lambda t: np.cosh(t) * np.cos(t) - np.sinh(t) * np.sin(t),
                 lambda t: -2.0 * np.cosh(t) * np.sin(t)),
    "cosh*sin": (lambda t: np.cosh(t) * np.sin(t),
                 lambda t: np.sinh(t) * np.sin(t) + np.cosh(t) * np.cos(t),
                 lambda t: 2.0 * np.sinh(t) * np.cos(t)),
}


def _product(f, g, c=1.0):
    """Slots value/du/dv/lap of c f(u) g(v) for two forms of ``_FORMS``, by
    the product rule; lap = c (f'' g + f g'').  Each slot sums c a(u) b(v)
    over its terms, a number k in place of a (or b) standing for k f (or k g);
    terms with the same factors are merged, and one whose coefficient is zero
    is dropped, so a slot whose terms all cancel is ``_zeros``."""
    (f0, f1, f2), (g0, g1, g2) = _FORMS[f], _FORMS[g]

    def slot(*terms):
        scale = {}
        for a, b in terms:
            key = (a if callable(a) else f0, b if callable(b) else g0)
            k = c * (1.0 if callable(a) else a) * (1.0 if callable(b) else b)
            scale[key] = scale.get(key, 0.0) + k
        parts = [(k, a, b) for (a, b), k in scale.items() if k != 0.0]
        if not parts:
            return _zeros
        return lambda u, v: functools.reduce(np.add, (k * a(u) * b(v) for k, a, b in parts))

    return dict(value=lambda u, v: c * f0(u) * g0(v), du=slot((f1, 1.0)),
                dv=slot((1.0, g1)), lap=slot((f2, 1.0), (1.0, g2)))


_ZERO = dict(value=_zeros, du=_zeros, dv=_zeros, lap=_zeros)

# Base chart for theta = 0 (lies in <X,X> = -1) and theta = pi/2 (in
# <X,X> = +1).
_CHART_HYP = (_product("sinh*sin", "1"), _product("sinh*cos", "1"),
              _product("cosh", "sinh"), _product("cosh", "cosh"))
_CHART_DESITTER = (_product("cos", "cos", -1.0), _product("sin", "cos"),
                   _product("1", "cosh*sin"), _product("1", "sinh*sin"))

# Harmonic perturbation charts for the two-parameter family.
_CHART_LIN_A = (_product("t", "1"), _product("1", "t"),
                _product("sin", "exp(-t)", -1.0), _product("sin", "exp(-t)"))
_CHART_LIN_B = (_product("1", "t"), _product("t", "1", -1.0),
                _product("cos", "exp(-t)"), _product("cos", "exp(-t)", -1.0))

_CHART_CATENOID = (_product("cosh", "sin"), _product("cosh", "cos"),
                   _product("t", "1"), _ZERO)
_CHART_HYP_CATENOID = (_ZERO, _product("1", "t"),
                       _product("sinh", "cos"), _product("cosh", "cos"))


def recommended_bounds(theta):
    """Rectangle (u_min,u_max,v_min,v_max) safely inside the admissible set.

    Below theta = pi/4 the whole plane is admissible; at pi/4 the corner
    (0, +-pi) must be avoided, so the rectangle sits at u > 0; above pi/4
    the v range shrinks to keep cos v positive.
    """
    quarter = math.pi / 4.0
    if theta < quarter - 1e-12:
        return (-2.0, 2.0, -2.0, 2.0)
    if abs(theta - quarter) <= 1e-12:
        return (0.1, 3.0, -3.0, 3.0)
    return (-2.0, 2.0, -1.4, 1.4)


def _default_grid(bounds, n_u=65, n_v=65):
    return Grid2D(bounds[0], bounds[1], bounds[2], bounds[3], n_u, n_v)


def _guard_sigma_domain(theta, grid):
    """Reject grids where cos(theta) cosh u + sin(theta) cos v can vanish.

    Both coefficients are nonnegative on [0, pi/2] and the expression
    separates, so its exact minimum over the rectangle is attained at the
    u nearest 0 and the v where cos is smallest (an endpoint or an odd
    multiple of pi inside the range).  No sampling resolution involved.
    """
    ct, st = math.cos(theta), math.sin(theta)
    if grid.u_min <= 0.0 <= grid.u_max:
        u_star = 0.0
    else:
        u_star = grid.u_min if abs(grid.u_min) < abs(grid.u_max) else grid.u_max
    candidates = [grid.v_min, grid.v_max]
    for k in range(math.floor(grid.v_min / math.pi),
                   math.ceil(grid.v_max / math.pi) + 1):
        if k % 2 != 0 and grid.v_min <= k * math.pi <= grid.v_max:
            candidates.append(k * math.pi)
    v_star = min(candidates, key=math.cos)
    # past |u| = 710 cosh overflows; the clamped value is as far from zero
    low = ct * math.cosh(min(abs(u_star), 710.0)) + st * math.cos(v_star)
    if low <= 1e-9:
        raise DomainError(
            "grid violates the admissible-domain condition "
            "cos(theta) cosh u + sin(theta) cos v != 0: minimum %.3e at "
            "(u,v)=(%.6g, %.6g)" % (low, u_star, v_star))


def _second_kind(name, params, grid, height, null_pot, parts, **expected):
    """Fixture of the data (exp(iz), height, null_pot) and the chart ``parts``;
    ``expected`` gains the chart's anchor and h_nowhere_zero."""
    data = WeierstrassSecond(_holo_exp_iz(grid), height, null_pot, dict(name=name, **params))
    expected.update(anchor=_chart_anchor(grid, parts), h_nowhere_zero=True)
    return Fixture(name, "second-kind", params, grid, data, parts, expected)


def fixture_sigma_theta(theta, grid=None):
    """One-parameter family member at the given theta in [0, pi/2].

    Data: holo = exp(iz), height = cos(theta) sinh u sin u
    - sin(theta) cos u cos v, null_pot = e^v (cos(theta) cosh u
    + sin(theta) sin v).  Chart: the matching interpolated embedding with
    <X,X> = -cos(2 theta) and conformal factor
    (cos(theta) cosh u + sin(theta) cos v)^2.
    """
    theta = float(theta)
    if not 0.0 <= theta <= math.pi / 2.0 + 1e-12:
        raise ValueError("theta must lie in [0, pi/2], got %g" % theta)
    if grid is None:
        grid = _default_grid(recommended_bounds(theta))
    _guard_sigma_domain(theta, grid)
    ct, st = math.cos(theta), math.sin(theta)

    height = RealField.sample(grid, Analytic(
        value=lambda u, v: ct * np.sinh(u) * np.sin(u) - st * np.cos(u) * np.cos(v),
        du=lambda u, v: ct * (np.cosh(u) * np.sin(u) + np.sinh(u) * np.cos(u))
        + st * np.sin(u) * np.cos(v),
        dv=lambda u, v: st * np.cos(u) * np.sin(v),
        lap=lambda u, v: 2.0 * np.cos(u) * (ct * np.cosh(u) + st * np.cos(v)),
    ))
    null_pot = RealField.sample(grid, Analytic(
        value=lambda u, v: np.exp(v) * (ct * np.cosh(u) + st * np.sin(v)),
        du=lambda u, v: np.exp(v) * ct * np.sinh(u),
        dv=lambda u, v: np.exp(v) * (ct * np.cosh(u) + st * np.sin(v) + st * np.cos(v)),
        lap=lambda u, v: 2.0 * np.exp(v) * (ct * np.cosh(u) + st * np.cos(v)),
    ))
    parts = tuple(((ct, _CHART_HYP[k]), (st, _CHART_DESITTER[k])) for k in range(4))

    def conformal_factor(u, v):
        return (ct * np.cosh(u) + st * np.cos(v)) ** 2

    def mean_curvature_norm(u, v):
        return 2.0 * math.sqrt(2.0) * np.cosh(v) / (ct * np.cosh(u) + st * np.cos(v))

    return _second_kind("sigma-theta", {"theta": theta}, grid, height, null_pot, parts,
                        quadric_constant=-math.cos(2.0 * theta),
                        conformal_factor=conformal_factor,
                        mean_curvature_norm=mean_curvature_norm)


def fixture_two_parameter(alpha, beta, grid=None):
    """Two-parameter perturbation of the theta = 0 member.

    Data: holo = exp(iz), height = alpha u + beta v + sinh u sin u,
    null_pot = e^v cosh u; requires alpha^2 + beta^2 < 1, which is exactly
    what keeps the immersion expression away from zero on all of R^2.
    """
    alpha = float(alpha)
    beta = float(beta)
    if not alpha * alpha + beta * beta < 1.0:   # NaN fails it too
        raise ValueError(
            "need alpha^2 + beta^2 < 1 (got %g); otherwise the immersion "
            "expression vanishes somewhere" % (alpha * alpha + beta * beta))
    if grid is None:
        grid = _default_grid((-2.0, 2.0, -2.0, 2.0))

    height = RealField.sample(grid, Analytic(
        value=lambda u, v: alpha * u + beta * v + np.sinh(u) * np.sin(u),
        du=lambda u, v: alpha + np.cosh(u) * np.sin(u) + np.sinh(u) * np.cos(u) + _zeros(u, v),
        dv=lambda u, v: beta + _zeros(u, v),
        lap=lambda u, v: 2.0 * np.cosh(u) * np.cos(u) + _zeros(u, v),
    ))
    null_pot = RealField.sample(grid, Analytic(
        value=lambda u, v: np.exp(v) * np.cosh(u),
        du=lambda u, v: np.exp(v) * np.sinh(u),
        dv=lambda u, v: np.exp(v) * np.cosh(u),
        lap=lambda u, v: 2.0 * np.exp(v) * np.cosh(u),
    ))
    parts = tuple(((alpha, _CHART_LIN_A[k]), (beta, _CHART_LIN_B[k]), (1.0, _CHART_HYP[k]))
                  for k in range(4))

    def conformal_factor(u, v):
        return ((alpha + np.cosh(u) * np.sin(u)) ** 2
                + (-beta + np.cosh(u) * np.cos(u)) ** 2)

    def mean_curvature_norm(u, v):
        return (2.0 * math.sqrt(2.0) * np.cosh(u) * np.cosh(v)
                / conformal_factor(u, v))

    return _second_kind("two-param", {"alpha": alpha, "beta": beta}, grid, height, null_pot,
                        parts, quadric_constant=None, conformal_factor=conformal_factor,
                        mean_curvature_norm=mean_curvature_norm)


# name -> (default bounds, chart, conformal factor, slice)
_CLASSICAL = {
    "catenoid-r3": ((-2.0, 2.0, -2.0, 2.0), _CHART_CATENOID,
                    lambda u, v: np.cosh(u) ** 2 + _zeros(u, v), ("x4", 0.0)),
    "hyperbolic-catenoid-l3": ((-2.0, 2.0, -1.4, 1.4), _CHART_HYP_CATENOID,
                               lambda u, v: np.cos(v) ** 2 + _zeros(u, v), ("x1", 0.0)),
}


def fixture_classical(name, grid=None):
    """Zero-mean-curvature charts for metric-isometry comparisons.

    "catenoid-r3" is the catenoid inside the Euclidean slice x4 = 0 with
    conformal factor cosh^2 u; "hyperbolic-catenoid-l3" lives inside the
    timelike slice x1 = 0 with conformal factor cos^2 v and needs
    |v| < pi/2 to stay spacelike.
    """
    key = str(name).strip().lower().replace("_", "-")
    if key not in _CLASSICAL:
        raise KeyError("unknown classical chart %r; pick catenoid-r3 or "
                       "hyperbolic-catenoid-l3" % (name,))
    bounds, chart, conformal_factor, slice_ = _CLASSICAL[key]
    if grid is None:
        grid = _default_grid(bounds)
    if key == "hyperbolic-catenoid-l3" and (grid.v_min <= -math.pi / 2.0
                                            or grid.v_max >= math.pi / 2.0):
        raise DomainError(
            "hyperbolic catenoid chart needs v in (-pi/2, pi/2); grid "
            "spans [%g, %g]" % (grid.v_min, grid.v_max))
    parts = tuple(((1.0, c),) for c in chart)
    expected = {"quadric_constant": None, "conformal_factor": conformal_factor,
                "anchor": _chart_anchor(grid, parts), "h_nowhere_zero": False,
                "slice": slice_}
    return Fixture(key, "patch", {}, grid, None, parts, expected)


# name -> (builder, the parameters it takes with their defaults)
_FIXTURES = {
    "sigma-theta": (fixture_sigma_theta, {"theta": 0.0}),
    "two-param": (fixture_two_parameter, {"alpha": 0.0, "beta": 0.0}),
    "catenoid-r3": (functools.partial(fixture_classical, "catenoid-r3"), {}),
    "hyperbolic-catenoid-l3": (functools.partial(fixture_classical,
                                                 "hyperbolic-catenoid-l3"), {}),
}

FIXTURE_NAMES = tuple(_FIXTURES)


def fixture_by_name(name, grid=None, params=None):
    """Registry front end used by the command line tools.  A parameter the
    fixture does not take raises a ValueError naming it."""
    key = str(name).strip().lower().replace("_", "-")
    if key not in _FIXTURES:
        raise KeyError("unknown fixture %r; known: %s" % (name, ", ".join(FIXTURE_NAMES)))
    build, defaults = _FIXTURES[key]
    params = dict(defaults, **(params or {}))
    extra = sorted(set(params) - set(defaults))
    if extra:
        raise ValueError("fixture %r does not take %s (it takes %s)"
                         % (key, ", ".join(extra), ", ".join(defaults) or "no parameter"))
    return build(grid=grid, **params)
