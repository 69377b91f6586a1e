"""Conformal surface patches in R^{3,1} built from generating data.

Three interchangeable representations turn data triples into a patch
X : grid -> R^{3,1} whose mean curvature vector H = (4/conformal) X_zzbar
is null: the first consumes a (gauss, pot1, pot2) triple, the second a
(holo, height, null_pot) triple and the third a (gauss, coord3, coord4)
triple.  They are one construction driven by a per-kind table: a triple
is a holomorphic field w plus potentials (a, b) with lap(a) = weight
lap(b), the tangent field is Xz = dz(a) frame1(w) + dz(b) frame2(w), and
X_zzbar is lap(b)/4 times a real multiple of a null direction.  One core
validates the triple, integrates Xz coordinatewise with
:func:`mtsurf.fields.integrate_primitive` and assembles X_zzbar from the
closed formula, so the nullness of H is carried by algebra while
conformality, metric agreement and the coordinate identities are measured
and recorded in ``SurfacePatch.invariants``.

Patches can also be built directly from four coordinate fields
(:func:`patch_from_chart`), with derivatives taken from callbacks when
present and finite differences otherwise; that route is what reloaded or
externally produced charts go through, and it makes no structural
assumptions beyond smoothness.
"""

from __future__ import annotations

from collections import namedtuple
from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError
from .fields import (
    Analytic,
    ComplexField,
    RealField,
    integrate_primitive,
    laplacian,
    min_abs_location,
    sup_abs,
    sup_abs_interior,
    wirtinger_dz,
    wirtinger_dzbar,
)
from .lorentz import complex_bilinear, minkowski_inner
from .tolerances import EPS_IMMERSION, EPS_ZERO, PSI_CUTOFF, validation_cap
from .weierstrass import _certify, _has_first, _has_value

__all__ = [
    "SurfacePatch",
    "LiuData",
    "represent_first",
    "represent_second",
    "represent_third",
    "patch_from_chart",
    "patch_from_samples",
    "mean_curvature",
    "liu_decompose",
    "verify_congruence",
    "quadric_residual",
]


@dataclass(frozen=True)
class SurfacePatch:
    """A conformal patch with its derived geometry and residual summary.

    ``X``, ``Xzzbar``, ``mean_curvature`` and ``gauss_map`` are 4-tuples
    of RealFields, ``Xz`` a 4-tuple of ComplexFields; the ``*_stack``
    properties expose them as (4, n_u, n_v) arrays for the Minkowski
    algebra helpers.  ``invariants`` maps residual names to floats (see
    ``_patch_invariants``); ``provenance`` records how the patch was made.
    """

    grid: object
    X: tuple
    Xz: tuple
    Xzzbar: tuple
    conformal_factor: RealField
    mean_curvature: tuple
    gauss_map: tuple
    provenance: dict = field(compare=False)
    invariants: dict = field(compare=False)

    @property
    def x_stack(self):
        return np.stack([f.values for f in self.X])

    @property
    def xz_stack(self):
        return np.stack([f.values for f in self.Xz])

    @property
    def xzzbar_stack(self):
        return np.stack([f.values for f in self.Xzzbar])

    @property
    def h_stack(self):
        return np.stack([f.values for f in self.mean_curvature])

    @property
    def gauss_stack(self):
        return np.stack([f.values for f in self.gauss_map])


def _patch_invariants(grid, x_stack, xz_stack, h_stack, gauss_stack,
                      lam_values, closed_metric=None, extra=None):
    """Residual summary shared by every construction route.

    conformality   sup interior |<Xz, Xz>| (complex bilinear, no conj)
    conformal_min  min over grid of the conformal factor (spacelike > 0)
    mean_null      sup interior |<H, H>| / (1 + |H|_euclid^2)
    gauss_tangency sup interior |<Xz, gauss_map>|
    gauss_null     sup interior |<gauss_map, gauss_map>|
    metric_agreement  sup |closed-form factor - 2 <Xz, conj Xz>| when a
                      closed form exists
    """
    inv = {}
    inv["conformality"] = sup_abs_interior(complex_bilinear(xz_stack, xz_stack))
    inv["conformal_min"] = float(np.min(lam_values))
    hh = minkowski_inner(h_stack, h_stack)
    h_norm_sq = np.sum(h_stack * h_stack, axis=0)
    inv["mean_null"] = sup_abs_interior(hh / (1.0 + h_norm_sq))
    inv["gauss_tangency"] = sup_abs_interior(complex_bilinear(xz_stack, gauss_stack))
    inv["gauss_null"] = sup_abs_interior(minkowski_inner(gauss_stack, gauss_stack))
    if closed_metric is not None:
        two_inner = 2.0 * np.real(complex_bilinear(xz_stack, np.conj(xz_stack)))
        inv["metric_agreement"] = sup_abs(closed_metric - two_inner)
    if extra:
        inv.update(extra)
    return inv


def _mean_curvature_fields(grid, xzzbar_fields, lam_values):
    return tuple(RealField(grid, 4.0 * f.values / lam_values) for f in xzzbar_fields)


def _integrate_coords(xz_fields, anchor, order, loop_cap, what):
    """Integrate the four tangent fields into coordinates, origin-anchored.

    ``anchor`` gives the value of each coordinate at the grid origin node
    (defaults to zero).  Raises when a loop certificate exceeds the cap.
    """
    if anchor is None:
        anchor = (0.0, 0.0, 0.0, 0.0)
    anchor = tuple(float(a) for a in anchor)
    if len(anchor) != 4:
        raise ValueError("anchor must supply four coordinate values")
    coords = []
    worst_loop = 0.0
    for k, xz in enumerate(xz_fields):
        pr = integrate_primitive(xz, order=order)
        if pr.loop_residual > loop_cap:
            raise ValueError(
                "%s: coordinate %d loop residual %.3e exceeds %.3e; tangent "
                "field is not integrable on this grid"
                % (what, k + 1, pr.loop_residual, loop_cap))
        worst_loop = max(worst_loop, pr.loop_residual)
        coords.append(RealField(pr.field.grid, pr.field.values + anchor[k],
                                pr.field.analytic))
    return tuple(coords), worst_loop


def _shift_residual(actual, target):
    """sup |(actual - target) - (actual - target)(origin)|: equality up to
    the additive constant fixed at the grid origin node."""
    diff = actual - target
    return sup_abs(diff - diff[0, 0])


def _one(w):
    return 1.0 + 0j * w


def _zero(w):
    return 0j * w


def _stereographic_null(g):
    gsq = np.abs(g) ** 2
    return (2.0 * np.real(g), 2.0 * np.imag(g), gsq - 1.0, gsq + 1.0)


def _second_null(h):
    hsq = np.abs(h) ** 2
    return (np.real(h), -np.imag(h), (1.0 - hsq) / 2.0, (1.0 + hsq) / 2.0)


#: How one kind turns its holomorphic field w and potentials (a, b) into a
#: patch: Xz = dz(a) frame1(w) + dz(b) frame2(w) componentwise, conformal
#: factor scale(w) |dz(a) - weight dz(b)|^2 (weight from the validator),
#: X_zzbar = lap(b)/4 xzzbar_factor(w) null_dir(w), and ``identities``
#: pairs coordinate combinations with the potentials they must equal.
_Kind = namedtuple("_Kind", "frame1 frame2 scale null_dir xzzbar_factor identities")

_KINDS = {
    "first": _Kind(
        frame1=(lambda w: 1.0 / w, lambda w: 1j / w, _one, _one),
        frame2=(lambda w: w, lambda w: -1j * w, lambda w: -1.0 + 0j * w, _one),
        scale=lambda g: 4.0 / np.abs(g) ** 2,
        null_dir=_stereographic_null,
        xzzbar_factor=lambda g: 1.0,
        identities=lambda x, a, b: ((x[2], a - b), (x[3], a + b))),
    "second": _Kind(
        frame1=(_one, lambda w: -1j + 0j * w, lambda w: -w, lambda w: w),
        frame2=(_zero, lambda w: 1j * w, lambda w: (1.0 + w ** 2) / 2.0,
                lambda w: (1.0 - w ** 2) / 2.0),
        scale=lambda h: 4.0,
        null_dir=_second_null,
        xzzbar_factor=lambda h: 1.0,
        identities=lambda x, a, b: ((x[0], a), (x[2] + x[3], b))),
    "third": _Kind(
        frame1=(lambda w: (1.0 / w - w) / 2.0, lambda w: 1j * (1.0 / w + w) / 2.0,
                _one, _zero),
        frame2=(lambda w: (1.0 / w + w) / 2.0, lambda w: 1j * (1.0 / w - w) / 2.0,
                _zero, _one),
        scale=lambda g: (np.abs(g) + 1.0 / np.abs(g)) ** 2,
        null_dir=_stereographic_null,
        xzzbar_factor=lambda g: 1.0 / (1.0 + np.abs(g) ** 2),
        identities=lambda x, a, b: ((x[2], a), (x[3], b))),
}


def _represent(kind, holo, a, b, anchor, validate, order, source=None,
               eps_zero=EPS_ZERO, eps_immersion=EPS_IMMERSION):
    """The one representation pipeline, driven by ``_KINDS[kind]``.

    Validation runs first: the frames and the conformal scale divide by
    the holomorphic field.  The tangent field carries exact callbacks when
    ``holo`` has a value callback and both potentials first derivatives.
    """
    report, weight, a_z, b_z, b_zzbar = _certify(kind, holo, a, b,
                                                 eps_zero, eps_immersion)
    if validate:
        report.raise_for_failure()
    spec = _KINDS[kind]
    grid = holo.grid
    w = holo.values
    exact = _has_value(holo) and _has_first(a) and _has_first(b)

    xz_fields = []
    for c1, c2 in zip(spec.frame1, spec.frame2):
        analytic = None
        if exact:
            def cb(u, v, _c1=c1, _c2=c2, _w=holo.analytic, _a=a.analytic,
                   _b=b.analytic):
                wval = _w.value(u, v)
                return _a.dz(u, v) * _c1(wval) + _b.dz(u, v) * _c2(wval)
            analytic = Analytic(value=cb)
        xz_fields.append(ComplexField(grid, a_z * c1(w) + b_z * c2(w), analytic))
    X, worst_loop = _integrate_coords(xz_fields, anchor, order,
                                      validation_cap(grid, exact),
                                      "represent_" + kind)

    null_dir = spec.null_dir(w)
    xzzbar_coeff = b_zzbar * spec.xzzbar_factor(w)
    xzzbar = tuple(RealField(grid, xzzbar_coeff * n) for n in null_dir)
    gauss_map = tuple(RealField(grid, n) for n in null_dir)
    lam_values = spec.scale(w) * np.abs(a_z - weight * b_z) ** 2
    h_fields = _mean_curvature_fields(grid, xzzbar, lam_values)

    x_values = [f.values for f in X]
    coord_res = max(_shift_residual(actual, target) for actual, target
                    in spec.identities(x_values, a.values, b.values))
    provenance = {"representation": kind, "anchor": list(anchor or (0.0,) * 4)}
    if source is not None:
        provenance["source"] = dict(source)
    return SurfacePatch(
        grid, X, tuple(xz_fields), xzzbar, RealField(grid, lam_values), h_fields,
        gauss_map, provenance=provenance,
        invariants=_patch_invariants(
            grid, np.stack(x_values), np.stack([f.values for f in xz_fields]),
            np.stack([f.values for f in h_fields]), np.stack(null_dir),
            lam_values, closed_metric=lam_values,
            extra={"loop_residual": worst_loop, "coordinate_identity": coord_res}))


def represent_first(data, anchor=None, validate=True, order="rows"):
    """Patch from a first-kind triple.

    Tangent frame: Xz = dz(pot1) (1/g, i/g, 1, 1) + dz(pot2) (g, -i g,
    -1, 1) with g = gauss; then x3 = pot1 - pot2 and x4 = pot1 + pot2 up
    to constants, the conformal factor is (4/|g|^2)|dz(pot1)
    - |g|^2 dz(pot2)|^2 and X_zzbar equals lap(pot2)/4 times the null
    direction (2 Re g, 2 Im g, -1+|g|^2, 1+|g|^2).
    """
    return _represent("first", data.gauss, data.pot1, data.pot2, anchor,
                      validate, order, source=data.provenance)


def represent_second(data, anchor=None, validate=True, order="rows"):
    """Patch from a second-kind triple.

    Tangent frame: Xz = dz(height) (1, -i, -h, h) + dz(null_pot)
    (0, i h, (1+h^2)/2, (1-h^2)/2) with h = holo; then x1 = height and
    x3 + x4 = null_pot up to constants, the conformal factor is
    4 |dz(height) - Re(h) dz(null_pot)|^2 and X_zzbar equals
    lap(null_pot)/4 times (Re h, -Im h, (1-|h|^2)/2, (1+|h|^2)/2).
    """
    return _represent("second", data.holo, data.height, data.null_pot, anchor,
                      validate, order, source=data.provenance)


def represent_third(gauss, coord3, coord4, anchor=None, validate=True,
                    order="rows", eps_zero=EPS_ZERO, eps_immersion=EPS_IMMERSION):
    """Patch from a holomorphic field plus its last two coordinates.

    Preconditions: gauss nowhere zero and holomorphic, and the coupling
    lap(coord3) = w lap(coord4) with w = (-1+|gauss|^2)/(1+|gauss|^2),
    with |dz(coord3) - w dz(coord4)| bounded away from zero.  Tangent
    frame: Xz = dz(coord3) ((1/g-g)/2, i(1/g+g)/2, 1, 0) + dz(coord4)
    ((1/g+g)/2, i(1/g-g)/2, 0, 1); then x3 = coord3 and x4 = coord4 up to
    constants and the conformal factor is (|g|+1/|g|)^2 |dz(coord3)
    - w dz(coord4)|^2.  With coord4 = 0 the patch is a minimal surface in
    the x4 = 0 slice; with coord3 = 0 a maximal surface in x3 = 0.
    """
    return _represent("third", gauss, coord3, coord4, anchor, validate, order,
                      eps_zero=eps_zero, eps_immersion=eps_immersion)


def patch_from_chart(coords, provenance=None):
    """Patch directly from four real coordinate fields on one grid.

    Derivatives come from callbacks when the fields carry them, finite
    differences otherwise.  The conformal factor is measured as
    2 <Xz, conj Xz> (no closed form is assumed) and the null curvature
    direction X_zzbar doubles as the recorded gauss_map; it vanishes for
    minimal and maximal charts.
    """
    coords = tuple(coords)
    if len(coords) != 4:
        raise ValueError("a chart needs exactly four coordinate fields")
    grid = coords[0].grid
    for c in coords[1:]:
        if c.grid != grid:
            raise DomainError("chart coordinate fields live on different grids")

    xz_fields = tuple(wirtinger_dz(c) for c in coords)
    xzzbar = tuple(RealField(grid, laplacian(c).values / 4.0) for c in coords)
    xz_stack = np.stack([f.values for f in xz_fields])
    lam_values = 2.0 * np.real(complex_bilinear(xz_stack, np.conj(xz_stack)))
    if np.min(lam_values) <= 0.0:
        u, v, mag = min_abs_location(grid, lam_values)
        raise DomainError(
            "chart is not spacelike on this grid: conformal factor %.3e "
            "near (u,v)=(%.6g, %.6g)" % (float(np.min(lam_values)), u, v))
    lam = RealField(grid, lam_values)
    h_fields = _mean_curvature_fields(grid, xzzbar, lam_values)
    gauss_map = xzzbar

    patch = SurfacePatch(
        grid, coords, xz_fields, xzzbar, lam, h_fields, gauss_map,
        provenance=dict(provenance or {"representation": "chart"}),
        invariants=_patch_invariants(
            grid, np.stack([c.values for c in coords]), xz_stack,
            np.stack([f.values for f in h_fields]),
            np.stack([f.values for f in gauss_map]),
            lam_values, closed_metric=None,
            extra={"loop_residual": 0.0}))
    return patch


def patch_from_samples(grid, coords_array, provenance=None):
    """Chart route for plain (4, n_u, n_v) samples (e.g. reloaded files)."""
    arr = np.asarray(coords_array, dtype=float)
    if arr.shape != (4,) + grid.shape:
        raise ValueError("expected coordinate samples of shape (4, n_u, n_v)")
    return patch_from_chart(tuple(RealField(grid, arr[k]) for k in range(4)),
                            provenance=provenance)


def mean_curvature(patch):
    """The four mean-curvature component fields plus a nullness report.

    Report keys: sup_null_residual (sup interior of |<H,H>| / (1+|H|^2)),
    min_norm / max_norm of the Euclidean |H| over the grid, and
    min_norm_location.  A positive min_norm certifies "H vanishes nowhere"
    at grid resolution.
    """
    lam = patch.conformal_factor.values
    if np.min(lam) <= 0.0:
        raise ValueError("degenerate conformal factor: min %.3e" % float(np.min(lam)))
    h_stack = patch.h_stack
    hh = minkowski_inner(h_stack, h_stack)
    norm = np.sqrt(np.sum(h_stack * h_stack, axis=0))
    i, j = np.unravel_index(int(np.argmin(norm)), norm.shape)
    report = {
        "sup_null_residual": sup_abs_interior(hh / (1.0 + norm ** 2)),
        "min_norm": float(norm[i, j]),
        "max_norm": float(np.max(norm)),
        "min_norm_location": (float(patch.grid.axis_u[i]), float(patch.grid.axis_v[j])),
    }
    return patch.mean_curvature, report


@dataclass(frozen=True)
class LiuData:
    """Null-direction factorization of a patch tangent field.

    scale is (dz(x3) + dz(x4))/2; f1 and f2 satisfy scale*f1 =
    (dz(x1) + i dz(x2))/2 and scale*f2 = (dz(x1) - i dz(x2))/2 wherever
    |scale| exceeds the cutoff (f1, f2 are set to zero elsewhere; ``mask``
    tells which nodes are trusted).  ``residuals`` holds the four
    integrability conditions and the reconstruction error of
    Xz = scale (f1+f2, -i(f1-f2), 1-f1 f2, 1+f1 f2).
    """

    scale: ComplexField
    f1: ComplexField
    f2: ComplexField
    mask: np.ndarray
    residuals: dict
    cutoff: float


def liu_decompose(patch, cutoff=PSI_CUTOFF, use_fd=False):
    """Factor a patch tangent field through the null-direction system.

    With ``use_fd`` false the zbar-derivatives of the four tangent
    combinations are read off the patch's assembled X_zzbar fields (exact
    for represented patches); with ``use_fd`` true they are recomputed by
    finite differences from the Xz samples, which turns the conditions
    into a genuine O(h^2) cross-check of the construction.

    Residual keys: condition1 = sup interior |Im dzbar(scale)|,
    condition2 = sup interior |Im dzbar(scale f1 f2)|, condition3 =
    sup interior |dzbar(scale f1) - conj(dzbar(scale f2))|, condition4 =
    sup interior |dzbar(f1) dzbar(f2)| on the mask, reconstruction as in
    :class:`LiuData`, masked_fraction = share of nodes under the cutoff.

    condition4 is evaluated through the product identity

        dzbar(f1) dzbar(f2)
            = (dzbar(scale f1) dzbar(scale f2)
               - dzbar(scale) dzbar(scale f1 f2)) / scale^2

    rather than from dzbar(f1) and dzbar(f2) separately: the separate
    factors divide twice by scale and lose all significance near a zero
    of scale, while the combined form divides once at the end.
    """
    grid = patch.grid
    xz = patch.xz_stack
    psi = (xz[2] + xz[3]) / 2.0
    psi_f1 = (xz[0] + 1j * xz[1]) / 2.0
    psi_f2 = (xz[0] - 1j * xz[1]) / 2.0
    psi_f1f2 = (-xz[2] + xz[3]) / 2.0

    mask = np.abs(psi) > cutoff
    if not mask.any():
        raise ValueError("|scale| is below the cutoff %.1e on the whole grid"
                         % cutoff)
    safe = np.where(mask, psi, 1.0)
    f1 = np.where(mask, psi_f1 / safe, 0.0)
    f2 = np.where(mask, psi_f2 / safe, 0.0)

    if use_fd:
        def dzbar_of(arr):
            return wirtinger_dzbar(ComplexField(grid, arr)).values
        psi_zb = dzbar_of(psi)
        p1_zb = dzbar_of(psi_f1)
        p2_zb = dzbar_of(psi_f2)
        p12_zb = dzbar_of(psi_f1f2)
    else:
        xzzb = patch.xzzbar_stack
        psi_zb = (xzzb[2] + xzzb[3]) / 2.0 + 0j
        p1_zb = (xzzb[0] + 1j * xzzb[1]) / 2.0
        p2_zb = (xzzb[0] - 1j * xzzb[1]) / 2.0
        p12_zb = (-xzzb[2] + xzzb[3]) / 2.0 + 0j

    product = p1_zb * p2_zb - psi_zb * p12_zb

    recon = np.stack([psi * (f1 + f2), -1j * psi * (f1 - f2),
                      psi * (1.0 - f1 * f2), psi * (1.0 + f1 * f2)])
    recon_res = sup_abs(np.where(mask[None, :, :], recon - xz, 0.0))

    residuals = {
        "condition1": sup_abs_interior(np.imag(psi_zb)),
        "condition2": sup_abs_interior(np.imag(p12_zb)),
        "condition3": sup_abs_interior(p1_zb - np.conj(p2_zb)),
        "condition4": sup_abs_interior(
            np.where(mask, product / (safe * safe), 0.0)),
        "reconstruction": recon_res,
        "masked_fraction": float(1.0 - mask.mean()),
    }
    mask_copy = mask.copy()
    mask_copy.setflags(write=False)
    return LiuData(ComplexField(grid, psi), ComplexField(grid, f1),
                   ComplexField(grid, f2), mask_copy, residuals, float(cutoff))


def verify_congruence(patch_a, patch_b, rot, tol=1e-6):
    """Check rot . patch_a == patch_b up to a constant translation.

    Returns a report dict: the per-component mean of T = rot(X_a) - X_b is
    the claimed translation, ``residual`` is sup |T - mean|, ``passed``
    compares it to ``tol``.
    """
    if patch_a.grid != patch_b.grid:
        raise DomainError("congruence check needs both patches on one grid")
    T = rot.apply(patch_a.x_stack) - patch_b.x_stack
    translation = T.mean(axis=(1, 2))
    residual = sup_abs(T - translation[:, None, None])
    return {
        "residual": float(residual),
        "tol": float(tol),
        "passed": bool(residual < tol),
        "translation": [float(t) for t in translation],
        "rotation_family": rot.family,
        "rotation_parameter": rot.parameter,
    }


def quadric_residual(patch, c):
    """<X, X> - c as a RealField (zero when the patch lies in the quadric)."""
    vals = minkowski_inner(patch.x_stack, patch.x_stack) - float(c)
    return RealField(patch.grid, vals)
