"""Conformal surface patches in R^{3,1} built from generating data.

Three interchangeable representations turn data triples into a patch
X : grid -> R^{3,1} whose mean curvature vector H = (4/conformal) X_zzbar
is null: the first consumes a (gauss, pot1, pot2) triple, the second a
(holo, height, null_pot) triple and the third a (gauss, coord3, coord4)
triple.  They are one construction driven by a per-kind table: a triple
is a holomorphic field w plus potentials (a, b) with lap(a) = weight
lap(b), the tangent field is Xz = dz(a) frame1(w) + dz(b) frame2(w), and
X_zzbar is lap(b)/4 times a real multiple of a null direction.  One core
consumes the certificates of k triples (a list passed in place of the
triple, else made at the default tolerances), reuses the arrays the
certification computed, integrates their 4k coordinates of Xz in one
shared quadrature (each exact callback runs once per Gauss node set and
row block, so a deformed triple's nested callbacks reuse its base's
evaluations, then each integrand is formed and reduced in turn; see
:mod:`mtsurf.fields`), and assembles X_zzbar from the closed formula, so
the nullness of H is carried by algebra while conformality, metric
agreement and the coordinate identities are measured and recorded in
``SurfacePatch.invariants``.  The loop caps use the exact-callback cap.

A patch stores each of its quantities once, as one read-only
(4, n_u, n_v) stack that its route builds in place, and keeps no
callback; the invariants are formed one component at a time, so no stack
is copied, conjugated or cast to complex as a whole.

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
    ComplexField,
    RealField,
    _integrate_primitives,
    laplacian,
    min_abs_location,
    sup_abs,
    sup_abs_interior,
    wirtinger_dz,
)
from .lorentz import complex_bilinear, minkowski_inner
from .tolerances import CONGRUENCE_TOL, PSI_CUTOFF, cap, passes
from .weierstrass import (_Certificate, _certificate, _certify, _exact_callbacks,
                          _has_first, _has_lap)

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

    The patch stores x, Xz, X_zzbar, the mean curvature H and the Gauss map
    once each, as read-only (4, n_u, n_v) stacks: ``x_stack``,
    ``xz_stack`` (complex), ``xzzbar_stack``, ``h_stack`` and
    ``gauss_stack``, the arrays the Minkowski algebra helpers take; row k
    of a stack is component k.  ``invariants`` maps residual names to
    floats (see ``_patch_invariants``); ``provenance`` records how the
    patch was made; ``exact`` tells whether exact callbacks produced it,
    which picks the caps of its checks (:func:`mtsurf.tolerances.cap`).
    Comparing two patches compares no array.
    """

    grid: object
    x_stack: np.ndarray = field(compare=False, repr=False)
    xz_stack: np.ndarray = field(compare=False, repr=False)
    xzzbar_stack: np.ndarray = field(compare=False, repr=False)
    conformal_factor: RealField
    h_stack: np.ndarray = field(compare=False, repr=False)
    gauss_stack: np.ndarray = field(compare=False, repr=False)
    provenance: dict = field(compare=False)
    invariants: dict = field(compare=False)
    exact: bool = field(compare=False)

    def __post_init__(self):
        for stack in (self.x_stack, self.xz_stack, self.xzzbar_stack,
                      self.h_stack, self.gauss_stack):
            stack.setflags(write=False)


def _euclid_sq(h):
    """Euclidean |h|^2 of a stack, one component at a time: the bits of
    ``np.sum(h * h, axis=0)`` without its (4, n_u, n_v) product."""
    return h[0] * h[0] + h[1] * h[1] + h[2] * h[2] + h[3] * h[3]


def _measured_factor(xz):
    """2 <Xz, conj Xz>, the conformal factor measured from Xz: the terms of
    :func:`mtsurf.lorentz.complex_bilinear` in its order, each conjugating
    one component rather than the whole stack."""
    return 2.0 * np.real(xz[0] * np.conj(xz[0]) + xz[1] * np.conj(xz[1])
                         + xz[2] * np.conj(xz[2]) - xz[3] * np.conj(xz[3]))


def _patch_invariants(xz_stack, h_stack, gauss_stack, lam_values,
                      closed_metric=None, extra=None):
    """Residual summary shared by every construction route.

    conformality   sup interior |<Xz, Xz>| (complex bilinear, no conj)
    conformal_min  min over grid of the conformal factor (spacelike > 0)
    mean_null      sup interior |<H, H>| / (1 + |H|_euclid^2)
    gauss_tangency sup interior |<Xz, gauss_map>|
    gauss_null     sup interior |<gauss_map, gauss_map>|
    metric_agreement  sup |closed-form factor - 2 <Xz, conj Xz>| when a
                      closed form exists

    Each product is formed one component at a time: the real Gauss map
    meets Xz without a complex copy of its stack.
    """
    inv = {}
    inv["conformality"] = sup_abs_interior(complex_bilinear(xz_stack, xz_stack))
    inv["conformal_min"] = float(np.min(lam_values))
    hh = minkowski_inner(h_stack, h_stack)
    inv["mean_null"] = sup_abs_interior(hh / (1.0 + _euclid_sq(h_stack)))
    inv["gauss_tangency"] = sup_abs_interior(minkowski_inner(xz_stack, gauss_stack))
    inv["gauss_null"] = sup_abs_interior(minkowski_inner(gauss_stack, gauss_stack))
    if closed_metric is not None:
        inv["metric_agreement"] = sup_abs(closed_metric - _measured_factor(xz_stack))
    if extra:
        inv.update(extra)
    return inv


def _mean_curvature_stack(xzzbar_stack, lam_values):
    """H = (4 X_zzbar) / lam as one new stack, divided in place."""
    h = 4.0 * xzzbar_stack
    h /= lam_values
    return h


def _integrate_coords(grid, xz, anchor, loop_cap, what, inputs=None, integrands=None):
    """Integrate the (4k, n_u, n_v) tangent stack ``xz``, k patches' four
    coordinates in turn, into one coordinate stack, origin-anchored.

    ``anchor`` gives the value of each coordinate at the grid origin node
    (defaults to zero).  ``inputs`` and ``integrands``, when given, are the
    shared quadrature of :func:`mtsurf.fields._integrate_primitives`;
    without them the samples are integrated by the trapezoid rule.
    Returns the stack and each patch's worst loop residual.  Raises when a
    loop certificate exceeds the cap, naming the coordinate.
    """
    if anchor is None:
        anchor = (0.0, 0.0, 0.0, 0.0)
    anchor = tuple(float(a) for a in anchor)
    if len(anchor) != 4:
        raise ValueError("anchor must supply four coordinate values")
    primitives = _integrate_primitives([ComplexField._view(grid, row) for row in xz],
                                       inputs, integrands)
    x = np.empty(xz.shape)
    worst_loop = [0.0] * (len(xz) // 4)
    for n, pr in enumerate(primitives):
        if not passes(pr.loop_residual, loop_cap, "max_below"):
            raise ValueError(
                "%s: coordinate %d loop residual %.3e exceeds %.3e; tangent "
                "field is not integrable on this grid"
                % (what, n % 4 + 1, pr.loop_residual, loop_cap))
        worst_loop[n // 4] = max(worst_loop[n // 4], pr.loop_residual)
        np.add(pr.field.values, anchor[n % 4], out=x[n])
    return x, worst_loop


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


def _represent(data, kind, anchor=None):
    """The one representation pipeline, driven by ``_KINDS[kind]``: the patch
    of a triple or certificate, or the patches of a list of them from one
    quadrature sweep (those on other grids, routes or caps one at a time).
    Every failed certificate raises first: the frames and the conformal
    scale divide by ``holo``.  The coordinates come from the Gauss
    quadrature of the exact callbacks when ``holo`` has a value callback and
    both potentials first derivatives, and from the Xz samples otherwise.
    """
    if not isinstance(data, list):
        return _represent([data], kind, anchor)[0]
    certs = [_certificate(d, kind) for d in data]
    for cert in certs:
        cert.report.raise_for_failure()
    routes = {(c.holo.grid, c.tol_exact, _exact_callbacks(c.holo, c.a, c.b)) for c in certs}
    if len(routes) > 1:
        return [_represent(cert, kind, anchor) for cert in certs]
    (grid, tol_exact, exact), = routes
    spec = _KINDS[kind]

    def inputs(u, v):
        return tuple(out for c in certs for out in (
            c.holo.analytic.value(u, v), c.a.analytic.dz(u, v), c.b.analytic.dz(u, v)))

    xz = np.empty((4 * len(certs),) + grid.shape, dtype=complex)
    integrands = []
    for p, cert in enumerate(certs):
        for k, (c1, c2) in enumerate(zip(spec.frame1, spec.frame2)):
            def integrand(*shared, _c1=c1, _c2=c2, _at=3 * p):
                w, a_z, b_z = shared[_at:_at + 3]
                return a_z * _c1(w) + b_z * _c2(w)
            integrands.append(integrand)
            xz[4 * p + k] = integrand(cert.holo.values, cert.a_z, cert.b_z, _at=0)
    x, worst_loop = _integrate_coords(
        grid, xz, anchor, cap("loop_residual", grid, exact, tol_exact),
        "represent_" + kind, inputs if exact else None, integrands)

    patches = []
    for p, (_, holo, a, b, source, _, weight, a_z, b_z, b_zzbar, _) in enumerate(certs):
        rows = slice(4 * p, 4 * p + 4)
        w = holo.values
        gauss = np.stack(spec.null_dir(w))
        xzzbar = (b_zzbar * spec.xzzbar_factor(w)) * gauss
        lam_values = spec.scale(w) * np.abs(a_z - weight * b_z) ** 2
        h = _mean_curvature_stack(xzzbar, lam_values)
        coord_res = max(_shift_residual(actual, target) for actual, target
                        in spec.identities(x[rows], a.values, b.values))
        provenance = {"representation": kind, "anchor": list(anchor or (0.0,) * 4)}
        if source is not None:
            provenance["source"] = dict(source)
        patches.append(SurfacePatch(
            grid, x[rows], xz[rows], xzzbar, RealField._view(grid, lam_values), h, gauss,
            provenance=provenance,
            invariants=_patch_invariants(
                xz[rows], h, gauss, lam_values, closed_metric=lam_values,
                extra={"loop_residual": worst_loop[p], "coordinate_identity": coord_res}),
            exact=exact))
    return patches


def represent_first(data, anchor=None):
    """Patch from a first-kind triple.

    Tangent frame: Xz = dz(pot1) (1/g, i/g, 1, 1) + dz(pot2) (g, -i g,
    -1, 1) with g = gauss; then x3 = pot1 - pot2 and x4 = pot1 + pot2 up
    to constants, the conformal factor is (4/|g|^2)|dz(pot1)
    - |g|^2 dz(pot2)|^2 and X_zzbar equals lap(pot2)/4 times the null
    direction (2 Re g, 2 Im g, -1+|g|^2, 1+|g|^2).
    """
    return _represent(data, "first", anchor)


def represent_second(data, anchor=None):
    """Patch from a second-kind triple.

    Tangent frame: Xz = dz(height) (1, -i, -h, h) + dz(null_pot)
    (0, i h, (1+h^2)/2, (1-h^2)/2) with h = holo; then x1 = height and
    x3 + x4 = null_pot up to constants, the conformal factor is
    4 |dz(height) - Re(h) dz(null_pot)|^2 and X_zzbar equals
    lap(null_pot)/4 times (Re h, -Im h, (1-|h|^2)/2, (1+|h|^2)/2).
    """
    return _represent(data, "second", anchor)


def represent_third(gauss, coord3=None, coord4=None, anchor=None):
    """Patch from a holomorphic field plus its last two coordinates.

    Preconditions: gauss nowhere zero and holomorphic, and the coupling
    lap(coord3) = w lap(coord4) with w = (-1+|gauss|^2)/(1+|gauss|^2),
    with |dz(coord3) - w dz(coord4)| bounded away from zero.  Tangent
    frame: Xz = dz(coord3) ((1/g-g)/2, i(1/g+g)/2, 1, 0) + dz(coord4)
    ((1/g+g)/2, i(1/g-g)/2, 0, 1); then x3 = coord3 and x4 = coord4 up to
    constants and the conformal factor is (|g|+1/|g|)^2 |dz(coord3)
    - w dz(coord4)|^2.  With coord4 = 0 the patch is a minimal surface in
    the x4 = 0 slice; with coord3 = 0 a maximal surface in x3 = 0.
    ``gauss`` may instead be the certificate of such a triple, or a list
    of them, with coord3 and coord4 left out.
    """
    if not isinstance(gauss, (list, _Certificate)):
        gauss = _certify("third", gauss, coord3, coord4)
    return _represent(gauss, "third", anchor)


def patch_from_chart(coords, provenance=None):
    """Patch directly from four real coordinate fields on one grid.

    Derivatives come from callbacks when the fields carry them, finite
    differences otherwise.  The conformal factor is measured as
    2 <Xz, conj Xz> (no closed form is assumed) and the null curvature
    direction X_zzbar doubles as the recorded gauss_map; it vanishes for
    minimal and maximal charts.  The patch is ``exact`` when every
    coordinate carries first-derivative and Laplacian callbacks.
    """
    coords = tuple(coords)
    if len(coords) != 4:
        raise ValueError("a chart needs exactly four coordinate fields")
    grid = coords[0].grid
    for c in coords[1:]:
        if c.grid != grid:
            raise DomainError("chart coordinate fields live on different grids")

    xz = np.empty((4,) + grid.shape, dtype=complex)
    xzzbar = np.empty((4,) + grid.shape)
    for k, c in enumerate(coords):
        xz[k] = wirtinger_dz(c).values
        np.divide(laplacian(c).values, 4.0, out=xzzbar[k])
    lam_values = _measured_factor(xz)
    if np.min(lam_values) <= 0.0:
        u, v, mag = min_abs_location(grid, lam_values)
        raise DomainError(
            "chart is not spacelike on this grid: conformal factor %.3e "
            "near (u,v)=(%.6g, %.6g)" % (float(np.min(lam_values)), u, v))
    h = _mean_curvature_stack(xzzbar, lam_values)

    return SurfacePatch(
        grid, np.stack([c.values for c in coords]), xz, xzzbar,
        RealField._view(grid, lam_values), h, xzzbar,
        provenance=dict(provenance or {"representation": "chart"}),
        invariants=_patch_invariants(xz, h, xzzbar, lam_values, closed_metric=None,
                                     extra={"loop_residual": 0.0}),
        exact=all(_has_first(c) and _has_lap(c) for c in coords))


def patch_from_samples(grid, coords_array, provenance=None):
    """Chart route for plain (4, n_u, n_v) samples (e.g. reloaded files)."""
    arr = np.asarray(coords_array, dtype=float)
    if arr.shape != (4,) + grid.shape:
        raise ValueError("expected coordinate samples of shape (4, n_u, n_v)")
    return patch_from_chart(tuple(RealField(grid, arr[k]) for k in range(4)),
                            provenance=provenance)


def mean_curvature(patch):
    """The (4, n_u, n_v) mean-curvature stack ``patch.h_stack`` plus a
    nullness report.

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
    norm = np.sqrt(_euclid_sq(h_stack))
    i, j = np.unravel_index(int(np.argmin(norm)), norm.shape)
    report = {
        "sup_null_residual": sup_abs_interior(hh / (1.0 + norm ** 2)),
        "min_norm": float(norm[i, j]),
        "max_norm": float(np.max(norm)),
        "min_norm_location": (float(patch.grid.axis_u[i]), float(patch.grid.axis_v[j])),
    }
    return h_stack, report


@dataclass(frozen=True)
class LiuData:
    """Null-direction factorization of a patch tangent field.

    scale is (dz(x3) + dz(x4))/2; f1 and f2 satisfy scale*f1 =
    (dz(x1) + i dz(x2))/2 and scale*f2 = (dz(x1) - i dz(x2))/2 wherever
    |scale| exceeds the cutoff (f1, f2 are set to zero elsewhere; ``mask``
    tells which nodes are trusted), so that Xz = scale (f1+f2, -i(f1-f2),
    1-f1 f2, 1+f1 f2) there.  ``residuals`` holds the integrability
    condition ``condition4`` and ``masked_fraction`` (see
    :func:`liu_decompose`).
    """

    scale: ComplexField
    f1: ComplexField
    f2: ComplexField
    mask: np.ndarray
    residuals: dict
    cutoff: float


def liu_decompose(patch, cutoff=PSI_CUTOFF):
    """Factor a patch tangent field through the null-direction system.

    The zbar-derivatives of the four tangent combinations are read off the
    patch's real X_zzbar stack: lap(b)/4 times the null direction on a
    represented patch; lap(X)/4 by finite differences, independent of the
    Xz samples, on a chart patch (so on every reloaded one), which makes
    condition4 an O(h^2) cross-check of the construction.

    Residual keys: condition4 = sup interior |dzbar(f1) dzbar(f2)| on the
    mask, masked_fraction = share of nodes under the cutoff.  The other
    integrability conditions (dzbar(scale) and dzbar(scale f1 f2) real,
    dzbar(scale f1) = conj dzbar(scale f2)) hold exactly for a real
    X_zzbar, and Xz rebuilt from (scale, f1, f2) is off by <Xz, Xz> /
    (4 scale), which the ``conformality`` invariant gates; neither is
    measured here.

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
    mask = np.abs(psi) > cutoff
    if not mask.any():
        raise ValueError("|scale| is below the cutoff %.1e on the whole grid"
                         % cutoff)
    safe = np.where(mask, psi, 1.0)
    f1 = np.where(mask, (xz[0] + 1j * xz[1]) / 2.0 / safe, 0.0)
    f2 = np.where(mask, (xz[0] - 1j * xz[1]) / 2.0 / safe, 0.0)

    xzzb = patch.xzzbar_stack
    psi_zb = (xzzb[2] + xzzb[3]) / 2.0 + 0j
    p1_zb = (xzzb[0] + 1j * xzzb[1]) / 2.0
    p2_zb = (xzzb[0] - 1j * xzzb[1]) / 2.0
    p12_zb = (-xzzb[2] + xzzb[3]) / 2.0 + 0j
    product = p1_zb * p2_zb - psi_zb * p12_zb

    residuals = {
        "condition4": sup_abs_interior(
            np.where(mask, product / (safe * safe), 0.0)),
        "masked_fraction": float(1.0 - mask.mean()),
    }
    mask.setflags(write=False)
    return LiuData(ComplexField._view(grid, psi), ComplexField._view(grid, f1),
                   ComplexField._view(grid, f2), mask, residuals, float(cutoff))


def verify_congruence(patch_a, patch_b, rot, tol=CONGRUENCE_TOL):
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
        "passed": passes(residual, tol, "max_below"),
        "translation": [float(t) for t in translation],
        "rotation_family": rot.family,
        "rotation_parameter": rot.parameter,
    }


def quadric_residual(patch, c):
    """<X, X> - c as a RealField (zero when the patch lies in the quadric)."""
    vals = minkowski_inner(patch.x_stack, patch.x_stack) - float(c)
    return RealField(patch.grid, vals)
