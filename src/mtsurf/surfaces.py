"""Conformal surface patches in R^{3,1} built from generating data.

Three interchangeable representations turn data triples into a patch
X : grid -> R^{3,1} whose mean curvature vector H = (4/conformal) X_zzbar
is null: the first consumes a (gauss, pot1, pot2) triple, the second a
(holo, height, null_pot) triple and the third a (gauss, coord3, coord4)
triple.  They are one construction driven by a per-kind table: a triple
is a holomorphic field w plus potentials (a, b) with lap(a) = weight
lap(b), the tangent field is Xz = dz(a) frame1(w) + dz(b) frame2(w), and
X_zzbar is lap(b)/4 times a real multiple of a null direction.  One
coordinates core, under the representations and ``mtsurf deform`` (whose
congruence check reads only coordinates), raises for a failed certificate
of k triples (either kind, by the kind rule ``weierstrass._as_kind``) and
integrates their 4k coordinates of Xz in one quadrature sweep (with the
primitives deferred on their grid, see ``fields.deferred_sweeps``), sampling
Xz only for the trapezoid route or a patch (each coordinate is a field of
its certificate from ``weierstrass._certificate_field``; a Gauss node set
runs each closed form once, so coordinates share w, dz a and dz b and a
deformed triple's nested callbacks reuse its base's evaluations; see
:mod:`mtsurf.fields`).  A representation reuses the certification's
arrays and builds X_zzbar from the closed formula, so the nullness of H is
carried by algebra while conformality, metric agreement and the
coordinate identities are measured and recorded in
``SurfacePatch.invariants``.  The loop caps use the exact-callback cap.
Both routes hand their stacks to one patch assembly, ``_assemble``: it
forms H = 4 X_zzbar / lam, the invariants and the patch.

A patch stores each of its quantities once, as one read-only
(4, n_u, n_v) stack that its route builds in place, and keeps no
callback; the invariants are formed one component at a time, so no stack
is copied, conjugated or cast to complex as a whole.

Patches can also be built directly from four coordinate fields
(:func:`patch_from_chart`), with derivatives taken from callbacks when
present and finite differences otherwise; that route is what reloaded or
externally produced charts go through, and it makes no structural
assumptions beyond smoothness.  The Liu residual (:func:`liu_decompose`)
is one inner product of the stored stacks, <X_zzbar, X_zzbar> / (4 psi^2)
with psi = (X_z^3 + X_z^4)/2.
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
from .tolerances import PSI_CUTOFF, cap, passes
from .weierstrass import _as_kind, _certificate_field, _certify, _exact_callbacks

__all__ = [
    "SurfacePatch",
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


def _assemble(grid, x, xz, xzzbar, lam, gauss, provenance, closed_metric, extra, exact):
    """The one patch assembly of both routes: H = (4 X_zzbar) / lam as one
    new stack, divided in place, the invariants and the patch."""
    h = 4.0 * xzzbar
    h /= lam
    return SurfacePatch(grid, x, xz, xzzbar, RealField._view(grid, lam), h, gauss,
                        provenance=provenance,
                        invariants=_patch_invariants(xz, h, gauss, lam, closed_metric, extra),
                        exact=exact)


def _integrate_coords(tangents, anchor, loop_cap, what):
    """Integrate the 4k tangent fields ``tangents``, k patches' four
    coordinates in turn, into one (4k, n_u, n_v) coordinate stack whose
    values at the grid origin node are ``anchor`` (default zero), by one
    sweep of :func:`mtsurf.fields._integrate_primitives` (Gauss quadrature
    of value callbacks, or the trapezoid rule on samples).  Returns the stack
    and each patch's worst loop residual; raises, naming the coordinate,
    when a loop certificate exceeds ``loop_cap``.
    """
    anchor = tuple(float(a) for a in ((0.0,) * 4 if anchor is None else anchor))
    if len(anchor) != 4:
        raise ValueError("anchor must supply four coordinate values")
    primitives = _integrate_primitives(tangents)
    x = np.empty((len(tangents),) + tangents[0].grid.shape)
    worst_loop = [0.0] * (len(tangents) // 4)
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
    return 1.0 + 0j     # the bits of 1.0 + 0j * w at finite w (of -1.0 alike)


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
        frame2=(lambda w: w, lambda w: -1j * w, lambda w: -1.0 + 0j, _one),
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


def _coordinates(certs, kind, anchor=None, samples=False):
    """The coordinates core: per ``kind`` certificate of ``certs`` (each failed
    one raising first), its (4, n_u, n_v) x, its Xz or None and its worst
    loop, from one sweep of their 4k Xz fields (one certificate at a time on
    mixed grids or routes): Gauss quadrature of the exact callbacks, else the
    trapezoid rule on the Xz samples, taken only then or with ``samples``."""
    for cert in certs:
        cert.report.raise_for_failure()
    routes = {(c.holo.grid, _exact_callbacks(c)) for c in certs}
    if len(routes) > 1:
        return [_coordinates([cert], kind, anchor, samples)[0] for cert in certs]
    (grid, exact), = routes
    spec = _KINDS[kind]
    xz = np.empty((4 * len(certs),) + grid.shape, complex) if samples or not exact else None
    tangents = []
    for p, cert in enumerate(certs):
        for k, (c1, c2) in enumerate(zip(spec.frame1, spec.frame2)):
            def coordinate(w, a_z, b_z, _c1=c1, _c2=c2):
                return a_z * _c1(w) + b_z * _c2(w)
            tangents.append(_certificate_field(
                cert, coordinate, out=None if xz is None else xz[4 * p + k]))
    x, worst_loop = _integrate_coords(
        tangents, anchor, cap("loop_residual", grid, exact), "represent_" + kind)
    return [(x[4 * p:4 * p + 4], None if xz is None else xz[4 * p:4 * p + 4], worst_loop[p])
            for p in range(len(certs))]


def _represent(data, kind, anchor=None):
    """The patch of a triple or certificate, or the patches of a list of them:
    the coordinates and Xz of :func:`_coordinates` plus the patch assembly."""
    if not isinstance(data, list):
        return _represent([data], kind, anchor)[0]
    certs = [_as_kind(d, kind) for d in data]
    spec = _KINDS[kind]
    patches = []
    for cert, (x, xz, worst_loop) in zip(certs, _coordinates(certs, kind, anchor, samples=True)):
        _, holo, a, b, source, _, weight, a_z, b_z, b_zzbar = cert
        w = holo.values
        gauss = np.stack(spec.null_dir(w))
        xzzbar = (b_zzbar * spec.xzzbar_factor(w)) * gauss
        lam_values = spec.scale(w) * np.abs(a_z - weight * b_z) ** 2
        coord_res = max(_shift_residual(actual, target) for actual, target
                        in spec.identities(x, a.values, b.values))
        provenance = {"representation": kind, "anchor": list(anchor or (0.0,) * 4)}
        if source is not None:
            provenance["source"] = dict(source)
        patches.append(_assemble(
            holo.grid, x, xz, xzzbar, lam_values, gauss, provenance, lam_values,
            {"loop_residual": worst_loop, "coordinate_identity": coord_res},
            _exact_callbacks(cert)))
    return patches


def represent_first(data, anchor=None):
    """Patch from a first-kind triple (or a second-kind one, converted).

    Tangent frame: Xz = dz(pot1) (1/g, i/g, 1, 1) + dz(pot2) (g, -i g,
    -1, 1) with g = gauss; then x3 = pot1 - pot2 and x4 = pot1 + pot2 up
    to constants, the conformal factor is (4/|g|^2)|dz(pot1)
    - |g|^2 dz(pot2)|^2 and X_zzbar equals lap(pot2)/4 times the null
    direction (2 Re g, 2 Im g, -1+|g|^2, 1+|g|^2).
    """
    return _represent(data, "first", anchor)


def represent_second(data, anchor=None):
    """Patch from a second-kind triple (or a first-kind one, converted).

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
    ``gauss`` may instead be a triple of either kind or a certificate, or
    a list of them, with coord3 and coord4 left out.
    """
    if isinstance(gauss, ComplexField):
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
    return _assemble(grid, np.stack([c.values for c in coords]), xz, xzzbar, lam_values,
                     xzzbar, dict(provenance or {"representation": "chart"}), None,
                     {"loop_residual": 0.0},
                     all(c.analytic.has_first and c.analytic.has_lap for c in coords))


def patch_from_samples(grid, coords_array, provenance=None):
    """Chart route for plain (4, n_u, n_v) samples (e.g. reloaded files)."""
    arr = np.asarray(coords_array, dtype=float)
    if arr.shape != (4,) + grid.shape:
        raise ValueError("expected coordinate samples of shape (4, n_u, n_v)")
    return patch_from_chart(tuple(RealField._view(grid, row) for row in arr),
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
    u, v, min_norm = min_abs_location(patch.grid, norm)
    report = {
        "sup_null_residual": sup_abs_interior(hh / (1.0 + norm ** 2)),
        "min_norm": min_norm,
        "max_norm": float(np.max(norm)),
        "min_norm_location": (float(u), float(v)),
    }
    return h_stack, report


def liu_decompose(patch):
    """The integrability residual of the null-direction factorization.

    Wherever psi = (X_z^3 + X_z^4)/2 is nonzero, Xz = psi (f1+f2,
    -i(f1-f2), 1-f1 f2, 1+f1 f2) for f1 = (X_z^1 + i X_z^2)/(2 psi) and
    f2 = (X_z^1 - i X_z^2)/(2 psi), and the product condition
    dzbar(f1) dzbar(f2) = 0 reads <X_zzbar, X_zzbar> / (4 psi^2) = 0 for
    the real X_zzbar stack every patch stores (lap(b)/4 times a null
    direction on a represented patch; lap(X)/4 on a chart patch, by finite
    differences on every reloaded one).

    Returns the dict {condition4: sup interior |<X_zzbar, X_zzbar>| /
    (4|psi|^2) over the nodes with |psi| > PSI_CUTOFF, masked_fraction:
    share of nodes at or under the cutoff}.
    """
    xz = patch.xz_stack
    psi = np.abs(xz[2] + xz[3]) / 2.0
    mask = psi > PSI_CUTOFF
    if not mask.any():
        raise ValueError("|psi| is below the cutoff %.1e on the whole grid"
                         % PSI_CUTOFF)
    xzzb = patch.xzzbar_stack
    ratio = np.abs(minkowski_inner(xzzb, xzzb)) / (4.0 * np.where(mask, psi, 1.0) ** 2)
    return {"condition4": sup_abs_interior(np.where(mask, ratio, 0.0)),
            "masked_fraction": float(1.0 - mask.mean())}


def verify_congruence(patch_a, patch_b, rot):
    """Check rot . patch_a == patch_b up to a constant translation.

    Returns a report dict: the per-component mean of T = rot(X_a) - X_b is
    the claimed translation, ``residual`` is sup |T - mean|, ``passed``
    compares it to ``tol``, the table's ``congruence_residual`` cap.  Of
    ``patch_b`` only ``grid`` and ``x_stack`` are read.
    """
    if patch_a.grid != patch_b.grid:
        raise DomainError("congruence check needs both patches on one grid")
    T = rot.apply(patch_a.x_stack) - patch_b.x_stack
    translation = T.mean(axis=(1, 2))
    residual = sup_abs(T - translation[:, None, None])
    tol = cap("congruence_residual", patch_a.grid, patch_a.exact)
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
