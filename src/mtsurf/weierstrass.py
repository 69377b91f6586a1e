"""Data triples that generate marginally trapped surfaces.

Two equivalent packagings are supported.  A first-kind triple bundles a
nowhere-zero holomorphic field ``gauss`` with two real potentials
``pot1``/``pot2`` coupled by  ``lap(pot1) = |gauss|^2 lap(pot2)``; a
second-kind triple bundles a nowhere-zero holomorphic field ``holo`` with
a real ``height`` (which becomes the first coordinate of the surface) and
a real ``null_pot`` (which becomes the sum of the last two coordinates),
coupled by ``lap(height) = Re(holo) lap(null_pot)``.  Validators certify
the defining conditions on a grid; transforms convert between the kinds
and apply the three one-parameter deformation families, each of which
corresponds to a rotation family in :mod:`mtsurf.lorentz`.

Where a derived field has a closed-form derivative implied by its
construction (for example the Laplacian of an integrated potential, which
is pinned by the coupling condition), that derivative is attached as a
callback so that downstream checks stay at roundoff accuracy instead of
finite-difference accuracy.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field

import numpy as np

from .errors import GridMismatchError, InvalidDataError, PoleError
from .fields import (
    Analytic,
    ComplexField,
    Grid2D,
    RealField,
    integrate_primitive,
    laplacian,
    load_field_binary,
    load_field_csv,
    min_abs_location,
    save_field_binary,
    save_field_csv,
    wirtinger_dz,
    wirtinger_dzbar,
)
from .tolerances import EPS_IMMERSION, EPS_ZERO, validation_cap

__all__ = [
    "WeierstrassFirst",
    "WeierstrassSecond",
    "CheckResult",
    "ValidationReport",
    "validate_first",
    "validate_second",
    "first_to_second",
    "second_to_first",
    "deform_parabolic",
    "deform_elliptic",
    "deform_hyperbolic",
    "save_data",
    "load_data",
]


def _check_grids(named_fields):
    grid = None
    for name, f in named_fields:
        if grid is None:
            grid = f.grid
        elif f.grid != grid:
            raise GridMismatchError("%s lives on a different grid" % name)
    return grid


@dataclass(frozen=True)
class WeierstrassFirst:
    """First-kind data triple (gauss, pot1, pot2).

    The generated surface has third coordinate pot1 - pot2 and fourth
    coordinate pot1 + pot2 (up to constants); gauss is its null normal
    direction in stereographic form.
    """

    gauss: ComplexField
    pot1: RealField
    pot2: RealField
    provenance: dict = field(default_factory=dict, compare=False)

    def __post_init__(self):
        _check_grids([("gauss", self.gauss), ("pot1", self.pot1), ("pot2", self.pot2)])

    @property
    def grid(self):
        return self.gauss.grid


@dataclass(frozen=True)
class WeierstrassSecond:
    """Second-kind data triple (holo, height, null_pot).

    The generated surface has first coordinate height and the sum of its
    last two coordinates equal to null_pot (up to constants).
    """

    holo: ComplexField
    height: RealField
    null_pot: RealField
    provenance: dict = field(default_factory=dict, compare=False)

    def __post_init__(self):
        _check_grids([("holo", self.holo), ("height", self.height),
                      ("null_pot", self.null_pot)])

    @property
    def grid(self):
        return self.holo.grid


# ---------------------------------------------------------------------------
# validation

@dataclass(frozen=True)
class CheckResult:
    """One certified condition.

    ``sense`` is "max_below" for sup-norm residuals (pass when
    value < threshold) or "min_above" for nonvanishing certificates (pass
    when value > threshold).  ``where`` locates the worst node.
    """

    name: str
    passed: bool
    value: float
    threshold: float
    sense: str
    where: tuple

    def to_dict(self):
        return {
            "name": self.name,
            "passed": bool(self.passed),
            "value": self.value,
            "threshold": self.threshold,
            "sense": self.sense,
            "where": [self.where[0], self.where[1]],
        }


@dataclass(frozen=True)
class ValidationReport:
    kind: str
    checks: tuple
    exact: bool

    @property
    def ok(self):
        return all(c.passed for c in self.checks)

    def check(self, name):
        for c in self.checks:
            if c.name == name:
                return c
        raise KeyError(name)

    def to_dict(self):
        return {
            "kind": self.kind,
            "exact": bool(self.exact),
            "ok": bool(self.ok),
            "checks": [c.to_dict() for c in self.checks],
        }

    def __str__(self):
        lines = ["%s-kind data, %s (%s derivatives)" % (
            self.kind, "ok" if self.ok else "FAILED",
            "exact" if self.exact else "finite-difference")]
        for c in self.checks:
            cmp = "<" if c.sense == "max_below" else ">"
            lines.append("  %-12s %s  %.3e %s %.3e  worst at (u,v)=(%.6g, %.6g)" % (
                c.name, "pass" if c.passed else "FAIL",
                c.value, cmp, c.threshold, c.where[0], c.where[1]))
        return "\n".join(lines)

    def raise_for_failure(self):
        if not self.ok:
            raise InvalidDataError(self)


def _has_value(f):
    return f.analytic is not None and f.analytic.has_value


def _has_first(f):
    return f.analytic is not None and f.analytic.has_first


def _has_lap(f):
    return f.analytic is not None and f.analytic.has_lap


def _sup_interior_check(name, grid, arr, threshold):
    inner = np.abs(arr[1:-1, 1:-1])
    i, j = np.unravel_index(int(np.argmax(inner)), inner.shape)
    value = float(inner[i, j])
    where = (float(grid.axis_u[i + 1]), float(grid.axis_v[j + 1]))
    return CheckResult(name, value < threshold, value, threshold, "max_below", where)


def _min_check(name, grid, arr, threshold):
    u, v, mag = min_abs_location(grid, arr)
    return CheckResult(name, mag > threshold, mag, threshold, "min_above",
                       (float(u), float(v)))


#: Coupling weight of each kind as a function of its holomorphic samples:
#: the two potentials (a, b) of a triple satisfy lap(a) = weight lap(b).
_WEIGHT = {
    "first": lambda g: np.abs(g) ** 2,
    "second": np.real,
    "third": lambda g: (np.abs(g) ** 2 - 1.0) / (np.abs(g) ** 2 + 1.0),
}


def _certify(kind, holo, a, b, eps_zero=EPS_ZERO, eps_immersion=EPS_IMMERSION):
    """The four checks of :func:`validate_first` for any kind's triple.

    ``holo`` is the kind's holomorphic field and (a, b) its potentials,
    coupled through the weight ``_WEIGHT[kind](holo)``.  Returns (report,
    weight, dz(a), dz(b), lap(b)/4) so the representations reuse the
    arrays instead of recomputing them.
    """
    grid = holo.grid
    weight = _WEIGHT[kind](holo.values)
    exact_holo = _has_first(holo)
    exact_pde = _has_lap(a) and _has_lap(b)
    a_z = wirtinger_dz(a).values
    b_z = wirtinger_dz(b).values
    b_zzbar = laplacian(b).values / 4.0
    checks = (
        _min_check("nonvanishing", grid, holo.values, eps_zero),
        _sup_interior_check("holomorphic", grid, wirtinger_dzbar(holo).values,
                            validation_cap(grid, exact_holo)),
        _sup_interior_check("compatible", grid,
                            laplacian(a).values / 4.0 - weight * b_zzbar,
                            validation_cap(grid, exact_pde)),
        _min_check("immersion", grid, a_z - weight * b_z, eps_immersion),
    )
    exact = exact_holo and exact_pde and _has_first(a) and _has_first(b)
    return ValidationReport(kind, checks, exact), weight, a_z, b_z, b_zzbar


def validate_first(data, eps_zero=EPS_ZERO, eps_immersion=EPS_IMMERSION):
    """Certify the first-kind conditions on the grid.

    Checks, in order: ``nonvanishing`` (min |gauss|), ``holomorphic``
    (sup |dzbar(gauss)| over the interior), ``compatible``
    (sup |lap(pot1)/4 - |gauss|^2 lap(pot2)/4| over the interior) and
    ``immersion`` (min |dz(pot1) - |gauss|^2 dz(pot2)|).  Residual caps
    are 1e-8 when the needed callbacks exist and 50 h^2 otherwise.
    """
    return _certify("first", data.gauss, data.pot1, data.pot2,
                    eps_zero, eps_immersion)[0]


def validate_second(data, eps_zero=EPS_ZERO, eps_immersion=EPS_IMMERSION):
    """Certify the second-kind conditions; mirror of :func:`validate_first`.

    The coupling here is ``lap(height) = Re(holo) lap(null_pot)`` and the
    immersion certificate is ``min |dz(height) - Re(holo) dz(null_pot)|``.
    """
    return _certify("second", data.holo, data.height, data.null_pot,
                    eps_zero, eps_immersion)[0]


# ---------------------------------------------------------------------------
# callback combinators

def _scaled_analytic(a, c):
    """Callbacks of c*f given those of f, for a constant c."""
    if a is None:
        return None
    kw = {}
    for name in ("value", "du", "dv", "dz", "dzbar", "duu", "dvv", "lap"):
        cb = getattr(a, "_" + name)
        if cb is not None:
            def scaled(u, v, _cb=cb, _c=c):
                return _c * np.asarray(_cb(u, v))
            kw[name] = scaled
    return Analytic(**kw) if kw else None


def _scaled_field(f, c):
    cls = ComplexField if (isinstance(f, ComplexField) or np.iscomplexobj(np.asarray(c))) \
        else RealField
    return cls(f.grid, c * f.values, _scaled_analytic(f.analytic, c))


def _reciprocal_field(f):
    """1/f with first-derivative callbacks when f has them."""
    a = f.analytic
    new = None
    if a is not None and a.has_value:
        kw = {"value": lambda u, v, _a=a: 1.0 / np.asarray(_a.value(u, v))}
        if a.has_first:
            kw["dz"] = lambda u, v, _a=a: -_a.dz(u, v) / _a.value(u, v) ** 2
            kw["dzbar"] = lambda u, v, _a=a: -_a.dzbar(u, v) / _a.value(u, v) ** 2
        new = Analytic(**kw)
    return ComplexField(f.grid, 1.0 / f.values, new)


def _integrate_real(grid, values, value_cb, lap_cb, what, order):
    """Primitive of a complex integrand, with the loop certificate enforced.

    ``lap_cb`` is the closed-form Laplacian the construction pins for the
    primitive; it is attached so validators see an exact coupling check.
    The loop cap is 1e-8 with a value callback and 50 h^2 without.
    Returns (RealField, loop_residual).
    """
    loop_cap = validation_cap(grid, value_cb is not None)

    integrand = ComplexField(
        grid, values, Analytic(value=value_cb) if value_cb is not None else None)
    pr = integrate_primitive(integrand, order=order)
    if pr.loop_residual > loop_cap:
        raise ValueError(
            "%s: loop residual %.3e exceeds %.3e; the integrand is not "
            "integrable on this grid" % (what, pr.loop_residual, loop_cap))
    out = pr.field
    if lap_cb is not None:
        prev = out.analytic
        kw = {"lap": lap_cb}
        if prev is not None:
            kw["du"] = prev._du
            kw["dv"] = prev._dv
        out = RealField(grid, out.values, Analytic(**kw))
    return out, pr.loop_residual


def _provenance(data, head, loop_res, identity):
    """Provenance of derived data: ``head``, its residuals, the source's."""
    prov = dict(head, identity_residual=identity)
    if loop_res is not None:
        prov["loop_residual"] = loop_res
    if data.provenance:
        prov["source"] = dict(data.provenance)
    return prov


# ---------------------------------------------------------------------------
# equivalence transforms

def first_to_second(data, validate=True, order="rows"):
    """Convert first-kind data to the equivalent second-kind triple.

    Output: holo = 1/gauss, null_pot = 2 pot1, and height integrated from
    the 1-form with dz(height) = dz(pot1)/gauss + gauss*dz(pot2).  The two
    immersion expressions then satisfy

        dz(height) - Re(holo) dz(null_pot)
            = -(dz(pot1) - |gauss|^2 dz(pot2)) / conj(gauss)

    whose sup residual is recorded under provenance["identity_residual"].
    """

    if validate:
        validate_first(data).raise_for_failure()
    grid = data.grid
    g = data.gauss
    gv = g.values
    p_z = wirtinger_dz(data.pot1)
    q_z = wirtinger_dz(data.pot2)

    e_vals = p_z.values / gv + gv * q_z.values
    value_cb = None
    if _has_value(g) and _has_first(data.pot1) and _has_first(data.pot2):
        def value_cb(u, v, _g=g.analytic, _p=data.pot1.analytic, _q=data.pot2.analytic):
            gz = _g.value(u, v)
            return _p.dz(u, v) / gz + gz * _q.dz(u, v)

    lap_cb = None
    if _has_value(g) and _has_lap(data.pot1):
        def lap_cb(u, v, _g=g.analytic, _p=data.pot1.analytic):
            return 2.0 * np.real(1.0 / _g.value(u, v)) * _p.lap(u, v)

    height, loop_res = _integrate_real(
        grid, e_vals, value_cb, lap_cb, "first_to_second", order)

    holo = _reciprocal_field(g)
    null_pot = _scaled_field(data.pot1, 2.0)

    identity = float(np.max(np.abs(
        (wirtinger_dz(height).values - np.real(holo.values) * wirtinger_dz(null_pot).values)
        + (p_z.values - np.abs(gv) ** 2 * q_z.values) / np.conj(gv))))

    return WeierstrassSecond(holo, height, null_pot, _provenance(
        data, {"transform": "first_to_second"}, loop_res, identity))


def second_to_first(data, validate=True, order="rows"):
    """Convert second-kind data to the equivalent first-kind triple.

    Output: gauss = 1/holo, pot1 = null_pot/2, and pot2 integrated from
    the 1-form with dz(pot2) = holo*dz(height) - (holo^2/2) dz(null_pot);
    the identity of :func:`first_to_second` holds with the same residual
    bookkeeping.
    """

    if validate:
        validate_second(data).raise_for_failure()
    grid = data.grid
    h = data.holo
    hv = h.values
    m_z = wirtinger_dz(data.height)
    n_z = wirtinger_dz(data.null_pot)

    e_vals = hv * m_z.values - 0.5 * hv ** 2 * n_z.values
    value_cb = None
    if _has_value(h) and _has_first(data.height) and _has_first(data.null_pot):
        def value_cb(u, v, _h=h.analytic, _m=data.height.analytic,
                     _n=data.null_pot.analytic):
            hval = _h.value(u, v)
            return hval * _m.dz(u, v) - 0.5 * hval ** 2 * _n.dz(u, v)

    lap_cb = None
    if _has_value(h) and _has_lap(data.null_pot):
        def lap_cb(u, v, _h=h.analytic, _n=data.null_pot.analytic):
            return 0.5 * np.abs(_h.value(u, v)) ** 2 * _n.lap(u, v)

    pot2, loop_res = _integrate_real(
        grid, e_vals, value_cb, lap_cb, "second_to_first", order)

    gauss = _reciprocal_field(h)
    pot1 = _scaled_field(data.null_pot, 0.5)

    p_z = wirtinger_dz(pot1).values
    q_z = wirtinger_dz(pot2).values
    identity = float(np.max(np.abs(
        (p_z - np.abs(gauss.values) ** 2 * q_z) / np.conj(gauss.values)
        + (m_z.values - np.real(hv) * n_z.values))))

    return WeierstrassFirst(gauss, pot1, pot2, _provenance(
        data, {"transform": "second_to_first"}, loop_res, identity))


# ---------------------------------------------------------------------------
# deformation families

def deform_parabolic(data, lam, validate=True, order="rows"):
    """Parabolic deformation of first-kind data with parameter ``lam``.

    gauss_lam = gauss/(1 + i lam gauss), pot1 is unchanged, and pot2_lam
    is integrated from (1/gauss + i lam)(gauss dz(pot2) - i lam dz(pot1)).
    The deformed immersion expression equals the original times
    conj(gauss_lam)/conj(gauss); the surfaces generated from input and
    output are congruent under the parabolic rotation with the same
    parameter.  Raises :class:`PoleError` when 1 + i lam gauss vanishes
    somewhere on the grid (the deformed gauss field has a pole there).
    """

    if validate:
        validate_first(data).raise_for_failure()
    lam = float(lam)
    grid = data.grid
    g = data.gauss
    gv = g.values
    denom = 1.0 + 1j * lam * gv
    u, v, mag = min_abs_location(grid, denom)
    if mag <= EPS_ZERO:
        raise PoleError(
            "deformed gauss field has a pole near (u,v)=(%.6g, %.6g): "
            "|1 + i*lambda*gauss| = %.3e" % (u, v, mag), location=(u, v))

    ga = g.analytic
    new_a = None
    if ga is not None and ga.has_value:
        kw = {"value": lambda u, v, _a=ga: _a.value(u, v) / (1.0 + 1j * lam * _a.value(u, v))}
        if ga.has_first:
            kw["dz"] = lambda u, v, _a=ga: _a.dz(u, v) / (1.0 + 1j * lam * _a.value(u, v)) ** 2
            kw["dzbar"] = lambda u, v, _a=ga: _a.dzbar(u, v) / (1.0 + 1j * lam * _a.value(u, v)) ** 2
        new_a = Analytic(**kw)
    gauss_lam = ComplexField(grid, gv / denom, new_a)

    p_z = wirtinger_dz(data.pot1)
    q_z = wirtinger_dz(data.pot2)
    e_vals = (1.0 / gv + 1j * lam) * (gv * q_z.values - 1j * lam * p_z.values)
    value_cb = None
    if _has_value(g) and _has_first(data.pot1) and _has_first(data.pot2):
        def value_cb(u, v, _g=g.analytic, _p=data.pot1.analytic, _q=data.pot2.analytic):
            gval = _g.value(u, v)
            return (1.0 / gval + 1j * lam) * (gval * _q.dz(u, v) - 1j * lam * _p.dz(u, v))

    lap_cb = None
    if _has_value(g) and _has_lap(data.pot1):
        def lap_cb(u, v, _g=g.analytic, _p=data.pot1.analytic):
            gval = _g.value(u, v)
            glam = gval / (1.0 + 1j * lam * gval)
            return _p.lap(u, v) / np.abs(glam) ** 2

    pot2_lam, loop_res = _integrate_real(
        grid, e_vals, value_cb, lap_cb, "deform_parabolic", order)

    glam_v = gauss_lam.values
    lhs = p_z.values - np.abs(glam_v) ** 2 * wirtinger_dz(pot2_lam).values
    rhs = (np.conj(glam_v) / np.conj(gv)) * (p_z.values - np.abs(gv) ** 2 * q_z.values)
    identity = float(np.max(np.abs(lhs - rhs)))

    return WeierstrassFirst(gauss_lam, data.pot1, pot2_lam, _provenance(
        data, {"family": "parabolic", "parameter": lam}, loop_res, identity))


def deform_elliptic(data, tau, validate=True, order="rows"):
    """Elliptic deformation of second-kind data with angle ``tau``.

    holo_tau = e^{-i tau} holo, null_pot is unchanged, and height_tau is
    integrated from e^{i tau} dz(height) - i sin(tau) holo dz(null_pot).
    The deformed immersion expression equals e^{i tau} times the original;
    the generated surfaces are congruent under the plane rotation of the
    first two coordinates by ``tau``.
    """

    if validate:
        validate_second(data).raise_for_failure()
    tau = float(tau)
    grid = data.grid
    h = data.holo
    hv = h.values
    phase = np.exp(-1j * tau)

    holo_tau = _scaled_field(h, phase)

    m_z = wirtinger_dz(data.height)
    n_z = wirtinger_dz(data.null_pot)
    e_vals = np.exp(1j * tau) * m_z.values - 1j * np.sin(tau) * hv * n_z.values
    value_cb = None
    if _has_value(h) and _has_first(data.height) and _has_first(data.null_pot):
        def value_cb(u, v, _h=h.analytic, _m=data.height.analytic,
                     _n=data.null_pot.analytic):
            return (np.exp(1j * tau) * _m.dz(u, v)
                    - 1j * np.sin(tau) * _h.value(u, v) * _n.dz(u, v))

    lap_cb = None
    if _has_value(h) and _has_lap(data.null_pot):
        def lap_cb(u, v, _h=h.analytic, _n=data.null_pot.analytic):
            return np.real(phase * _h.value(u, v)) * _n.lap(u, v)

    height_tau, loop_res = _integrate_real(
        grid, e_vals, value_cb, lap_cb, "deform_elliptic", order)

    lhs = wirtinger_dz(height_tau).values - np.real(holo_tau.values) * n_z.values
    rhs = np.exp(1j * tau) * (m_z.values - np.real(hv) * n_z.values)
    identity = float(np.max(np.abs(lhs - rhs)))

    return WeierstrassSecond(holo_tau, height_tau, data.null_pot, _provenance(
        data, {"family": "elliptic", "parameter": tau}, loop_res, identity))


def deform_hyperbolic(data, eta, validate=True):
    """Hyperbolic deformation of first-kind data with rapidity ``eta``.

    Pure scaling (e^eta gauss, e^eta pot1, e^{-eta} pot2); no integration
    is involved and the immersion expression scales by e^eta exactly.  The
    generated surfaces are congruent under the boost of the last two
    coordinates by ``eta``.
    """

    if validate:
        validate_first(data).raise_for_failure()
    eta = float(eta)
    s = float(np.exp(eta))

    gauss_eta = _scaled_field(data.gauss, s)
    pot1_eta = _scaled_field(data.pot1, s)
    pot2_eta = _scaled_field(data.pot2, 1.0 / s)

    p_z = wirtinger_dz(pot1_eta).values
    q_z = wirtinger_dz(pot2_eta).values
    lhs = p_z - np.abs(gauss_eta.values) ** 2 * q_z
    rhs = s * (wirtinger_dz(data.pot1).values
               - np.abs(data.gauss.values) ** 2 * wirtinger_dz(data.pot2).values)
    identity = float(np.max(np.abs(lhs - rhs)))

    return WeierstrassFirst(gauss_eta, pot1_eta, pot2_eta, _provenance(
        data, {"family": "hyperbolic", "parameter": eta}, None, identity))


# ---------------------------------------------------------------------------
# serialization

_FIELD_NAMES = {
    "first": ("gauss", "pot1", "pot2"),
    "second": ("holo", "height", "null_pot"),
}


def _data_kind(data):
    if isinstance(data, WeierstrassFirst):
        return "first"
    if isinstance(data, WeierstrassSecond):
        return "second"
    raise TypeError("expected a WeierstrassFirst or WeierstrassSecond")


def save_data(data, path, payload="csv"):
    """Write a JSON document for the triple, field payloads by reference.

    The payload files sit next to the document and are named
    ``<stem>.<field>.csv`` or ``<stem>.<field>.fld`` depending on
    ``payload`` ("csv" or "binary").  Callbacks do not survive a round
    trip; reloaded data validates at finite-difference tolerances.
    """

    if payload not in ("csv", "binary"):
        raise ValueError("payload must be 'csv' or 'binary'")
    kind = _data_kind(data)
    directory = os.path.dirname(os.path.abspath(path))
    stem = os.path.splitext(os.path.basename(path))[0]
    ext = "csv" if payload == "csv" else "fld"
    writer = save_field_csv if payload == "csv" else save_field_binary

    refs = {}
    for name in _FIELD_NAMES[kind]:
        fname = "%s.%s.%s" % (stem, name, ext)
        writer(getattr(data, name), os.path.join(directory, fname))
        refs[name] = {"file": fname, "format": payload}

    doc = {
        "format": "mtsurf-data",
        "version": 1,
        "kind": kind,
        "grid": data.grid.to_dict(),
        "fields": refs,
        "provenance": data.provenance,
    }
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return [path] + [os.path.join(directory, refs[name]["file"])
                     for name in _FIELD_NAMES[kind]]


def load_data(path):
    """Inverse of :func:`save_data`."""
    with open(path, "r", encoding="ascii") as fh:
        doc = json.load(fh)
    if doc.get("format") != "mtsurf-data":
        raise ValueError("not a data document: %r" % (path,))
    kind = doc["kind"]
    if kind not in _FIELD_NAMES:
        raise ValueError("unknown data kind %r" % (kind,))
    grid = Grid2D.from_dict(doc["grid"])
    directory = os.path.dirname(os.path.abspath(path))

    loaded = []
    for name in _FIELD_NAMES[kind]:
        ref = doc["fields"][name]
        fpath = os.path.join(directory, ref["file"])
        f = load_field_csv(fpath) if ref["format"] == "csv" else load_field_binary(fpath)
        if f.grid != grid:
            raise GridMismatchError("payload %r disagrees with the document grid" % name)
        loaded.append(f)

    holo, a, b = loaded
    if not isinstance(holo, ComplexField):
        holo = ComplexField(grid, holo.values)
    cls = WeierstrassFirst if kind == "first" else WeierstrassSecond
    return cls(holo, a, b, doc.get("provenance", {}))
