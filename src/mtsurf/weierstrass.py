"""Data triples that generate marginally trapped surfaces.

Two equivalent packagings are supported.  A first-kind triple bundles a
nowhere-zero holomorphic field ``gauss`` with two real potentials
``pot1``/``pot2`` coupled by  ``lap(pot1) = |gauss|^2 lap(pot2)``; a
second-kind triple bundles a nowhere-zero holomorphic field ``holo`` with
a real ``height`` (which becomes the first coordinate of the surface) and
a real ``null_pot`` (which becomes the sum of the last two coordinates),
coupled by ``lap(height) = Re(holo) lap(null_pot)``.  Both kinds share
one grid rule: the three fields of a triple live on one grid.  One
validator certifies the defining conditions of either kind on a grid and
returns a certificate: the triple, its report and the arrays the checks
computed.  The report's checks are :class:`mtsurf.tolerances.CheckResult`
records (re-exported here), the record a run manifest keeps too.
The two kind conversions and the three one-parameter deformation families
(each the counterpart of a rotation family in :mod:`mtsurf.lorentz`) are
thin wrappers over one transform core: it consumes the certificate of its
input (by ``_as_kind``, the one kind rule, from either kind), builds the new
holomorphic field, keeps or rescales potentials, integrates at most one
new potential from a 1-form linear in dz(a) and dz(b), and records the
immersion identity the transform must satisfy.

Callbacks pass through every transform, so downstream checks stay at
roundoff accuracy, and each derived callback is built one way: a new
holomorphic field phi(w) goes through the chain-rule map ``_holo_map``; a
rescaled potential is a one-term :func:`mtsurf.fields.lincomb_real`; a
field formula(w, dz a, dz b) of a certified triple (a new potential's
integrand here, a tangent coordinate in :mod:`mtsurf.surfaces`) comes from
``_certificate_field``; and the Laplacian of an integrated potential is
pinned by the coupling condition.
"""

from __future__ import annotations

import functools
from collections import namedtuple
from dataclasses import dataclass, field, fields

import numpy as np

from .errors import DomainError, GridMismatchError, InvalidDataError, PoleError
from .fields import (
    Analytic,
    ComplexField,
    RealField,
    _when_swept,
    document_fields,
    integrate_primitive,
    laplacian,
    lincomb_real,
    min_abs_location,
    read_document,
    save_payload,
    wirtinger_dz,
    wirtinger_dzbar,
    write_document,
)
from .tolerances import EPS_IMMERSION, EPS_ZERO, CheckResult, cap, passes

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


class _Triple:
    """The one grid rule of both kinds: a triple's three fields, the
    holomorphic field first, live on one grid, the triple's ``grid``."""

    def __post_init__(self):
        for f in fields(self)[1:3]:
            if getattr(self, f.name).grid != self.grid:
                raise GridMismatchError("%s lives on a different grid" % f.name)

    @property
    def grid(self):
        return getattr(self, fields(self)[0].name).grid


@dataclass(frozen=True)
class WeierstrassFirst(_Triple):
    """First-kind data triple (gauss, pot1, pot2).

    The generated surface has third coordinate pot1 - pot2 and fourth
    coordinate pot1 + pot2 (up to constants); gauss is its null normal
    direction in stereographic form.
    """

    gauss: ComplexField
    pot1: RealField
    pot2: RealField
    provenance: dict = field(default_factory=dict, compare=False)


@dataclass(frozen=True)
class WeierstrassSecond(_Triple):
    """Second-kind data triple (holo, height, null_pot).

    The generated surface has first coordinate height and the sum of its
    last two coordinates equal to null_pot (up to constants).
    """

    holo: ComplexField
    height: RealField
    null_pot: RealField
    provenance: dict = field(default_factory=dict, compare=False)


_CLASS = {"first": WeierstrassFirst, "second": WeierstrassSecond}
_FIELD_NAMES = {kind: tuple(f.name for f in fields(cls)[:3]) for kind, cls in _CLASS.items()}


def _triple(data):
    """(kind, holomorphic field, a, b) of a data triple."""
    for kind, cls in _CLASS.items():
        if isinstance(data, cls):
            return (kind,) + tuple(getattr(data, name) for name in _FIELD_NAMES[kind])
    raise TypeError("expected a WeierstrassFirst or WeierstrassSecond")


# ---------------------------------------------------------------------------
# validation

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
            "checks": [dict(c._asdict(), passed=c.passed) for c in self.checks],
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


def _exact_callbacks(cert):
    """Whether the integrands built from a certified triple carry exact
    callbacks: ``holo`` has a value callback and both potentials first
    derivatives.  Representations, transforms and the CLI's caps share it."""
    return cert.holo.analytic.has_value and cert.a.analytic.has_first \
        and cert.b.analytic.has_first


def _sup_interior_check(name, grid, arr, threshold):
    inner = np.abs(arr[1:-1, 1:-1])
    i, j = np.unravel_index(int(np.argmax(inner)), inner.shape)
    return CheckResult(name, float(inner[i, j]), threshold, "max_below",
                       (float(grid.axis_u[i + 1]), float(grid.axis_v[j + 1])))


def _min_check(name, grid, arr, threshold):
    u, v, mag = min_abs_location(grid, arr)
    return CheckResult(name, mag, threshold, "min_above", (float(u), float(v)))


#: Coupling weight of each kind as a function of its holomorphic samples:
#: the two potentials (a, b) of a triple satisfy lap(a) = weight lap(b).
_WEIGHT = {
    "first": lambda g: np.abs(g) ** 2,
    "second": np.real,
    "third": lambda g: (np.abs(g) ** 2 - 1.0) / (np.abs(g) ** 2 + 1.0),
}


_Certificate = namedtuple("_Certificate",
                          "kind holo a b source report weight a_z b_z b_zzbar")


def _certify(kind, holo, a, b, source=None):
    """The four checks of :func:`validate_first` for any kind's triple.

    ``holo`` is the kind's holomorphic field and (a, b) its potentials,
    coupled through the weight ``_WEIGHT[kind](holo)``.  Returns a
    ``_Certificate``: the triple, ``source`` (its provenance or None), the
    report, and weight, dz(a), dz(b) and lap(b)/4 for its consumers to reuse.
    """
    grid = holo.grid
    weight = _WEIGHT[kind](holo.values)
    exact_holo = holo.analytic.has_first
    exact_pde = a.analytic.has_lap and b.analytic.has_lap
    a_z = wirtinger_dz(a).values
    b_z = wirtinger_dz(b).values
    b_zzbar = laplacian(b).values / 4.0
    checks = (
        _min_check("nonvanishing", grid, holo.values, EPS_ZERO),
        _sup_interior_check("holomorphic", grid, wirtinger_dzbar(holo).values,
                            cap("holomorphic", grid, exact_holo)),
        _sup_interior_check("compatible", grid,
                            laplacian(a).values / 4.0 - weight * b_zzbar,
                            cap("compatible", grid, exact_pde)),
        _min_check("immersion", grid, a_z - weight * b_z, EPS_IMMERSION),
    )
    exact = exact_holo and exact_pde and a.analytic.has_first and b.analytic.has_first
    return _Certificate(kind, holo, a, b, source, ValidationReport(kind, checks, exact),
                        weight, a_z, b_z, b_zzbar)


def _certificate(data):
    """``data`` if it is a certificate, else the certificate of the triple."""
    if isinstance(data, _Certificate):
        return data
    return _certify(*_triple(data), data.provenance)


def _as_kind(data, kind):
    """The one kind rule: the certificate of a triple or certificate as a
    ``kind`` triple, its own or its conversion's, certified once.  The
    third kind is (gauss, pot1 - pot2, pot1 + pot2) of the first."""
    cert = _certificate(data)
    if kind == cert.kind:
        return cert
    if kind != "third":
        return _certificate({"first": first_to_second,
                             "second": second_to_first}[cert.kind](cert))
    _, gauss, pot1, pot2 = cert[:4] if cert.kind == "first" else _triple(second_to_first(cert))
    return _certify("third", gauss, lincomb_real([(1.0, pot1), (-1.0, pot2)]),
                    lincomb_real([(1.0, pot1), (1.0, pot2)]))


def validate_first(data):
    """Certify the first-kind conditions on the grid.

    Checks, in order: ``nonvanishing`` (min |gauss|), ``holomorphic``
    (sup |dzbar(gauss)| over the interior), ``compatible``
    (sup |lap(pot1)/4 - |gauss|^2 lap(pot2)/4| over the interior) and
    ``immersion`` (min |dz(pot1) - |gauss|^2 dz(pot2)|).  Residual caps
    come from :func:`mtsurf.tolerances.cap`, exact when the needed
    callbacks exist.
    """
    return _certify("first", data.gauss, data.pot1, data.pot2).report


def validate_second(data):
    """Certify the second-kind conditions; mirror of :func:`validate_first`.

    The coupling here is ``lap(height) = Re(holo) lap(null_pot)`` and the
    immersion certificate is ``min |dz(height) - Re(holo) dz(null_pot)|``.
    """
    return _certify("second", data.holo, data.height, data.null_pot).report


# ---------------------------------------------------------------------------
# derived callbacks

def _holo_map(f, phi, dphi):
    """phi(f) of a holomorphic field f as a ComplexField.  When f has a
    value callback, so does the result; when f also has first derivatives,
    the result's dz and dzbar follow the chain rule, dphi(g, dg) with
    dphi(g, dg) = phi'(g) dg and dg = dz f or dzbar f."""
    a = f.analytic
    kw = {}
    if a.has_value:
        kw["value"] = lambda u, v: phi(a.value(u, v))
        if a.has_first:
            kw["dz"] = lambda u, v: dphi(a.value(u, v), a.dz(u, v))
            kw["dzbar"] = lambda u, v: dphi(a.value(u, v), a.dzbar(u, v))
    return ComplexField(f.grid, phi(f.values), Analytic(**kw))


def _reciprocal_field(f):
    """1/f of a holomorphic field f."""
    return _holo_map(f, lambda g: 1.0 / g, lambda g, dg: -dg / g ** 2)


def _certificate_field(cert, formula, out=None):
    """formula(w, dz a, dz b) of the certified triple (w, a, b) as a
    ComplexField: on the exact route, a value callback on the triple's
    callbacks, whose results a quadrature node set shares; samples from the
    certificate's arrays, written into ``out`` when given.  Without an
    ``out`` the exact route samples nothing (NaN samples): its Gauss
    quadrature reads only the callback."""
    w, a, b = cert.holo.analytic, cert.a.analytic, cert.b.analytic
    value = None
    if _exact_callbacks(cert):
        def value(u, v):
            return formula(w.value(u, v), a.dz(u, v), b.dz(u, v))
    values = np.broadcast_to(np.complex128(np.nan), cert.holo.grid.shape)
    if out is not None or value is None:
        values = formula(cert.holo.values, cert.a_z, cert.b_z)
    if out is not None:
        out[...] = values
        values = out
    return ComplexField._view(cert.holo.grid, values, Analytic(value=value))


# ---------------------------------------------------------------------------
# the transform core

def _refuse_non_finite(name, head, what, grid, *node_values):
    """DomainError at the first grid node where one of ``node_values`` is not
    finite: ``what`` leaves the float range in the transform ``name``, under
    the parameter (``--parameter``) of a family's ``head``."""
    bad = ~functools.reduce(np.logical_and, map(np.isfinite, node_values))
    if bad.any():
        i, j = np.argwhere(bad)[0]
        raise DomainError("%s: %s leaves the float range at (u,v)=(%.6g, %.6g)%s" % (
            name, what, grid.axis_u[i], grid.axis_v[j],
            " under the %s parameter %g (--parameter)" % (head["family"], head["parameter"])
            if "family" in head else ""))


def _transform(cert, out_kind, holo_map, keep, integrand, factor, head):
    """The one pipeline behind the kind conversions and the deformations.

    A failed certificate ``cert`` of the input (w, a, b) raises first; then
    ``holo_map`` turns w into the output holomorphic field w'.  ``keep``
    gives each output potential as ``(c, i)``, c times input potential i,
    or None for the one potential integrated from dz = ``integrand(w, dz a,
    dz b)``, with the loop certificate enforced (the table's
    ``loop_residual`` cap).  Its Laplacian
    callback follows from the output coupling lap a' = weight' lap b'.
    ``factor(w, w')`` is the immersion factor: provenance records
    sup |imm' - factor imm| with imm = dz a - weight dz b, next to
    ``head``, the loop residual and the source's provenance.

    The new potential's dz and Laplacian on the grid nodes come first, from
    the certificate's samples and the coupling; one that is not finite raises
    DomainError (naming ``--parameter`` for a family) before any sweep.
    Inside a :class:`mtsurf.fields.deferred_sweeps` scope its integration
    waits for the next sweep on the grid: the loop gate fires, and the loop
    residual is written into the provenance (NaN until then) and into each
    later transform's copy of it as ``source``, right after that sweep.
    """
    _, holo, a, b, source, report, weight, a_z, b_z, _ = cert
    report.raise_for_failure()
    grid = holo.grid
    holo_out = holo_map(holo)
    weight_out = _WEIGHT[out_kind]
    pots = [None, None]
    pots_z = [None, None]
    for slot, spec in enumerate(keep):
        if spec is not None:
            c, i = spec
            pots[slot] = (a, b)[i] if c == 1.0 else lincomb_real([(c, (a, b)[i])])
            pots_z[slot] = c * (a_z, b_z)[i]

    prov = dict(head)
    if integrand is not None:
        slot = keep.index(None)
        exact = _exact_callbacks(cert)
        what = head.get("transform") or "deform_" + head["family"]
        kept = pots[1 - slot]
        lap_cb = None
        if holo_out.analytic.has_value and kept.analytic.has_lap:
            def lap_cb(u, v, _w=holo_out.analytic, _k=kept.analytic):
                wt = weight_out(_w.value(u, v))
                return wt * _k.lap(u, v) if slot == 0 else _k.lap(u, v) / wt
        # the new potential's dz and lap on the nodes decide its range before any sweep
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            node_dz = integrand(holo.values, a_z, b_z)
            node_lap = grid.on_nodes(lap_cb) if lap_cb else 0.0
        _refuse_non_finite(what, head, "the integrated potential", grid, node_dz, node_lap)
        pr = integrate_primitive(_certificate_field(cert, integrand))
        loop_cap = cap("loop_residual", grid, exact)
        prov["loop_residual"] = np.nan          # until the gate records it

        def gate():
            if not passes(pr.loop_residual, loop_cap, "max_below"):
                raise ValueError(
                    "%s: loop residual %.3e exceeds %.3e; the integrand is not "
                    "integrable on this grid" % (what, pr.loop_residual, loop_cap))
            prov["loop_residual"] = pr.loop_residual

        _when_swept(pr.field, gate)
        out = pr.field
        if lap_cb is not None:      # the primitive is new and shared with no one
            out.analytic = Analytic(dz=out.analytic._dz, dzbar=out.analytic._dzbar, lap=lap_cb)
        pots[slot] = out
        pots_z[slot] = node_dz if exact else wirtinger_dz(out).values

    w, w_out = holo.values, holo_out.values
    imm_out = pots_z[0] - weight_out(w_out) * pots_z[1]
    prov["identity_residual"] = float(np.max(np.abs(
        imm_out - factor(w, w_out) * (a_z - weight * b_z))))
    if source:
        prov["source"] = dict(source)
        for p in (a, b):        # a deferred input records its residual in source when swept
            _when_swept(p, lambda: prov["source"].update(source))
    return _CLASS[out_kind](holo_out, *pots, prov)


# ---------------------------------------------------------------------------
# equivalence transforms

def first_to_second(data):
    """Convert first-kind data to the equivalent second-kind triple.

    Output: holo = 1/gauss, null_pot = 2 pot1, and height integrated from
    the 1-form with dz(height) = dz(pot1)/gauss + gauss*dz(pot2).  The two
    immersion expressions then satisfy

        dz(height) - Re(holo) dz(null_pot)
            = -(dz(pot1) - |gauss|^2 dz(pot2)) / conj(gauss)

    whose sup residual is recorded under provenance["identity_residual"].
    """
    return _transform(_as_kind(data, "first"), "second", _reciprocal_field,
                      (None, (2.0, 0)), lambda g, p_z, q_z: p_z / g + g * q_z,
                      lambda g, h: -1.0 / np.conj(g),
                      {"transform": "first_to_second"})


def second_to_first(data):
    """Convert second-kind data to the equivalent first-kind triple.

    Output: gauss = 1/holo, pot1 = null_pot/2, and pot2 integrated from
    the 1-form with dz(pot2) = holo*dz(height) - (holo^2/2) dz(null_pot);
    the identity of :func:`first_to_second` holds with the same residual
    bookkeeping.
    """
    return _transform(_as_kind(data, "second"), "first", _reciprocal_field,
                      ((0.5, 1), None), lambda h, m_z, n_z: h * m_z - 0.5 * h ** 2 * n_z,
                      lambda h, g: -1.0 / np.conj(h),
                      {"transform": "second_to_first"})


# ---------------------------------------------------------------------------
# deformation families

def deform_parabolic(data, lam):
    """Parabolic deformation of first-kind data with parameter ``lam``.

    gauss_lam = gauss/(1 + i lam gauss), pot1 is unchanged, and pot2_lam
    is integrated from (1/gauss + i lam)(gauss dz(pot2) - i lam dz(pot1)).
    The deformed immersion expression equals the original times
    conj(gauss_lam)/conj(gauss); the surfaces generated from input and
    output are congruent under the parabolic rotation with the same
    parameter.  Raises :class:`PoleError` when 1 + i lam gauss vanishes
    somewhere on the grid (the deformed gauss field has a pole there).
    """
    lam = float(lam)
    head = {"family": "parabolic", "parameter": lam}

    def gauss_lam(g):
        # the deformed gauss field divides by 1 + i lam gauss, its derivatives
        # by the square: a lam that takes it out of range is refused first
        with np.errstate(over="ignore", invalid="ignore"):
            den = 1.0 + 1j * lam * g.values
            _refuse_non_finite("deform_parabolic", head, "(1 + i*lambda*gauss)^2", g.grid,
                               den * den)
        u, v, mag = min_abs_location(g.grid, den)
        if mag <= EPS_ZERO:
            raise PoleError(
                "deformed gauss field has a pole near (u,v)=(%.6g, %.6g): "
                "|1 + i*lambda*gauss| = %.3e" % (u, v, mag), location=(u, v))
        return _holo_map(g, lambda w: w / (1.0 + 1j * lam * w),
                         lambda w, dw: dw / (1.0 + 1j * lam * w) ** 2)

    return _transform(_as_kind(data, "first"), "first", gauss_lam, ((1.0, 0), None),
                      lambda g, p_z, q_z: (1.0 / g + 1j * lam) * (g * q_z - 1j * lam * p_z),
                      lambda g, g_lam: np.conj(g_lam) / np.conj(g), head)


def deform_elliptic(data, tau):
    """Elliptic deformation of second-kind data with angle ``tau``.

    holo_tau = e^{-i tau} holo, null_pot is unchanged, and height_tau is
    integrated from e^{i tau} dz(height) - i sin(tau) holo dz(null_pot).
    The deformed immersion expression equals e^{i tau} times the original;
    the generated surfaces are congruent under the plane rotation of the
    first two coordinates by ``tau``.
    """
    tau = float(tau)
    c = np.exp(-1j * tau)
    return _transform(_as_kind(data, "second"), "second",
                      lambda h: _holo_map(h, lambda w: c * w, lambda w, dw: c * dw),
                      (None, (1.0, 1)),
                      lambda h, m_z, n_z: (np.exp(1j * tau) * m_z
                                           - 1j * np.sin(tau) * h * n_z),
                      lambda h, h_tau: np.exp(1j * tau),
                      {"family": "elliptic", "parameter": tau})


def deform_hyperbolic(data, eta):
    """Hyperbolic deformation of first-kind data with rapidity ``eta``.

    Pure scaling (e^eta gauss, e^eta pot1, e^{-eta} pot2); no integration
    is involved and the immersion expression scales by e^eta exactly.  The
    generated surfaces are congruent under the boost of the last two
    coordinates by ``eta``.  Raises :class:`DomainError` when a scaled
    field or the coupling weight |e^eta gauss|^2 leaves the float range,
    before the output is certified: e^-eta pot2 of a deferred pot2 (see
    :class:`mtsurf.fields.deferred_sweeps`) is checked when it is swept if
    e^-eta <= 1, and forces that sweep at once otherwise.
    """
    eta = float(eta)
    cert = _as_kind(data, "first")
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        s = np.exp(eta)
        out = _transform(cert, "first",
                         lambda g: _holo_map(g, lambda w: s * w, lambda w, dw: s * dw),
                         ((s, 0), (1.0 / s, 1)), None, lambda g, g_eta: s,
                         {"family": "hyperbolic", "parameter": eta})
        known = np.abs(out.gauss.values) ** 2 + out.pot1.values

    def refuse_unless_finite(values):
        if not np.isfinite(values).all():
            raise DomainError("the hyperbolic rapidity %g (--parameter) scales the data "
                              "out of the float range" % eta)

    def with_pot2():
        cert.b.values       # a deferred pot2 is swept here, outside the errstate
        with np.errstate(over="ignore", invalid="ignore"):
            refuse_unless_finite(known + out.pot2.values)

    refuse_unless_finite(known)
    if s < 1.0:
        with_pot2()     # e^-eta > 1 may take pot2 out of range: read it now
    else:
        _when_swept(cert.b, with_pot2)
    return out


# ---------------------------------------------------------------------------
# serialization

def save_data(data, path, payload="csv"):
    """Write a JSON document for the triple, field payloads by reference.

    The payload files sit next to the document and are named
    ``<stem>.<field>.csv`` or ``<stem>.<field>.fld`` depending on
    ``payload`` ("csv" or "binary").  Callbacks do not survive a round
    trip; reloaded data validates at finite-difference tolerances.
    """
    kind = _triple(data)[0]
    refs, written = {}, []
    for name in _FIELD_NAMES[kind]:
        refs[name], fpath = save_payload(getattr(data, name), path, name, payload)
        written.append(fpath)
    write_document(path, {
        "format": "mtsurf-data",
        "version": 1,
        "kind": kind,
        "grid": data.grid.to_dict(),
        "fields": refs,
        "provenance": data.provenance,
    })
    return [path] + written


def load_data(path):
    """Inverse of :func:`save_data`."""
    return _data_from_document(path, read_document(path, "mtsurf-data"))


def _data_from_document(path, doc):
    """The triple of the data document ``doc``, already read from ``path``."""
    kind = doc["kind"]
    if kind not in _FIELD_NAMES:
        raise ValueError("%r: unknown data kind %r" % (path, kind))
    # the holomorphic field is complex, the two potentials real
    holo, a, b = document_fields(path, doc, _FIELD_NAMES[kind], _FIELD_NAMES[kind][1:])
    return _CLASS[kind](ComplexField(holo.grid, holo.values), a, b, doc.get("provenance", {}))
