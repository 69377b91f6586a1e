"""Data triples that generate marginally trapped surfaces.

Two equivalent packagings are supported.  A first-kind triple bundles a
nowhere-zero holomorphic field ``gauss`` with two real potentials
``pot1``/``pot2`` coupled by  ``lap(pot1) = |gauss|^2 lap(pot2)``; a
second-kind triple bundles a nowhere-zero holomorphic field ``holo`` with
a real ``height`` (which becomes the first coordinate of the surface) and
a real ``null_pot`` (which becomes the sum of the last two coordinates),
coupled by ``lap(height) = Re(holo) lap(null_pot)``.  One validator
certifies the defining conditions of either kind on a grid and returns a
certificate: the triple, its report and the arrays the checks computed.
The two kind conversions and the three one-parameter deformation families
(each the counterpart of a rotation family in :mod:`mtsurf.lorentz`) are
thin wrappers over one transform core: it consumes the certificate of its
input (passed in place of the triple, else made at the default
tolerances), builds the new holomorphic field, keeps or rescales
potentials, integrates at most one new potential from a 1-form linear in
dz(a) and dz(b), and records the immersion identity the transform must
satisfy.

Where a derived field has a closed-form derivative implied by its
construction (for example the Laplacian of an integrated potential, which
is pinned by the coupling condition), that derivative is attached as a
callback so that downstream checks stay at roundoff accuracy instead of
finite-difference accuracy.
"""

from __future__ import annotations

from collections import namedtuple
from dataclasses import dataclass, field

import numpy as np

from .errors import GridMismatchError, InvalidDataError, PoleError
from .fields import (
    Analytic,
    ComplexField,
    RealField,
    document_entry,
    document_grid,
    integrate_primitive,
    laplacian,
    load_payload,
    min_abs_location,
    read_document,
    save_payload,
    wirtinger_dz,
    wirtinger_dzbar,
    write_document,
)
from .tolerances import EPS_IMMERSION, EPS_ZERO, TOL_EXACT, residual_cap

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


_FIELD_NAMES = {
    "first": ("gauss", "pot1", "pot2"),
    "second": ("holo", "height", "null_pot"),
}
_CLASS = {"first": WeierstrassFirst, "second": WeierstrassSecond}


def _data_kind(data):
    if isinstance(data, WeierstrassFirst):
        return "first"
    if isinstance(data, WeierstrassSecond):
        return "second"
    raise TypeError("expected a WeierstrassFirst or WeierstrassSecond")


def _triple(data):
    """(kind, holomorphic field, a, b) of a data triple or a certificate."""
    if isinstance(data, _Certificate):
        return tuple(data[:4])
    kind = _data_kind(data)
    return (kind,) + tuple(getattr(data, name) for name in _FIELD_NAMES[kind])


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


def _exact_callbacks(holo, a, b):
    """Whether the integrands built from a triple carry exact callbacks:
    ``holo`` has a value callback and both potentials first derivatives.
    The representations, the transforms and the CLI's caps share it."""
    return _has_value(holo) and _has_first(a) and _has_first(b)


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


_Certificate = namedtuple("_Certificate",
                          "kind holo a b source report weight a_z b_z b_zzbar tol_exact")


def _certify(kind, holo, a, b, eps_zero=EPS_ZERO, eps_immersion=EPS_IMMERSION,
             tol_exact=TOL_EXACT, source=None):
    """The four checks of :func:`validate_first` for any kind's triple.

    ``holo`` is the kind's holomorphic field and (a, b) its potentials,
    coupled through the weight ``_WEIGHT[kind](holo)``.  Returns a
    ``_Certificate``: the triple, ``source`` (its provenance or None), the
    report, weight, dz(a), dz(b) and lap(b)/4 for its consumers to reuse,
    and ``tol_exact``, the exact-callback cap of its checks, which the
    consumers' loop caps use too.
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
                            residual_cap(grid, exact_holo, 50.0, tol_exact)),
        _sup_interior_check("compatible", grid,
                            laplacian(a).values / 4.0 - weight * b_zzbar,
                            residual_cap(grid, exact_pde, 50.0, tol_exact)),
        _min_check("immersion", grid, a_z - weight * b_z, eps_immersion),
    )
    exact = exact_holo and exact_pde and _has_first(a) and _has_first(b)
    return _Certificate(kind, holo, a, b, source, ValidationReport(kind, checks, exact),
                        weight, a_z, b_z, b_zzbar, tol_exact)


def _certificate(data, kind=None, eps_zero=EPS_ZERO, eps_immersion=EPS_IMMERSION,
                 tol_exact=TOL_EXACT):
    """``data`` when it is a certificate, else the certificate of the triple
    at the given tolerances; a TypeError unless it is of ``kind`` (if set)."""
    if not isinstance(data, _Certificate):
        data = _certify(*_triple(data), eps_zero, eps_immersion, tol_exact, data.provenance)
    if kind not in (None, data.kind):
        raise TypeError("expected %s-kind data, got %s-kind" % (kind, data.kind))
    return data


def validate_first(data, eps_zero=EPS_ZERO, eps_immersion=EPS_IMMERSION):
    """Certify the first-kind conditions on the grid.

    Checks, in order: ``nonvanishing`` (min |gauss|), ``holomorphic``
    (sup |dzbar(gauss)| over the interior), ``compatible``
    (sup |lap(pot1)/4 - |gauss|^2 lap(pot2)/4| over the interior) and
    ``immersion`` (min |dz(pot1) - |gauss|^2 dz(pot2)|).  Residual caps
    are 1e-8 when the needed callbacks exist and 50 h^2 otherwise.
    """
    return _certify("first", data.gauss, data.pot1, data.pot2,
                    eps_zero, eps_immersion).report


def validate_second(data, eps_zero=EPS_ZERO, eps_immersion=EPS_IMMERSION):
    """Certify the second-kind conditions; mirror of :func:`validate_first`.

    The coupling here is ``lap(height) = Re(holo) lap(null_pot)`` and the
    immersion certificate is ``min |dz(height) - Re(holo) dz(null_pot)|``.
    """
    return _certify("second", data.holo, data.height, data.null_pot,
                    eps_zero, eps_immersion).report


# ---------------------------------------------------------------------------
# callback combinators

def _scaled_analytic(a, c):
    """Callbacks of c*f given those of f, for a constant c."""
    if a is None:
        return None
    kw = {}
    for name in ("value", "dz", "dzbar", "lap"):
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


# ---------------------------------------------------------------------------
# the transform core

def _transform(cert, out_kind, holo_map, keep, integrand, factor, head):
    """The one pipeline behind the kind conversions and the deformations.

    A failed certificate ``cert`` of the input (w, a, b) raises first; then
    ``holo_map`` turns w into the output holomorphic field w'.  ``keep``
    gives each output potential as ``(c, i)``, c times input potential i,
    or None for the one potential integrated from dz = ``integrand(w, dz a,
    dz b)``, with the loop certificate enforced (cap the certificate's
    ``tol_exact`` with exact callbacks, 50 h^2 without).  Its Laplacian
    callback follows from the output coupling lap a' = weight' lap b'.
    ``factor(w, w')`` is the immersion factor: provenance records
    sup |imm' - factor imm| with imm = dz a - weight dz b, next to
    ``head``, the loop residual and the source's provenance.
    """
    _, holo, a, b, source, report, weight, a_z, b_z, _, tol_exact = cert
    report.raise_for_failure()
    grid = holo.grid
    holo_out = holo_map(holo)
    weight_out = _WEIGHT[out_kind]
    pots = [None, None]
    pots_z = [None, None]
    for slot, spec in enumerate(keep):
        if spec is not None:
            c, i = spec
            pots[slot] = (a, b)[i] if c == 1.0 else _scaled_field((a, b)[i], c)
            pots_z[slot] = c * (a_z, b_z)[i]

    prov = dict(head)
    if integrand is not None:
        slot = keep.index(None)
        exact = _exact_callbacks(holo, a, b)
        analytic = None
        if exact:
            def value_cb(u, v, _w=holo.analytic, _a=a.analytic, _b=b.analytic):
                return integrand(_w.value(u, v), _a.dz(u, v), _b.dz(u, v))
            analytic = Analytic(value=value_cb)
        pr = integrate_primitive(
            ComplexField(grid, integrand(holo.values, a_z, b_z), analytic))
        loop_cap = residual_cap(grid, exact, 50.0, tol_exact)
        if pr.loop_residual > loop_cap:
            what = head.get("transform") or "deform_" + head["family"]
            raise ValueError(
                "%s: loop residual %.3e exceeds %.3e; the integrand is not "
                "integrable on this grid" % (what, pr.loop_residual, loop_cap))
        out = pr.field
        kept = pots[1 - slot]
        if _has_value(holo_out) and _has_lap(kept):
            def lap_cb(u, v, _w=holo_out.analytic, _k=kept.analytic):
                wt = weight_out(_w.value(u, v))
                return wt * _k.lap(u, v) if slot == 0 else _k.lap(u, v) / wt
            kw = {"lap": lap_cb}
            if out.analytic is not None:
                kw.update(dz=out.analytic._dz, dzbar=out.analytic._dzbar)
            out = RealField(grid, out.values, Analytic(**kw))
        pots[slot] = out
        pots_z[slot] = wirtinger_dz(out).values
        prov["loop_residual"] = pr.loop_residual

    w, w_out = holo.values, holo_out.values
    imm_out = pots_z[0] - weight_out(w_out) * pots_z[1]
    prov["identity_residual"] = float(np.max(np.abs(
        imm_out - factor(w, w_out) * (a_z - weight * b_z))))
    if source:
        prov["source"] = dict(source)
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
    return _transform(_certificate(data, "first"), "second", _reciprocal_field,
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
    return _transform(_certificate(data, "second"), "first", _reciprocal_field,
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

    def gauss_lam(g):
        denom = 1.0 + 1j * lam * g.values
        u, v, mag = min_abs_location(g.grid, denom)
        if mag <= EPS_ZERO:
            raise PoleError(
                "deformed gauss field has a pole near (u,v)=(%.6g, %.6g): "
                "|1 + i*lambda*gauss| = %.3e" % (u, v, mag), location=(u, v))
        ga = g.analytic
        new_a = None
        if ga is not None and ga.has_value:
            def value(u, v):
                g_uv = ga.value(u, v)
                return g_uv / (1.0 + 1j * lam * g_uv)
            kw = {"value": value}
            if ga.has_first:
                kw["dz"] = lambda u, v: ga.dz(u, v) / (1.0 + 1j * lam * ga.value(u, v)) ** 2
                kw["dzbar"] = lambda u, v: ga.dzbar(u, v) / (1.0 + 1j * lam * ga.value(u, v)) ** 2
            new_a = Analytic(**kw)
        return ComplexField(g.grid, g.values / denom, new_a)

    return _transform(_certificate(data, "first"), "first", gauss_lam, ((1.0, 0), None),
                      lambda g, p_z, q_z: (1.0 / g + 1j * lam) * (g * q_z - 1j * lam * p_z),
                      lambda g, g_lam: np.conj(g_lam) / np.conj(g),
                      {"family": "parabolic", "parameter": lam})


def deform_elliptic(data, tau):
    """Elliptic deformation of second-kind data with angle ``tau``.

    holo_tau = e^{-i tau} holo, null_pot is unchanged, and height_tau is
    integrated from e^{i tau} dz(height) - i sin(tau) holo dz(null_pot).
    The deformed immersion expression equals e^{i tau} times the original;
    the generated surfaces are congruent under the plane rotation of the
    first two coordinates by ``tau``.
    """
    tau = float(tau)
    return _transform(_certificate(data, "second"), "second",
                      lambda h: _scaled_field(h, np.exp(-1j * tau)), (None, (1.0, 1)),
                      lambda h, m_z, n_z: (np.exp(1j * tau) * m_z
                                           - 1j * np.sin(tau) * h * n_z),
                      lambda h, h_tau: np.exp(1j * tau),
                      {"family": "elliptic", "parameter": tau})


def deform_hyperbolic(data, eta):
    """Hyperbolic deformation of first-kind data with rapidity ``eta``.

    Pure scaling (e^eta gauss, e^eta pot1, e^{-eta} pot2); no integration
    is involved and the immersion expression scales by e^eta exactly.  The
    generated surfaces are congruent under the boost of the last two
    coordinates by ``eta``.
    """
    eta = float(eta)
    s = float(np.exp(eta))
    return _transform(_certificate(data, "first"), "first", lambda g: _scaled_field(g, s),
                      ((s, 0), (1.0 / s, 1)), None, lambda g, g_eta: s,
                      {"family": "hyperbolic", "parameter": eta})


# ---------------------------------------------------------------------------
# serialization

def save_data(data, path, payload="csv"):
    """Write a JSON document for the triple, field payloads by reference.

    The payload files sit next to the document and are named
    ``<stem>.<field>.csv`` or ``<stem>.<field>.fld`` depending on
    ``payload`` ("csv" or "binary").  Callbacks do not survive a round
    trip; reloaded data validates at finite-difference tolerances.
    """
    kind = _data_kind(data)
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
    doc = read_document(path, "mtsurf-data", "data document")
    kind = document_entry(path, doc, "kind", "the document", str)
    if kind not in _FIELD_NAMES:
        raise ValueError("%r: unknown data kind %r" % (path, kind))
    grid = document_grid(path, doc)
    refs = document_entry(path, doc, "fields", "the document", dict)
    provenance = document_entry(path, doc, "provenance", "the document", dict, default={})
    # the holomorphic field is complex, the two potentials real
    holo, a, b = (load_payload(path, refs.get(name), name, grid, real=k > 0)
                  for k, name in enumerate(_FIELD_NAMES[kind]))
    return _CLASS[kind](ComplexField(grid, holo.values), a, b, provenance)
