"""Uniform rectangular grids, scalar fields and Wirtinger calculus.

Conventions
-----------
Sample arrays are indexed ``[i, j]`` with ``i`` running along u (axis 0)
and ``j`` along v (axis 1).  The Wirtinger operators are

    dz(f)    = (f_u - i f_v) / 2
    dzbar(f) = (f_u + i f_v) / 2

so ``laplacian(f) == 4 * dz(dzbar(f))`` and a field is holomorphic exactly
when ``dzbar(f) == 0``.

Fields may carry an :class:`Analytic` bundle of closed-form callbacks.
Operations use the callbacks when they are present (derivatives are then
exact up to roundoff and path integrals switch to per-interval Gauss
quadrature); otherwise they fall back to second-order finite differences
(central in the interior, one-sided at the edges) and to trapezoidal
accumulation, and tolerances downstream widen from 1e-8/1e-10 to C*h^2.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np

from .errors import GridMismatchError

__all__ = [
    "Grid2D",
    "Analytic",
    "RealField",
    "ComplexField",
    "PathIntegralResult",
    "wirtinger_dz",
    "wirtinger_dzbar",
    "laplacian",
    "integrate_primitive",
    "interior",
    "sup_abs",
    "sup_abs_interior",
    "worst_abs_location",
    "min_abs_location",
    "lincomb_real",
    "save_field_csv",
    "load_field_csv",
    "save_field_binary",
    "load_field_binary",
]


@dataclass(frozen=True)
class Grid2D:
    """Uniform tensor grid on [u_min, u_max] x [v_min, v_max].

    Node (i, j) sits at (u_min + i h_u, v_min + j h_v); the origin node is
    (0, 0).  At least 3 nodes per direction are required so that interior
    stencils exist.
    """

    u_min: float
    u_max: float
    v_min: float
    v_max: float
    n_u: int
    n_v: int

    def __post_init__(self):
        object.__setattr__(self, "u_min", float(self.u_min))
        object.__setattr__(self, "u_max", float(self.u_max))
        object.__setattr__(self, "v_min", float(self.v_min))
        object.__setattr__(self, "v_max", float(self.v_max))
        object.__setattr__(self, "n_u", int(self.n_u))
        object.__setattr__(self, "n_v", int(self.n_v))
        if not np.all(np.isfinite([self.u_min, self.u_max, self.v_min, self.v_max])):
            raise ValueError("grid bounds must be finite")
        if not (self.u_min < self.u_max and self.v_min < self.v_max):
            raise ValueError("grid bounds must satisfy u_min < u_max and v_min < v_max")
        if self.n_u < 3 or self.n_v < 3:
            raise ValueError("grids need at least 3 nodes per direction")

    @property
    def h_u(self):
        return (self.u_max - self.u_min) / (self.n_u - 1)

    @property
    def h_v(self):
        return (self.v_max - self.v_min) / (self.n_v - 1)

    @property
    def shape(self):
        return (self.n_u, self.n_v)

    @property
    def axis_u(self):
        return np.linspace(self.u_min, self.u_max, self.n_u)

    @property
    def axis_v(self):
        return np.linspace(self.v_min, self.v_max, self.n_v)

    @property
    def origin(self):
        return (self.u_min, self.v_min)

    def mesh(self):
        """Node coordinate arrays (U, V), each of shape (n_u, n_v)."""
        return np.meshgrid(self.axis_u, self.axis_v, indexing="ij")

    def spec(self):
        """Textual form ``umin:umax:vmin:vmax:NuxNv``."""
        return "%s:%s:%s:%s:%dx%d" % (
            repr(self.u_min), repr(self.u_max), repr(self.v_min), repr(self.v_max),
            self.n_u, self.n_v,
        )

    @classmethod
    def from_spec(cls, text):
        """Parse ``umin:umax:vmin:vmax:NuxNv``."""
        parts = str(text).split(":")
        try:
            if len(parts) != 5:
                raise ValueError
            bounds = [float(p) for p in parts[:4]]
            n_u, n_v = (int(c) for c in parts[4].lower().split("x"))
        except ValueError:
            raise ValueError("grid spec must look like umin:umax:vmin:vmax:NuxNv, "
                             "got %r" % (text,)) from None
        return cls(*bounds, n_u, n_v)

    def to_dict(self):
        return {
            "u_min": self.u_min, "u_max": self.u_max,
            "v_min": self.v_min, "v_max": self.v_max,
            "n_u": self.n_u, "n_v": self.n_v,
        }

    @classmethod
    def from_dict(cls, d):
        return cls(d["u_min"], d["u_max"], d["v_min"], d["v_max"], d["n_u"], d["n_v"])


class Analytic:
    """Closed-form evaluation of a field and of its derivatives at arbitrary points.

    Every callback takes broadcastable coordinate arrays ``(u, v)``.  Any
    subset may be supplied: first derivatives either as the pair
    ``(du, dv)`` or as the pair ``(dz, dzbar)``, the Laplacian either
    directly (``lap``) or as ``duu + dvv``.  Missing quantities raise when
    requested; the ``has_*`` flags let callers pick a fallback.
    """

    def __init__(self, value=None, du=None, dv=None, dz=None, dzbar=None,
                 duu=None, dvv=None, lap=None):
        self._value = value
        self._du = du
        self._dv = dv
        self._dz = dz
        self._dzbar = dzbar
        self._duu = duu
        self._dvv = dvv
        self._lap = lap

    # capability flags ----------------------------------------------------
    @property
    def has_value(self):
        return self._value is not None

    @property
    def has_first(self):
        return (self._du is not None and self._dv is not None) or (
            self._dz is not None and self._dzbar is not None)

    @property
    def has_lap(self):
        return self._lap is not None or (self._duu is not None and self._dvv is not None)

    # evaluation ----------------------------------------------------------
    def _missing(self, name):
        raise AttributeError("no %s callback available on this Analytic" % name)

    def value(self, u, v):
        if self._value is None:
            self._missing("value")
        return np.asarray(self._value(u, v))

    def du(self, u, v):
        if self._du is not None:
            return np.asarray(self._du(u, v))
        if self._dz is not None and self._dzbar is not None:
            return np.asarray(self._dz(u, v)) + np.asarray(self._dzbar(u, v))
        self._missing("du")

    def dv(self, u, v):
        if self._dv is not None:
            return np.asarray(self._dv(u, v))
        if self._dz is not None and self._dzbar is not None:
            return 1j * (np.asarray(self._dz(u, v)) - np.asarray(self._dzbar(u, v)))
        self._missing("dv")

    def dz(self, u, v):
        if self._dz is not None:
            return np.asarray(self._dz(u, v))
        if self._du is not None and self._dv is not None:
            return (np.asarray(self._du(u, v)) - 1j * np.asarray(self._dv(u, v))) / 2.0
        self._missing("dz")

    def dzbar(self, u, v):
        if self._dzbar is not None:
            return np.asarray(self._dzbar(u, v))
        if self._du is not None and self._dv is not None:
            return (np.asarray(self._du(u, v)) + 1j * np.asarray(self._dv(u, v))) / 2.0
        self._missing("dzbar")

    def lap(self, u, v):
        if self._lap is not None:
            return np.asarray(self._lap(u, v))
        if self._duu is not None and self._dvv is not None:
            return np.asarray(self._duu(u, v)) + np.asarray(self._dvv(u, v))
        self._missing("lap")


class _Field:
    """Immutable samples on a grid plus an optional Analytic bundle."""

    _dtype = None

    def __init__(self, grid, values, analytic=None):
        if not isinstance(grid, Grid2D):
            raise TypeError("grid must be a Grid2D")
        raw = np.asarray(values)
        if self._dtype is np.float64 and np.iscomplexobj(raw):
            raise TypeError("RealField requires real values; take .real explicitly if intended")
        arr = np.array(raw, dtype=self._dtype)
        if arr.shape != grid.shape:
            raise GridMismatchError(
                "field values have shape %r, grid expects %r" % (arr.shape, grid.shape))
        arr.setflags(write=False)
        self.grid = grid
        self.values = arr
        self.analytic = analytic

    @classmethod
    def sample(cls, grid, analytic):
        """Sample the closed form on the grid nodes and keep the callbacks."""
        U, V = grid.mesh()
        return cls(grid, analytic.value(U, V), analytic)

    def __repr__(self):
        return "%s(%dx%d on [%g,%g]x[%g,%g]%s)" % (
            type(self).__name__, self.grid.n_u, self.grid.n_v,
            self.grid.u_min, self.grid.u_max, self.grid.v_min, self.grid.v_max,
            ", analytic" if self.analytic is not None else "")


class RealField(_Field):
    _dtype = np.float64


class ComplexField(_Field):
    _dtype = np.complex128


def _same_grid(*fields):
    grid = fields[0].grid
    for f in fields[1:]:
        if f.grid != grid:
            raise GridMismatchError("fields live on different grids")
    return grid


# ---------------------------------------------------------------------------
# derivatives

def _fd_first(values, h, axis):
    return np.gradient(values, h, axis=axis, edge_order=2)


def _fd_second(values, h, axis):
    """Second derivative: central in the interior, one-sided second order at edges."""
    values = np.moveaxis(values, axis, 0)
    out = np.empty_like(values)
    out[1:-1] = values[2:] - 2.0 * values[1:-1] + values[:-2]
    out[0] = 2.0 * values[0] - 5.0 * values[1] + 4.0 * values[2] - values[3]
    out[-1] = 2.0 * values[-1] - 5.0 * values[-2] + 4.0 * values[-3] - values[-4]
    out /= h * h
    return np.moveaxis(out, 0, axis)


def wirtinger_dz(field):
    """(f_u - i f_v)/2 as a ComplexField; exact when callbacks are available."""
    grid = field.grid
    a = field.analytic
    if a is not None and a.has_first:
        U, V = grid.mesh()
        return ComplexField(grid, a.dz(U, V), Analytic(value=a.dz))
    fu = _fd_first(field.values, grid.h_u, 0)
    fv = _fd_first(field.values, grid.h_v, 1)
    return ComplexField(grid, (fu - 1j * fv) / 2.0)


def wirtinger_dzbar(field):
    """(f_u + i f_v)/2 as a ComplexField; exact when callbacks are available."""
    grid = field.grid
    a = field.analytic
    if a is not None and a.has_first:
        U, V = grid.mesh()
        return ComplexField(grid, a.dzbar(U, V), Analytic(value=a.dzbar))
    fu = _fd_first(field.values, grid.h_u, 0)
    fv = _fd_first(field.values, grid.h_v, 1)
    return ComplexField(grid, (fu + 1j * fv) / 2.0)


def laplacian(field):
    """f_uu + f_vv of the same kind as ``field``.

    With callbacks the result is exact everywhere.  The finite-difference
    fallback uses the five-point stencil in the interior and one-sided
    second-order formulas on the boundary ring; boundary entries are not
    trusted by the validators, which take norms over the interior only.
    """
    grid = field.grid
    a = field.analytic
    if a is not None and a.has_lap:
        U, V = grid.mesh()
        return type(field)(grid, a.lap(U, V), Analytic(value=a.lap))
    vals = _fd_second(field.values, grid.h_u, 0) + _fd_second(field.values, grid.h_v, 1)
    return type(field)(grid, vals)


def interior(arr):
    """View of the array with the boundary ring stripped (last two axes)."""
    return arr[..., 1:-1, 1:-1]


def sup_abs(arr):
    return float(np.max(np.abs(arr)))


def sup_abs_interior(arr):
    return sup_abs(interior(arr))


def worst_abs_location(grid, arr):
    """(u, v, |value|) of the largest magnitude entry."""
    mags = np.abs(arr)
    i, j = np.unravel_index(int(np.argmax(mags)), mags.shape)
    return (grid.axis_u[i], grid.axis_v[j], float(mags[i, j]))


def min_abs_location(grid, arr):
    """(u, v, |value|) of the smallest magnitude entry."""
    mags = np.abs(arr)
    i, j = np.unravel_index(int(np.argmin(mags)), mags.shape)
    return (grid.axis_u[i], grid.axis_v[j], float(mags[i, j]))


def lincomb_real(pairs):
    """Real linear combination sum of weight*field, keeping shared callbacks.

    ``pairs`` is a sequence of (weight, RealField) on one grid.  Callback
    slots (value, du, dv, duu, dvv, lap) survive only when every summand
    provides them; derived slots (dz, dzbar) are left to the accessors.
    """
    pairs = [(float(w), f) for w, f in pairs]
    if not pairs:
        raise ValueError("lincomb_real needs at least one summand")
    grid = pairs[0][1].grid
    for _, f in pairs[1:]:
        if f.grid != grid:
            raise GridMismatchError("lincomb_real summands live on different grids")
    values = sum(w * f.values for w, f in pairs)
    slots = {}
    for name in ("value", "du", "dv", "duu", "dvv", "lap"):
        cbs = [(w, getattr(f.analytic, "_" + name, None) if f.analytic else None)
               for w, f in pairs]
        if all(cb is not None for _, cb in cbs):
            def combined(u, v, _cbs=tuple(cbs)):
                return sum(w * cb(u, v) for w, cb in _cbs)
            slots[name] = combined
    return RealField(grid, values, Analytic(**slots) if slots else None)


# ---------------------------------------------------------------------------
# path-integral primitive

@dataclass(frozen=True)
class PathIntegralResult:
    """A primitive together with its integrability certificate.

    ``loop_residual`` is the largest magnitude circulation of the 1-form
    2 Re(E dz) over a single grid plaquette, evaluated with the same
    quadrature that produced the primitive.  It vanishes (up to roundoff /
    truncation) exactly when dzbar(E) is real, which is the condition for
    the primitive to exist; callers must not discard it silently.
    """

    field: RealField
    loop_residual: float
    order: str


_GAUSS_X, _GAUSS_W = np.polynomial.legendre.leggauss(5)


def _edge_integrals_gauss(value, grid):
    """Per-edge Gauss integrals of a = 2 Re E (along u) and b = -2 Im E (along v)."""
    au = grid.axis_u
    av = grid.axis_v
    # u-edges: R[i, j] = integral of a over [u_i, u_{i+1}] at v_j
    uq = au[:-1, None] + (_GAUSS_X[None, :] + 1.0) * (grid.h_u / 2.0)   # (n_u-1, 5)
    ev = value(uq[:, :, None], av[None, None, :])                        # (n_u-1, 5, n_v)
    R = (grid.h_u / 2.0) * np.einsum("q,iqj->ij", _GAUSS_W, 2.0 * np.real(ev))
    # v-edges: C[i, j] = integral of b over [v_j, v_{j+1}] at u_i
    vq = av[:-1, None] + (_GAUSS_X[None, :] + 1.0) * (grid.h_v / 2.0)   # (n_v-1, 5)
    ev = value(au[:, None, None], vq[None, :, :])                        # (n_u, n_v-1, 5)
    C = (grid.h_v / 2.0) * np.einsum("q,ijq->ij", _GAUSS_W, -2.0 * np.imag(ev))
    return R, C


def _edge_integrals_trapezoid(values, grid):
    a = 2.0 * np.real(values)
    b = -2.0 * np.imag(values)
    R = (grid.h_u / 2.0) * (a[:-1, :] + a[1:, :])
    C = (grid.h_v / 2.0) * (b[:, :-1] + b[:, 1:])
    return R, C


def integrate_primitive(field, order="rows"):
    """Real primitive F with F_z = E, anchored to F = 0 at the origin node.

    F accumulates the edge integrals of 2 Re(E dz) first along the grid rows
    then up the columns (``order="rows"``) or the other way around
    (``order="columns"``).  Edge integrals use 5-point Gauss quadrature on
    the exact callback when the field has one, trapezoid on the samples
    otherwise.  The primitive keeps exact first-derivative callbacks
    (F_u = 2 Re E, F_v = -2 Im E) when the integrand had a value callback.
    """
    if order not in ("rows", "columns"):
        raise ValueError("order must be 'rows' or 'columns'")
    grid = field.grid
    a = field.analytic
    if a is not None and a.has_value:
        R, C = _edge_integrals_gauss(a.value, grid)
    else:
        R, C = _edge_integrals_trapezoid(field.values, grid)

    zeros_u = np.zeros((1, grid.n_v))
    zeros_v = np.zeros((grid.n_u, 1))
    if order == "rows":
        along_row = np.concatenate([[0.0], np.cumsum(R[:, 0])])         # (n_u,)
        up_columns = np.concatenate([zeros_v, np.cumsum(C, axis=1)], axis=1)
        F = along_row[:, None] + up_columns
    else:
        up_column = np.concatenate([[0.0], np.cumsum(C[0, :])])         # (n_v,)
        along_rows = np.concatenate([zeros_u, np.cumsum(R, axis=0)], axis=0)
        F = up_column[None, :] + along_rows

    circ = R[:, :-1] + C[1:, :] - R[:, 1:] - C[:-1, :]
    loop_residual = float(np.max(np.abs(circ))) if circ.size else 0.0

    analytic = None
    if a is not None and a.has_value:
        def f_du(u, v, _val=a.value):
            return 2.0 * np.real(_val(u, v))

        def f_dv(u, v, _val=a.value):
            return -2.0 * np.imag(_val(u, v))

        lap_cb = None
        if a.has_first or a._dzbar is not None:
            def lap_cb(u, v, _a=a):
                return 4.0 * np.real(_a.dzbar(u, v))

        analytic = Analytic(du=f_du, dv=f_dv, lap=lap_cb)
    return PathIntegralResult(RealField(grid, F, analytic), loop_residual, order)


# ---------------------------------------------------------------------------
# serialization

def _fmt(x):
    return "%.17g" % x


def save_field_csv(field, path):
    """Write ``u,v,re,im`` rows (u slowest), 17 significant digits."""
    U, V = field.grid.mesh()
    re = np.real(field.values)
    im = np.imag(field.values)
    lines = ["u,v,re,im"]
    for i in range(field.grid.n_u):
        for j in range(field.grid.n_v):
            lines.append(",".join((_fmt(U[i, j]), _fmt(V[i, j]), _fmt(re[i, j]), _fmt(im[i, j]))))
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def load_field_csv(path):
    """Inverse of :func:`save_field_csv`.

    Returns a RealField when every imaginary part is exactly zero, else a
    ComplexField.  Loaded fields carry no Analytic callbacks.
    """
    data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    if data.shape[1] != 4:
        raise ValueError("field CSV must have columns u,v,re,im")
    ucol = data[:, 0]
    changes = np.nonzero(ucol != ucol[0])[0]
    if changes.size == 0:
        raise ValueError("field CSV holds a single u row; need a full grid")
    n_v = int(changes[0])
    if data.shape[0] % n_v:
        raise ValueError("field CSV row count is not a multiple of the v count")
    n_u = data.shape[0] // n_v
    U = ucol.reshape(n_u, n_v)
    V = data[:, 1].reshape(n_u, n_v)
    grid = Grid2D(U[0, 0], U[-1, 0], V[0, 0], V[0, -1], n_u, n_v)
    Ug, Vg = grid.mesh()
    scale = max(abs(grid.u_max - grid.u_min), abs(grid.v_max - grid.v_min))
    if np.max(np.abs(U - Ug)) > 1e-12 * scale or np.max(np.abs(V - Vg)) > 1e-12 * scale:
        raise ValueError("field CSV nodes are not a uniform grid in row-major order")
    re = data[:, 2].reshape(n_u, n_v)
    im = data[:, 3].reshape(n_u, n_v)
    if np.all(im == 0.0):
        return RealField(grid, re)
    return ComplexField(grid, re + 1j * im)


#: Binary field layout (all little-endian):
#:   magic  b"MTSF\x01"  (5 bytes)
#:   kind   uint8        (0 real, 1 complex)
#:   n_u    uint32
#:   n_v    uint32
#:   bounds 4 x float64  (u_min, u_max, v_min, v_max)
#:   data   float64 row-major samples; complex fields store re,im pairs
_BIN_MAGIC = b"MTSF\x01"
_BIN_HEADER = struct.Struct("<5sBII4d")


def save_field_binary(field, path):
    """Write the documented compact binary layout (see ``_BIN_HEADER``)."""
    grid = field.grid
    is_complex = isinstance(field, ComplexField)
    header = _BIN_HEADER.pack(_BIN_MAGIC, 1 if is_complex else 0, grid.n_u, grid.n_v,
                              grid.u_min, grid.u_max, grid.v_min, grid.v_max)
    if is_complex:
        payload = np.ascontiguousarray(field.values, dtype="<c16").tobytes()
    else:
        payload = np.ascontiguousarray(field.values, dtype="<f8").tobytes()
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(payload)


def load_field_binary(path):
    """Inverse of :func:`save_field_binary`; no Analytic callbacks."""
    with open(path, "rb") as fh:
        raw = fh.read()
    if len(raw) < _BIN_HEADER.size or raw[:5] != _BIN_MAGIC:
        raise ValueError("not a field binary file (bad magic)")
    magic, kind, n_u, n_v, u_min, u_max, v_min, v_max = _BIN_HEADER.unpack_from(raw)
    grid = Grid2D(u_min, u_max, v_min, v_max, n_u, n_v)
    body = raw[_BIN_HEADER.size:]
    if kind == 1:
        vals = np.frombuffer(body, dtype="<c16").reshape(n_u, n_v)
        return ComplexField(grid, vals.astype(np.complex128))
    vals = np.frombuffer(body, dtype="<f8").reshape(n_u, n_v)
    return RealField(grid, vals.astype(np.float64))
