"""Uniform rectangular grids, scalar fields and Wirtinger calculus.

Conventions
-----------
Sample arrays are indexed ``[i, j]`` with ``i`` running along u (axis 0)
and ``j`` along v (axis 1).  The Wirtinger operators are

    dz(f)    = (f_u - i f_v) / 2
    dzbar(f) = (f_u + i f_v) / 2

so ``laplacian(f) == 4 * dz(dzbar(f))`` and a field is holomorphic exactly
when ``dzbar(f) == 0``.

Fields may carry an :class:`Analytic` bundle of closed-form callbacks: it
keeps value, dz, dzbar and lap, and takes du/dv and duu/dvv as input only.
Operations use the callbacks when they are present (derivatives are then
exact up to roundoff and path integrals switch to per-interval Gauss
quadrature); otherwise they fall back to second-order finite differences
(central in the interior, one-sided at the edges) and to trapezoidal
accumulation, and tolerances downstream widen from 1e-8/1e-10 to C*h^2.

Path integration has one core, ``_integrate_primitives``: k integrands
that are functions of shared inputs are integrated from one evaluation of
those inputs per Gauss node set (the u-edges and the v-edges), taken in
blocks of ``_QUAD_ROWS`` = 48 grid rows, and reduced one integrand at a
time, so each scratch array of a block holds at most 245 n_v samples
whatever n_u is, and every exact callback runs once per node set and
(u, v).  :func:`integrate_primitive` is its one-field case.  A
primitive F of E answers dz(F) with E and dzbar(F) with conj(E), one
evaluation each, and owns its accumulated samples without a copy.

This module also owns persistence, and every ASCII table (field CSVs
here, mesh vertices, faces and the x4 channel in :mod:`mtsurf.export`)
formats each number once, through one numpy text kernel:
``_float_text`` and ``_int_text`` turn a block of numbers into the exact
bytes of ``'%.17g'`` and ``'%d'`` as NUL-padded uint8 rows (the float
kernel's docstring gives its exactness argument); ``_rows`` lays text
columns side by side and drops the padding, one ``write`` per block;
``_node_blocks`` walks a grid's nodes a block at a time with the u and v
columns formatted once per axis value.  A field CSV writes an imaginary
part that is +0.0 everywhere as the literal ``0``, and the patch writer
formats each coordinate once for all of its files.  Memory stays at
block scale.  Every JSON
document (data triples, patch manifests, problem descriptors, run
manifests) goes through ``write_document``/``read_document``, and its
entries are read through ``document_entry``, which names the document
and the key of a missing or mistyped entry; field
payloads are written by ``save_payload`` and resolved only by
``load_payload``, which accepts a plain file name next to the document
and nothing else.
"""

from __future__ import annotations

import functools
import json
import math
import os
import struct
import threading
from dataclasses import asdict, dataclass

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
        return asdict(self)

    @classmethod
    def from_dict(cls, d):
        """The grid of a document's grid entry, coercing nothing: an object
        whose node counts are integers and whose bounds are numbers."""
        if not isinstance(d, dict):
            raise ValueError("grid entry must be an object, got %r" % (d,))
        missing = [k for k in cls.__dataclass_fields__ if k not in d]
        if missing:
            raise ValueError("grid entry lacks %s" % ", ".join(missing))
        for k in cls.__dataclass_fields__:
            count = k.startswith("n_")
            if isinstance(d[k], bool) or not isinstance(d[k], int if count else (int, float)):
                raise ValueError("grid entry %r must be %s, got %r"
                                 % (k, "an integer" if count else "a number", d[k]))
        return cls(**{k: d[k] for k in cls.__dataclass_fields__})


class Analytic:
    """Closed-form evaluation of a field and of its derivatives at arbitrary points.

    A bundle keeps four callbacks of broadcastable coordinate arrays
    ``(u, v)``: value, dz, dzbar and lap.  A ``(du, dv)`` pair is stored as
    dz, dzbar = (du -/+ i dv)/2 and a ``(duu, dvv)`` pair as lap = duu + dvv,
    unless dz, dzbar or lap is given itself.  ``du`` and ``dv`` return the
    complex dz + dzbar and i (dz - dzbar).  Missing quantities raise when
    requested; the ``has_*`` flags let callers pick a fallback.
    """

    def __init__(self, value=None, du=None, dv=None, dz=None, dzbar=None,
                 duu=None, dvv=None, lap=None):
        if du is not None and dv is not None:
            if dz is None:
                dz = lambda u, v: (np.asarray(du(u, v)) - 1j * np.asarray(dv(u, v))) / 2.0
            if dzbar is None:
                dzbar = lambda u, v: (np.asarray(du(u, v)) + 1j * np.asarray(dv(u, v))) / 2.0
        if lap is None and duu is not None and dvv is not None:
            lap = lambda u, v: np.asarray(duu(u, v)) + np.asarray(dvv(u, v))
        self._value = value
        self._dz = dz
        self._dzbar = dzbar
        self._lap = lap

    # capability flags ----------------------------------------------------
    @property
    def has_value(self):
        return self._value is not None

    @property
    def has_first(self):
        return self._dz is not None and self._dzbar is not None

    @property
    def has_lap(self):
        return self._lap is not None

    # evaluation ----------------------------------------------------------
    @staticmethod
    def _call(cb, name, u, v):
        if cb is None:
            raise AttributeError("no %s callback available on this Analytic" % name)
        scope = getattr(_EVAL, "scope", None)
        if scope is None:
            return np.asarray(cb(u, v))
        key = (id(cb), id(u), id(v))
        if key not in scope:                        # an entry pins what its key names
            scope[key] = (np.asarray(cb(u, v)), cb, u, v)
            scope[key][0].setflags(write=False)
        return scope[key][0]

    def value(self, u, v):
        return self._call(self._value, "value", u, v)

    def du(self, u, v):
        return self.dz(u, v) + self.dzbar(u, v)

    def dv(self, u, v):
        return 1j * (self.dz(u, v) - self.dzbar(u, v))

    def dz(self, u, v):
        return self._call(self._dz, "dz", u, v)

    def dzbar(self, u, v):
        return self._call(self._dzbar, "dzbar", u, v)

    def lap(self, u, v):
        return self._call(self._lap, "lap", u, v)


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
    def _view(cls, grid, values, analytic=None):
        """A field over ``values`` itself, not a copy of it: an array of the
        field's dtype on the grid's shape that no one writes any more, such
        as a fresh result or one row of a read-only stack.  It is made
        read-only here."""
        if values.dtype != cls._dtype or values.shape != grid.shape:
            raise ValueError("a %s view needs a %s array of shape %r, got %s %r"
                             % (cls.__name__, np.dtype(cls._dtype).name, grid.shape,
                                values.dtype, values.shape))
        values.setflags(write=False)
        fld = cls.__new__(cls)
        fld.grid = grid
        fld.values = values
        fld.analytic = analytic
        return fld

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

    ``pairs`` is a sequence of (weight, RealField) on one grid.  Each
    callback slot (value, dz, dzbar, lap) survives, as the weighted sum of
    the summands' own callbacks, only when every summand provides it, so a
    primitive among them answers dz with one evaluation of its integrand.
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
    for name in ("value", "dz", "dzbar", "lap"):
        if all(getattr(f.analytic, "_" + name, None) is not None for _, f in pairs):
            def combined(u, v, _cbs=tuple((w, getattr(f.analytic, name)) for w, f in pairs)):
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


_GAUSS_X, _GAUSS_W = np.polynomial.legendre.leggauss(5)
_EVAL = threading.local()       # .scope: the callback memo of the node set being swept

#: Grid rows per block of the Gauss edge quadrature.  A block evaluates the
#: inputs on the 5 Gauss nodes of every edge in its rows (the last block
#: also on the last row of v-edges), so each scratch array holds at most
#: (_QUAD_ROWS + 1) * 5 * n_v = 245 n_v samples however large n_u is.  48
#: rows give the same bits as 96 on every output; 32, 24 and 16 do not,
#: since numpy's SIMD loops then split the elementwise work of a block
#: differently.
_QUAD_ROWS = 48


def _row_blocks(grid):
    """(u-edge rows, v-edge rows) of each quadrature block; the last block
    also takes the last row of v-edges, so both node sets share the count."""
    last = grid.n_u - 1
    for start in range(0, last, _QUAD_ROWS):
        stop = min(start + _QUAD_ROWS, last)
        yield slice(start, stop), slice(start, stop if stop < last else grid.n_u)


def _edge_integrals_gauss(inputs, integrands, grid):
    """Per-edge Gauss integrals of a_k = 2 Re E_k (along u) and b_k = -2 Im E_k
    (along v) for k integrands, as (k, n_u-1, n_v) and (k, n_u, n_v-1) arrays.

    ``inputs(u, v)`` is evaluated once per node set of each row block and
    ``integrands[k]`` maps its arrays to E_k there; the integrands are
    reduced one at a time, so no (k, rows, 5, n_v) stack is ever built.
    Within a node set an :class:`Analytic` call returns the read-only result
    of an earlier call of its callback on the same u and v objects, if any.
    """
    au = grid.axis_u
    av = grid.axis_v
    uq = au[:-1, None] + (_GAUSS_X[None, :] + 1.0) * (grid.h_u / 2.0)   # (n_u-1, 5)
    vq = av[:-1, None] + (_GAUSS_X[None, :] + 1.0) * (grid.h_v / 2.0)   # (n_v-1, 5)
    R = np.empty((len(integrands), grid.n_u - 1, grid.n_v))
    C = np.empty((len(integrands), grid.n_u, grid.n_v - 1))
    for u_rows, v_rows in _row_blocks(grid):
        # u-edges: R[k, i, j] = integral of a_k over [u_i, u_{i+1}] at v_j;
        # v-edges: C[k, i, j] = integral of b_k over [v_j, v_{j+1}] at u_i
        for out, rows, u, v, h, sign, part, sum_q in (
                (R, u_rows, uq[u_rows, :, None], av[None, None, :],          # (rows, 5, n_v)
                 grid.h_u, 2.0, np.real, "q,iqj->ij"),
                (C, v_rows, au[v_rows, None, None], vq[None, :, :],          # (rows, n_v-1, 5)
                 grid.h_v, -2.0, np.imag, "q,ijq->ij")):
            _EVAL.scope = {}
            try:
                shared = inputs(u, v)
                for out_k, integrand in zip(out, integrands):
                    out_k[rows] = (h / 2.0) * np.einsum(
                        sum_q, _GAUSS_W, sign * part(integrand(*shared)))
                del shared              # freed before the next evaluation allocates
            finally:
                _EVAL.scope = None
    return R, C


def _edge_integrals_trapezoid(values, grid):
    a = 2.0 * np.real(values)
    b = -2.0 * np.imag(values)
    R = (grid.h_u / 2.0) * (a[:-1, :] + a[1:, :])
    C = (grid.h_v / 2.0) * (b[:, :-1] + b[:, 1:])
    return R, C


def _accumulate(R, C):
    """Primitive from the edge integrals, 0 at the origin node: along the
    first grid row, then up each column."""
    along_row = np.concatenate([[0.0], np.cumsum(R[:, 0])])             # (n_u,)
    up_columns = np.concatenate([np.zeros((C.shape[0], 1)), np.cumsum(C, axis=1)], axis=1)
    return along_row[:, None] + up_columns


def _primitive_analytic(a):
    """Callbacks of the primitive F of a field E with callbacks ``a``:
    dz F = E and dzbar F = conj E, each one evaluation of E, plus
    lap F = 4 Re dzbar E when E has a dzbar."""
    if a is None or not a.has_value:
        return None

    def f_dzbar(u, v):
        return np.conj(a.value(u, v))

    lap_cb = None
    if a._dzbar is not None:
        def lap_cb(u, v):
            return 4.0 * np.real(a.dzbar(u, v))

    return Analytic(dz=a.value, dzbar=f_dzbar, lap=lap_cb)


def _coordinates(u, v):
    return u, v


def _integrate_primitives(fields, inputs=None, integrands=None):
    """Real primitives F_k with dz(F_k) = E_k of k complex fields on one grid,
    each anchored to F_k = 0 at the origin node, from one edge quadrature.

    Each F_k accumulates the edge integrals of 2 Re(E_k dz) first along the
    first grid row, then up the columns.  Edge integrals use 5-point Gauss
    quadrature in blocks of ``_QUAD_ROWS`` grid rows when exact callbacks
    exist, trapezoid on the samples otherwise:

    - with ``inputs``, E_k at the Gauss nodes is ``integrands[k](*inputs(u,
      v))``; ``inputs`` is evaluated once per node set and block and its
      arrays are shared by all k integrands;
    - without, each field's own value callback gives E_k when every field
      has one (this is :func:`integrate_primitive`, k = 1).

    Returns one :class:`PathIntegralResult` per field.  A primitive keeps
    exact first-derivative callbacks (see ``_primitive_analytic``) when its
    field has a value callback.
    """
    fields = tuple(fields)
    if not fields:
        raise ValueError("no field to integrate")
    grid = fields[0].grid
    if any(f.grid != grid for f in fields[1:]):
        raise GridMismatchError("fields to integrate live on different grids")
    if inputs is None and all(f.analytic is not None and f.analytic.has_value
                              for f in fields):
        inputs, integrands = _coordinates, [f.analytic.value for f in fields]
    if inputs is not None:
        if integrands is None or len(integrands) != len(fields):
            raise ValueError("need one integrand per field to integrate")
        R, C = _edge_integrals_gauss(inputs, integrands, grid)
    else:
        R, C = zip(*(_edge_integrals_trapezoid(f.values, grid) for f in fields))

    results = []
    for f, R_k, C_k in zip(fields, R, C):
        circ = R_k[:, :-1] + C_k[1:, :] - R_k[:, 1:] - C_k[:-1, :]
        loop_residual = float(np.max(np.abs(circ))) if circ.size else 0.0
        results.append(PathIntegralResult(
            RealField._view(grid, _accumulate(R_k, C_k), _primitive_analytic(f.analytic)),
            loop_residual))
    return results


def integrate_primitive(field):
    """Real primitive F with F_z = E, anchored to F = 0 at the origin node:
    the one-field case of :func:`_integrate_primitives`.

    Edge integrals use 5-point Gauss quadrature on the field's value
    callback, evaluated in row blocks, when it has one and trapezoid on the
    samples otherwise.  The primitive keeps exact callbacks dz F = E and
    dzbar F = conj E when the integrand had a value callback, and
    lap F = 4 Re dzbar E when it also had a dzbar.
    """
    return _integrate_primitives([field])[0]


# ---------------------------------------------------------------------------
# number text: the bytes of '%.17g' and '%d', a block of numbers at a time

#: Nodes per block of :func:`_node_blocks`, and about the rows per ``write``
#: of every ASCII writer: enough to amortise numpy's per-call cost, few
#: enough that each scratch array of a block stays within a few hundred kB.
_ROW_BLOCK = 4096

#: First line of every field CSV.
_CSV_HEADER = "u,v,re,im\n"

_LD = np.longdouble

#: Decimal exponents X of the scaled product, and for each the factor
#: 10^(16 - X) rounded to the nearest longdouble.
_X_LOW, _X_HIGH = -101, 100


def _powers_of_ten():
    """10^(16 - X) for X in [_X_LOW, _X_HIGH], each rounded to the nearest
    longdouble: its top bits m by integer division, then m 2^q assembled
    from four exact 32-bit pieces (mantissas of up to 128 bits)."""
    bits = np.finfo(_LD).nmant + 1
    pieces, scales = [], []
    for k in range(16 - _X_LOW, 16 - _X_HIGH - 1, -1):
        num, den = (10 ** k, 1) if k >= 0 else (1, 10 ** -k)
        q = num.bit_length() - den.bit_length() - bits
        if (num << max(-q, 0)) // (den << max(q, 0)) >> bits:
            q += 1
        a, b = num << max(-q, 0), den << max(q, 0)
        m = (2 * a + b) // (2 * b)
        pieces.append([(m >> shift) & 0xFFFFFFFF for shift in range(96, -1, -32)])
        scales.append(math.ldexp(1.0, q))
    pieces = np.array(pieces, dtype=np.float64).astype(_LD)
    value = pieces[:, 0]
    for piece in pieces.T[1:]:
        value = value * 2.0 ** 32 + piece
    return value * np.array(scales).astype(_LD)


#: Half-width, per unit of the scaled product, of the window around a
#: half-integer inside which its fraction does not decide the rounding
#: (see :func:`_decimal`).
_TIE_WINDOW = 1.01 * float(np.finfo(_LD).eps)


def _quad_tables():
    """The four digits "dddd" of 0..9999 as little-endian uint32 words, and
    the trailing zeros of each (4 for "0000")."""
    digits, rest = np.empty((10000, 4), np.uint8), np.arange(10000, dtype=np.int16)
    zeros, tail = np.zeros(10000, np.uint8), np.ones(10000, bool)
    for k in (3, 2, 1, 0):
        rest, digits[:, k] = np.divmod(rest, 10)
        tail &= digits[:, k] == 0
        zeros += tail
    return (digits + np.uint8(48)).view("<u4").ravel(), zeros


# One slot per character '%.17g' may print, at fixed columns: the sign; the
# "0.000" of fixed notation below 1; the 17 digits, each of the first 16
# followed by a dot slot; and "e+" or "e-" and two exponent digits.  A layout
# keeps the slots that one notation, sign and number of digits use.
_DIGIT_SLOTS = slice(6, 39, 2)
_SLOTS = np.frombuffer(b"-0.000" + b"\0." * 16 + b"\0e+-\0\0", np.uint8)
#: Notations (X + 4) * 17 + nz - 1, -4 <= X <= 16, are fixed, and
#: _FIXED + nz - 1 (+ 17 for X < 0) scientific, nz the digits left after
#: trailing zeros are stripped.
_FIXED = 21 * 17


def _layouts():
    """Slot masks (255 keeps, 0 drops): layout 2 notation + (x < 0) for each
    notation (see ``_FIXED``), and a last one that keeps nothing."""
    x = np.repeat(np.arange(-4, 17), 17)[:, None]
    nz = np.tile(np.arange(1, 18), 21)[:, None]
    j = np.arange(17)
    fixed = np.zeros((_FIXED, 44), bool)
    fixed[:, 1:3] = x < 0                                   # "0."
    fixed[:, 3:6] = (x < 0) & (j[:3] < -x - 1)              # its zeros
    fixed[:, _DIGIT_SLOTS] = j < np.where(x < 0, nz, np.maximum(nz, x + 1))
    fixed[:, 7:38:2] = (j[:16] == x) & (nz > x + 1)         # the dot after digit X
    nz = np.tile(np.arange(1, 18), 2)[:, None]
    sci = np.zeros((34, 44), bool)
    sci[:, _DIGIT_SLOTS] = j < nz
    sci[:, 7] = nz[:, 0] > 1
    sci[:, 39] = sci[:, 42:] = True
    sci[:17, 40] = sci[17:, 41] = True                      # "e+", "e-"
    table = np.repeat(np.concatenate([fixed, sci]), 2, axis=0)
    table[1::2, 0] = True                                   # "-"
    return np.concatenate([table, np.zeros((1, 44), bool)]).astype(np.uint8) * np.uint8(255)


@functools.cache
def _text_tables():
    """The kernel's tables, built on first use, so a process that writes
    no text builds none: the scale factors, the digit words and trailing
    zeros of 0..9999, and the layout masks."""
    return (_powers_of_ten(),) + _quad_tables() + (_layouts(),)


def _decimal(x):
    """The 17-digit integer D and decimal exponent X of each |x| of the
    float64 array ``x``, round(|x| 10^(16-X)) = D with 10^16 <= D < 10^17,
    and the indices of the values this fast path leaves to '%.17g' %.

    Exactness:

    * X comes from log10 |x| and T = 10^(16-X) from a table rounded to
      the nearest longdouble, so s = |x| T in longdouble carries at most
      two roundings of eps/2 each: |s - |x| 10^(16-X)| < (eps + eps^2) s;
    * D0 = trunc(s) and the fraction f = s - D0 are exact (s < 2^63, and
      f is a multiple of ulp(s) >= 2^-10, which a float64 holds), and
      D = D0 + (f > 1/2);
    * so when f is farther than 1.01 eps D from 1/2 and 10^16 < D < 10^17,
      no half-integer and no power of 10 lies between s and the exact
      product: D and X are what '%.17g' rounds |x| to.

    Left out: zeros, non-finite values, |x| outside (1e-98, 1e98), D =
    10^16 or 10^17 (powers of ten and carries into the next decade), and
    the window, which holds about 1% of other values.  Where longdouble is
    a plain double the window covers every fraction and every value is
    left out: slower, still exact.
    """
    pow10 = _text_tables()[0]
    a = np.abs(x)
    fast = (a > 1e-98) & (a < 1e98)
    a[~fast] = 1.0
    e = np.floor(np.log10(a)).astype(np.int64)
    wide = a.astype(_LD)
    s = wide * pow10[e - _X_LOW]
    d = s.astype(np.int64)
    off = np.flatnonzero((d < 10 ** 16) | (d >= 10 ** 17))       # X was one off
    if off.size:
        e[off] += np.where(d[off] < 10 ** 16, -1, 1)
        s[off] = wide[off] * pow10[e[off] - _X_LOW]
        d[off] = s[off].astype(np.int64)
    f = (s - d).astype(np.float64)
    d += f > 0.5
    return d, e, np.flatnonzero(~fast | (np.abs(f - 0.5) <= d * _TIE_WINDOW)
                                | (d <= 10 ** 16) | (d >= 10 ** 17))


def _digit_words(d):
    """The 17 digits of each D of ``d`` as five little-endian uint32 words
    (the first digit in the last byte of the first word), and how many of
    them are trailing zeros."""
    _, digits4, zeros4, _ = _text_tables()
    hi, lo = np.divmod(d, 10 ** 8)
    first, hi = np.divmod(hi, 10 ** 8)
    quads = (first,) + np.divmod(hi, 10000) + np.divmod(lo, 10000)
    words = np.empty((d.size, 5), "<u4")
    for k, quad in enumerate(quads):
        words[:, k] = digits4[quad]
    zeros = zeros4[quads[4]]
    deeper = np.flatnonzero(quads[4] == 0)
    for quad in quads[3:0:-1]:
        if not deeper.size:
            break
        zeros[deeper] += zeros4[quad[deeper]]
        deeper = deeper[quad[deeper] == 0]
    return words, zeros


def _float_text(values):
    """The text of ``'%.17g' % x`` for each float x of ``values``, as the rows
    of an (n, w) uint8 array padded with NUL bytes anywhere in a row.

    :func:`_decimal` gives the digits and exponent of most values exactly;
    the rest take one batched '%.17g' %.  '%.17g' prints the 17 digits
    without their trailing zeros, in fixed notation when -4 <= X < 17 and
    in scientific notation otherwise.  The characters fill fixed slots
    (``_SLOTS``); a table row per notation, sign and number of digits
    masks them, and a block keeps only the columns that some row uses.
    """
    _, digits4, _, layouts = _text_tables()
    x = np.ravel(np.asarray(values, dtype=np.float64))
    n = x.size
    d, e, fallback = _decimal(x)
    words, zeros = _digit_words(d)
    sci = (e < -4) | (e > 16)
    layout = 2 * (np.where(sci, _FIXED + 17 * (e < 0), 17 * (e + 4)) + 16 - zeros) + (x < 0)
    layout[fallback] = len(layouts) - 1
    text = np.empty((n, _SLOTS.size), np.uint8)
    text[:] = _SLOTS
    text[:, _DIGIT_SLOTS] = words.view(np.uint8)[:, 3:]
    if sci.any():
        text[:, 42:] = digits4[np.abs(e)].view(np.uint8).reshape(n, 4)[:, 2:]
    text &= layouts[layout]
    used = np.zeros(len(layouts), bool)
    used[layout] = True
    text = text[:, layouts[used].any(axis=0)]

    if fallback.size:
        spelled = np.array(("%.17g\n" * fallback.size % tuple(x[fallback].tolist()))
                           .encode("ascii").split(b"\n")[:-1])
        width = spelled.dtype.itemsize
        if text.shape[1] < width:
            text = np.concatenate([text, np.zeros((n, width - text.shape[1]), np.uint8)],
                                  axis=1)
        text[fallback] = 0
        text[fallback, :width] = spelled.view(np.uint8).reshape(-1, width)
    return text


def _int_text(values):
    """The text of ``'%d' % k`` for each non-negative integer k of
    ``values``, as the rows of an (n, w) uint8 array padded with leading
    NUL bytes."""
    digits4 = _text_tables()[1]
    rest = np.ravel(values).astype(np.int64)
    width = len(str(int(rest.max(initial=0))))
    digits = np.ones(rest.size, np.int64)
    for k in range(1, width):
        digits += rest >= 10 ** k
    words = np.empty((rest.size, -(-width // 4)), "<u4")
    for k in range(words.shape[1] - 1, -1, -1):
        rest, quad = np.divmod(rest, 10000)
        words[:, k] = digits4[quad]
    text = words.view(np.uint8)[:, words.shape[1] * 4 - width:]
    text[np.arange(width) < width - digits[:, None]] = 0
    return text


def _rows(*columns):
    """The bytes of the rows that put ``columns`` side by side, NUL padding
    dropped: each column is a text array of shape (..., w), leading shapes
    broadcasting, or bytes that every row repeats."""
    arrays = [np.frombuffer(c, np.uint8) if isinstance(c, bytes) else c for c in columns]
    widths = [c.shape[-1] for c in arrays]
    shape = np.broadcast_shapes(*(c.shape[:-1] for c in arrays)) + (sum(widths),)
    buf = bytearray(math.prod(shape))     # numpy fills it in place, no copy
    block = np.frombuffer(buf, np.uint8).reshape(shape)
    at = 0
    for c, w in zip(arrays, widths):
        block[..., at:at + w] = c
        at += w
    return buf.translate(None, b"\0")


def _node_blocks(grid):
    """The nodes of ``grid`` in row-major order, ``_ROW_BLOCK`` at a time:
    per block, its slice of the flattened samples and the text of its u
    and v columns.  Each axis value is formatted once, not once per node."""
    u_text = _float_text(grid.axis_u)
    v_text = _float_text(grid.axis_v)
    size = grid.n_u * grid.n_v
    for start in range(0, size, _ROW_BLOCK):
        i, j = np.divmod(np.arange(start, min(start + _ROW_BLOCK, size)), grid.n_v)
        yield slice(start, start + _ROW_BLOCK), u_text[i], v_text[j]


def _csv_text(u, v, re, im=None):
    """Field CSV rows ``u,v,re,im`` of one node block from the text of its
    columns; ``im=None`` stands for an imaginary part of +0.0 at every
    node, written as the literal ``0`` that ``%.17g`` gives it."""
    if im is None:
        return _rows(u, b",", v, b",", re, b",0\n")
    return _rows(u, b",", v, b",", re, b",", im, b"\n")


def save_field_csv(field, path):
    """Write ``u,v,re,im`` rows (u slowest), 17 significant digits, each
    number formatted once: the grid columns once per axis value, and an
    imaginary part that is +0.0 at every node as the literal ``0``."""
    re = np.ravel(np.real(field.values))
    im = np.ascontiguousarray(np.imag(field.values)).ravel()
    if not im.view(np.uint64).any():      # bit patterns: -0.0 still prints -0
        im = None
    with open(path, "wb") as fh:
        fh.write(_CSV_HEADER.encode("ascii"))
        for nodes, u, v in _node_blocks(field.grid):
            fh.write(_csv_text(u, v, _float_text(re[nodes]),
                               None if im is None else _float_text(im[nodes])))


def load_field_csv(path):
    """Inverse of :func:`save_field_csv`.

    Returns a RealField when every imaginary part is exactly zero, else a
    ComplexField.  Loaded fields carry no Analytic callbacks.  A file whose
    first line is not the ``u,v,re,im`` header is refused with a
    ValueError that names it, whatever its numeric rows hold.
    """
    with open(path, encoding="ascii", errors="replace") as fh:
        header, first = fh.readline(), fh.readline()
    if header != _CSV_HEADER:
        raise ValueError("field CSV %r starts with %r, not the header %r"
                         % (path, header[:80], _CSV_HEADER.rstrip("\n")))
    if not first:
        raise ValueError("field CSV %r holds no rows" % path)
    # numpy parses a named file faster than a Python file object
    try:
        data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    except ValueError as exc:      # a ragged or non-numeric row
        raise ValueError("field CSV %r: %s" % (path, exc)) from None
    if data.shape[1] != 4:
        raise ValueError("field CSV %r must have columns u,v,re,im" % path)
    bad = np.flatnonzero(~np.all(np.isfinite(data), axis=1))
    if bad.size:
        k = int(bad[0])
        raise ValueError("field CSV %r holds a non-finite value on line %d, node %d "
                         "in row-major order: u,v,re,im = %s" % (
                             path, k + 2, k, ",".join("%.17g" % x for x in data[k])))
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
    if np.all(data[:, 3] == 0.0):
        return RealField(grid, data[:, 2].reshape(n_u, n_v))
    # a view, not re + 1j*im: that sum turns an imaginary -0.0 into +0.0
    return ComplexField(grid, np.ascontiguousarray(data[:, 2:]).view(np.complex128)
                        .reshape(n_u, n_v))


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
    payload = np.ascontiguousarray(field.values, dtype="<c16" if is_complex else "<f8").tobytes()
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
    if kind not in (0, 1):
        raise ValueError("field binary %r has kind byte %d; expected 0 (real) "
                         "or 1 (complex)" % (path, kind))
    grid = Grid2D(u_min, u_max, v_min, v_max, n_u, n_v)
    dtype = np.dtype("<c16" if kind == 1 else "<f8")
    body = raw[_BIN_HEADER.size:]
    expected = n_u * n_v * dtype.itemsize
    if len(body) != expected:
        raise ValueError("field binary %r body holds %d bytes; a %dx%d %s grid "
                         "needs %d" % (path, len(body), n_u, n_v,
                                       "complex" if kind == 1 else "real", expected))
    vals = np.frombuffer(body, dtype=dtype).reshape(n_u, n_v)
    bad = np.argwhere(~np.isfinite(vals))
    if bad.size:
        i, j = (int(k) for k in bad[0])
        raise ValueError("field binary %r holds a non-finite sample at node (%d, %d), "
                         "(u,v)=(%.17g, %.17g)" % (path, i, j, grid.axis_u[i], grid.axis_v[j]))
    return (ComplexField if kind == 1 else RealField)(grid, vals)


# ---------------------------------------------------------------------------
# documents: JSON plus field payloads referenced by plain file name

def write_document(path, doc):
    """Write ``doc`` as indented, key-sorted, strict JSON plus a newline.

    A non-finite float has no strict JSON form, so it raises ValueError
    before anything is written; callers encode such values themselves.
    """
    text = json.dumps(doc, indent=2, sort_keys=True, allow_nan=False)
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.write(text)
        fh.write("\n")
    return path


def read_document(path, fmt, noun):
    """The JSON object at ``path``; it must declare ``"format": fmt``."""
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
    if not isinstance(doc, dict) or doc.get("format") != fmt:
        raise ValueError("not a %s: %r" % (noun, path))
    return doc


_REQUIRED = object()


def is_json_number(x):
    """Whether ``x`` is a finite JSON number: an int or a float, not a bool."""
    if isinstance(x, bool) or not isinstance(x, (int, float)):
        return False
    try:
        return math.isfinite(x)
    except OverflowError:   # an integer beyond float range
        return False


def document_entry(path, spec, key, what, kind=object, default=_REQUIRED):
    """``spec[key]`` of the document at ``path``, which must be a ``kind``
    (``float`` asks for a JSON number, see :func:`is_json_number`);
    ``default`` stands in for a missing key when given.  Otherwise a
    ValueError names the document, ``what`` (the part of the document
    ``spec`` is) and ``key``."""
    if not isinstance(spec, dict) or (key not in spec and default is _REQUIRED):
        raise ValueError("%r: %s has no %r entry" % (path, what, key))
    value = spec.get(key, default)
    if not (is_json_number(value) if kind is float else isinstance(value, kind)):
        raise ValueError("%r: %s entry %r must be a JSON %s, got %r"
                         % (path, what, key,
                            {dict: "object", float: "number"}.get(kind, kind.__name__),
                            value))
    return value


def document_grid(path, doc):
    """The :class:`Grid2D` of the ``"grid"`` entry of the document ``doc``
    read from ``path``; a ValueError names the document."""
    try:
        return Grid2D.from_dict(doc.get("grid"))
    except ValueError as exc:
        raise ValueError("%r: %s" % (path, exc)) from None


_PAYLOAD_EXT = {"csv": "csv", "binary": "fld"}


def payload_path(doc_path, tag, payload="csv"):
    """The document's ``{"file", "format"}`` entry for payload ``tag`` and
    the path it names: ``<stem>.<tag>.csv|fld`` next to the document at
    ``doc_path``."""
    if payload not in _PAYLOAD_EXT:
        raise ValueError("payload must be 'csv' or 'binary'")
    stem = os.path.splitext(os.path.basename(doc_path))[0]
    fname = "%s.%s.%s" % (stem, tag, _PAYLOAD_EXT[payload])
    return {"file": fname, "format": payload}, os.path.join(os.path.dirname(doc_path), fname)


def save_payload(field, doc_path, tag, payload="csv"):
    """Write ``field`` to the payload file :func:`payload_path` names;
    returns the document's entry and the path written."""
    ref, path = payload_path(doc_path, tag, payload)
    (save_field_csv if payload == "csv" else save_field_binary)(field, path)
    return ref, path


def load_payload(doc_path, ref, name, grid, real=False):
    """Field ``name`` of the document at ``doc_path``, read through its
    reference ``ref``: a plain file name in the document's own directory
    and a format, "csv" or "binary".  The payload must lie on ``grid``,
    and with ``real`` it must be a RealField: a CSV payload with a nonzero
    imaginary part, or a complex binary one, is refused."""
    def refuse(why):
        return ValueError("%r: field %r %s" % (doc_path, name, why))

    if not isinstance(ref, dict) or not isinstance(ref.get("file"), str):
        raise refuse("has a missing or malformed payload reference")
    fname, fmt = ref["file"], ref.get("format")
    if fname in ("", ".", "..") or "\\" in fname or os.path.basename(fname) != fname:
        raise refuse("payload %r is not a plain file name next to the document" % fname)
    if fmt not in _PAYLOAD_EXT:
        raise refuse("payload format %r is not 'csv' or 'binary'" % (fmt,))
    path = os.path.join(os.path.dirname(doc_path), fname)
    fld = load_field_csv(path) if fmt == "csv" else load_field_binary(path)
    if fld.grid != grid:
        raise GridMismatchError("%r: field %r payload grid disagrees with the "
                                "document grid" % (doc_path, name))
    if real and isinstance(fld, ComplexField):
        raise refuse("holds complex values where a real field is expected")
    return fld
