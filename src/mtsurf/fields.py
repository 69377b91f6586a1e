"""Uniform rectangular grids, scalar fields and Wirtinger calculus.

Conventions
-----------
Sample arrays are indexed ``[i, j]`` with ``i`` running along u (axis 0)
and ``j`` along v (axis 1).  The Wirtinger operators are

    dz(f)    = (f_u - i f_v) / 2
    dzbar(f) = (f_u + i f_v) / 2

so ``laplacian(f) == 4 * dz(dzbar(f))`` and a field is holomorphic exactly
when ``dzbar(f) == 0``.

Every field carries an :class:`Analytic` bundle of closed-form callbacks,
empty when it has none: it keeps value, dz, dzbar and lap, and takes du/dv
as input only, as dz and dzbar.  One function, ``_from_partials``, gives
(f_u -/+ i f_v)/2 its bits, from a bundle's partials or from finite
differences.  Operations use the callbacks when they are present
(derivatives are then exact up to roundoff and path integrals switch to
per-interval Gauss quadrature); otherwise they fall back to second-order
finite differences (central in the interior, one-sided at the edges) and
to trapezoidal accumulation, and tolerances downstream widen from
1e-8/1e-10 to C*h^2.

Path integration has one core, ``_integrate_primitives``: k fields are
integrated from their value callbacks on each Gauss node set (the u-edges
and the v-edges), taken in blocks of ``_QUAD_ROWS`` = 48 grid rows, and
reduced one field at a time, so each scratch array of a block holds at
most 245 n_v samples whatever n_u is.  Each node set memoises the closed
forms those callbacks call, so every exact callback runs once per node
set and (u, v).  :func:`integrate_primitive` is its one-field case.  A
primitive F of E answers dz(F) with E and dzbar(F) with conj(E), one
evaluation each, and owns its accumulated samples without a copy.
Inside a :class:`deferred_sweeps` scope an exact primitive waits for the
next Gauss sweep on its grid, which integrates it with its own fields;
what waits on it, such as a loop gate, runs right after that sweep.  A
read of its samples before then sweeps it alone, and so does the scope's
close for one still unswept.

This module also owns persistence, and every ASCII table (field CSVs
here, mesh vertices, faces and the x4 channel in :mod:`mtsurf.export`)
formats each number once, through one numpy text kernel:
``_float_text`` and ``_int_text`` turn a block of numbers into the exact
bytes of ``'%.17g'`` and ``'%d'`` as NUL-padded uint8 rows (the float
kernel's docstring gives its exactness argument), both splitting integers
into 4-digit groups by ``_quads``; ``_rows`` lays text columns side by side
and drops the padding, one ``write`` per block.  Each grid has one text
table, ``_prefix_tables``, the ``'%.17g,'`` of its axis values, that
``_csv_text`` lays out for the writers and ``_read_canonical`` compares,
and one block walk, ``_node_blocks``, for both.  A field CSV writes an
imaginary part that is +0.0 everywhere as the literal ``0``, and the patch
writer formats each coordinate once for all of its files.  Memory stays at
block scale.  Every JSON document is written by ``write_document``.  Data
triples, patch manifests and problem descriptors are read only through
``read_document``, the one JSON parse, which refuses a repeated key and
NaN or Infinity.  ``DOCUMENT_KEYS``, the one typed document table, gives
the keys each part may and must hold and the JSON type of each, and
``document_part`` checks a part against its row, so a loader only indexes
what it reads and checks its values' domains.  Field payloads are written by
``save_payload`` and resolved only by ``load_payload``, which accepts a plain
file name next to the document and nothing else.  A field CSV on a known
grid is read back by the inverse of the text kernel, ``_read_canonical``,
when its bytes are the writer's layout (see :func:`load_field_csv`).
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

from .errors import DomainError, GridMismatchError

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
        for k in DOCUMENT_KEYS["grid"]:
            try:
                value = (int if k.startswith("n_") else float)(getattr(self, k))
            except OverflowError:       # an integer bound too large for a float, or n = inf
                raise ValueError("grid %s lies beyond the float range" % k) from None
            object.__setattr__(self, k, value)
        if not np.all(np.isfinite([self.u_min, self.u_max, self.v_min, self.v_max])):
            raise ValueError("grid bounds must be finite")
        if not (self.u_min < self.u_max and self.v_min < self.v_max):
            raise ValueError("grid bounds must satisfy u_min < u_max and v_min < v_max")
        if self.n_u < 3 or self.n_v < 3:
            raise ValueError("grids need at least 3 nodes per direction")
        for axis, low, high, n in (("u", self.u_min, self.u_max, self.n_u),
                                   ("v", self.v_min, self.v_max, self.n_v)):
            if not math.isfinite(high - low):
                raise ValueError("grid span %s_max - %s_min = %r - %r overflows the float range"
                                 % (axis, axis, high, low))
            # np.linspace rounds node i, low + i*h, to within a few ulps of the
            # bounds, so a step of 8 ulps keeps nodes distinct; past 2**63 nodes
            # the step is under that whatever the bounds (past 2**1024, no float)
            ulp = math.ulp(max(abs(low), abs(high)))
            if n > 2 ** 63 or (high - low) / (n - 1) < 8.0 * ulp:
                raise ValueError("grid nodes along %s would repeat: the step (%r - %r) / (n_%s"
                                 " - 1) is under 8 ulps of its bounds (ulp %r)"
                                 % (axis, high, low, axis, ulp))

    @property
    def h_u(self):
        return (self.u_max - self.u_min) / (self.n_u - 1)

    @property
    def h_v(self):
        return (self.v_max - self.v_min) / (self.n_v - 1)

    @property
    def shape(self):
        return (self.n_u, self.n_v)

    @functools.cached_property
    def axis_u(self):
        return _axis(self.u_min, self.u_max, self.n_u)

    @functools.cached_property
    def axis_v(self):
        return _axis(self.v_min, self.v_max, self.n_v)

    @property
    def origin(self):
        return (self.u_min, self.v_min)

    def mesh(self):
        """Node coordinate arrays (U, V), each of shape (n_u, n_v)."""
        return np.meshgrid(self.axis_u, self.axis_v, indexing="ij")

    def on_nodes(self, cb):
        """``cb`` at the nodes as a read-only array of ``shape``: one call on
        an (n_u, 1) column of u and a (1, n_v) row of v, so a closed form
        built from one-variable factors evaluates each once per axis value."""
        return np.broadcast_to(cb(self.axis_u[:, None], self.axis_v[None, :]), self.shape)

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
        of its row of ``DOCUMENT_KEYS`` (see :func:`document_part`)."""
        return cls(**document_part(None, d, "grid", DOCUMENT_KEYS["grid"]))


def _axis(low, high, n):
    """The n node values of one grid axis, read-only: a grid computes each
    axis once and shares it."""
    axis = np.linspace(low, high, n)
    axis.setflags(write=False)
    return axis


class Analytic:
    """Closed-form evaluation of a field and of its derivatives at arbitrary points.

    A bundle keeps four callbacks of broadcastable coordinate arrays
    ``(u, v)``: value, dz, dzbar and lap.  A ``(du, dv)`` pair is stored as
    dz, dzbar = (du -/+ i dv)/2, in those bits (see ``_from_partials``),
    unless dz or dzbar is given itself; in a node set each partial runs
    once, whichever of dz and dzbar read it.  ``du`` and ``dv`` return the
    complex dz + dzbar and i (dz - dzbar).  Missing quantities raise when
    requested; the ``has_*`` flags let callers pick a fallback.  A bundle
    without callbacks is empty and false.

    On grid nodes a callback receives an (n_u, 1) column of u and a (1, n_v)
    row of v (see :meth:`Grid2D.on_nodes`); in a Gauss sweep it receives
    that sweep's tensor-product node sets.  Its result must broadcast to the
    grid shape.  Write a closed form as products of one-variable factors, as
    e^{iz} = e^{iu} e^{-v} is written, so each factor runs once per axis
    value rather than once per node.
    """

    def __init__(self, value=None, du=None, dv=None, dz=None, dzbar=None, lap=None):
        if du is not None and dv is not None:
            def partials(u, v):
                return self._call(du, "du", u, v), self._call(dv, "dv", u, v)
            if dz is None:
                dz = lambda u, v: _from_partials(*partials(u, v), np.subtract)
            if dzbar is None:
                dzbar = lambda u, v: _from_partials(*partials(u, v), np.add)
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

    def __bool__(self):
        return any(cb is not None for cb in (self._value, self._dz, self._dzbar, self._lap))

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


def _from_partials(du, dv, op):
    """``op(du, 1j dv) / 2`` in its bits: dz with np.subtract, dzbar with np.add.
    Of float64 partials it is one array (du/2, -/+ dv/2) wherever du and dv
    are finite and nonzero, where the complex arithmetic adds only zeros that
    flip no sign; the formula runs on the other nodes and other dtypes."""
    du, dv = np.asarray(du), np.asarray(dv)
    if du.dtype != np.float64 or dv.dtype != np.float64:
        return op(du, 1j * dv) / 2.0
    out = np.empty(np.broadcast_shapes(du.shape, dv.shape), dtype=complex)
    np.multiply(du, 0.5, out=out.real)
    np.multiply(dv, 0.5 if op is np.add else -0.5, out=out.imag)
    odd = ~(np.isfinite(du) & np.isfinite(dv) & (du != 0.0) & (dv != 0.0))
    if odd.any():
        du, dv = np.broadcast_to(du, out.shape)[odd], np.broadcast_to(dv, out.shape)[odd]
        out[odd] = op(du, 1j * dv) / 2.0
    return out


class _Field:
    """Immutable samples on a grid plus an Analytic bundle, empty by default."""

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
        self.analytic = analytic or Analytic()

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
        fld.analytic = analytic or Analytic()
        return fld

    @classmethod
    def _later(cls, grid, settle, analytic):
        """A field with its callbacks now and its samples later: the first
        read of ``values`` calls ``settle()``, which hands them to ``_settle``
        unless a sweep has done so already."""
        fld = cls.__new__(cls)
        fld.grid = grid
        fld.analytic = analytic
        fld._pending = settle
        return fld

    def _settle(self, values):
        """Give a field from ``_later`` its samples, as ``_view`` takes them."""
        values.setflags(write=False)
        self.__dict__.pop("_pending", None)
        self.values = values

    def __getattr__(self, name):
        # only a field from _later lacks ``values``, until it is read
        settle = self.__dict__.get("_pending") if name == "values" else None
        if settle is None:
            raise AttributeError("%r object has no attribute %r" % (type(self).__name__, name))
        settle()
        return self.values

    @classmethod
    def sample(cls, grid, analytic):
        """Sample the closed form on the grid nodes and keep the callbacks.
        A sample that is not finite, such as a cosh that overflows on a far
        grid, raises DomainError naming the field's kind, the node and the
        grid's bounds."""
        with np.errstate(over="ignore", invalid="ignore"):
            values = grid.on_nodes(analytic.value)
        if not np.isfinite(values).all():
            i, j = np.argwhere(~np.isfinite(values))[0]
            raise DomainError("%s closed form is %s at (u,v)=(%.17g, %.17g) on the grid "
                              "[%r, %r] x [%r, %r]" % (cls.__name__, values[i, j],
                                                       grid.axis_u[i], grid.axis_v[j],
                                                       grid.u_min, grid.u_max,
                                                       grid.v_min, grid.v_max))
        return cls(grid, values, analytic)

    def __repr__(self):
        return "%s(%dx%d on [%g,%g]x[%g,%g]%s)" % (
            type(self).__name__, self.grid.n_u, self.grid.n_v,
            self.grid.u_min, self.grid.u_max, self.grid.v_min, self.grid.v_max,
            ", analytic" if self.analytic else "")


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
    if values.shape[axis] < 4:
        raise ValueError("finite-difference second derivatives need at least 4 nodes "
                         "along %s; the grid has %d" % ("uv"[axis], values.shape[axis]))
    values = np.moveaxis(values, axis, 0)
    out = np.empty_like(values)
    out[1:-1] = values[2:] - 2.0 * values[1:-1] + values[:-2]
    out[0] = 2.0 * values[0] - 5.0 * values[1] + 4.0 * values[2] - values[3]
    out[-1] = 2.0 * values[-1] - 5.0 * values[-2] + 4.0 * values[-3] - values[-4]
    out /= h * h
    return np.moveaxis(out, 0, axis)


def _wirtinger(field, slot, combine):
    """combine(f_u, i f_v)/2 as a ComplexField, or the ``slot`` callback
    (dz or dzbar) on the nodes when the field has first derivatives.  The
    finite-difference partials go through ``_from_partials``, the one bit
    rule a (du, dv) bundle's callbacks use too."""
    grid = field.grid
    if field.analytic.has_first:
        cb = getattr(field.analytic, slot)
        return ComplexField(grid, grid.on_nodes(cb), Analytic(value=cb))
    return ComplexField._view(grid, _from_partials(_fd_first(field.values, grid.h_u, 0),
                                                   _fd_first(field.values, grid.h_v, 1),
                                                   combine))


def wirtinger_dz(field):
    """(f_u - i f_v)/2 as a ComplexField; exact when callbacks are available."""
    return _wirtinger(field, "dz", np.subtract)


def wirtinger_dzbar(field):
    """(f_u + i f_v)/2 as a ComplexField; exact when callbacks are available."""
    return _wirtinger(field, "dzbar", np.add)


def laplacian(field):
    """f_uu + f_vv of the same kind as ``field``.

    With callbacks the result is exact everywhere.  The finite-difference
    fallback uses the five-point stencil in the interior and one-sided
    second-order formulas on the boundary ring; boundary entries are not
    trusted by the validators, which take norms over the interior only.
    """
    grid = field.grid
    a = field.analytic
    if a.has_lap:
        return type(field)(grid, grid.on_nodes(a.lap), Analytic(value=a.lap))
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
    Sums start from the first term, so c f keeps the sign of f's zeros.
    A sum of deferred primitives (see :class:`deferred_sweeps`) is summed
    on its first read.
    """
    pairs = [(float(w), f) for w, f in pairs]
    if not pairs:
        raise ValueError("lincomb_real needs at least one summand")
    grid = pairs[0][1].grid
    for _, f in pairs[1:]:
        if f.grid != grid:
            raise GridMismatchError("lincomb_real summands live on different grids")
    def combine():
        return functools.reduce(np.add, (w * f.values for w, f in pairs))

    slots = {}
    for name in ("value", "dz", "dzbar", "lap"):
        if all(getattr(f.analytic, "_" + name) is not None for _, f in pairs):
            def combined(u, v, _cbs=tuple((w, getattr(f.analytic, name)) for w, f in pairs)):
                return functools.reduce(np.add, (w * cb(u, v) for w, cb in _cbs))
            slots[name] = combined
    if any("_pending" in vars(f) for _, f in pairs):      # a deferred summand's samples
        fld = RealField._later(grid, lambda: fld._settle(combine()), Analytic(**slots))
        return fld
    return RealField(grid, combine(), Analytic(**slots))


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
_EVAL = threading.local()       # .scope: the callback memo of the node set being swept;
                                # .deferred: the unswept primitives of a deferral scope


class deferred_sweeps:
    """The deferral scope of a run whose integrated potentials meet a later
    sweep on their grid (``mtsurf deform``).  Inside it,
    :func:`integrate_primitive` of a field with a value callback returns a
    ``_Pending`` primitive: its callbacks at once, its samples and loop
    residual from the next Gauss sweep of :func:`_integrate_primitives` on
    its grid, or from a sweep of its own if they are read first.  What
    :func:`_when_swept` queues on it (a loop gate, the provenance of its
    residual) runs right after that sweep.  One still unswept when the scope
    closes, normally or on an error, is swept then, so its gate's error
    takes precedence as if it had been eager.  Outside the scope every
    integration is eager."""

    def __enter__(self):
        self._outer = getattr(_EVAL, "deferred", None)
        _EVAL.deferred = []
        return self

    def __exit__(self, exc_type, exc, tb):
        queue, _EVAL.deferred = _EVAL.deferred, self._outer
        if exc_type is None or issubclass(exc_type, Exception):
            while queue:
                queue[0]()


class _Pending:
    """A deferred primitive of ``integrand``, waiting in ``queue``: ``field``
    has the callbacks of :func:`_primitive_analytic` and, once swept, the
    samples; reading them or ``loop_residual`` first sweeps it alone."""

    def __init__(self, integrand, queue):
        self.integrand = integrand
        self.field = RealField._later(integrand.grid, self,
                                      _primitive_analytic(integrand.analytic))
        self.after = []         # callbacks to run once swept, in order
        self._queue = queue
        self._loop_residual = None
        queue.append(self)

    @property
    def loop_residual(self):
        self.field.values
        return self._loop_residual

    def __call__(self):
        if self in self._queue:
            self._queue.remove(self)
        _settle_pending([self], _sweep([self.integrand]))


def _settle_pending(pending, results):
    """Hand each pending primitive its swept result, then run what was queued
    on each, primitive by primitive."""
    for p, r in zip(pending, results):
        p.field._settle(r.field.values)
        p._loop_residual = r.loop_residual
    for p in pending:
        after, p.after = p.after, None      # run once; a gate's cycle through p ends
        for callback in after:
            callback()


def _when_swept(fld, callback):
    """Run ``callback()`` once ``fld`` has its samples: right after its sweep
    when it is a deferred primitive, now otherwise (a deferred sum of such
    primitives is read, so that its summands are swept first)."""
    settle = vars(fld).get("_pending")
    if isinstance(settle, _Pending):
        settle.after.append(callback)
        return
    fld.values
    callback()


#: Grid rows per block of the Gauss edge quadrature.  A block evaluates the
#: integrands on the 5 Gauss nodes of every edge in its rows (the last block
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


def _edge_integrals_gauss(values, grid):
    """Per-edge Gauss integrals of a_k = 2 Re E_k (along u) and b_k = -2 Im E_k
    (along v) for k fields, as (k, n_u-1, n_v) and (k, n_u, n_v-1) arrays.

    The value callback ``values[k](u, v)`` gives E_k on the node set of
    each row block, reduced before the next is evaluated.  Within a node set
    an :class:`Analytic` call returns the read-only result of an earlier
    call of its callback on the same u and v objects; a raw callback
    bypasses that memo, so it keeps no E_k that nothing else reads.
    """
    au = grid.axis_u
    av = grid.axis_v
    uq = au[:-1, None] + (_GAUSS_X[None, :] + 1.0) * (grid.h_u / 2.0)   # (n_u-1, 5)
    vq = av[:-1, None] + (_GAUSS_X[None, :] + 1.0) * (grid.h_v / 2.0)   # (n_v-1, 5)
    R = np.empty((len(values), grid.n_u - 1, grid.n_v))
    C = np.empty((len(values), grid.n_u, grid.n_v - 1))
    for u_rows, v_rows in _row_blocks(grid):
        # u-edges: R[k, i, j] = integral of a_k over [u_i, u_{i+1}] at v_j;
        # v-edges: C[k, i, j] = integral of b_k over [v_j, v_{j+1}] at u_i
        for out, rows, u, v, h, sign, part, sum_q in (
                (R, u_rows, uq[u_rows, :, None], av[None, None, :],          # (rows, 5, n_v)
                 grid.h_u, 2.0, np.real, "q,iqj->ij"),
                (C, v_rows, au[v_rows, None, None], vq[None, :, :],          # (rows, n_v-1, 5)
                 grid.h_v, -2.0, np.imag, "q,ijq->ij")):
            _EVAL.scope = {}
            # sign * part(E) fills one contiguous scratch array: einsum's sum
            # order follows its operand's strides, so the strided part(E)
            # view, with sign folded into the weights, would change bits
            scratch = np.empty(np.broadcast_shapes(u.shape, v.shape))
            try:
                for out_k, value in zip(out, values):
                    term = part(value(u, v))
                    buf = scratch if term.shape == scratch.shape else None
                    term = np.multiply(sign, term, out=buf)
                    out_k[rows] = (h / 2.0) * np.einsum(sum_q, _GAUSS_W, term)
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
    if not a.has_value:
        return Analytic()
    lap = None
    if a._dzbar is not None:
        def lap(u, v):
            return 4.0 * np.real(a.dzbar(u, v))
    return Analytic(dz=a.value, dzbar=lambda u, v: np.conj(a.value(u, v)), lap=lap)


def _integrate_primitives(fields):
    """Real primitives F_k with dz(F_k) = E_k of k complex fields on one grid,
    each anchored to F_k = 0 at the origin node, from one edge quadrature.

    Each F_k accumulates the edge integrals of 2 Re(E_k dz) first along the
    first grid row, then up the columns.  Edge integrals use 5-point Gauss
    quadrature of each field's own value callback in blocks of
    ``_QUAD_ROWS`` grid rows when every field has one (see
    ``_edge_integrals_gauss``), the trapezoid rule on the samples otherwise.
    A Gauss sweep also integrates the primitives deferred on its grid (see
    :class:`deferred_sweeps`), and settles them before it returns.

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
    pending = []
    if all(f.analytic.has_value for f in fields):
        queue = getattr(_EVAL, "deferred", None) or []
        pending = [p for p in queue if p.field.grid == grid]
        for p in pending:
            queue.remove(p)
    results = _sweep([p.integrand for p in pending] + list(fields), len(pending))
    _settle_pending(pending, results)
    return results[len(pending):]


def _sweep(fields, memoised=0):
    """The one edge quadrature of :func:`_integrate_primitives`, of exactly
    ``fields``.  The first ``memoised`` fields' values go through the node
    set's memo, where the dz callbacks of their primitives, which the other
    fields' callbacks call, find them."""
    grid = fields[0].grid
    if all(f.analytic.has_value for f in fields):
        R, C = _edge_integrals_gauss([f.analytic.value if k < memoised else f.analytic._value
                                      for k, f in enumerate(fields)], grid)
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
    the one-field case of :func:`_integrate_primitives`.  F keeps exact
    callbacks dz F = E and dzbar F = conj E when E has a value callback,
    and lap F = 4 Re dzbar E when it also has a dzbar.  Inside a
    :class:`deferred_sweeps` scope such an E gives a ``_Pending``, which
    answers ``field`` and ``loop_residual`` as a result does.
    """
    queue = getattr(_EVAL, "deferred", None)
    if queue is not None and field.analytic.has_value:
        return _Pending(field, queue)
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
_DIGIT_SLOTS = np.isin(np.arange(44), np.arange(6, 39, 2))
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


def _quads(values, count):
    """The ``count`` 4-digit groups of each integer >= 0 of the int64 array
    ``values``, most significant first, the first holding the digits left;
    ``//`` and a multiply-subtract take half the time of np.divmod on int64."""
    quads = [values]
    for _ in range(count - 1):
        high = quads[0] // 10000
        quads[:1] = high, quads[0] - high * 10000
    return quads


def _digit_words(d):
    """The 17 digits of each D of ``d`` as five little-endian uint32 words
    (the first digit in the last byte of the first word), and how many of
    them are trailing zeros."""
    _, digits4, zeros4, _ = _text_tables()
    quads = _quads(d, 5)
    words = np.stack([digits4[quad] for quad in quads], axis=1)
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
    the rest take '%.17g' %.  '%.17g' prints the 17 digits
    without their trailing zeros, in fixed notation when -4 <= X < 17 and
    in scientific notation otherwise.  The characters fill fixed slots
    (``_SLOTS``); a table row per notation, sign and number of digits
    masks them; a block fills only the slots that some row of it uses.
    """
    _, digits4, _, layouts = _text_tables()
    x = np.ravel(np.asarray(values, dtype=np.float64))
    d, e, fallback = _decimal(x)
    words, zeros = _digit_words(d)
    sci = (e < -4) | (e > 16)
    layout = 2 * (np.where(sci, _FIXED + 17 * (e < 0), 17 * (e + 4)) + 16 - zeros) + (x < 0)
    layout[fallback] = len(layouts) - 1                     # keeps no slot
    spelled = np.array([b"%.17g" % v for v in x[fallback].tolist()], "S")
    slots = np.flatnonzero(layouts[np.bincount(layout, minlength=len(layouts)) > 0].any(axis=0))
    text = np.zeros((x.size, max(slots.size, spelled.itemsize)), np.uint8)
    fill = text[:, :slots.size]                             # the rest: room for the fallback
    fill[:] = _SLOTS[slots]
    digit = _DIGIT_SLOTS[slots]                             # slot 6 + 2k: byte 3 + k
    fill[:, digit] = words.view(np.uint8)[:, slots[digit] // 2]
    if sci.any():
        fill[:, slots >= 42] = (digits4[np.abs(e)].view(np.uint8).reshape(-1, 4)
                                [:, slots[slots >= 42] - 40])
    fill &= np.take(layouts[:, slots], layout, axis=0)
    text[fallback, :spelled.itemsize] = spelled.view(np.uint8).reshape(-1, spelled.itemsize)
    return text


def _int_text(values):
    """The text of ``'%d' % k`` for each non-negative integer k of
    ``values``, as the rows of an (n, w) uint8 array padded with leading
    NUL bytes."""
    digits4 = _text_tables()[1]
    values = np.ravel(values).astype(np.int64)
    width = len(str(int(values.max(initial=0))))
    digits = 1 + np.searchsorted(10 ** np.arange(1, width), values, side="right")
    words = np.stack([digits4[quad] for quad in _quads(values, -(-width // 4))], axis=1)
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


def _axis_text(axis):
    """``'%.17g,'`` of each value of ``axis`` as uint8 rows, NUL-padded at
    the end to a multiple of eight bytes; the masks of their text bytes, as
    little-endian words; and their lengths; all read-only."""
    text = np.array([b"%.17g," % x for x in axis.tolist()], "S32")
    text = text.view(np.uint8).reshape(axis.size, -1)
    length = np.count_nonzero(text, axis=1)
    text = np.ascontiguousarray(text[:, :8 * -(-length.max() // 8)])
    tables = text, (np.uint8(255) * (text != 0)).view("<u8"), length
    for table in tables:
        table.setflags(write=False)
    return tables


@functools.lru_cache(maxsize=8)
def _prefix_tables(grid):
    """:func:`_axis_text` of both axes of ``grid``: the one spelling of the
    ``u,`` and ``v,`` columns of a field CSV, built once per grid for every
    payload written or read on it, and read-only, as they all share it."""
    return _axis_text(grid.axis_u), _axis_text(grid.axis_v)


def _node_blocks(grid):
    """The nodes of ``grid`` in row-major order, ``_ROW_BLOCK`` at a time:
    per block, its slice of the flattened samples and its nodes' (i, j)."""
    size = grid.n_u * grid.n_v
    for start in range(0, size, _ROW_BLOCK):
        k = np.arange(start, min(start + _ROW_BLOCK, size))
        i = k // grid.n_v
        yield slice(start, start + k.size), i, k - i * grid.n_v


def _csv_text(grid, i, j, re, im=None):
    """Field CSV rows ``u,v,re,im`` of the nodes (i, j) of a block of
    ``grid`` from the text of their values, the u and v columns from the
    grid's axis tables (:func:`_prefix_tables`); ``im=None`` stands for an
    imaginary part of +0.0 at every node, written as the literal ``0`` that
    ``%.17g`` gives it."""
    (u, _, _), (v, _, _) = _prefix_tables(grid)
    u, v = np.take(u, i, axis=0), np.take(v, j, axis=0)
    if im is None:
        return _rows(u, v, re, b",0\n")
    return _rows(u, v, re, b",", im, b"\n")


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
        for nodes, i, j in _node_blocks(field.grid):
            fh.write(_csv_text(field.grid, i, j, _float_text(re[nodes]),
                               None if im is None else _float_text(im[nodes])))


# ---------------------------------------------------------------------------
# number text read back: the field CSV layout above, a block of rows at a time

#: Whether a longdouble division decides the rounding of a 17-digit decimal
#: (x87 or quad longdouble).  Where it is a plain double the canonical
#: reader is off and every field CSV takes the np.loadtxt route.
_LD_EXACT = np.finfo(_LD).nmant >= 63

#: Bytes of the window a number token is read through, three words of
#: eight digits; '%.17g' in fixed notation writes at most 23.
_TOKEN = 24
#: Zero bytes kept before and after the file, so every window of a token
#: or of an axis value ('%.17g,' is at most 25 bytes) lies inside.
_PAD = 32
#: ``_LEAD[g]`` keeps the bytes of a window after its first g, as words.
_LEAD = (np.uint8(255) * (np.arange(_TOKEN) >= np.arange(_TOKEN + 1)[:, None])
         .astype(np.uint8)).view("<u8")
#: At index p + 1, 10^p, the divisor that splits off the p digits after a
#: dot; where 10^p passes 2^64, and at index 0 (no dot), 2^64 - 1, which
#: leaves a mantissa (below 10^18) whole.
_DIV10 = np.array([2 ** 64 - 1] + [10 ** p if p < 20 else 2 ** 64 - 1 for p in range(_TOKEN)],
                  np.uint64)
#: At index p + 1, 10^p as longdoubles, built by products that are exact up
#: to 10^27 (a token of ``_TOKEN`` bytes has p <= 23); at index 0, 1.
_L10 = np.cumprod([_LD(1), _LD(1)] + [_LD(10)] * (_TOKEN - 1))
#: The bytes of a token that is handed to float(), as np.loadtxt would parse
#: it: digits, '.', an exponent and signs; anything else leaves the file to
#: np.loadtxt.
_FLOAT_BYTES = frozenset(b"0123456789.eE+-")


def _read_numbers(buf, start, stop):
    """The float64 values of the number tokens ``buf[start:stop]``, one per
    pair of indices into the uint8 array ``buf``, or None when a token is
    not a finite number that float() reads.

    A token ``[-]digits[.digits]`` of at most ``_TOKEN`` bytes is m / 10^p,
    m the integer of its digits and p the digits after the dot.  m comes
    from integer digit arithmetic, eight digits per word (Lemire, "Number
    parsing at a gigabyte per second", 2021), and one longdouble division
    gives the quotient exactly (after Clinger, "How to read floating point
    numbers accurately", PLDI 1990): for every m < 10^18 and p <= 23, m and
    10^p are exact longdoubles, so their quotient q carries one rounding,
    at most eps/2 = 2^-64 of q (x87; less for quad).  The double d nearest
    q is then the double nearest m / 10^p unless a half-way point between
    doubles lies between them, which needs q within 2^-64 q of the half-way
    point on its side of d.  q - d is exact (Sterbenz), and so is its
    conversion to double on x87 (on quad its error is below 2^-106 q), so a
    token whose q lies within 2^-62 q of that half-way point is left out
    (a zero token, q = 0, is exact and kept).

    The rest (scientific notation, the tie window, more digits, any other
    spelling) go to float(), the correctly rounded conversion np.loadtxt
    also makes, when their bytes are ``_FLOAT_BYTES``.
    """
    size = start.size
    width = stop - start
    neg = buf[start] == 45                                    # '-'
    text = _gather(buf, stop - _TOKEN, _TOKEN)
    text -= np.uint8(48)                                      # digits become 0..9
    words = text.view("<u8")
    words &= np.take(_LEAD, np.clip(_TOKEN - width + neg, 0, _TOKEN), axis=0)
    odd = np.flatnonzero(text > 9)            # the dot and any other non-digit byte
    row, flat = odd // _TOKEN, text.reshape(-1)
    p = np.zeros(size, np.intp)
    p[row] = _TOKEN - (odd - row * _TOKEN)    # 1 + the digits after the dot; 0 without
    slow = (width > _TOKEN) | (width - neg <= (p > 0))
    slow[row[flat[odd] != np.uint8(ord(".") - 48 + 256)]] = True    # not a dot
    slow[row[1:][row[1:] == row[:-1]]] = True                       # a second one
    flat[odd] = 0

    # eight digits per little-endian word, the first in the lowest byte
    w = words * np.uint64(10) + (words >> np.uint64(8))
    lanes = np.uint64(0x000000FF000000FF)
    w = ((w & lanes) * np.uint64(100 + (1000000 << 32))
         + ((w >> np.uint64(16)) & lanes) * np.uint64(1 + (10000 << 32))) >> np.uint64(32)
    slow |= w[:, 0] >= 100                  # the digits reach 10^18
    m = w[:, 0] * np.uint64(10 ** 16) + w[:, 1] * np.uint64(10 ** 8) + w[:, 2]
    # the dot, read as a 0, put the digits before it one place too high:
    # m = (m' + 9 (m' mod 10^p)) / 10; without a dot the divisor 2^64 - 1
    # leaves m' whole, and the same steps give m = m'
    m += np.uint64(9) * (m % np.take(_DIV10, p))
    m //= np.uint64(10)

    q = m.astype(_LD) / np.take(_L10, p)
    x = q.astype(np.float64)
    off = (q - x).astype(np.float64)
    # half the gap to the next double on the side of q: ulp/2, or ulp/4
    # below a power of two
    bits = x.view(np.int64)
    half = (bits & 0x7FF0000000000000).view(np.float64) * 2.0 ** -53
    half[(off < 0) & ((bits & 0xFFFFFFFFFFFFF) == 0)] *= 0.5
    slow |= half - np.abs(off) < x * 2.0 ** -62
    np.negative(x, out=x, where=neg)
    for k in np.flatnonzero(slow).tolist():
        token = buf[start[k]:stop[k]].tobytes()
        if not _FLOAT_BYTES.issuperset(token):
            return None
        try:
            x[k] = float(token)
        except ValueError:
            return None
        if not math.isfinite(x[k]):
            return None
    return x


def _gather(buf, at, width):
    """The windows ``buf[k:k + width]`` of the uint8 array ``buf`` for each
    k of ``at``, as the rows of a new array: each window moves as one item
    of a ``width``-byte view, not as ``width`` bytes."""
    items = np.ndarray((buf.size - width + 1,), "V%d" % width, buf, 0, (1,))
    return items[at].view(np.uint8).reshape(-1, width)


def _read_canonical(path, grid):
    """The field of the CSV at ``path`` when its bytes are those that
    :func:`save_field_csv` writes on ``grid``, up to the spelling of the
    numbers in its ``re`` and ``im`` columns; None otherwise.

    The rows are found by their newlines, and their number must be
    n_u n_v before anything sized by the grid is built.  Then, a block of
    ``_ROW_BLOCK`` rows at a time, each row's ``u,v,`` prefix must equal
    ``'%.17g,'`` of its grid values byte for byte, and the ``re`` column is
    read by :func:`_read_numbers`, with ``im`` too unless every row of the
    block ends in the literal ``,0``.
    """
    with open(path, "rb") as fh:
        size = os.fstat(fh.fileno()).st_size
        buf = np.empty(size + 2 * _PAD, np.uint8)
        buf[:_PAD] = buf[-_PAD:] = 0
        if fh.readinto(buf[_PAD:_PAD + size]) != size:
            return None
    n = grid.n_u * grid.n_v
    ends = np.flatnonzero(buf == 10)        # of the header and of each row
    if (buf[_PAD:_PAD + len(_CSV_HEADER)].tobytes() != _CSV_HEADER.encode("ascii")
            or ends.size != n + 1 or ends[-1] != _PAD + size - 1):
        return None
    (u_text, u_mask, u_len), (v_text, v_mask, v_len) = _prefix_tables(grid)
    re, im = np.empty(n), None
    for nodes, i, j in _node_blocks(grid):
        start, end = ends[nodes] + 1, ends[nodes.start + 1:nodes.stop + 1]
        v_start = start + np.take(u_len, i)
        for text, mask, at, k in ((u_text, u_mask, start, i), (v_text, v_mask, v_start, j)):
            found = _gather(buf, at, text.shape[1]).view("<u8")
            found ^= np.take(text, k, axis=0).view("<u8")
            if (found & np.take(mask, k, axis=0)).any():
                return None
        if (buf[end - 2] == 44).all() and (buf[end - 1] == 48).all():   # ",0"
            comma = end - 2
        else:
            # three commas a row: the first of row k must be the 3k-th
            commas = np.flatnonzero(buf[start[0]:end[-1]] == 44) + start[0]
            if commas.size != 3 * start.size or (commas[::3] != v_start - 1).any():
                return None
            comma = commas[2::3]
            values = _read_numbers(buf, comma + 1, end)
            if values is None:
                return None
            if im is None:
                im = np.zeros(n)
            im[nodes] = values
        values = _read_numbers(buf, v_start + np.take(v_len, j), comma)
        if values is None:
            return None
        re[nodes] = values
    if im is None or not im.any():
        return RealField._view(grid, re.reshape(grid.shape))
    values = np.empty(grid.shape, np.complex128)
    values.real, values.imag = re.reshape(grid.shape), im.reshape(grid.shape)
    return ComplexField._view(grid, values)


def load_field_csv(path, grid=None):
    """Inverse of :func:`save_field_csv`.

    Returns a RealField when every imaginary part is exactly zero, else a
    ComplexField.  Loaded fields carry no Analytic callbacks.  A file whose
    first line is not the ``u,v,re,im`` header is refused with a
    ValueError that names it, whatever its numeric rows hold.

    Given the ``grid`` the file should lie on, a file in the writer's
    layout for that grid is read by :func:`_read_canonical`: the rows are
    counted before anything grid-sized is built, the ``u,v,`` prefixes are
    compared byte for byte, and only the ``re`` and ``im`` tokens are
    converted, exactly (see :func:`_read_numbers`).  Every other file, and
    every file where longdouble is a plain double, takes the np.loadtxt
    route, which infers the grid from the u and v columns: same values,
    same errors.
    """
    if grid is not None and _LD_EXACT:
        fld = _read_canonical(path, grid)
        if fld is not None:
            return fld
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
    if not np.isfinite(data).all():
        k = int(np.flatnonzero(~np.isfinite(data).all(axis=1))[0])
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
    scale = max(abs(grid.u_max - grid.u_min), abs(grid.v_max - grid.v_min))
    if (np.max(np.abs(U - grid.axis_u[:, None])) > 1e-12 * scale
            or np.max(np.abs(V - grid.axis_v)) > 1e-12 * scale):
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
        raise ValueError("%r is not a field binary file (bad magic)" % (path,))
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


#: The keys each part of a document may hold (run manifests are never read),
#: each with the JSON type of its value ("string", "integer", "number",
#: "object", "list", or the name of the row an object value must match in
#: turn); "?" marks a key that may be absent.
DOCUMENT_KEYS = {
    "mtsurf-data": {"format": "string", "version": "integer?", "kind": "string", "grid": "grid",
                    "fields": "object", "provenance": "object?"},
    "mtsurf-patch": {"format": "string", "version": "integer?", "grid": "grid",
                     "fields": "object", "invariants": "object?", "provenance": "object?"},
    "mtsurf-problem": {"format": "string", "version": "integer?", "grid": "grid",
                       "weight": "object", "source": "object", "boundary": "object",
                       "options": "options?"},
    "grid": {"u_min": "number", "u_max": "number", "v_min": "number", "v_max": "number",
             "n_u": "integer", "n_v": "integer"},
    "payload": {"file": "string", "format": "string"},
    "named": {"kind": "string", "name": "string"},
    "constant": {"kind": "string", "value": "number"},
    "edges": {"kind": "string", "edges": "boundary edges"},
    "file": {"kind": "string", "file": "string", "format": "string"},
    "options": {"max_iter": "integer?", "target": "number?"},
    "boundary edges": {"u_min": "list", "u_max": "list", "v_min": "list", "v_max": "list"},
    "fixture parameters": {"theta": "number?", "alpha": "number?", "beta": "number?"},
}

#: Each format's noun; errors about its entries call it "the <last word>".
_FORMATS = {"mtsurf-data": "data document", "mtsurf-patch": "patch manifest",
            "mtsurf-problem": "problem descriptor"}


def is_json_number(x):
    """Whether ``x`` is a finite JSON number: an int or a float, not a bool."""
    if isinstance(x, bool) or not isinstance(x, (int, float)):
        return False
    try:
        return math.isfinite(x)
    except OverflowError:   # an integer beyond float range
        return False


def document_part(path, part, what, row):
    """``part``, the part ``what`` of the document at ``path`` (None outside a
    document), once it is an object of the keys of ``row``, a row of
    ``DOCUMENT_KEYS``, that holds each required key and each value of its
    JSON type (exactly, so an integer is never a bool; a number is finite); a
    value whose type names a row is checked against that row, as the part of
    its name.  Otherwise a ValueError names the document, the part and the key."""
    where = what if path is None else "%r: %s" % (path, what)
    if not isinstance(part, dict):
        raise ValueError("%s must be a JSON object, got %r" % (where, part))
    for key, kind in row.items():
        if key not in part and not kind.endswith("?"):
            raise ValueError("%s has no %r entry" % (where, key))
    for key, value in part.items():
        if key not in row:
            raise ValueError("%s has unknown key %r; known: %s" % (where, key, ", ".join(row)))
        kind = row[key].rstrip("?")
        cls = {"string": str, "integer": int, "number": float, "list": list}.get(kind, dict)
        if not (is_json_number(value) if cls is float else type(value) is cls):
            noun = "finite number" if cls is float else "object" if cls is dict else kind
            raise ValueError("%s entry %r must be a JSON %s, got %r" % (where, key, noun, value))
        if kind in DOCUMENT_KEYS:
            document_part(path, value, kind, DOCUMENT_KEYS[kind])
    return part


def read_document(path, *formats):
    """The JSON object at ``path``, of one of ``formats`` (the one JSON parse),
    once it is strict JSON (no key twice in an object, no NaN or Infinity) of
    its format's row of ``DOCUMENT_KEYS`` (see :func:`document_part`) and
    version 1, if any; else (also for a file that is not UTF-8 JSON at all) a
    ValueError names the document and the key."""
    def unique(pairs):
        obj = {}
        for key, value in pairs:
            if key in obj:
                raise ValueError("%r: key %r appears twice in one object" % (path, key))
            obj[key] = value
        return obj

    def constant(literal):
        raise ValueError("%r: %s is not strict JSON" % (path, literal))

    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh, object_pairs_hook=unique, parse_constant=constant)
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise ValueError("%r: not a UTF-8 JSON document: %s" % (path, exc)) from None
    if not isinstance(doc, dict) or doc.get("format") not in formats:
        nouns = " nor of a ".join(_FORMATS[f] for f in formats)
        raise ValueError("%r: its 'format' is %s that of a %s"
                         % (path, "neither" if len(formats) > 1 else "not", nouns))
    what = "the " + _FORMATS[doc["format"]].split()[1]
    document_part(path, doc, what, DOCUMENT_KEYS[doc["format"]])
    if doc.get("version", 1) != 1:
        raise ValueError("%r: %s entry 'version' must be the JSON integer 1, got %r"
                         % (path, what, doc["version"]))
    return doc


def document_grid(path, doc):
    """The :class:`Grid2D` of the ``"grid"`` entry of the document ``doc``
    read from ``path``; a ValueError names the document."""
    try:
        return Grid2D.from_dict(doc["grid"])
    except ValueError as exc:
        raise ValueError("%r: %s" % (path, exc)) from None


def document_fields(path, doc, names, real=()):
    """The fields ``names`` of the document ``doc`` read from ``path``, on its
    grid, through its ``fields`` object of these payload references (see
    :func:`load_payload`) and no other; a name in ``real`` must be real."""
    grid = document_grid(path, doc)
    refs = document_part(path, doc["fields"], "fields", dict.fromkeys(names, "object"))
    return [load_payload(path, document_part(path, refs[name], "field %r reference" % name,
                                             DOCUMENT_KEYS["payload"]), name, grid, name in real)
            for name in names]


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
    reference ``ref``, already checked against its row of ``DOCUMENT_KEYS``:
    its file is a plain name in the document's directory and its format
    "csv" or "binary".  The name must stay in
    that directory once symlinks are resolved, so a link elsewhere is refused.
    The payload must lie on ``grid``, and with ``real`` it must be a
    RealField: a CSV payload with a nonzero imaginary part, or a complex
    binary one, is refused, and so is a payload its reader refuses, by the
    document, the field and the reader's message.  A CSV payload is read
    with ``grid`` known, so the writer's layout takes the exact canonical
    reader and anything else np.loadtxt (see :func:`load_field_csv`)."""
    def refuse(why):
        return ValueError("%r: field %r %s" % (doc_path, name, why))

    fname, fmt = ref["file"], ref["format"]
    if fname in ("", ".", "..") or "\\" in fname or os.path.basename(fname) != fname:
        raise refuse("payload %r is not a plain file name next to the document" % fname)
    if fmt not in _PAYLOAD_EXT:
        raise refuse("payload format %r is not 'csv' or 'binary'" % (fmt,))
    folder = os.path.dirname(doc_path)
    path = os.path.join(folder, fname)
    resolved, home = os.path.realpath(path), os.path.realpath(folder)
    if os.path.dirname(resolved) != home:
        raise refuse("payload %r resolves to %r, outside the document's directory %r"
                     % (fname, resolved, home))
    try:
        fld = load_field_csv(path, grid) if fmt == "csv" else load_field_binary(path)
    except ValueError as exc:
        raise refuse("payload: %s" % exc) from None
    if fld.grid != grid:
        raise GridMismatchError("%r: field %r payload grid disagrees with the "
                                "document grid" % (doc_path, name))
    if real and isinstance(fld, ComplexField):
        raise refuse("holds complex values where a real field is expected")
    return fld
