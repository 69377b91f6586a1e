"""Weighted Poisson solver: produce the partner potential of a data triple.

The second-kind coupling condition lap(height) = Re(holo) lap(null_pot)
(and its third-representation analogue with weight
(-1+|g|^2)/(1+|g|^2)) is a linear constraint: given the weight and one
field, the other solves a Poisson equation.  This module closes that
equation with Dirichlet boundary data on the grid rectangle, discretizes
with the standard 5-point stencil, and solves the resulting system
directly.  The weight enters only the right-hand side, so the operator is
always the constant-coefficient Dirichlet Laplacian on a rectangle, which
a type-I discrete sine transform diagonalises exactly (Buzbee, Golub &
Nielson, SIAM J. Numer. Anal. 7, 1970).

The right-hand side uses the discrete Laplacian of the source samples
(never an analytic callback), so the discrete identity
lap_h(M) = w lap_h(N) is exactly satisfiable and the solver can be
driven to roundoff rather than to discretization error.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

from .catalog import _product
from .fields import (Analytic, Grid2D, RealField, document_entry, document_grid,
                     is_json_number, load_payload, read_document, save_payload,
                     write_document)
from .tolerances import passes
from .weierstrass import WeierstrassSecond, validate_second

__all__ = [
    "DirichletBoundary",
    "SolverOptions",
    "PoissonProblem",
    "solve_weighted_poisson",
    "assemble_second_kind",
    "boundary_from_function",
    "boundary_from_samples",
    "named_weight",
    "named_field",
    "NAMED_WEIGHTS",
    "NAMED_FIELDS",
    "save_problem",
    "load_problem",
]

_EDGE_NAMES = ("u_min", "u_max", "v_min", "v_max")


@dataclass(frozen=True)
class DirichletBoundary:
    """Values of the unknown on the four grid edges.

    u_min / u_max run along the v axis (length n_v), v_min / v_max along
    the u axis (length n_u).  The four corner nodes are covered twice;
    the duplicates must agree.
    """

    u_min: np.ndarray
    u_max: np.ndarray
    v_min: np.ndarray
    v_max: np.ndarray

    def validate(self, grid):
        n_u, n_v = grid.shape
        for name, want in (("u_min", n_v), ("u_max", n_v),
                           ("v_min", n_u), ("v_max", n_u)):
            got = len(getattr(self, name))
            if got != want:
                raise ValueError("boundary edge %s has length %d, grid needs %d"
                                 % (name, got, want))
        scale = 1.0 + max(float(np.max(np.abs(getattr(self, n))))
                          for n in _EDGE_NAMES)
        # Python floats: a gap beyond float range is inf, not an overflow warning
        corners = (
            abs(float(self.u_min[0]) - float(self.v_min[0])),
            abs(float(self.u_min[-1]) - float(self.v_max[0])),
            abs(float(self.u_max[0]) - float(self.v_min[-1])),
            abs(float(self.u_max[-1]) - float(self.v_max[-1])),
        )
        if max(corners) > 1e-10 * scale:
            raise ValueError("boundary edges disagree at a corner by %.3e"
                             % max(corners))

    def apply(self, grid):
        """Full-grid array: edges set, interior zero (corners from u-edges)."""
        m0 = np.zeros(grid.shape)
        m0[:, 0] = self.v_min
        m0[:, -1] = self.v_max
        m0[0, :] = self.u_min
        m0[-1, :] = self.u_max
        return m0

    def to_dict(self):
        return {name: [float(x) for x in getattr(self, name)]
                for name in _EDGE_NAMES}

    @classmethod
    def from_dict(cls, doc):
        """The boundary of a descriptor's edges object, coercing nothing:
        each edge must be a list of JSON numbers."""
        edges = {}
        for name in _EDGE_NAMES:
            values = doc.get(name)
            if not isinstance(values, list):
                raise ValueError("boundary edge %r must be a list of JSON numbers, "
                                 "got %r" % (name, values))
            for i, x in enumerate(values):
                if not is_json_number(x):
                    raise ValueError("boundary edge %r entry %d must be a JSON "
                                     "number, got %r" % (name, i, x))
            edges[name] = np.array(values, dtype=float)
        return cls(**edges)


def boundary_from_function(grid, fn):
    """Dirichlet data by evaluating fn(u, v) along the four edges."""
    au, av = grid.axis_u, grid.axis_v
    return DirichletBoundary(
        u_min=np.asarray(fn(au[0], av), dtype=float),
        u_max=np.asarray(fn(au[-1], av), dtype=float),
        v_min=np.asarray(fn(au, av[0]), dtype=float),
        v_max=np.asarray(fn(au, av[-1]), dtype=float),
    )


def boundary_from_samples(values):
    """Dirichlet data read off the edge ring of a full-grid array or field."""
    arr = values.values if isinstance(values, RealField) else np.asarray(values)
    return DirichletBoundary(u_min=arr[0, :].copy(), u_max=arr[-1, :].copy(),
                             v_min=arr[:, 0].copy(), v_max=arr[:, -1].copy())


@dataclass(frozen=True)
class SolverOptions:
    target: float = 1e-10


@dataclass(frozen=True)
class PoissonProblem:
    """Grid, weight w, source N, Dirichlet data for the unknown M, options.

    The continuous statement is lap(M) = w lap(N) with M prescribed on
    the rectangle edge; discretely, lap_h(M) = w lap_h(N) at interior
    nodes with the 5-point stencil.
    """

    grid: Grid2D
    weight: RealField
    source: RealField
    boundary: DirichletBoundary
    options: SolverOptions = field(default_factory=SolverOptions)

    def __post_init__(self):
        if self.weight.grid != self.grid or self.source.grid != self.grid:
            raise ValueError("weight and source must be sampled on the problem grid")
        self.boundary.validate(self.grid)


def _laplacian_interior(arr, h_u, h_v):
    """5-point discrete Laplacian at interior nodes of a full-grid array."""
    return ((arr[:-2, 1:-1] - 2.0 * arr[1:-1, 1:-1] + arr[2:, 1:-1]) / h_u ** 2
            + (arr[1:-1, :-2] - 2.0 * arr[1:-1, 1:-1] + arr[1:-1, 2:]) / h_v ** 2)


#: Transform solves per call.  The first, from zero, lands below the
#: roundoff floor; one correction removes most of what roundoff in the
#: transforms left; a third is a margin.
_MAX_SOLVES = 3


def _laplacian_eigenvalues(grid):
    """Eigenvalues of lap_h with zero Dirichlet ring in the DST-I basis."""
    n_u, n_v = grid.shape
    # 2 - 2 cos(pi k / (n - 1)), written as 4 sin^2 to keep small k exact
    lam_u = 4.0 * np.sin(0.5 * np.pi * np.arange(1, n_u - 1) / (n_u - 1)) ** 2
    lam_v = 4.0 * np.sin(0.5 * np.pi * np.arange(1, n_v - 1) / (n_v - 1)) ** 2
    return -(lam_u[:, None] / grid.h_u ** 2 + lam_v[None, :] / grid.h_v ** 2)


def solve_weighted_poisson(problem):
    """Solve lap_h(M) = w lap_h(N) with Dirichlet data; (RealField, report).

    A direct solve: starting from the boundary data, the measured interior
    residual lap_h(M) - rhs is mapped through the inverse Laplacian by a
    type-I sine transform and subtracted, until the measured max-norm
    residual meets the target (at most three solves).  The report records
    the method, convergence, the number of transform solves as
    ``iterations``, the achieved max-norm residual, the effective target
    (the requested one, or the roundoff floor of the stencil if that is
    larger, with a warning) and the floor itself.  Non-convergence is
    reported, not raised.
    """
    # Only the solve needs scipy; importing it here keeps it out of every
    # process that never solves (generate, deform, verify).
    from scipy.fft import dstn, idstn

    grid = problem.grid
    h_u, h_v = grid.h_u, grid.h_v

    m = problem.boundary.apply(grid)
    rhs = problem.weight.values[1:-1, 1:-1] * _laplacian_interior(
        problem.source.values, h_u, h_v)

    # Evaluating the stencil on an O(scale) field already loses about
    # eps * scale / h^2 per direction; targets below that are noise.
    scale = max(1.0, float(np.max(np.abs(m))))
    floor = 8.0 * np.finfo(float).eps * (1.0 / h_u ** 2 + 1.0 / h_v ** 2) * scale
    target = float(problem.options.target)
    warned = False
    if target < floor:
        warnings.warn("residual target %.3e is below the stencil roundoff "
                      "floor %.3e; using the floor" % (target, floor))
        warned = True
    effective = max(target, floor)

    eigenvalues = _laplacian_eigenvalues(grid)
    residual = _laplacian_interior(m, h_u, h_v) - rhs
    res = float(np.max(np.abs(residual)))
    solves = 0
    while res > effective and solves < _MAX_SOLVES:
        m[1:-1, 1:-1] -= idstn(dstn(residual, type=1) / eigenvalues, type=1)
        solves += 1
        residual = _laplacian_interior(m, h_u, h_v) - rhs
        res = float(np.max(np.abs(residual)))

    report = {
        "method": "dst-I",
        "converged": passes(res, effective, "max_below"),
        "iterations": solves,
        "residual_max": res,
        "target": target,
        "effective_target": effective,
        "roundoff_floor": floor,
        "floor_warning": warned,
        "unknowns": int(rhs.size),
    }
    return RealField(grid, m), report


def assemble_second_kind(holo, null_pot, boundary_height, options=None):
    """Solve for the height potential with weight Re(holo) and validate.

    ``boundary_height`` may be a DirichletBoundary, a callable fn(u, v),
    a full-grid array or RealField (edge ring is used), or a scalar.
    Returns (WeierstrassSecond, ValidationReport, solve report); the
    validation report localizes any failure of the nonvanishing tangent
    condition min |dz(height) - Re(holo) dz(null_pot)| rather than
    raising, since boundary data outside the closed-form catalog can
    legitimately violate it.
    """
    grid = holo.grid
    if null_pot.grid != grid:
        raise ValueError("holomorphic field and source live on different grids")
    boundary = _as_boundary(grid, boundary_height)
    weight = RealField(grid, np.real(holo.values))
    problem = PoissonProblem(grid, weight, null_pot, boundary,
                             options or SolverOptions())
    height, solve_report = solve_weighted_poisson(problem)
    data = WeierstrassSecond(holo, height, null_pot,
                             provenance={"transform": "poisson-solve",
                                         "solver": solve_report})
    report = validate_second(data)
    return data, report, solve_report


def _as_boundary(grid, spec):
    if isinstance(spec, DirichletBoundary):
        return spec
    if callable(spec):
        return boundary_from_function(grid, spec)
    if isinstance(spec, RealField) or (isinstance(spec, np.ndarray)
                                       and spec.shape == grid.shape):
        return boundary_from_samples(spec)
    if np.isscalar(spec):
        n_u, n_v = grid.shape
        c = float(spec)
        return DirichletBoundary(np.full(n_v, c), np.full(n_v, c),
                                 np.full(n_u, c), np.full(n_u, c))
    raise TypeError("cannot interpret %r as Dirichlet boundary data" % (spec,))


# Named analytic fields for problem descriptors and the CLI: weights that
# arise from the catalog's holomorphic fields, plus simple sources and
# boundary generators.  Each entry is c f(u) g(v) of two one-variable forms
# of the catalog's table, and calling it gives (value, du, dv, lap).

def _named(f, g, c=1.0):
    slots = _product(f, g, c)
    return lambda: (slots["value"], slots["du"], slots["dv"], slots["lap"])


NAMED_WEIGHTS = {
    "zero": _named("t", "t", 0.0),      # 0 u v: each zero keeps the sign of u v
    "one": _named("1", "1"),
    "re-exp-iz": _named("cos", "exp(-t)"),
    "tanh-u": _named("tanh", "1"),
}

NAMED_FIELDS = {
    "zero": NAMED_WEIGHTS["zero"],
    "one": NAMED_WEIGHTS["one"],
    "coord-u": _named("t", "1"),
    "exp-v-cosh-u": _named("cosh", "exp"),
    "sinh-u-sin-u": _named("sinh*sin", "1"),
}


def _sample_named(registry, what, name, grid):
    if name not in registry:
        raise KeyError("unknown %s %r; known: %s" % (what, name, ", ".join(sorted(registry))))
    value, du, dv, lap = registry[name]()
    return RealField.sample(grid, Analytic(value=value, du=du, dv=dv, lap=lap))


def named_weight(name, grid):
    return _sample_named(NAMED_WEIGHTS, "weight", name, grid)


def named_field(name, grid):
    return _sample_named(NAMED_FIELDS, "field", name, grid)


def save_problem(problem, path, weight_name=None, source_name=None):
    """Write a problem descriptor JSON next to any field payload files.

    Fields with a registry name are stored by name; others are written as
    CSV payloads referenced from the descriptor.
    """
    def field_entry(fld, name, tag):
        if name is not None:
            return {"kind": "named", "name": name}
        return dict(save_payload(fld, path, tag)[0], kind="file")

    return write_document(path, {
        "format": "mtsurf-problem",
        "version": 1,
        "grid": problem.grid.to_dict(),
        "weight": field_entry(problem.weight, weight_name, "weight"),
        "source": field_entry(problem.source, source_name, "source"),
        "boundary": {"kind": "edges", "edges": problem.boundary.to_dict()},
        "options": {"target": problem.options.target},
    })


def _load_field_entry(path, doc, tag, grid, named):
    entry = doc.get(tag)
    if not isinstance(entry, dict):
        raise ValueError("%r: field %r has no entry" % (path, tag))
    kind = entry.get("kind")
    what = "field %r" % tag
    if kind == "named":
        name = document_entry(path, entry, "name", what, str)
        try:
            return named(name, grid)
        except KeyError as exc:
            raise ValueError("%r: %s: %s" % (path, what, exc.args[0])) from None
    if kind == "constant":
        value = float(document_entry(path, entry, "value", what, float))
        return RealField(grid, np.full(grid.shape, value))
    if kind == "file":
        return load_payload(path, entry, tag, grid, real=True)
    raise ValueError("%r: %s has unknown kind %r" % (path, what, kind))


def load_problem(path):
    """Read a problem descriptor written by :func:`save_problem`.

    An ``options.max_iter`` entry is accepted and ignored: existing
    descriptors carry one, and the direct solve has no iteration budget.
    A missing entry, a grid or options entry that is not an object, a
    non-integer node count, a target, constant value or edge entry that
    is not a JSON number, or an unknown named field raises a ValueError
    naming the descriptor and the key.
    """
    doc = read_document(path, "mtsurf-problem", "problem descriptor")
    grid = document_grid(path, doc)
    weight = _load_field_entry(path, doc, "weight", grid, named_weight)
    source = _load_field_entry(path, doc, "source", grid, named_field)
    bspec = document_entry(path, doc, "boundary", "the descriptor")
    kind = document_entry(path, bspec, "kind", "boundary")
    if kind == "edges":
        edges = document_entry(path, bspec, "edges", "boundary")
        for name in _EDGE_NAMES:
            document_entry(path, edges, name, "boundary edges")
        try:
            boundary = DirichletBoundary.from_dict(edges)
        except ValueError as exc:
            raise ValueError("%r: %s" % (path, exc)) from None
    elif kind == "constant":
        boundary = _as_boundary(
            grid, float(document_entry(path, bspec, "value", "boundary", float)))
    elif kind == "named":
        name = document_entry(path, bspec, "name", "boundary", str)
        if name not in NAMED_FIELDS:
            raise ValueError("%r: unknown boundary %r; known: %s"
                             % (path, name, ", ".join(sorted(NAMED_FIELDS))))
        boundary = boundary_from_function(grid, NAMED_FIELDS[name]()[0])
    else:
        raise ValueError("%r: boundary has unknown kind %r" % (path, kind))
    opts = document_entry(path, doc, "options", "the descriptor", dict, {})
    options = SolverOptions(
        target=float(document_entry(path, opts, "target", "options", float, 1e-10)))
    return PoissonProblem(grid, weight, source, boundary, options)
