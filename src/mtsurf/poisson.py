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
from dataclasses import dataclass

import numpy as np

from .catalog import _product
from .errors import DomainError
from .fields import (DOCUMENT_KEYS, Analytic, Grid2D, RealField, document_grid, document_part,
                     is_json_number, load_payload, read_document, save_payload, write_document)
from .tolerances import passes
from .weierstrass import WeierstrassSecond, validate_second

__all__ = [
    "PoissonProblem",
    "solve_weighted_poisson",
    "assemble_second_kind",
    "boundary_from_function",
    "named_weight",
    "named_field",
    "NAMED_WEIGHTS",
    "NAMED_FIELDS",
    "save_problem",
    "load_problem",
]

_EDGE_NAMES = DOCUMENT_KEYS["boundary edges"]
_TARGET = 1e-10


def _ring(grid, u_min, u_max, v_min, v_max):
    """The field holding the four edges (u_min / u_max along v, v_min /
    v_max along u) and zero inside; each corner takes its u-edge value."""
    values = np.zeros(grid.shape)
    values[:, 0] = v_min
    values[:, -1] = v_max
    values[0, :] = u_min
    values[-1, :] = u_max
    return RealField._view(grid, values)


def boundary_from_function(grid, fn):
    """Dirichlet data by evaluating fn(u, v) along the four edges."""
    au, av = grid.axis_u, grid.axis_v
    return _ring(grid, fn(au[0], av), fn(au[-1], av), fn(au, av[0]), fn(au, av[-1]))


@dataclass(frozen=True)
class PoissonProblem:
    """Grid, weight w, source N, Dirichlet data and residual target for M.

    The continuous statement is lap(M) = w lap(N) with M prescribed on
    the rectangle edge; discretely, lap_h(M) = w lap_h(N) at interior
    nodes with the 5-point stencil.  ``boundary`` is a field on the grid
    of which only the edge ring is read.
    """

    grid: Grid2D
    weight: RealField
    source: RealField
    boundary: RealField
    target: float = _TARGET

    def __post_init__(self):
        if any(f.grid != self.grid for f in (self.weight, self.source, self.boundary)):
            raise ValueError("weight, source and boundary must lie on the problem grid")


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


def _require_finite(values, what):
    if not np.isfinite(values).all():
        raise DomainError("the Poisson %s is not finite: float64 overflows" % what)


def solve_weighted_poisson(problem):
    """Solve lap_h(M) = w lap_h(N) with Dirichlet data; (RealField, report).

    A direct solve: starting from the boundary ring with a zero interior,
    the measured interior residual lap_h(M) - rhs is mapped through the
    inverse Laplacian by a type-I sine transform and subtracted, until the
    max-norm residual is strictly below the target (at most three solves).
    The report records the method, convergence, the number of transform
    solves as ``iterations``, the achieved max-norm residual, the effective
    target (the requested one, or the roundoff floor of the stencil if that
    is larger, with a warning) and the floor itself.  Non-convergence is
    reported, not raised; a boundary ring, right-hand side or solution
    (seen through its residual) that is not finite raises DomainError
    naming which.
    """
    # Only the solve needs scipy; importing it here keeps it out of every
    # process that never solves (generate, deform, verify).
    from scipy.fft import dstn, idstn

    grid = problem.grid
    h_u, h_v = grid.h_u, grid.h_v

    m = problem.boundary.values.copy()
    m[1:-1, 1:-1] = 0.0
    _require_finite(m, "boundary ring")
    # an overflow in the stencil is refused below by name, not warned about
    with np.errstate(over="ignore", invalid="ignore"):
        rhs = problem.weight.values[1:-1, 1:-1] * _laplacian_interior(
            problem.source.values, h_u, h_v)
        _require_finite(rhs, "right-hand side")

        # Evaluating the stencil on an O(scale) field already loses about
        # eps * scale / h^2 per direction; targets below that are noise.
        scale = max(1.0, float(np.max(np.abs(m))))
        floor = 8.0 * np.finfo(float).eps * (1.0 / h_u ** 2 + 1.0 / h_v ** 2) * scale
        target = float(problem.target)
        warned = bool(target < floor)
        effective = max(target, floor)

        eigenvalues = _laplacian_eigenvalues(grid)
        solves = 0
        while True:
            residual = _laplacian_interior(m, h_u, h_v) - rhs
            res = float(np.max(np.abs(residual)))
            _require_finite(res, "solution residual")
            if passes(res, effective, "max_below") or solves == _MAX_SOLVES:
                break
            m[1:-1, 1:-1] -= idstn(dstn(residual, type=1) / eigenvalues, type=1)
            solves += 1
    if warned:
        warnings.warn("residual target %.3e is below the stencil roundoff "
                      "floor %.3e; using the floor" % (target, floor))

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


def assemble_second_kind(holo, null_pot, boundary_height, target=_TARGET):
    """Solve for the height potential with weight Re(holo) and validate.

    ``boundary_height`` may be a callable fn(u, v), evaluated along the
    edges; a RealField or grid-shaped array, of which the edge ring is
    read; or a scalar.  Anything else is a TypeError.  ``target`` is the
    solve's max-norm residual target.  Returns (WeierstrassSecond,
    ValidationReport, solve report); the validation report localizes any
    failure of the nonvanishing tangent condition min |dz(height) -
    Re(holo) dz(null_pot)| rather than raising, since boundary data outside
    the closed-form catalog can legitimately violate it.
    """
    grid = holo.grid
    if null_pot.grid != grid:
        raise ValueError("holomorphic field and source live on different grids")
    if callable(boundary_height):
        boundary = boundary_from_function(grid, boundary_height)
    elif isinstance(boundary_height, RealField):
        boundary = boundary_height
    elif np.isscalar(boundary_height) or (isinstance(boundary_height, np.ndarray)
                                          and boundary_height.shape == grid.shape):
        boundary = RealField(grid, np.broadcast_to(boundary_height, grid.shape))
    else:
        raise TypeError("cannot interpret %r as Dirichlet boundary data"
                        % (boundary_height,))
    weight = RealField(grid, np.real(holo.values))
    height, solve_report = solve_weighted_poisson(
        PoissonProblem(grid, weight, null_pot, boundary, target))
    data = WeierstrassSecond(holo, height, null_pot,
                             provenance={"transform": "poisson-solve",
                                         "solver": solve_report})
    report = validate_second(data)
    return data, report, solve_report


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
    CSV payloads referenced from the descriptor.  The boundary is written
    as the four edges of its ring, so the edges agree at each corner.
    """
    ring = problem.boundary.values

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
        "boundary": {"kind": "edges", "edges": dict(zip(_EDGE_NAMES, (
            ring[0, :].tolist(), ring[-1, :].tolist(),
            ring[:, 0].tolist(), ring[:, -1].tolist())))},
        "options": {"target": problem.target},
    })


def _named_boundary(name, grid):
    if name not in NAMED_FIELDS:
        raise KeyError("unknown boundary %r; known: %s"
                       % (name, ", ".join(sorted(NAMED_FIELDS))))
    return boundary_from_function(grid, NAMED_FIELDS[name]()[0])


def _load_field_entry(path, entry, tag, grid, named, kinds=("named", "constant", "file")):
    """The field of the descriptor's ``tag`` entry ``entry``, of one of ``kinds``."""
    kind = entry.get("kind")
    what = "field %r" % tag
    if kind not in kinds:
        raise ValueError("%r: %s has unknown 'kind' %r" % (path, what, kind))
    document_part(path, entry, what, DOCUMENT_KEYS[kind])
    if kind == "named":
        try:
            return named(entry["name"], grid)
        except KeyError as exc:
            raise ValueError("%r: %s: %s" % (path, what, exc.args[0])) from None
    if kind == "constant":
        return RealField(grid, np.full(grid.shape, float(entry["value"])))
    if kind == "edges":
        return _load_edges(path, entry["edges"], grid)
    return load_payload(path, entry, tag, grid, True)


def _load_edges(path, edges, grid):
    """The ring field of a descriptor's four boundary ``edges``; two edges
    that meet at a corner must agree there to 1e-10 of their scale."""
    n_u, n_v = grid.shape
    values = []
    for name, want in zip(_EDGE_NAMES, (n_v, n_v, n_u, n_u)):
        edge = edges[name]
        for i, x in enumerate(edge):
            if not is_json_number(x):
                raise ValueError("%r: boundary edge %r entry %d must be a JSON "
                                 "number, got %r" % (path, name, i, x))
        if len(edge) != want:
            raise ValueError("%r: boundary edge %r has length %d, grid needs %d"
                             % (path, name, len(edge), want))
        values.append(np.array(edge, dtype=float))
    u_min, u_max, v_min, v_max = values
    scale = 1.0 + max(float(np.max(np.abs(edge))) for edge in values)
    # Python floats: a gap beyond float range is inf, not an overflow warning
    gap = max(abs(float(a) - float(b)) for a, b in (
        (u_min[0], v_min[0]), (u_min[-1], v_max[0]),
        (u_max[0], v_min[-1]), (u_max[-1], v_max[-1])))
    if gap > 1e-10 * scale:
        raise ValueError("%r: boundary edges disagree at a corner by %.3e"
                         % (path, gap))
    return _ring(grid, *values)


def _load_problem(path):
    """(:func:`load_problem` of ``path``, the descriptor it read)."""
    doc = read_document(path, "mtsurf-problem")
    grid = document_grid(path, doc)
    weight = _load_field_entry(path, doc["weight"], "weight", grid, named_weight)
    source = _load_field_entry(path, doc["source"], "source", grid, named_field)
    boundary = _load_field_entry(path, doc["boundary"], "boundary", grid, _named_boundary,
                                 ("edges", "constant", "named"))
    target = float(doc.get("options", {}).get("target", _TARGET))
    return PoissonProblem(grid, weight, source, boundary, target), doc


def load_problem(path):
    """Read a problem descriptor written by :func:`save_problem`.

    The boundary is a constant, a named field evaluated along the edges, or
    four ``edges`` lists of JSON numbers (u_min / u_max along v, v_min /
    v_max along u) that fit the grid and agree at the corners.  ``options``
    may hold ``target`` and an integer ``max_iter``, which is ignored: older
    descriptors carry one, and the direct solve has no iteration budget.
    Any key or entry that is missing, mistyped or unknown raises a
    ValueError naming the descriptor and the key.
    """
    return _load_problem(path)[0]
