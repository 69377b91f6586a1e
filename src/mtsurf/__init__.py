"""Spacelike surfaces with null mean curvature vector in R^{3,1}.

A numerical toolkit for synthesizing, deforming and verifying conformal
surface patches whose mean curvature vector is lightlike everywhere.
Generating data lives on uniform rectangular grids as scalar fields with
optional closed-form derivative callbacks; three interchangeable
representations integrate the data into patches, one-parameter
deformation families act on the data and are realized geometrically by
Lorentz rotations, and a weighted Poisson solver closes the linear
constraint coupling the two real potentials.  Every derived object
carries measured residuals instead of assumed exactness.
"""

from .catalog import (
    FIXTURE_NAMES,
    Fixture,
    fixture_by_name,
    fixture_classical,
    fixture_sigma_theta,
    fixture_two_parameter,
    recommended_bounds,
)
from .errors import (
    DomainError,
    GridMismatchError,
    InvalidDataError,
    PoleError,
)
from .fields import (
    Analytic,
    ComplexField,
    Grid2D,
    RealField,
    integrate_primitive,
    laplacian,
    lincomb_real,
    load_field_csv,
    save_field_csv,
    wirtinger_dz,
    wirtinger_dzbar,
)
from .lorentz import (
    LorentzRotation,
    complex_bilinear,
    isometry_defect,
    minkowski_inner,
    rotation,
    rotation_elliptic,
    rotation_hyperbolic,
    rotation_parabolic,
)
from .poisson import (
    PoissonProblem,
    assemble_second_kind,
    boundary_from_function,
    load_problem,
    save_problem,
    solve_weighted_poisson,
)
from .surfaces import (
    SurfacePatch,
    liu_decompose,
    mean_curvature,
    patch_from_chart,
    patch_from_samples,
    quadric_residual,
    represent_first,
    represent_second,
    represent_third,
    verify_congruence,
)
from .tolerances import EPS_IMMERSION, EPS_ZERO, PSI_CUTOFF, TOL_EXACT, fd_cap
from .weierstrass import (
    ValidationReport,
    WeierstrassFirst,
    WeierstrassSecond,
    deform_elliptic,
    deform_hyperbolic,
    deform_parabolic,
    first_to_second,
    load_data,
    save_data,
    second_to_first,
    validate_first,
    validate_second,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # grids and fields
    "Grid2D", "Analytic", "RealField", "ComplexField",
    "wirtinger_dz", "wirtinger_dzbar", "laplacian", "integrate_primitive",
    "lincomb_real", "save_field_csv", "load_field_csv",
    # Minkowski algebra
    "minkowski_inner", "complex_bilinear", "LorentzRotation",
    "rotation", "rotation_parabolic", "rotation_elliptic",
    "rotation_hyperbolic", "isometry_defect",
    # data triples
    "WeierstrassFirst", "WeierstrassSecond", "ValidationReport",
    "validate_first", "validate_second", "first_to_second", "second_to_first",
    "deform_parabolic", "deform_elliptic", "deform_hyperbolic",
    "save_data", "load_data",
    # patches
    "SurfacePatch", "represent_first", "represent_second", "represent_third",
    "patch_from_chart", "patch_from_samples", "mean_curvature", "liu_decompose",
    "verify_congruence", "quadric_residual",
    # PDE
    "PoissonProblem", "solve_weighted_poisson", "assemble_second_kind",
    "boundary_from_function",
    "save_problem", "load_problem",
    # catalog
    "Fixture", "FIXTURE_NAMES", "fixture_by_name", "fixture_sigma_theta",
    "fixture_two_parameter", "fixture_classical", "recommended_bounds",
    # tolerances and errors
    "EPS_ZERO", "EPS_IMMERSION", "TOL_EXACT", "PSI_CUTOFF", "fd_cap",
    "GridMismatchError", "DomainError", "PoleError", "InvalidDataError",
]
