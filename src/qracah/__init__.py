"""Numerical realization of a tridiagonal generator pair, its polynomial
transition matrices, and the Bethe-root description of its spectra."""

from .qnum import QBase, phi43, qnumber, qpoch
from .model import (
    GenericityError,
    ModelParams,
    Spectrum,
    StructureConstants,
    spectrum,
    structure_constants,
    validate_genericity,
)
from .leonard import (
    COEFF_KINDS,
    GAUGE_THETA,
    GAUGE_THETA_STAR,
    EigenFamily,
    TridiagonalRealization,
    build,
    coeff,
    eigen_family,
    verify_aw,
    verify_cayley_hamilton,
)
from .transition import (
    TransitionData,
    build_transition,
    normalizers,
    orthogonality_residuals,
    racah_by_recurrence,
    racah_from_scalar_products,
    racah_matrix,
    verify_recurrences,
)
from .bethe import (
    HOM_KINDS,
    INHOM_KINDS,
    KINDS,
    BetheSolution,
    BetheSystem,
    CoverageEntry,
    CoverageReport,
    PoleError,
    SolverConfig,
    coverage,
    dual_eigenvalue_functional,
    eigenvalue_from_roots,
    hom_eigenvalue_functional,
    residual,
    solve,
    symmetrize_roots,
    sweep,
)

__version__ = "0.1.0"

__all__ = [
    "QBase", "phi43", "qnumber", "qpoch",
    "GenericityError", "ModelParams", "Spectrum", "StructureConstants",
    "spectrum", "structure_constants", "validate_genericity",
    "COEFF_KINDS", "GAUGE_THETA", "GAUGE_THETA_STAR", "EigenFamily",
    "TridiagonalRealization", "build", "coeff", "eigen_family",
    "verify_aw", "verify_cayley_hamilton",
    "TransitionData", "build_transition", "normalizers",
    "orthogonality_residuals", "racah_by_recurrence",
    "racah_from_scalar_products", "racah_matrix", "verify_recurrences",
    "HOM_KINDS", "INHOM_KINDS", "KINDS", "BetheSolution", "BetheSystem",
    "CoverageEntry", "CoverageReport", "PoleError", "SolverConfig",
    "coverage", "dual_eigenvalue_functional", "eigenvalue_from_roots",
    "hom_eigenvalue_functional", "residual", "solve", "sweep",
    "symmetrize_roots",
    "__version__",
]
