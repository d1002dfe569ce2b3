"""Exact symbolic calculus for sub-Riemannian Lie groups.

Structure-constant Lie algebras with rational coefficients, BCH group
products on nilpotent groups in exponential coordinates, polynomial
sub-Laplacians and their transformation behaviour under group maps, frame
equivalence decisions, and the symplectic-spectrum classification of
Heisenberg sub-Laplacians.
"""

from .algebra import (InvalidAlgebra, LieAlgebra, Metric, NotStratifiable, Polarization,
                      SubRiemannianGroup, ValidationReport, bracket_generating,
                      nilpotency_step, stratify, subriemannian_group, validate)
from .calculus import (NotNilpotent, bch_product, dilation, dynkin_terms,
                       group_product_map, left_invariant_field,
                       horizontal_differential, left_translation,
                       left_translation_jacobian, lie_derivative,
                       lie_differential, right_translation)
from .catalog import abelian_group, engel_algebra, engel_group, sl2_algebra
from .conformal import (CommutationReport, FrameDecision, NotConformal,
                        ProbeBudgetExceeded, analyze_commutation, b_vector,
                        commutation_residuals, frames_equivalent,
                        homothetic_characterizations, is_homothetic_projection)
from .heisenberg import (NoIsometry, SymplecticForm, SymplecticSpectrum,
                         build_isometry, heisenberg_algebra, heisenberg_group,
                         heisenberg_pair, isometry_decision, operator_a,
                         standard_symplectic, symplectic_spectrum)
from .operators import (Cometric, DifferentialOperator, PullbackOperator,
                        cometric, divergence, frame_components, gradient,
                        pullback_operator, sublaplacian)
from .polynomial import Polynomial, PolyMap, PolyVectorField
from .rational import Rat, rat

__version__ = "0.1.0"

__all__ = [
    "InvalidAlgebra", "LieAlgebra", "Metric", "NotStratifiable", "Polarization",
    "SubRiemannianGroup", "ValidationReport", "bracket_generating",
    "nilpotency_step", "stratify", "subriemannian_group", "validate",
    "NotNilpotent", "bch_product", "dilation", "dynkin_terms",
    "group_product_map", "horizontal_differential", "left_invariant_field",
    "left_translation",
    "left_translation_jacobian", "lie_derivative", "lie_differential",
    "right_translation",
    "abelian_group", "engel_algebra", "engel_group", "sl2_algebra",
    "CommutationReport", "FrameDecision", "NotConformal", "ProbeBudgetExceeded",
    "analyze_commutation", "b_vector", "commutation_residuals",
    "frames_equivalent", "homothetic_characterizations",
    "is_homothetic_projection",
    "NoIsometry", "SymplecticForm", "SymplecticSpectrum", "build_isometry",
    "heisenberg_algebra", "heisenberg_group",
    "heisenberg_pair", "isometry_decision", "operator_a",
    "standard_symplectic", "symplectic_spectrum",
    "Cometric", "DifferentialOperator", "PullbackOperator", "cometric",
    "divergence", "frame_components", "gradient", "pullback_operator",
    "sublaplacian",
    "Polynomial", "PolyMap", "PolyVectorField", "Rat", "rat",
]
