"""Topological degree of tangent fields on implicitly defined manifolds.

The package computes Brouwer degrees of vector fields on boxes, reduces
degrees of tangent fields on level sets g(x, y) = 0 to such box
degrees, converts semi-explicit DAEs into equivalent flows on their
constraint manifolds, and continues branches of forced periodic
solution pairs certified by a nonzero seed-map degree.
"""

from .continuation import (
    Branch,
    SolutionPair,
    correct,
    shooting_residual,
    trace_branch,
)
from .dae import average_wind
from .degree import (
    DegreeResult,
    DomainBox,
    ZeroRecord,
    boundary_min,
    degree_sign_sum,
    degree_winding_2d,
    find_zeros,
)
from .errors import (
    AdmissibilityError,
    CorrectorError,
    DegenerateZeroError,
    DomainEscapeError,
    DomainEvalError,
    ExpressionSyntaxError,
    IntegrationError,
    ManidegError,
    NumericError,
    ProblemError,
    ProblemFormatError,
    RegularityError,
    RootFindingError,
    UndeclaredVariableError,
)
from .expr import parse, to_source
from .fields import AmbientMap, FieldHandle
from .flow import FlowResult, flow_map, projected_step, write_trajectory_csv
from .manifold import (
    ForcedField,
    ImplicitConstraint,
    ManifoldDegreeResult,
    complete_velocity,
    implicit_solve_y,
    manifold_degree,
    multi_region_degree,
    partial2_sign,
    reduced_map,
    schur_determinant_split,
    tangency_residual,
)
from .problems import REGISTRY, Problem, format_problem, parse_problem

__version__ = "0.1.0"

__all__ = [
    "AdmissibilityError", "AmbientMap", "Branch", "CorrectorError",
    "DegenerateZeroError", "DegreeResult", "DomainBox", "DomainEscapeError",
    "DomainEvalError",
    "ExpressionSyntaxError", "FieldHandle", "FlowResult",
    "ForcedField", "ImplicitConstraint", "IntegrationError", "ManidegError",
    "ManifoldDegreeResult", "NumericError", "Problem", "ProblemError",
    "ProblemFormatError", "REGISTRY", "RegularityError", "RootFindingError",
    "SolutionPair",
    "UndeclaredVariableError", "ZeroRecord",
    "average_wind", "boundary_min",
    "complete_velocity", "correct", "degree_sign_sum",
    "degree_winding_2d", "find_zeros", "flow_map",
    "format_problem", "implicit_solve_y",
    "manifold_degree", "multi_region_degree", "parse", "parse_problem",
    "partial2_sign", "projected_step", "reduced_map",
    "schur_determinant_split",
    "shooting_residual", "tangency_residual",
    "to_source", "trace_branch", "write_trajectory_csv",
]
