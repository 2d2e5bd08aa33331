"""The paper's contribution: pre-scheduling cluster assignment."""

from .annotate import build_annotated
from .assignment import assign_clusters
from .copies import CopyPlan, CopySpec, RoutingState, plan_copies
from .driver import CompilationError, CompiledLoop, compile_loop, ii_search_bound
from .ordering import AssignmentOrder, build_assignment_order
from .prediction import predicted_copy_requests, prediction_satisfied, upper_bound
from .selection import (
    CandidateInfo,
    select,
    select_best_cluster,
    select_failure_cluster,
    select_min,
)
from .variants import (
    ALL_VARIANTS,
    HEURISTIC,
    HEURISTIC_ITERATIVE,
    NO_BROADCAST_SHARING,
    NO_PREDICTION,
    NO_SCC_FIRST,
    SIMPLE,
    SIMPLE_ITERATIVE,
    AssignmentConfig,
)

__all__ = [
    "ALL_VARIANTS",
    "AssignmentConfig",
    "AssignmentOrder",
    "CandidateInfo",
    "CompilationError",
    "CompiledLoop",
    "CopyPlan",
    "CopySpec",
    "HEURISTIC",
    "HEURISTIC_ITERATIVE",
    "NO_BROADCAST_SHARING",
    "NO_PREDICTION",
    "NO_SCC_FIRST",
    "RoutingState",
    "SIMPLE",
    "SIMPLE_ITERATIVE",
    "assign_clusters",
    "build_annotated",
    "build_assignment_order",
    "compile_loop",
    "ii_search_bound",
    "plan_copies",
    "predicted_copy_requests",
    "prediction_satisfied",
    "select",
    "select_best_cluster",
    "select_failure_cluster",
    "select_min",
    "upper_bound",
]
