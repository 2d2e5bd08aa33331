"""Baseline schedulers and the retained slow-reference pipeline."""

from .bug_list import AcyclicResult, bug_list_schedule
from .reference_assignment import (
    ReferencePools,
    ReferenceRoutingState,
    reference_assign_clusters,
    reference_build_annotated,
)
from .reference_pipeline import (
    ReferenceCompilation,
    ReferenceCompilationError,
    ReferenceMrt,
    reference_assignment_order,
    reference_compile_loop,
    reference_compute_metrics,
    reference_find_sccs,
    reference_mii,
    reference_modulo_schedule,
    reference_rec_mii,
    reference_rec_mii_of_subgraph,
)

__all__ = [
    "AcyclicResult",
    "bug_list_schedule",
    "ReferenceCompilation",
    "ReferenceCompilationError",
    "ReferenceMrt",
    "ReferencePools",
    "ReferenceRoutingState",
    "reference_assign_clusters",
    "reference_assignment_order",
    "reference_build_annotated",
    "reference_compile_loop",
    "reference_compute_metrics",
    "reference_find_sccs",
    "reference_mii",
    "reference_modulo_schedule",
    "reference_rec_mii",
    "reference_rec_mii_of_subgraph",
]
