"""Modulo scheduling: priorities, SMS ordering, iterative scheduler."""

from .modulo import DEFAULT_BUDGET_RATIO, modulo_schedule
from .priority import PriorityDivergenceError, PriorityMetrics, compute_metrics
from .schedule import Schedule
from .stage import StageScheduleResult, stage_schedule, total_lifetime
from .swing import assignment_order, ordering_sets, swing_order
from .verify import assert_valid, check_schedule

__all__ = [
    "DEFAULT_BUDGET_RATIO",
    "PriorityDivergenceError",
    "PriorityMetrics",
    "Schedule",
    "StageScheduleResult",
    "assert_valid",
    "assignment_order",
    "check_schedule",
    "compute_metrics",
    "modulo_schedule",
    "ordering_sets",
    "stage_schedule",
    "swing_order",
    "total_lifetime",
]
