"""Clocks: logical time and clock synchronization bounds (survey §2.2.6)."""

from .._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(__name__, {
    ".logical": (
        "Computation", "Event", "check_clock_condition",
        "check_vector_condition", "vector_less",
    ),
    ".sync": (
        "Algorithm", "ClockSyncRun", "corner_delay_assignments",
        "do_nothing_algorithm", "follow_zero_algorithm",
        "lundelius_lynch_algorithm", "observe", "optimal_bound",
        "run_clock_sync", "shifted_executions", "stretching_bound",
        "worst_case_skew",
    ),
})

__all__ = [
    "Event",
    "Computation",
    "check_clock_condition",
    "check_vector_condition",
    "vector_less",
    "Algorithm",
    "ClockSyncRun",
    "observe",
    "run_clock_sync",
    "lundelius_lynch_algorithm",
    "follow_zero_algorithm",
    "do_nothing_algorithm",
    "corner_delay_assignments",
    "worst_case_skew",
    "shifted_executions",
    "stretching_bound",
    "optimal_bound",
]
