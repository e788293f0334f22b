"""Two-party communication complexity (survey §2.6, Yao [103])."""

from .._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(__name__, {
    ".complexity": (
        "complexity_report", "constant_matrix", "equality_matrix",
        "exact_complexity", "fooling_set_bound", "function_matrix",
        "greater_than_matrix", "largest_fooling_set", "log_rank_bound",
        "parity_matrix", "trivial_upper_bound",
    ),
})

__all__ = [
    "function_matrix",
    "exact_complexity",
    "largest_fooling_set",
    "fooling_set_bound",
    "log_rank_bound",
    "trivial_upper_bound",
    "complexity_report",
    "equality_matrix",
    "greater_than_matrix",
    "parity_matrix",
    "constant_matrix",
]
