"""Core formal-model layer: I/O automata, executions, exploration.

This subpackage implements the unified model Lynch's survey advocates
(§3.6): input/output automata with composition, fairness (tasks), and the
execution/trace machinery every other subsystem builds on.
"""

from .._lazy import lazy_exports

# Bound eagerly: the name is also its submodule's (see repro._lazy).
from .freeze import freeze

__getattr__, __dir__ = lazy_exports(__name__, {
    ".automaton": (
        "Action", "FunctionAutomaton", "IOAutomaton", "Signature", "State",
        "TableAutomaton",
    ),
    ".composition": ("Composition", "compose"),
    ".errors": (
        "CertificateError", "EncodingOverflow", "ExecutionError",
        "InvariantViolation", "ModelError", "ReproError",
        "SearchBudgetExceeded",
    ),
    ".execution": ("Execution", "check_execution"),
    ".exploration": (
        "ReachabilityResult", "assert_invariant", "can_reach_from",
        "check_invariant", "explore", "find_state",
        "reachable_states_satisfying",
    ),
    ".freeze": ("frozendict", "is_frozen", "thaw"),
    ".packed": (
        "IdFlags", "IdToValue", "PackedGraph", "StateInterner", "ValueTable",
    ),
    ".stategraph": ("StateGraph", "forget_state_graph", "state_graph"),
    ".indistinguishability": (
        "IndistinguishabilityChain", "View", "ViewExtractor",
        "decisions_constant_along_chain",
    ),
    ".runtime": (
        "CRASH", "DECIDE", "DECLARE", "DELIVER", "DROP", "DUPLICATE",
        "EVENT_KINDS", "HALT", "OUTPUT", "SEND", "STEP", "FaultAdversary",
        "FingerprintMismatch", "ReplayError", "SimulationRuntime", "Trace",
        "TraceEvent", "derive_seed", "replay", "spawn_rng",
    ),
    ".scheduler": (
        "FixedScheduler", "GreedyScheduler", "RandomScheduler",
        "RoundRobinScheduler", "Scheduler", "TracedExecution",
    ),
})

__all__ = [
    "Action",
    "State",
    "Signature",
    "IOAutomaton",
    "TableAutomaton",
    "FunctionAutomaton",
    "Composition",
    "compose",
    "Execution",
    "check_execution",
    "Scheduler",
    "RoundRobinScheduler",
    "RandomScheduler",
    "GreedyScheduler",
    "TracedExecution",
    "FaultAdversary",
    "SimulationRuntime",
    "Trace",
    "TraceEvent",
    "ReplayError",
    "FingerprintMismatch",
    "replay",
    "derive_seed",
    "spawn_rng",
    "SEND",
    "DELIVER",
    "DROP",
    "DUPLICATE",
    "CRASH",
    "STEP",
    "DECIDE",
    "DECLARE",
    "OUTPUT",
    "HALT",
    "EVENT_KINDS",
    "FixedScheduler",
    "explore",
    "check_invariant",
    "assert_invariant",
    "find_state",
    "reachable_states_satisfying",
    "can_reach_from",
    "ReachabilityResult",
    "StateGraph",
    "state_graph",
    "forget_state_graph",
    "freeze",
    "thaw",
    "frozendict",
    "is_frozen",
    "StateInterner",
    "PackedGraph",
    "IdFlags",
    "IdToValue",
    "ValueTable",
    "View",
    "ViewExtractor",
    "IndistinguishabilityChain",
    "decisions_constant_along_chain",
    "ReproError",
    "ModelError",
    "ExecutionError",
    "InvariantViolation",
    "SearchBudgetExceeded",
    "EncodingOverflow",
    "CertificateError",
]
