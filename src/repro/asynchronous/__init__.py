"""Asynchronous message-passing systems (survey §2.2.4, §2.2.6).

The FLP model and its valency analysis, the Two Generals chain argument,
the sessions time bound, and network synchronizers.  The escapes from FLP
(Ben-Or's coins, partial synchrony) live in :mod:`repro.circumvention`.
"""

from .._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(__name__, {
    ".flp": (
        "ALL_CANDIDATES", "FirstMessageWins", "FLPReport", "QuorumVote",
        "WaitForAll", "flp_analysis", "flp_certificate",
    ),
    ".network": ("NULL", "START", "AsyncConsensusSystem", "AsyncProtocol"),
    ".sessions": (
        "SessionsOutcome", "ring_diameter", "run_async_sessions",
        "run_sync_sessions", "stretching_lower_bound",
    ),
    ".synchronizer": (
        "SynchronizerOutcome", "run_alpha_synchronizer",
        "run_beta_synchronizer", "tradeoff_comparison",
    ),
    ".global_snapshot": (
        "SnapshotOutcome", "conservation_series", "run_token_snapshot",
    ),
    ".termination": (
        "TerminationResult", "message_bound_series", "run_dijkstra_scholten",
    ),
    ".tasks": (
        "DecisionTask", "SolvabilityVerdict", "analyze_task",
        "binary_consensus_task", "decision_graph", "epsilon_agreement_task",
        "identity_task", "input_graph", "leader_task",
        "moran_wolfstahl_certificate",
    ),
    ".two_generals": (
        "ATTACK", "RETREAT", "HandshakeProtocol", "RecklessProtocol",
        "TimidProtocol", "TwoGeneralsProtocol", "TwoGeneralsRun",
        "delivery_chain", "run_with_losses", "two_generals_certificate",
        "validate_chain_links",
    ),
})

__all__ = [
    "AsyncProtocol",
    "AsyncConsensusSystem",
    "NULL",
    "START",
    "WaitForAll",
    "FirstMessageWins",
    "QuorumVote",
    "ALL_CANDIDATES",
    "FLPReport",
    "flp_analysis",
    "flp_certificate",
    "TwoGeneralsProtocol",
    "TwoGeneralsRun",
    "HandshakeProtocol",
    "TimidProtocol",
    "RecklessProtocol",
    "ATTACK",
    "RETREAT",
    "run_with_losses",
    "delivery_chain",
    "validate_chain_links",
    "two_generals_certificate",
    "SessionsOutcome",
    "run_sync_sessions",
    "run_async_sessions",
    "stretching_lower_bound",
    "ring_diameter",
    "SynchronizerOutcome",
    "run_alpha_synchronizer",
    "run_beta_synchronizer",
    "tradeoff_comparison",
    "DecisionTask",
    "SolvabilityVerdict",
    "analyze_task",
    "input_graph",
    "decision_graph",
    "binary_consensus_task",
    "leader_task",
    "identity_task",
    "epsilon_agreement_task",
    "moran_wolfstahl_certificate",
    "TerminationResult",
    "run_dijkstra_scholten",
    "message_bound_series",
    "SnapshotOutcome",
    "run_token_snapshot",
    "conservation_series",
]
