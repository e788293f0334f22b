"""Computing in rings and other networks (survey §2.4).

Ring simulators (async and sync), the leader election algorithm zoo,
the anonymous-ring symmetry argument, symmetric-ring message bounds and
general-graph edge bounds.
"""

from .._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(__name__, {
    ".anonymous": (
        "AnonymousProtocol", "ItaiRodehProcess", "MaxTokenProtocol",
        "SilentProtocol", "SymmetryTrace", "itai_rodeh_election",
        "run_lockstep", "symmetry_certificate",
    ),
    ".general_graphs": (
        "GraphElectionResult", "edge_involvement_series", "flooding_election",
        "hidden_node_demonstration",
    ),
    ".hs": ("HSProcess", "hs_election"),
    ".lcr": (
        "LCRProcess", "best_case_ring", "lcr_election", "worst_case_ring",
    ),
    ".lower_bounds": (
        "bit_reversal_ring", "message_series", "n_log_n",
        "order_equivalent_rotations", "order_equivalent_segments",
        "ring_election_certificate",
    ),
    ".simulator": (
        "LEFT", "RIGHT", "RingProcess", "RingResult", "SyncRingProcess",
        "run_async_ring", "run_sync_ring",
    ),
    ".timeslice": ("TimeSliceProcess", "timeslice_election"),
})

__all__ = [
    "RingProcess",
    "SyncRingProcess",
    "RingResult",
    "run_async_ring",
    "run_sync_ring",
    "LEFT",
    "RIGHT",
    "LCRProcess",
    "lcr_election",
    "worst_case_ring",
    "best_case_ring",
    "HSProcess",
    "hs_election",
    "TimeSliceProcess",
    "timeslice_election",
    "AnonymousProtocol",
    "MaxTokenProtocol",
    "SilentProtocol",
    "SymmetryTrace",
    "run_lockstep",
    "symmetry_certificate",
    "ItaiRodehProcess",
    "itai_rodeh_election",
    "bit_reversal_ring",
    "order_equivalent_segments",
    "order_equivalent_rotations",
    "message_series",
    "n_log_n",
    "ring_election_certificate",
    "flooding_election",
    "GraphElectionResult",
    "edge_involvement_series",
    "hidden_node_demonstration",
]
