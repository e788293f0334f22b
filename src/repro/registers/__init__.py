"""Shared registers and wait-free synchronization (survey §2.3).

Linearizability checking, register constructions over regular/atomic
bases, wait-free atomic snapshots, and the Herlihy consensus hierarchy.
"""

from .._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(__name__, {
    ".concurrent": ("RegisterSpace", "ScheduledOp", "run_concurrent"),
    ".herlihy": (
        "BOTTOM", "CasConsensus", "ObjectConsensusProtocol",
        "ObjectConsensusSystem", "ProgramConsensus", "QueueConsensus2",
        "RegisterConsensus", "TasConsensus2", "TasConsensus3",
        "WaitFreeVerdict", "hierarchy_table", "wait_free_verdict",
    ),
    ".history": (
        "HistoryRecorder", "Operation", "QueueSpec", "RegisterSpec",
        "SequentialSpec", "SnapshotSpec", "check_register_history",
        "is_linearizable",
    ),
    ".regular": (
        "SingleReaderMonotonic", "TwoReaderMonotonic",
        "check_seq_register_history", "inversion_history",
        "single_reader_histories", "two_reader_failure",
    ),
    ".exhaustive": (
        "RegisterSearchOutcome", "count_programs", "enumerate_programs",
        "register_consensus_certificate", "search_register_consensus",
    ),
    ".renaming": (
        "RenamingOutcome", "RenamingProtocol", "renaming_series",
        "run_renaming",
    ),
    ".snapshot": (
        "SnapshotObject", "check_snapshot_history", "initial_registers",
        "segment_name",
    ),
})

__all__ = [
    "Operation",
    "HistoryRecorder",
    "SequentialSpec",
    "RegisterSpec",
    "QueueSpec",
    "SnapshotSpec",
    "is_linearizable",
    "check_register_history",
    "RegisterSpace",
    "ScheduledOp",
    "run_concurrent",
    "SnapshotObject",
    "initial_registers",
    "segment_name",
    "check_snapshot_history",
    "inversion_history",
    "SingleReaderMonotonic",
    "TwoReaderMonotonic",
    "single_reader_histories",
    "check_seq_register_history",
    "two_reader_failure",
    "ObjectConsensusProtocol",
    "ObjectConsensusSystem",
    "WaitFreeVerdict",
    "wait_free_verdict",
    "RegisterConsensus",
    "TasConsensus2",
    "TasConsensus3",
    "QueueConsensus2",
    "CasConsensus",
    "hierarchy_table",
    "BOTTOM",
    "RenamingOutcome",
    "RenamingProtocol",
    "run_renaming",
    "renaming_series",
    "ProgramConsensus",
    "RegisterSearchOutcome",
    "enumerate_programs",
    "count_programs",
    "search_register_consensus",
    "register_consensus_certificate",
]
