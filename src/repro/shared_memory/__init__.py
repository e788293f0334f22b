"""Asynchronous shared-memory systems (survey §2.1 and §2.3 substrate).

Processes communicating through shared variables accessed by atomic
operations — the model in which the survey's earliest impossibility proofs
(Cremers–Hibbard, Burns et al., Burns–Lynch) live.
"""

from .._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(__name__, {
    ".choice_coordination": (
        "MARK", "RabinChoiceCoordination", "symmetric_deterministic_failure",
    ),
    ".kexclusion": (
        "CountingSemaphoreProcess", "KExclusionSystem",
        "counting_semaphore_system",
    ),
    ".burns_lynch": (
        "NaiveSpinLockProcess", "burns_lynch_attack", "naive_spin_lock_system",
    ),
    ".lower_bounds": (
        "CandidateVerdict", "ProtocolTable", "check_candidate",
        "cremers_hibbard_certificate", "enumerate_protocol_tables",
        "search_two_process_protocols",
    ),
    ".mutex.synthetic": ("SyntheticTasProcess",),
    ".process": ("SharedMemoryProcess",),
    ".system": (
        "SharedMemorySystem", "StarvationWitness", "find_starvation_cycle",
        "run_system",
    ),
    ".variables": (
        "BINARY_TAS", "CAS", "FETCH_AND_ADD", "READ", "SWAP", "WRITE",
        "Access", "BinaryTestAndSet", "CompareAndSwap", "FetchAndAdd",
        "Operation", "Read", "Swap", "TestAndSet", "Write", "binary_tas",
        "cas", "fetch_and_add", "read", "swap", "tas", "write",
    ),
})

__all__ = [
    "SharedMemoryProcess",
    "SharedMemorySystem",
    "StarvationWitness",
    "find_starvation_cycle",
    "run_system",
    "Access",
    "Operation",
    "Read",
    "Write",
    "TestAndSet",
    "BinaryTestAndSet",
    "FetchAndAdd",
    "CompareAndSwap",
    "Swap",
    "READ",
    "WRITE",
    "BINARY_TAS",
    "FETCH_AND_ADD",
    "CAS",
    "SWAP",
    "read",
    "write",
    "tas",
    "binary_tas",
    "cas",
    "fetch_and_add",
    "swap",
    "CountingSemaphoreProcess",
    "KExclusionSystem",
    "counting_semaphore_system",
    "ProtocolTable",
    "SyntheticTasProcess",
    "CandidateVerdict",
    "enumerate_protocol_tables",
    "search_two_process_protocols",
    "check_candidate",
    "cremers_hibbard_certificate",
    "burns_lynch_attack",
    "naive_spin_lock_system",
    "NaiveSpinLockProcess",
    "RabinChoiceCoordination",
    "symmetric_deterministic_failure",
    "MARK",
]
