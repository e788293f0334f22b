"""repro: executable models and mechanized impossibility proofs.

A reproduction of Nancy Lynch's PODC 1989 keynote survey *"A Hundred
Impossibility Proofs for Distributed Computing"* as a working library:
the survey's formal models become simulators, its algorithms become
verified implementations, and its proof techniques become mechanized
checkers that emit machine-checked certificates on bounded instances.

Subpackages
-----------

core
    I/O automata, executions, composition, fairness, exploration.
shared_memory
    Asynchronous shared memory: mutual exclusion, k-exclusion, the
    Cremers–Hibbard and Burns–Lynch lower bounds.
consensus
    Synchronous message passing: Byzantine agreement, round and process
    lower bounds, approximate agreement, commit.
asynchronous
    Asynchronous message passing: FLP, Two Generals, sessions,
    synchronizers, randomized consensus.
registers
    Wait-free shared objects: register constructions, snapshots,
    linearizability, the consensus hierarchy.
rings
    Computing in rings and networks: leader election algorithms and
    message lower bounds, anonymous symmetry.
clocks
    Logical clocks and fault-free clock synchronization bounds.
datalink
    Communication protocols over lossy channels.
knowledge
    Knowledge and common knowledge over runs.
impossibility
    The generic proof-technique engines and certificates.
"""

from ._lazy import lazy_exports

__version__ = "1.0.0"

__getattr__, __dir__ = lazy_exports(__name__, {
    ".": (
        "asynchronous", "clocks", "communication", "consensus", "core",
        "datalink", "impossibility", "knowledge", "registers", "rings",
        "shared_memory",
    ),
})

__all__ = [
    "core",
    "impossibility",
    "shared_memory",
    "consensus",
    "asynchronous",
    "registers",
    "rings",
    "clocks",
    "datalink",
    "knowledge",
    "communication",
    "__version__",
]
