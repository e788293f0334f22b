"""Mechanized proof-technique engines and result certificates.

The survey's §3.1 catalogues the technique families behind all hundred
proofs; this subpackage implements the generic ones:

* :mod:`~repro.impossibility.pigeonhole` — value-counting collisions;
* :mod:`~repro.impossibility.bivalence` — valency analysis and the FLP
  stalling adversary (also used for shared-memory and wait-free results);
* :mod:`~repro.impossibility.chains` — single-change chain builders;
* :mod:`~repro.impossibility.certificate` — machine-checked certificates.

Model-specific engines (scenario splicing for Byzantine bounds, diagram
stretching for timing bounds, symmetry for anonymous rings) live alongside
their models in :mod:`repro.consensus`, :mod:`repro.clocks` and
:mod:`repro.rings`.
"""

from .._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(__name__, {
    ".bivalence": (
        "DecisionSystem", "DeciderWitness", "StallResult", "StallingAdversary",
        "TransitionCache", "ValencyAnalyzer", "find_herlihy_decider",
    ),
    ".certificate": (
        "BoundCertificate", "CounterexampleCertificate", "FailureWitness",
        "ImpossibilityCertificate",
    ),
    ".chains": (
        "chain_link_indices", "find_changing_link", "input_vector_chain",
        "matrix_flip_chain", "verify_chain",
    ),
    ".pigeonhole": (
        "collisions", "first_collision", "guaranteed_collision_count",
        "incompatible_collision",
    ),
})

__all__ = [
    "DecisionSystem",
    "TransitionCache",
    "ValencyAnalyzer",
    "StallingAdversary",
    "StallResult",
    "DeciderWitness",
    "find_herlihy_decider",
    "ImpossibilityCertificate",
    "CounterexampleCertificate",
    "BoundCertificate",
    "FailureWitness",
    "collisions",
    "first_collision",
    "guaranteed_collision_count",
    "incompatible_collision",
    "input_vector_chain",
    "matrix_flip_chain",
    "chain_link_indices",
    "verify_chain",
    "find_changing_link",
]
