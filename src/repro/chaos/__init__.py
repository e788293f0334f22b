"""Chaos campaign engine: adversary fuzzing over every substrate.

The survey proves impossibility by *constructing* bad executions; this
package searches for them mechanically.  A :class:`~repro.chaos.targets.
ChaosTarget` packages a protocol with a seeded adversary generator and
the safety/liveness monitors its executions must satisfy; the campaign
runner (:func:`~repro.chaos.campaign.run_campaign`) fuzzes each target
under per-run budgets, classifies every run (PASS / VIOLATION /
BUDGET_EXCEEDED / CRASH), delta-debugs violating adversary schedules to
1-minimal counterexamples, and re-verifies each shrunk schedule through
the unified :func:`repro.core.runtime.replay` before reporting the
``(seed, fingerprint)`` pair that reproduces it.
"""

from .._lazy import lazy_exports

# Bound eagerly: the name is also its submodule's (see repro._lazy).
from .circumvention_targets import circumvention_targets

__getattr__, __dir__ = lazy_exports(__name__, {
    ".campaign": (
        "BUDGET_EXCEEDED", "CRASH", "PASS", "VIOLATION", "CampaignFold",
        "CampaignReport", "CaseResult", "Counterexample", "reproduce",
        "run_campaign", "write_artifacts", "write_counterexample",
    ),
    ".circumvention_targets": (
        "AdversarialSuspicionTarget", "BenOrTarget", "BiasedCoinBenOrTarget",
        "BuggyLeaseTarget", "GSTConsensusTarget", "HeartbeatDetectorTarget",
        "OmegaConsensusTarget", "QuorumLeaseTarget", "UnstableDetectorTarget",
    ),
    ".corpus": (
        "CorpusEntry", "CoverageMap", "ScheduleCorpus", "replay_corpus",
        "stall_fingerprint",
    ),
    ".monitors": (
        "AgreementMonitor", "BoundedStalenessMonitor", "DegradedModeMonitor",
        "FifoDeliveryMonitor", "LeaderStabilityMonitor", "LeaseSafetyMonitor",
        "MutualExclusionMonitor", "TerminationMonitor", "TraceMonitor",
        "UniqueLeaderMonitor", "ValidityMonitor", "Violation", "check_all",
    ),
    ".shrink": ("shrink_schedule",),
    ".targets": (
        "AlternatingBitTarget", "ChaosTarget", "EIGByzantineTarget",
        "EagerMajorityTarget", "FloodSetCrashTarget", "LCRRingTarget",
        "MobileFloodSetTarget", "RacyLockTarget", "default_targets",
        "target_registry",
    ),
})

__all__ = [
    "AdversarialSuspicionTarget",
    "AgreementMonitor",
    "AlternatingBitTarget",
    "BUDGET_EXCEEDED",
    "BenOrTarget",
    "BiasedCoinBenOrTarget",
    "BoundedStalenessMonitor",
    "BuggyLeaseTarget",
    "CRASH",
    "CampaignFold",
    "CampaignReport",
    "CaseResult",
    "ChaosTarget",
    "CorpusEntry",
    "Counterexample",
    "CoverageMap",
    "DegradedModeMonitor",
    "EIGByzantineTarget",
    "EagerMajorityTarget",
    "FifoDeliveryMonitor",
    "FloodSetCrashTarget",
    "GSTConsensusTarget",
    "HeartbeatDetectorTarget",
    "LCRRingTarget",
    "LeaderStabilityMonitor",
    "LeaseSafetyMonitor",
    "MobileFloodSetTarget",
    "MutualExclusionMonitor",
    "OmegaConsensusTarget",
    "PASS",
    "QuorumLeaseTarget",
    "RacyLockTarget",
    "ScheduleCorpus",
    "TerminationMonitor",
    "TraceMonitor",
    "UniqueLeaderMonitor",
    "UnstableDetectorTarget",
    "VIOLATION",
    "ValidityMonitor",
    "Violation",
    "check_all",
    "circumvention_targets",
    "default_targets",
    "replay_corpus",
    "reproduce",
    "run_campaign",
    "shrink_schedule",
    "stall_fingerprint",
    "target_registry",
    "write_artifacts",
    "write_counterexample",
]
