"""Circumvention layer: how real systems negotiate around impossibility.

The survey frames each impossibility proof as an invariant real systems
must *negotiate around*, not a dead end.  This package mechanizes the
canonical negotiations on the repository's simulation substrates:

* :mod:`repro.circumvention.partitions` — the
  :class:`~repro.circumvention.partitions.PartitionAdversary`: seeded
  split / heal / asymmetric-link / crash schedules, the fault model
  CAP-style scenarios run under;
* :mod:`repro.circumvention.detectors` — a heartbeat-driven failure
  detector runtime (timeout/backoff-adaptive eventually-perfect
  suspicion lists and an Omega leader oracle), the Chandra–Toueg escape
  hatch from FLP;
* :mod:`repro.circumvention.leases` — a quorum lease protocol with
  explicit degraded modes: a leader without a quorum drops to
  read-only, minority partitions reject writes with structured errors,
  and reads stay within a declared staleness bound;
* :mod:`repro.circumvention.randomized` — Ben-Or's randomized consensus
  under delivery-script / crash atoms, with the expected-round analysis
  harness (streaming confidence intervals, sharded bit-identically) —
  the coin-flip escape hatch from FLP;
* :mod:`repro.circumvention.gst` — partial synchrony as first-class
  adversary atoms (``("gst", g)`` stabilization, per-round link delays)
  and DLS rotating-coordinator consensus that provably stalls before
  GST (structured budget receipt) and decides after it.  The same
  engine under a suspicion oracle is rotating-coordinator consensus
  with a failure detector: it terminates under an eventually-accurate
  suspicion schedule and provably *stalls* (budget-exceeded, never
  unsafe) under an adversarial one — the FLP circumvention receipt,
  both sides.

Every run is a deterministic function of ``(atoms, seed)`` through the
unified runtime (:mod:`repro.core.runtime`), replayable byte-identically,
and budget-threaded with resumable partial state through the one step
loop :func:`repro.core.runtime.drive`.  The chaos roster
(:mod:`repro.chaos.circumvention_targets`) fuzzes both the honest
protocols and planted-bug variants.
"""

from .detectors import DetectorRun, run_heartbeat_detector
from .gst import (
    ConsensusRun,
    GSTAdversary,
    GSTRun,
    blackout_atoms,
    run_gst_consensus,
    run_rotating_consensus,
    simplify_gst_atom,
)
from .leases import LeaseRun, run_quorum_lease
from .partitions import PartitionAdversary
from .randomized import (
    BenOrAdversary,
    BenOrRun,
    RoundSweep,
    expected_rounds,
    run_ben_or_traced,
)

__all__ = [
    "BenOrAdversary",
    "BenOrRun",
    "ConsensusRun",
    "DetectorRun",
    "GSTAdversary",
    "GSTRun",
    "LeaseRun",
    "PartitionAdversary",
    "RoundSweep",
    "blackout_atoms",
    "expected_rounds",
    "run_ben_or_traced",
    "run_gst_consensus",
    "run_heartbeat_detector",
    "run_quorum_lease",
    "run_rotating_consensus",
    "simplify_gst_atom",
]
