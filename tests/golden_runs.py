"""Canonical runs whose trace fingerprints are pinned as golden fixtures.

Each entry produces one deterministic :class:`~repro.core.runtime.Trace`
from fixed coordinates — protocol, inputs, adversary schedule, seed —
covering every substrate the unified runtime serves: asynchronous and
scripted rings (LCR), synchronous rounds (FloodSet under crashes, EIG
under Byzantine lies), the datalink channel (ABP), shared memory
(Peterson, the racy lock), the asynchronous network (eager majority,
fair-seeded and scripted) and a full chaos campaign's shrunk
counterexample.

``tests/fixtures/golden_traces.json`` pins each run's fingerprint plus
enough metadata for a readable drift report.  Any change to a
simulator, the event schema, seed derivation or the canonical encoding
shows up as a fingerprint drift and must be either fixed or explicitly
re-pinned::

    PYTHONPATH=src python -m tests.golden_runs --regen

The golden suite is also the parallel fabric's anchor: campaigns and
explorations at ``workers=N`` must reproduce these exact fingerprints.
"""

from __future__ import annotations

import argparse
import json
import os
from typing import Callable, Dict

from repro.chaos.campaign import run_campaign
from repro.chaos.targets import (
    AlternatingBitTarget,
    EIGByzantineTarget,
    EagerMajorityTarget,
    EagerMajorityProtocol,
    FloodSetCrashTarget,
    LCRRingTarget,
    RacyLockTarget,
)
from repro.circumvention.detectors import run_heartbeat_detector
from repro.circumvention.gst import blackout_atoms, run_gst_consensus
from repro.circumvention.leases import run_quorum_lease
from repro.circumvention.randomized import run_ben_or_traced
from repro.consensus.floodset import FloodSet
from repro.consensus.synchronous import CrashAdversary, run_synchronous
from repro.core.artifacts import atomic_write_text
from repro.core.runtime import Trace
from repro.asynchronous.network import AsyncConsensusSystem
from repro.rings.lcr import LCRProcess
from repro.rings.simulator import run_async_ring
from repro.shared_memory.mutex.peterson import peterson_system
from repro.shared_memory.system import run_system

FIXTURE_PATH = os.path.join(
    os.path.dirname(os.path.abspath(__file__)), "fixtures", "golden_traces.json"
)

FIXTURE_SCHEMA = "repro-golden-traces/v1"


def _lcr_async_seeded() -> Trace:
    return run_async_ring(
        seed=11,
        process_factory=lambda: [LCRProcess(i) for i in (3, 1, 4, 2, 5)],
    ).trace


def _scripted(target, seed: int) -> Trace:
    """Run a chaos target on the schedule its own generator draws at ``seed``.

    ``generate`` is a pure function of the RNG, so (target, seed) are
    complete reproduction coordinates — the same contract campaign cases
    rely on.
    """
    import random

    return target.run(tuple(target.generate(random.Random(seed))))


def _lcr_ring_scripted() -> Trace:
    # The chaos control target under one fixed scheduling script.
    return _scripted(LCRRingTarget(), seed=7)


def _floodset_crash_chain() -> Trace:
    # One crash per round, partial final rounds — the t+1 chain shape.
    return run_synchronous(
        FloodSet(),
        (0, 1, 1, 0, 1),
        CrashAdversary({0: (1, (1,)), 2: (2, (3,))}),
        t=2,
    ).trace


def _floodset_truncated() -> Trace:
    return _scripted(FloodSetCrashTarget(), seed=3)


def _eig_byzantine_lies() -> Trace:
    return _scripted(EIGByzantineTarget(), seed=1)


def _abp_channel_program() -> Trace:
    return _scripted(AlternatingBitTarget(), seed=2)


def _peterson_round_robin() -> Trace:
    # Both processes try, then the fair round-robin scheduler drives the
    # doorway/spin protocol to completion.
    system = peterson_system()
    state = next(iter(system.initial_states()))
    for name in ("p0", "p1"):
        state = next(iter(system.apply(state, ("try", name))))
    return run_system(system, max_steps=40, start=state).trace


def _racy_lock_interleaving() -> Trace:
    return RacyLockTarget().run((0, 1, 0, 1, 0, 1, 0, 1))


def _eager_majority_scripted() -> Trace:
    return _scripted(EagerMajorityTarget(), seed=4)


def _eager_majority_fair_seeded() -> Trace:
    system = AsyncConsensusSystem(EagerMajorityProtocol(3), 3)
    return system.run_fair_traced((0, 1, 1), max_steps=60, seed=5).trace


def _detector_heartbeat_run() -> Trace:
    # A sustained split isolating {2,3}, with 3 crashing mid-split:
    # false suspicion across the cut, healing (trust + adaptive timeout
    # doubling) once it lifts, and permanent completeness for the
    # crashed node — all stabilizing well before the horizon.
    atoms = tuple(("split", t, 0b1100) for t in range(3, 9)) + (
        ("down", 6, 3),
    )
    return run_heartbeat_detector(atoms, 0).trace


def _lease_partition_run() -> Trace:
    # A sustained minority split mid-lease: the holder keeps its quorum,
    # the cut-off side sees bounded-staleness reads, then heals.
    atoms = tuple(("split", t, 0b1100) for t in range(6, 12))
    return run_quorum_lease(atoms, 0).trace


def _benor_scripted_crash() -> Trace:
    # Ben-Or under a fixed delivery script with one mid-run crash: the
    # coin-flip circumvention pinned end to end — script exhaustion
    # hands scheduling to the seeded RNG, so this covers both regimes.
    atoms = (3, 1, 4, 1, 5, 9, 2, 6, ("crash", 5, 2))
    return run_ben_or_traced(atoms, 0, t=1, inputs=(0, 1, 0, 1)).trace


def _gst_blackout_run() -> Trace:
    # Total silence until GST round 5, then DLS decides within one
    # coordinator rotation — the partial-synchrony receipt's happy side.
    return run_gst_consensus(blackout_atoms(5, 4), 0, t=1).trace


def _chaos_counterexample() -> Trace:
    # The full pipeline — fuzz, classify, shrink, replay-verify — pinned
    # end to end: the first shrunk FloodSet counterexample of a fixed
    # campaign.
    report = run_campaign(
        targets=[FloodSetCrashTarget()], runs=10, master_seed=0
    )
    if not report.counterexamples:
        raise AssertionError(
            "canonical chaos campaign found no counterexample; "
            "the planted FloodSet bug or the fuzzer drifted"
        )
    return report.counterexamples[0].trace


CANONICAL_RUNS: Dict[str, Callable[[], Trace]] = {
    "lcr-async-ring-seeded": _lcr_async_seeded,
    "lcr-ring-scripted": _lcr_ring_scripted,
    "floodset-crash-chain": _floodset_crash_chain,
    "floodset-truncated-chaos": _floodset_truncated,
    "eig-byzantine-lies": _eig_byzantine_lies,
    "abp-channel-program": _abp_channel_program,
    "peterson-round-robin": _peterson_round_robin,
    "racy-lock-interleaving": _racy_lock_interleaving,
    "eager-majority-scripted": _eager_majority_scripted,
    "eager-majority-fair-seeded": _eager_majority_fair_seeded,
    "chaos-floodset-counterexample": _chaos_counterexample,
    "detector-heartbeat-run": _detector_heartbeat_run,
    "lease-partition-run": _lease_partition_run,
    "benor-scripted-crash": _benor_scripted_crash,
    "gst-blackout-run": _gst_blackout_run,
}


def describe(trace: Trace) -> Dict:
    """The fixture record for one trace: fingerprint + drift context."""
    return {
        "fingerprint": trace.fingerprint(),
        "substrate": trace.substrate,
        "protocol": trace.protocol,
        "seed": trace.seed,
        "events": trace.steps,
        "first_event": repr(trace.events[0]) if trace.events else None,
        "last_event": repr(trace.events[-1]) if trace.events else None,
        "outcome": repr(trace.outcome),
    }


def current_records() -> Dict[str, Dict]:
    return {name: describe(fn()) for name, fn in sorted(CANONICAL_RUNS.items())}


def load_fixture(path: str = FIXTURE_PATH) -> Dict[str, Dict]:
    with open(path, encoding="utf-8") as handle:
        fixture = json.load(handle)
    if fixture.get("schema") != FIXTURE_SCHEMA:
        raise ValueError(
            f"unknown golden-trace fixture schema {fixture.get('schema')!r}"
        )
    return fixture["traces"]


def write_fixture(path: str = FIXTURE_PATH) -> Dict[str, Dict]:
    records = current_records()
    payload = {"schema": FIXTURE_SCHEMA, "traces": records}
    atomic_write_text(
        path, json.dumps(payload, indent=2, sort_keys=True) + "\n"
    )
    return records


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument(
        "--regen",
        action="store_true",
        help=f"recompute every canonical run and rewrite {FIXTURE_PATH}",
    )
    args = parser.parse_args(argv)
    if not args.regen:
        parser.error("nothing to do; pass --regen to rewrite the fixture")
    records = write_fixture()
    for name, record in sorted(records.items()):
        print(f"{name}: {record['fingerprint'][:16]} ({record['events']} events)")
    print(f"wrote {FIXTURE_PATH} ({len(records)} canonical runs)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
