"""The circumvention layer: detectors, Omega consensus, quorum leases.

The claims under test are the paper's two-sided story made executable.
Possible side: with an eventually-accurate failure detector, rotating-
coordinator consensus terminates on *every* suspicion schedule, and the
adaptive heartbeat detector realizes eventual accuracy plus completeness
once the partition schedule goes quiet.  Impossible side: a relentless
suspicion coalition starves every round of a quorum and the run exits
through a structured budget overdraft — liveness sacrificed, safety
never.  Around both: quorum leases stay single-holder under arbitrary
partition schedules while degrading *explicitly* (read-only modes,
bounded-staleness reads), the planted no-quorum and never-stabilizing
bugs are found / shrunk / corpus-replayed by the campaign engine, and
every run is a deterministic function of ``(atoms, seed)``.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.chaos import (
    BUDGET_EXCEEDED,
    PASS,
    VIOLATION,
    BuggyLeaseTarget,
    HeartbeatDetectorTarget,
    QuorumLeaseTarget,
    ScheduleCorpus,
    UnstableDetectorTarget,
    circumvention_targets,
    replay_corpus,
    run_campaign,
)
from repro.chaos.generators import (
    random_partition_atoms,
    random_suspicion_atoms,
)
from repro.circumvention import (
    run_heartbeat_detector,
    run_quorum_lease,
    run_rotating_consensus,
)
from repro.circumvention.__main__ import main as circumvention_main
from repro.core.budget import Budget, BudgetExceeded
from repro.service import (
    CertificateStore,
    QueryService,
    detector_run_key,
    lease_run_key,
)

N = 4
RELENTLESS = tuple(("relentless", p) for p in range(3))

#: the golden detector schedule: a sustained split with a mid-split crash
DETECTOR_ATOMS = tuple(("split", t, 0b1100) for t in range(3, 9)) + (
    ("down", 6, 3),
)
#: the golden lease schedule: a sustained minority split mid-lease
LEASE_ATOMS = tuple(("split", t, 0b1100) for t in range(6, 12))


# ---------------------------------------------------------------------------
# Heartbeat detectors: eventual accuracy, completeness, determinism
# ---------------------------------------------------------------------------


class TestDetectorProperties:
    @settings(max_examples=40, deadline=None)
    @given(st.integers(min_value=0, max_value=9999))
    def test_diamond_p_holds_after_quiet_period(self, seed):
        """On every seed: once partitions stop, suspicion converges.

        Completeness — crashed processes end up (and stay) suspected by
        every live process.  Eventual accuracy — no live process is
        suspected at the horizon.  Agreement falls out: every live
        process elects the minimum live pid.
        """
        rng = random.Random(seed)
        target = HeartbeatDetectorTarget()
        atoms = target.generate(rng)
        run = run_heartbeat_detector(atoms, 0, horizon=target.HORIZON)
        assert run.complete
        crashed = {atom[2] for atom in atoms if atom[0] == "down"}
        live = [p for p in range(N) if p not in crashed]
        for p in live:
            suspected = set(run.suspects[p])
            assert crashed <= suspected, (
                f"seed {seed}: process {p} never completed suspicion of "
                f"crashed {crashed - suspected}"
            )
            assert suspected.isdisjoint(live), (
                f"seed {seed}: process {p} still suspects live "
                f"{suspected & set(live)} at the horizon"
            )
            assert run.leaders[p] == min(live)

    @settings(max_examples=20, deadline=None)
    @given(st.integers(min_value=0, max_value=9999))
    def test_detector_deterministic_in_atoms_and_seed(self, seed):
        rng = random.Random(seed)
        atoms = random_partition_atoms(rng, n=N, horizon=16, max_down=1)
        first = run_heartbeat_detector(atoms, seed)
        second = run_heartbeat_detector(atoms, seed)
        assert first.trace.fingerprint() == second.trace.fingerprint()

    def test_monitor_clean_on_golden_schedule(self):
        target = HeartbeatDetectorTarget()
        trace = target.run(DETECTOR_ATOMS)
        assert target.violations(trace, DETECTOR_ATOMS) == []

    def test_planted_detector_flaps_on_empty_schedule(self):
        # Adaptation off, timeout below the heartbeat interval: the
        # leader flaps forever — the counterexample needs *zero* atoms.
        target = UnstableDetectorTarget()
        trace = target.run(())
        monitors = [v.monitor for v in target.violations(trace, ())]
        assert "leader-stability" in monitors

    def test_resume_is_byte_identical(self):
        full = run_heartbeat_detector(DETECTOR_ATOMS, 0)
        partial = run_heartbeat_detector(
            DETECTOR_ATOMS, 0, budget=Budget(max_steps=10)
        )
        assert not partial.complete and partial.interrupted is not None
        resumed = run_heartbeat_detector(DETECTOR_ATOMS, 0, resume=partial)
        assert resumed.complete
        assert resumed.trace.fingerprint() == full.trace.fingerprint()


# ---------------------------------------------------------------------------
# Rotating consensus: Omega terminates, relentless suspicion stalls safely
# ---------------------------------------------------------------------------


class TestOmegaConsensus:
    @settings(max_examples=40, deadline=None)
    @given(st.integers(min_value=0, max_value=9999))
    def test_eventually_accurate_suspicion_always_decides(self, seed):
        """Every eventually-accurate schedule terminates — the FLP
        circumvention's possible side, on every seed."""
        rng = random.Random(seed)
        atoms = random_suspicion_atoms(rng, n=3, accurate_after=6)
        run = run_rotating_consensus(atoms, 0, inputs=(0, 1, 1))
        assert run.complete
        assert run.decided in (0, 1)
        # first clean round after suspicion turns accurate must decide
        assert run.rounds <= 6 + 3

    @settings(max_examples=20, deadline=None)
    @given(st.integers(min_value=0, max_value=9999))
    def test_validity_under_unanimous_inputs(self, seed):
        rng = random.Random(seed)
        atoms = random_suspicion_atoms(rng, n=3, accurate_after=6)
        run = run_rotating_consensus(atoms, 0, inputs=(1, 1, 1))
        assert run.decided == 1

    def test_relentless_coalition_meter_raises_structured(self):
        meter = Budget(max_steps=120).meter("stall")
        with pytest.raises(BudgetExceeded) as excinfo:
            run_rotating_consensus(RELENTLESS, 0, meter=meter)
        assert excinfo.value.spent > excinfo.value.limit == 120

    def test_relentless_budget_returns_resumable_partial(self):
        """``budget=`` is the graceful convention: a partial run comes
        back resumable, and resuming to the horizon still never decides
        — the stall costs liveness, never agreement."""
        partial = run_rotating_consensus(
            RELENTLESS, 0, budget=Budget(max_steps=120)
        )
        assert not partial.complete
        assert isinstance(partial.interrupted, BudgetExceeded)
        assert partial.decided is None
        finished = run_rotating_consensus(RELENTLESS, 0, resume=partial)
        assert finished.complete
        assert finished.decided is None  # stalled, not unsafe

    def test_sub_coalition_recovers(self):
        # Rotation reaches a coordinator outside the coalition: decides.
        atoms = (("relentless", 1),)
        run = run_rotating_consensus(atoms, 0, inputs=(0, 1, 1))
        assert run.decided in (0, 1)


# ---------------------------------------------------------------------------
# Quorum leases: single holder under every partition, explicit degradation
# ---------------------------------------------------------------------------


class TestQuorumLeases:
    @settings(max_examples=40, deadline=None)
    @given(st.integers(min_value=0, max_value=9999))
    def test_honest_leases_never_overlap(self, seed):
        """Promise persistence + quorum intersection: no schedule the
        partition adversary can draw yields two concurrent holders, and
        the degraded-mode monitor's CAP contract holds throughout."""
        rng = random.Random(seed)
        target = QuorumLeaseTarget()
        atoms = target.generate(rng)
        trace = target.run(atoms)
        assert target.violations(trace, atoms) == []

    def test_buggy_lease_split_election_double_grants(self):
        # The 1-minimal counterexample: one split atom at election time.
        atoms = (("split", 0, 0b0011),)
        target = BuggyLeaseTarget()
        monitors = [
            v.monitor for v in target.violations(target.run(atoms), atoms)
        ]
        assert "lease-safety" in monitors

    def test_golden_schedule_degrades_explicitly(self):
        run = run_quorum_lease(LEASE_ATOMS, 0)
        degraded = [
            event
            for event in run.trace.events
            if isinstance(event.payload, tuple)
            and event.payload
            and event.payload[0] == "degraded"
        ]
        assert degraded, "sustained split produced no degraded-mode event"
        assert run.commits > 0  # the majority side kept committing

    def test_resume_is_byte_identical(self):
        full = run_quorum_lease(LEASE_ATOMS, 0)
        partial = run_quorum_lease(
            LEASE_ATOMS, 0, budget=Budget(max_steps=10)
        )
        assert not partial.complete
        resumed = run_quorum_lease(LEASE_ATOMS, 0, resume=partial)
        assert resumed.complete
        assert resumed.trace.fingerprint() == full.trace.fingerprint()


# ---------------------------------------------------------------------------
# The campaign contract: planted bugs found, stall expected, corpus replays
# ---------------------------------------------------------------------------

CAMPAIGN_RUNS = 12
MASTER_SEED = 0


@pytest.fixture(scope="module")
def corpus_dir(tmp_path_factory):
    return str(tmp_path_factory.mktemp("circumvention-corpus"))


@pytest.fixture(scope="module")
def report(corpus_dir):
    """One fixed-seed campaign over the whole roster, shared module-wide."""
    return run_campaign(
        targets=circumvention_targets(),
        runs=CAMPAIGN_RUNS,
        master_seed=MASTER_SEED,
        corpus=corpus_dir,
    )


class TestCircumventionCampaign:
    def test_planted_bugs_found(self, report):
        counts = report.verdict_counts()
        assert counts["lease-no-quorum-bug"].get(VIOLATION, 0) > 0
        assert counts["detector-unstable-bug"].get(VIOLATION, 0) > 0

    def test_honest_targets_clean(self, report):
        counts = report.verdict_counts()
        for name in ("lease-quorum", "detector-heartbeat",
                     "omega-rotating-consensus"):
            assert counts[name] == {PASS: CAMPAIGN_RUNS}, name

    def test_adversarial_target_stalls_never_violates(self, report):
        """The impossibility receipt: relentless schedules exhaust the
        stall budget; no schedule ever produces a safety violation."""
        counts = report.verdict_counts()["rotating-consensus-adversarial"]
        assert counts.get(BUDGET_EXCEEDED, 0) > 0
        assert counts.get(VIOLATION, 0) == 0

    def test_campaign_passes_its_own_gate(self, report):
        assert report.failures(circumvention_targets()) == []

    def test_counterexamples_shrink_to_one_atom(self, report):
        """ddmin collapses every finding to its essence: the detector
        bug needs *zero* atoms, the lease bug exactly the one atom that
        split the election — and each shrunk trace replay-verifies."""
        assert report.counterexamples
        for cx in report.counterexamples:
            assert len(cx.shrunk) <= 1, (
                f"{cx.target}: shrunk schedule {cx.shrunk!r} is not "
                "a single atom"
            )
            assert cx.replay_verified, cx.target

    def test_replay_corpus_refinds_both_planted_bugs(self, report, corpus_dir):
        outcome = replay_corpus(
            ScheduleCorpus(corpus_dir), targets=circumvention_targets()
        )
        assert outcome["fingerprint_mismatches"] == []
        refound = set(outcome["violations_refound"])
        assert {"lease-no-quorum-bug", "detector-unstable-bug"} <= refound

    def test_workers_bit_identical(self):
        """The parallel-fabric anchor: the honest lease target at
        workers=1 and workers=2 folds to byte-identical results."""
        serial = run_campaign(
            targets=[QuorumLeaseTarget()], runs=8,
            master_seed=MASTER_SEED, workers=1,
        )
        fanned = run_campaign(
            targets=[QuorumLeaseTarget()], runs=8,
            master_seed=MASTER_SEED, workers=2,
        )
        keyed = lambda rep: [  # noqa: E731
            (r.target, r.index, r.seed, r.verdict, r.fingerprint)
            for r in rep.results
        ]
        assert keyed(serial) == keyed(fanned)
        assert serial.verdict_counts() == fanned.verdict_counts()
        assert all(r.verdict == PASS for r in serial.results)


# ---------------------------------------------------------------------------
# CLI: both sides of the circumvention from the shell
# ---------------------------------------------------------------------------


class TestCircumventionCLI:
    def test_flp_stall_exits_2_with_receipt(self, capsys):
        assert circumvention_main(["flp-stall"]) == 2
        out = capsys.readouterr().out
        assert "STALLED" in out and "budget overdraft" in out

    def test_omega_decides(self, capsys):
        assert circumvention_main(["omega", "--suspect", "0:1"]) == 0
        assert "decided" in capsys.readouterr().out

    def test_omega_relentless_stalls(self, capsys):
        rc = circumvention_main(
            ["omega", "--relentless", "0", "--relentless", "1",
             "--relentless", "2", "--max-steps", "120"]
        )
        assert rc == 2

    def test_detector_stabilizes(self, capsys):
        assert circumvention_main(["detector"]) == 0
        assert "stability" in capsys.readouterr().out

    def test_detector_planted_bug_flagged(self, capsys):
        rc = circumvention_main(
            ["detector", "--no-adaptive", "--initial-timeout", "0"]
        )
        assert rc == 1

    def test_lease_honest_then_buggy(self, capsys):
        assert circumvention_main(["lease"]) == 0
        capsys.readouterr()
        rc = circumvention_main(
            ["lease", "--buggy", "--atoms", '[["split", 0, 3]]']
        )
        assert rc == 1
        assert "UNSAFE" in capsys.readouterr().out


# ---------------------------------------------------------------------------
# Service integration: detector and lease runs as cacheable queries
# ---------------------------------------------------------------------------


class TestCircumventionQueries:
    def test_detector_run_miss_then_hit(self, tmp_path):
        store = CertificateStore(str(tmp_path / "certs"))
        service = QueryService(store)
        key = detector_run_key(atoms=DETECTOR_ATOMS, seed=0)
        cold = service.resolve(key)
        assert cold.source == "live" and cold.complete
        warm = service.resolve(key)
        assert warm.source == "store"
        assert warm.result == cold.result
        assert service.live == 1

    def test_lease_run_payload_pins_fingerprint(self, tmp_path):
        store = CertificateStore(str(tmp_path / "certs"))
        service = QueryService(store)
        key = lease_run_key(atoms=LEASE_ATOMS, seed=0)
        answer = service.resolve(key)
        assert answer.complete
        live = run_quorum_lease(LEASE_ATOMS, 0)
        assert (
            answer.result["trace_fingerprint"] == live.trace.fingerprint()
        )
