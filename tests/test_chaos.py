"""The chaos campaign engine: fuzzing, shrinking, artifacts, budgets.

The contract under test, end to end: a seeded campaign finds every
planted bug in the default roster, never flags the healthy control,
shrinks each counterexample to a 1-minimal schedule that still violates
the same property, verifies it byte-identical through replay, and saves
it as a JSONL artifact that :func:`repro.chaos.reproduce` can re-derive
from the file alone.  Everything here runs under fixed seeds — the whole
point of the engine is that these assertions are deterministic.
"""

import random

import pytest

from repro.chaos import (
    BUDGET_EXCEEDED,
    CRASH,
    PASS,
    VIOLATION,
    CampaignReport,
    ChaosTarget,
    EIGByzantineTarget,
    LCRRingTarget,
    RacyLockTarget,
    default_targets,
    reproduce,
    run_campaign,
    shrink_schedule,
    target_registry,
    write_counterexample,
)
from repro.chaos.__main__ import main as chaos_main
from repro.chaos.campaign import DEFAULT_PER_RUN_BUDGET, _RunMemo, _shrink_case
from repro.core.budget import Budget
from repro.core.runtime import ReplayError, derive_seed

MASTER_SEED = 0
RUNS = 40


@pytest.fixture(scope="module")
def report():
    """One full default campaign, shared by the module (seconds, not minutes)."""
    return run_campaign(runs=RUNS, master_seed=MASTER_SEED)


class TestCampaignFindsPlantedBugs:
    def test_every_planted_bug_tripped(self, report):
        counts = report.verdict_counts()
        for target in default_targets():
            if target.expect_violation:
                assert counts[target.name].get(VIOLATION, 0) > 0, (
                    f"planted bug in {target.name} never found under "
                    f"master_seed={MASTER_SEED}"
                )

    def test_healthy_control_is_clean(self, report):
        counts = report.verdict_counts()["lcr-ring"]
        assert counts == {PASS: RUNS}

    def test_campaign_passes_its_own_gate(self, report):
        assert report.failures(default_targets()) == []
        assert report.complete

    def test_no_crash_verdicts_anywhere(self, report):
        # CRASH means an exception other than the monitored violation —
        # an engine or simulator bug, not a planted one.
        assert all(r.verdict != CRASH for r in report.results)

    def test_case_seeds_are_reproduction_coordinates(self, report):
        for result in report.results:
            assert result.seed == derive_seed(
                MASTER_SEED, result.target, result.index
            )

    def test_campaign_is_deterministic(self, report):
        again = run_campaign(
            targets=[EIGByzantineTarget()], runs=10, master_seed=MASTER_SEED
        )
        expected = [
            r for r in report.results
            if r.target == "eig-n3t1-byzantine" and r.index < 10
        ]
        assert again.results == expected

    def test_summary_mentions_every_target(self, report):
        text = report.summary(default_targets())
        for target in default_targets():
            assert target.name in text


class TestShrinking:
    def test_shrunk_never_larger_and_still_violating(self, report):
        registry = target_registry()
        for cx in report.counterexamples:
            assert len(cx.shrunk) <= len(cx.atoms)
            target = registry[cx.target]
            trace = target.run(cx.shrunk)
            assert target.violations(trace, cx.shrunk), (
                f"shrunk schedule for {cx.target} no longer violates"
            )

    def test_shrunk_schedules_are_1_minimal(self, report):
        registry = target_registry()
        for target_name in ("eig-n3t1-byzantine", "racy-lock"):
            target = registry[target_name]
            cx = min(
                report.counterexamples_for(target_name),
                key=lambda c: len(c.shrunk),
            )
            for i in range(len(cx.shrunk)):
                candidate = cx.shrunk[:i] + cx.shrunk[i + 1:]
                trace = target.run(candidate)
                assert not target.violations(trace, candidate), (
                    f"{target_name}: atom {i} of the shrunk schedule is "
                    "deletable — shrinker stopped early"
                )

    def test_single_lie_defeats_eig_below_resilience(self, report):
        smallest = min(
            report.counterexamples_for("eig-n3t1-byzantine"),
            key=lambda c: len(c.shrunk),
        )
        assert len(smallest.shrunk) == 1  # n=3, t=1: one equivocation suffices

    def test_racy_lock_needs_three_schedule_atoms(self, report):
        smallest = min(
            report.counterexamples_for("racy-lock"),
            key=lambda c: len(c.shrunk),
        )
        assert len(smallest.shrunk) == 3

    def test_every_counterexample_replay_verified(self, report):
        assert report.counterexamples
        for cx in report.counterexamples:
            assert cx.replay_verified, f"{cx.target} diverged under replay"
            assert cx.trace.fingerprint() == cx.fingerprint

    def test_seed_and_schedule_rederive_fingerprint(self, report):
        registry = target_registry()
        for cx in report.counterexamples:
            fresh = registry[cx.target].run(cx.shrunk)
            assert fresh.fingerprint() == cx.fingerprint


class CountingRacyLock(RacyLockTarget):
    """The racy lock, counting its runs."""

    runs = 0

    def run(self, atoms, meter=None):
        self.runs += 1
        return super().run(atoms, meter=meter)


def _violating_case(target):
    for index in range(100):
        seed = derive_seed(MASTER_SEED, target.name, index)
        atoms = target.generate(random.Random(seed))
        if target.violations(target.run(atoms), atoms):
            return atoms, seed
    raise AssertionError(f"no violating case for {target.name}")


class TestShrinkRuns:
    """A shrink runs the target once per check the campaign's run memo
    cannot answer, plus once only when no check was accepted: the
    accepted check's trace is the result's.  A shrink that ends at a
    known exemplar's schedule runs nothing more and returns it."""

    def test_shrunk_schedule_is_not_run_again(self):
        target = CountingRacyLock()
        atoms, seed = _violating_case(target)
        target.runs = 0
        memo = _RunMemo()
        cx = _shrink_case(target, atoms, seed, 0, DEFAULT_PER_RUN_BUDGET, 256,
                          memo=memo, exemplars={})
        assert cx.shrunk != atoms
        assert target.runs == cx.shrink_checks
        assert len(memo) == cx.shrink_checks
        assert cx.replay_verified
        fresh = target.run(cx.shrunk)
        assert fresh.fingerprint() == cx.fingerprint
        assert target.violations(fresh, cx.shrunk)[0] == cx.violation

    def test_minimal_schedule_is_run_once_more(self):
        target = CountingRacyLock()
        atoms, seed = _violating_case(target)
        shrunk = _shrink_case(
            target, atoms, seed, 0, DEFAULT_PER_RUN_BUDGET, 256,
            memo=_RunMemo(), exemplars={},
        ).shrunk
        target.runs = 0
        cx = _shrink_case(target, shrunk, seed, 0, DEFAULT_PER_RUN_BUDGET, 256,
                          memo=_RunMemo(), exemplars={})
        assert cx.shrunk == shrunk
        assert target.runs == cx.shrink_checks + 1
        assert cx.replay_verified

    def test_shrink_to_a_known_exemplar_runs_nothing(self):
        target = CountingRacyLock()
        atoms, seed = _violating_case(target)
        memo = _RunMemo()
        exemplars = {}
        first = _shrink_case(target, atoms, seed, 0, DEFAULT_PER_RUN_BUDGET,
                             256, memo=memo, exemplars=exemplars)
        exemplars[(target.name, first.shrunk)] = first
        target.runs = 0
        again = _shrink_case(target, first.shrunk, seed, 1,
                             DEFAULT_PER_RUN_BUDGET, 256, memo=memo,
                             exemplars=exemplars)
        # Every check of the minimal schedule's neighbours was already
        # made by the first shrink, and its result is the exemplar.
        assert again is first
        assert target.runs == 0


class TestShrinkSchedule:
    def test_ddmin_on_a_known_predicate(self):
        atoms = tuple(range(20))

        def fails(schedule):
            return 3 in schedule and 17 in schedule

        shrunk, checks = shrink_schedule(atoms, fails)
        assert sorted(shrunk) == [3, 17]
        assert checks > 0

    def test_empty_failure_shrinks_to_nothing(self):
        shrunk, _ = shrink_schedule((1, 2, 3), lambda s: True)
        assert shrunk == ()

    def test_check_budget_never_returns_a_passing_schedule(self):
        atoms = tuple(range(32))

        def fails(schedule):
            return 31 in schedule

        shrunk, checks = shrink_schedule(atoms, fails, max_checks=3)
        assert checks <= 3
        assert fails(shrunk)

    def test_simplification_pass_runs_after_deletion(self):
        def fails(schedule):
            return bool(schedule)

        def simplify(atom):
            if atom > 0:
                yield atom - 1

        shrunk, _ = shrink_schedule((5, 9), fails, simplify_atom=simplify)
        assert shrunk == (0,)

    def test_deterministic(self):
        atoms = tuple(random.Random(7).randrange(10) for _ in range(24))

        def fails(schedule):
            return sum(schedule) >= 30

        first = shrink_schedule(atoms, fails)
        second = shrink_schedule(atoms, fails)
        assert first == second


class TestArtifacts:
    def test_write_and_reproduce_roundtrip(self, report, tmp_path):
        cx = report.counterexamples_for("eig-n3t1-byzantine")[0]
        path = write_counterexample(cx, str(tmp_path))
        fresh = reproduce(path)
        assert fresh.fingerprint() == cx.fingerprint

    def test_tampered_artifact_is_rejected(self, report, tmp_path):
        cx = report.counterexamples_for("racy-lock")[0]
        path = write_counterexample(cx, str(tmp_path))
        lines = open(path, encoding="utf-8").read().splitlines()
        del lines[2]  # drop one trace event; the header fingerprint catches it
        tampered = tmp_path / "tampered.jsonl"
        tampered.write_text("\n".join(lines) + "\n")
        with pytest.raises(ReplayError):
            reproduce(str(tampered))

    def test_unknown_schema_is_rejected(self, tmp_path):
        path = tmp_path / "bogus.jsonl"
        path.write_text('{"schema": "something-else/v9"}\n')
        with pytest.raises(ReplayError):
            reproduce(str(path))


class _ExplodingTarget(ChaosTarget):
    name = "exploding"
    substrate = "test"
    expect_violation = True

    def generate(self, rng):
        return (rng.randrange(4),)

    def run(self, atoms, meter=None):
        raise RuntimeError("simulator bug")

    def monitors(self, atoms):
        return []


class TestFaultIsolationAndBudgets:
    def test_crashing_target_yields_crash_verdicts_not_abort(self):
        outcome = run_campaign(
            targets=[_ExplodingTarget(), LCRRingTarget()],
            runs=3,
            master_seed=MASTER_SEED,
        )
        counts = outcome.verdict_counts()
        assert counts["exploding"] == {CRASH: 3}
        assert counts["lcr-ring"] == {PASS: 3}
        assert any("simulator bug" in r.error for r in outcome.results)

    def test_per_run_budget_yields_budget_exceeded_verdicts(self):
        outcome = run_campaign(
            targets=[LCRRingTarget()],
            runs=3,
            master_seed=MASTER_SEED,
            per_run_budget=Budget(max_steps=5),
            shrink=False,
        )
        assert outcome.verdict_counts()["lcr-ring"] == {BUDGET_EXCEEDED: 3}
        # A healthy target preempted by its budget is not a failure.
        assert outcome.failures([LCRRingTarget()]) == []

    def test_campaign_budget_interrupts_and_resumes(self):
        roster = [LCRRingTarget(), RacyLockTarget()]
        partial = run_campaign(
            targets=roster,
            runs=6,
            master_seed=MASTER_SEED,
            shrink=False,
            budget=Budget(max_steps=4),
        )
        assert not partial.complete
        assert partial.resume_at["lcr-ring"] == 4
        assert partial.resume_at["racy-lock"] == 0
        assert len(partial.results) == 4

        finished = run_campaign(
            targets=roster,
            runs=6,
            master_seed=MASTER_SEED,
            shrink=False,
            resume=partial,
        )
        assert finished.complete
        unbudgeted = run_campaign(
            targets=roster, runs=6, master_seed=MASTER_SEED, shrink=False
        )
        assert sorted(finished.results, key=lambda r: (r.target, r.index)) == \
            sorted(unbudgeted.results, key=lambda r: (r.target, r.index))

    def test_resume_report_roundtrips_through_multiple_slices(self):
        roster = [LCRRingTarget()]
        report: CampaignReport = run_campaign(
            targets=roster,
            runs=9,
            master_seed=MASTER_SEED,
            shrink=False,
            budget=Budget(max_steps=3),
        )
        slices = 1
        while not report.complete:
            report = run_campaign(
                targets=roster,
                runs=9,
                master_seed=MASTER_SEED,
                shrink=False,
                budget=Budget(max_steps=3),
                resume=report,
            )
            slices += 1
        assert slices == 3
        assert report.verdict_counts()["lcr-ring"] == {PASS: 9}


class TestCommandLine:
    def test_healthy_target_exits_zero(self, capsys):
        code = chaos_main(
            ["--runs", "5", "--seed", "0", "--targets", "lcr-ring"]
        )
        assert code == 0
        assert "lcr-ring" in capsys.readouterr().out

    def test_unfound_planted_bug_exits_nonzero(self, capsys):
        # One run of the floodset target under this seed passes, so the
        # campaign must report the planted bug as never found.
        code = chaos_main(
            ["--runs", "1", "--seed", "0",
             "--targets", "floodset-truncated-crash", "--no-shrink"]
        )
        assert code == 1
        assert "planted bug" in capsys.readouterr().err

    def test_reproduce_flag_verifies_artifact(self, report, tmp_path, capsys):
        cx = report.counterexamples_for("eager-majority-async")[0]
        path = write_counterexample(cx, str(tmp_path))
        assert chaos_main(["--reproduce", path]) == 0
        assert "byte-identical" in capsys.readouterr().out
