"""The memoized campaign checked against the one that ran everything
(``tests/campaign_reference.py``).

A campaign simulates each distinct ``(target, schedule)`` at most once
and skips the final run and replay of a shrink that ends at a known
exemplar.  Neither may change what the campaign reports: on random
master seeds and small rosters — with a target that counts its runs,
one that always crashes and per-run budgets small enough to overdraw —
the report payload, the corpus segment bytes and the counterexample
artifacts must equal the reference's at ``workers=1`` and ``2``.
"""

import json
import os
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.chaos import campaign as campaign_module
from repro.chaos.campaign import (
    BUDGET_EXCEEDED,
    DEFAULT_PER_RUN_BUDGET,
    CampaignFold,
    report_to_payload,
    run_campaign,
    write_artifacts,
)
from repro.chaos.circumvention_targets import (
    AdversarialSuspicionTarget,
    BuggyLeaseTarget,
    UnstableDetectorTarget,
)
from repro.chaos.corpus import ScheduleCorpus
from repro.chaos.targets import (
    ChaosTarget,
    EIGByzantineTarget,
    LCRRingTarget,
    RacyLockTarget,
)
from repro.core.budget import Budget

from .campaign_reference import reference_campaign


class CountingRacyLock(RacyLockTarget):
    """The racy lock, counting the runs made in this process."""

    name = "counting-racy-lock"
    runs = 0

    def run(self, atoms, meter=None):
        type(self).runs += 1
        return super().run(atoms, meter=meter)


class CountingSuspicion(AdversarialSuspicionTarget):
    """The expect-stall suspicion target, counting the runs made in this
    process."""

    runs = 0

    def run(self, atoms, meter=None):
        type(self).runs += 1
        return super().run(atoms, meter=meter)


class ExplodingTarget(ChaosTarget):
    name = "exploding"
    substrate = "test"
    expect_violation = True

    def generate(self, rng):
        return (rng.randrange(3),)

    def run(self, atoms, meter=None):
        raise RuntimeError("simulator bug")

    def monitors(self, atoms):
        return []


POOL = (
    CountingRacyLock,
    ExplodingTarget,
    UnstableDetectorTarget,
    LCRRingTarget,
    BuggyLeaseTarget,
    EIGByzantineTarget,
    AdversarialSuspicionTarget,
)

#: ``None``, the default, and budgets that overdraw some detector,
#: lease and ring runs (BUDGET_EXCEEDED cases, never memoized) and,
#: below the stall target's own budget, its runs too.
BUDGETS = (None, DEFAULT_PER_RUN_BUDGET, Budget(max_steps=120),
           Budget(max_steps=40))


def _outputs(report, corpus_dir, artifact_dir):
    segments = os.path.join(corpus_dir, "segments")
    segment_bytes = sorted(
        open(os.path.join(segments, name), "rb").read()
        for name in (os.listdir(segments) if os.path.isdir(segments) else ())
    )
    artifacts = {}
    for path in write_artifacts(report, artifact_dir):
        with open(path, "rb") as handle:
            artifacts[os.path.basename(path)] = handle.read()
    payload = json.dumps(report_to_payload(report), sort_keys=True)
    return payload, segment_bytes, artifacts


def _both(tmp_path, tag, roster_classes, runs, master_seed, budget,
          mutations, workers):
    reference_dir = str(tmp_path / f"{tag}-ref")
    corpus = ScheduleCorpus(reference_dir)
    expected = reference_campaign(
        [cls() for cls in roster_classes], runs, master_seed,
        per_run_budget=budget, corpus=corpus, mutations=mutations,
    )
    corpus.close()
    memo_dir = str(tmp_path / f"{tag}-memo")
    report = run_campaign(
        targets=[cls() for cls in roster_classes], runs=runs,
        master_seed=master_seed, per_run_budget=budget, corpus=memo_dir,
        mutations=mutations, workers=workers,
    )
    return (
        _outputs(expected, reference_dir, str(tmp_path / f"{tag}-ref-a")),
        _outputs(report, memo_dir, str(tmp_path / f"{tag}-memo-a")),
    )


rosters = st.lists(
    st.sampled_from(POOL), min_size=1, max_size=4, unique=True
)


@settings(max_examples=25, deadline=None)
@given(
    roster=rosters,
    master_seed=st.integers(0, 2**16),
    runs=st.integers(1, 8),
    budget=st.sampled_from(BUDGETS),
    mutations=st.integers(0, 1),
)
def test_serial_campaign_matches_the_reference(
    tmp_path_factory, roster, master_seed, runs, budget, mutations
):
    tmp_path = tmp_path_factory.mktemp("serial")
    expected, actual = _both(
        tmp_path, "s", roster, runs, master_seed, budget, mutations, 1
    )
    assert actual == expected


@settings(max_examples=6, deadline=None)
@given(
    roster=rosters,
    master_seed=st.integers(0, 2**16),
    runs=st.integers(1, 8),
    budget=st.sampled_from(BUDGETS),
)
def test_sharded_campaign_matches_the_reference(
    tmp_path_factory, roster, master_seed, runs, budget
):
    tmp_path = tmp_path_factory.mktemp("sharded")
    expected, actual = _both(
        tmp_path, "p", roster, runs, master_seed, budget, 1, 2
    )
    assert actual == expected


def test_repeat_schedules_are_not_run_again(tmp_path):
    # The racy lock draws short index schedules, so a 40-run campaign
    # repeats some; each distinct schedule runs once per campaign.
    CountingRacyLock.runs = 0
    reference_campaign([CountingRacyLock()], 40, 3, shrink=False)
    reference_runs = CountingRacyLock.runs
    CountingRacyLock.runs = 0
    report = run_campaign(
        targets=[CountingRacyLock()], runs=40, master_seed=3, shrink=False
    )
    distinct = {
        r.fingerprint for r in report.results if r.fingerprint
    }
    assert reference_runs == 40
    assert len(distinct) <= CountingRacyLock.runs < reference_runs


def test_streaming_memo_never_exceeds_its_cap(monkeypatch):
    monkeypatch.setattr(campaign_module, "RUN_MEMO_CAP", 64)
    largest = []
    real_fold = CampaignFold.fold

    def fold(self, item, result):
        real_fold(self, item, result)
        largest.append(len(self.memo))

    monkeypatch.setattr(CampaignFold, "fold", fold)
    roster = [RacyLockTarget(), LCRRingTarget(), UnstableDetectorTarget(),
              EIGByzantineTarget()]
    report = run_campaign(
        targets=roster, runs=500, master_seed=0, keep_results=False
    )
    assert report.cases == 2000
    assert max(largest) == 64


@pytest.mark.parametrize("workers", [1, 2])
def test_memo_hits_fold_with_their_own_coordinates(workers):
    # Every case result carries its own index and seed, memoized or not.
    report = run_campaign(
        targets=[UnstableDetectorTarget()], runs=12, master_seed=5,
        workers=workers,
    )
    expected = reference_campaign([UnstableDetectorTarget()], 12, 5)
    assert report.results == expected.results


@pytest.mark.parametrize(
    "budget, memoized",
    # The target's own STALL_BUDGET (120 steps) overdraws first: its
    # overdraft names only the target, so a repeat is folded unrun.  A
    # 40-step per-case meter overdraws first: its error names the case,
    # so every repeat runs.
    [(None, True), (Budget(max_steps=40), False)],
)
def test_only_own_budget_stalls_are_memoized(budget, memoized):
    CountingSuspicion.runs = 0
    expected = reference_campaign(
        [CountingSuspicion()], 30, 1, per_run_budget=budget, shrink=False
    )
    CountingSuspicion.runs = 0
    report = run_campaign(
        targets=[CountingSuspicion()], runs=30, master_seed=1,
        per_run_budget=budget, shrink=False,
    )
    assert report.results == expected.results
    assert [r.error for r in report.results] == [
        r.error for r in expected.results
    ]
    schedules = [
        tuple(CountingSuspicion().generate(random.Random(r.seed)))
        for r in report.results
    ]
    stalls = [
        atoms for atoms, r in zip(schedules, report.results)
        if r.verdict == BUDGET_EXCEEDED
    ]
    assert len(set(stalls)) < len(stalls)  # some stall schedules repeat
    if memoized:
        assert CountingSuspicion.runs == len(set(schedules))
    else:
        completed = set(schedules) - set(stalls)
        assert CountingSuspicion.runs == len(completed) + len(stalls)
