"""``campaign``: a streaming chaos campaign over the full target roster.

One pass is the mega-campaign path: ``run_campaign`` over all of
``default_targets()`` with shrinking on, ``keep_results=False``, a fresh
``ScheduleCorpus`` directory and one mutation round.  The master seed is
drawn from the benchmark seed.

Per-case latency is the time between consecutive fold completions,
read from one timestamp per case.  A wrapper around ``CampaignFold.fold``
takes the timestamps; it is installed through :class:`Patches` for the
pass and removed after it, and is the only hook in an untraced pass.
A case that wrote a new behaviour to the corpus is heavy; a case whose
behaviour was already seen is light.
"""

from __future__ import annotations

import gc
import random
import shutil
import tempfile
import time
from typing import List, Optional

from common import PassResult, import_engines, timed_section
from tracer import Patches, Tracer

SIZES = {"full": {"runs": 60}, "tiny": {"runs": 20}}


class CampaignJob:
    def __init__(self, seed: int, size: str, workdir: str):
        campaign, corpus, targets = import_engines(
            ("repro.chaos.campaign", "repro.chaos.corpus", "repro.chaos.targets")
        )
        self.campaign = campaign
        self.corpus = corpus
        self.roster = targets.default_targets()
        self.runs = SIZES[size]["runs"]
        self.master_seed = random.Random(seed).getrandbits(32)
        self.workdir = workdir

    def run_pass(self, tracer: Optional[Tracer] = None) -> PassResult:
        root = tempfile.mkdtemp(prefix="corpus-", dir=self.workdir)
        corpus = self.corpus.ScheduleCorpus(root)
        fold_cls = self.campaign.CampaignFold
        original_fold = fold_cls.fold
        stamps = []

        def fold(fold_self, item, result):
            written = fold_self.corpus_added
            original_fold(fold_self, item, result)
            stamps.append(
                (time.perf_counter(), fold_self.corpus_added != written)
            )

        patches = Patches()
        patches.method(fold_cls, "fold", fold)
        gc.collect()
        try:
            with timed_section(tracer):
                start = time.perf_counter()
                report = self.campaign.run_campaign(
                    targets=self.roster,
                    runs=self.runs,
                    master_seed=self.master_seed,
                    shrink=True,
                    keep_results=False,
                    corpus=corpus,
                    mutations=1,
                )
                wall = time.perf_counter() - start
        finally:
            patches.restore()
        heavy: List[float] = []
        light: List[float] = []
        previous = start
        for stamp, wrote in stamps:
            (heavy if wrote else light).append((stamp - previous) * 1e3)
            previous = stamp
        result = PassResult(
            wall, heavy, light, report.cases, self.oracle(report),
            dict(corpus.store.stats),
        )
        shutil.rmtree(root, ignore_errors=True)
        return result

    def oracle(self, report) -> List[str]:
        """One line per failed case or unmet target expectation."""
        campaign = self.campaign
        failures: List[str] = []
        if not report.complete:
            failures.append("campaign stopped before its last case")
        counts = report.verdict_counts()
        for target in self.roster:
            per = counts.get(target.name, {})
            failures += [f"{target.name}: CRASH"] * per.get(campaign.CRASH, 0)
            if getattr(target, "expect_stall", False):
                if not per.get(campaign.BUDGET_EXCEEDED):
                    failures.append(f"{target.name}: never stalled")
            elif target.expect_violation:
                if not any(cx.replay_verified
                           for cx in report.counterexamples_for(target.name)):
                    failures.append(
                        f"{target.name}: no replay-verified counterexample"
                    )
                continue
            failures += (
                [f"{target.name}: VIOLATION on a healthy target"]
                * per.get(campaign.VIOLATION, 0)
            )
        return failures
