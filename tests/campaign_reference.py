"""The chaos campaign as it was before the run memo — kept only as the
differential reference for ``tests/test_campaign_memo.py``.

A serial loop over the same plan: every case runs its target, every
shrink check runs, every shrink ends with a run of the shrunk schedule
(unless the accepted check's trace is at hand) and every new shrink is
replay-verified.  Nothing is remembered across cases except the
exemplars and the outcome-signature cache, exactly as the fold did.
"""

from __future__ import annotations

import random

from repro.chaos.campaign import (
    BUDGET_EXCEEDED,
    CRASH,
    DEFAULT_PER_RUN_BUDGET,
    PASS,
    VIOLATION,
    CampaignReport,
    CaseResult,
    Counterexample,
)
from repro.chaos.corpus import CorpusEntry, CoverageMap, stall_fingerprint
from repro.chaos.generators import mutate_schedule
from repro.chaos.shrink import shrink_schedule
from repro.core.budget import BudgetExceeded
from repro.core.runtime import ReplayError, derive_seed, replay


def _execute(target, index, seed, atoms, per_run_budget):
    meter = (
        per_run_budget.meter(f"{target.name}#{index}")
        if per_run_budget is not None
        else None
    )
    try:
        trace = target.run(atoms, meter=meter)
    except BudgetExceeded as exc:
        fingerprint = (
            stall_fingerprint(atoms)
            if getattr(target, "expect_stall", False)
            else ""
        )
        return CaseResult(
            target.name, index, seed, BUDGET_EXCEEDED,
            error=str(exc), fingerprint=fingerprint,
        )
    except Exception as exc:
        return CaseResult(target.name, index, seed, CRASH, error=repr(exc))
    violations = tuple(target.violations(trace, atoms))
    return CaseResult(
        target.name, index, seed, VIOLATION if violations else PASS,
        violations=violations, fingerprint=trace.fingerprint(),
    )


def _shrink(target, atoms, seed, index, per_run_budget, shrink_checks):
    accepted = None

    def fails(candidate):
        nonlocal accepted
        candidate = tuple(candidate)
        meter = (
            per_run_budget.meter(f"{target.name}-shrink")
            if per_run_budget is not None
            else None
        )
        try:
            trace = target.run(candidate, meter=meter)
        except Exception:
            return False
        violations = target.violations(trace, candidate)
        if violations:
            accepted = candidate, trace, violations
        return bool(violations)

    shrunk, checks = shrink_schedule(
        atoms, fails, target.simplify_atom, max_checks=shrink_checks
    )
    if accepted is not None and accepted[0] == shrunk:
        _, trace, violations = accepted
    else:
        trace = target.run(shrunk)
        violations = target.violations(trace, shrunk)
    try:
        replay(trace)
        verified = True
    except ReplayError:
        verified = False
    return Counterexample(
        target=target.name, index=index, seed=seed, atoms=tuple(atoms),
        shrunk=tuple(shrunk), violation=violations[0], trace=trace,
        fingerprint=trace.fingerprint(), shrink_checks=checks,
        replay_verified=verified,
    )


class _Fold:
    def __init__(self, shrink, shrink_checks, per_run_budget, corpus):
        self.shrink = shrink
        self.shrink_checks = shrink_checks
        self.per_run_budget = per_run_budget
        self.corpus = corpus
        self.results = []
        self.tallies = {}
        self.counterexamples = []
        self.coverage = CoverageMap()
        self.corpus_added = 0
        self.exemplars = {}
        self.sig_cache = {}
        if corpus is not None:
            corpus.seed_coverage(self.coverage)

    def case(self, target, index, seed, atoms):
        result = _execute(target, index, seed, atoms, self.per_run_budget)
        per = self.tallies.setdefault(result.target, {})
        per[result.verdict] = per.get(result.verdict, 0) + 1
        self.results.append(result)
        novel = bool(result.fingerprint) and self.coverage.observe(
            result.target, result.fingerprint
        )
        if novel and self.corpus is not None:
            if self.corpus.add(CorpusEntry(
                target=result.target, trace_fingerprint=result.fingerprint,
                atoms=atoms, seed=seed, verdict=result.verdict,
            )):
                self.corpus_added += 1
        if result.verdict == VIOLATION and self.shrink:
            signature = (
                result.target, result.verdict, result.violations,
                result.error,
            )
            known = self.sig_cache.get(signature)
            if known is not None:
                known.occurrences += 1
                return
            cx = _shrink(target, atoms, seed, index, self.per_run_budget,
                         self.shrink_checks)
            exemplar = self.exemplars.get((cx.target, cx.fingerprint))
            if exemplar is not None:
                exemplar.occurrences += 1
                self.sig_cache[signature] = exemplar
                return
            self.exemplars[(cx.target, cx.fingerprint)] = cx
            self.sig_cache[signature] = cx
            self.counterexamples.append(cx)


def reference_campaign(
    targets,
    runs,
    master_seed,
    per_run_budget=DEFAULT_PER_RUN_BUDGET,
    shrink=True,
    shrink_checks=256,
    keep_results=True,
    corpus=None,
    mutations=0,
):
    """The campaign report :func:`repro.chaos.campaign.run_campaign`
    gives for these arguments (no campaign budget, no resume)."""
    roster = list(targets)
    fold = _Fold(shrink, shrink_checks, per_run_budget, corpus)
    for target in roster:
        for index in range(runs):
            seed = derive_seed(master_seed, target.name, index)
            atoms = tuple(target.generate(random.Random(seed)))
            fold.case(target, index, seed, atoms)
    if corpus is not None:
        corpus.sync()
        if mutations > 0:
            registry = {target.name: target for target in roster}
            cursors = {name: runs for name in registry}
            for entry in corpus.entries():
                target = registry.get(entry.target)
                if target is None:
                    continue
                for _ in range(mutations):
                    index = cursors[entry.target]
                    cursors[entry.target] = index + 1
                    seed = derive_seed(master_seed, entry.target, index)
                    atoms = tuple(mutate_schedule(
                        random.Random(seed), entry.atoms, target.generate
                    ))
                    fold.case(target, index, seed, atoms)
        corpus.sync()
    return CampaignReport(
        master_seed=master_seed,
        runs=runs,
        results=fold.results if keep_results else None,
        counterexamples=fold.counterexamples,
        complete=True,
        resume_at={target.name: runs for target in roster},
        tallies=fold.tallies,
        coverage=fold.coverage.counts(),
        cases=len(fold.results),
        corpus_added=fold.corpus_added,
    )
