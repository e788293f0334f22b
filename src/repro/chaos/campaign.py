"""The chaos campaign runner: fuzz, classify, shrink, replay, report.

A campaign is a *fold over a stream of case outcomes* — one pipeline at
any scale and any worker count:

* a **planner** generates case coordinates lazily in serial order
  (target by target, index ascending), charging the campaign budget as
  it goes; every case's seed is ``derive_seed(master_seed, target.name,
  index)``, so any single case replays from ``(master_seed, target,
  index)`` alone;
* cases execute through :meth:`~repro.parallel.pool.WorkerPool.
  map_stream` — a bounded in-flight window that yields ``(case,
  outcome)`` pairs in submission order, so at most a few chunks of
  cases exist at once whether ``workers`` is 1 or 16;
* the parent folds each outcome into a :class:`CampaignFold`: verdict
  tallies, behavioural coverage (trace fingerprints), novel-coverage
  schedules into an optional :class:`~repro.chaos.corpus.ScheduleCorpus`,
  and shrunk counterexample *exemplars* deduplicated by shrunk-trace
  fingerprint — never the full result list unless asked
  (``keep_results=True``, the default for test-sized campaigns).

Memory is therefore bounded by *behaviours found*, not cases run:
``python -m repro.chaos --cases 1000000 --corpus DIR`` holds tallies, a
fingerprint set and a handful of exemplars.  Determinism is by
construction: the fold consumes outcomes in the exact serial order at
every worker count, so reports, summaries and artifacts are
byte-identical from ``workers=1`` to ``workers=N`` and from batch to
streaming mode.

A run is a pure function of ``(target, schedule)`` (targets take no
seed), so the fold keeps a bounded **run memo**: a planned case whose
schedule this campaign already ran is folded from the memo instead of
being simulated again, and the shrinker consults the same memo before
each check.

Violating schedules are delta-debugged
(:func:`~repro.chaos.shrink.shrink_schedule`) to 1-minimal
counterexamples, re-executed, and re-verified byte-identical through
:func:`repro.core.runtime.replay` — unless the shrunk schedule is one a
known exemplar already holds, which then just counts one more
occurrence.  An optional campaign-wide budget turns the sweep into a
resumable anytime computation: overdraft returns
a partial report with ``complete=False`` and per-target ``resume_at``
indices, accepted back via ``resume=`` to continue exactly where it
stopped.  After the base sweep, an optional **mutation stage**
re-expands every corpus schedule through seeded mutation operators
(:func:`~repro.chaos.generators.mutate_schedule`), chasing behaviours
near the ones already found.

Counterexamples serialize to single-file JSONL artifacts (metadata line
plus the shrunk run's trace, streamed through
:class:`~repro.core.artifacts.AtomicLineWriter`) and :func:`reproduce`
re-derives and re-verifies one from its file alone; ``case_log=`` adds
an incremental per-case JSONL artifact written the same atomic way.
"""

from __future__ import annotations

import json
import os
import random
from dataclasses import dataclass, field, replace
from typing import Dict, Iterable, Iterator, List, Optional, Tuple, Union

from ..core.artifacts import AtomicLineWriter
from ..core.budget import Budget, BudgetExceeded
from ..core.canonical import decode, encode
from ..core.runtime import ReplayError, Trace, derive_seed, replay
from ..parallel.pool import WorkerPool, resolve_workers
from .corpus import (
    CorpusEntry,
    CoverageMap,
    ScheduleCorpus,
    stall_fingerprint,
)
from .generators import mutate_schedule
from .monitors import Violation
from .shrink import shrink_schedule
from .targets import ChaosTarget, default_targets, target_registry

PASS = "PASS"
VIOLATION = "VIOLATION"
BUDGET_EXCEEDED = "BUDGET_EXCEEDED"
CRASH = "CRASH"

ARTIFACT_SCHEMA = "repro-chaos-counterexample/v1"
REPORT_SCHEMA = "repro-chaos-report/v2"
CASE_LOG_SCHEMA = "repro-chaos-case-log/v1"

DEFAULT_PER_RUN_BUDGET = Budget(max_steps=20_000)

#: Cases per worker submission in streaming mode — with the default
#: window of ``2 * workers`` chunks, at most ``32 * workers`` cases are
#: in flight regardless of campaign size.
STREAM_CHUNK = 16

#: Most ``(target, schedule)`` runs one campaign's run memo holds; the
#: oldest are evicted first, so a streaming campaign's memory stays
#: bounded by behaviours, not by cases.
RUN_MEMO_CAP = 4096


@dataclass(frozen=True)
class CaseResult:
    """The structured verdict of one fuzzed run.

    ``fingerprint`` is the executed trace's fingerprint — the
    behavioural-coverage signal — empty when no trace was produced
    (CRASH, BUDGET_EXCEEDED).  ``own_budget`` marks a BUDGET_EXCEEDED
    raised by the target's own step budget rather than the per-case
    meter: such an overdraft is a function of the schedule alone.
    """

    target: str
    index: int
    seed: int
    verdict: str
    violations: Tuple[Violation, ...] = ()
    error: str = ""
    fingerprint: str = ""
    own_budget: bool = field(default=False, compare=False, repr=False)


@dataclass
class Counterexample:
    """A shrunk, replay-verified failure with its reproduction coordinates.

    One counterexample is an *exemplar*: ``occurrences`` counts how many
    violating cases collapsed onto it (same shrunk-trace fingerprint),
    so a planted bug found 40 times reports as one exemplar x40, not 40
    near-identical entries.
    """

    target: str
    index: int
    seed: int
    atoms: Tuple
    shrunk: Tuple
    violation: Violation
    trace: Trace = field(repr=False)
    fingerprint: str = ""
    shrink_checks: int = 0
    replay_verified: bool = False
    occurrences: int = 1


@dataclass
class CampaignReport:
    """Everything one campaign produced; feed back as ``resume=`` to extend.

    ``results`` is the full per-case list in batch mode and ``None`` in
    streaming mode (``keep_results=False``); everything else — tallies,
    coverage, exemplars, summary — is identical either way, because the
    fold maintains it incrementally in both.  ``throughput`` is
    wall-clock derived and excluded from comparisons and store payloads.
    """

    master_seed: int
    runs: int
    results: Optional[List[CaseResult]] = field(default_factory=list)
    counterexamples: List[Counterexample] = field(default_factory=list)
    complete: bool = True
    resume_at: Dict[str, int] = field(default_factory=dict)
    tallies: Dict[str, Dict[str, int]] = field(default_factory=dict)
    coverage: Dict[str, int] = field(default_factory=dict)
    cases: int = 0
    corpus_added: int = 0
    throughput: Dict[str, float] = field(default_factory=dict, compare=False)

    def verdict_counts(self) -> Dict[str, Dict[str, int]]:
        if self.tallies:
            return {name: dict(per) for name, per in self.tallies.items()}
        counts: Dict[str, Dict[str, int]] = {}
        for result in self.results or ():
            per_target = counts.setdefault(result.target, {})
            per_target[result.verdict] = per_target.get(result.verdict, 0) + 1
        return counts

    def counterexamples_for(self, target: str) -> List[Counterexample]:
        return [cx for cx in self.counterexamples if cx.target == target]

    def dedup_stats(self) -> Dict[str, Dict[str, int]]:
        """Violation dedup by shrunk-counterexample fingerprint, per target.

        Many violating cases are the *same bug* wearing different random
        schedules: after delta-debugging they collapse onto a handful of
        1-minimal traces.  Deduplication therefore keys on the shrunk
        trace's fingerprint — the bug's canonical form — not on the raw
        outcome signature, which over-counts cosmetic variation in the
        unshrunk runs.  ``violations`` is the number of violating cases
        folded onto each target's exemplars, ``exemplars`` how many
        distinct shrunk fingerprints survived.
        """
        stats: Dict[str, Dict[str, int]] = {}
        for cx in self.counterexamples:
            per = stats.setdefault(
                cx.target, {"violations": 0, "exemplars": 0}
            )
            per["violations"] += cx.occurrences
            per["exemplars"] += 1
        return stats

    def failures(
        self, targets: Optional[Iterable[ChaosTarget]] = None
    ) -> List[str]:
        """Why this campaign fails CI (empty list = healthy).

        A planted-bug target that produced no violation means the fuzzer
        lost its prey; a healthy target with a violation or crash means
        the engine (or a simulator) produced a false positive.
        """
        registry = target_registry(targets)
        counts = self.verdict_counts()
        problems = []
        for name, target in registry.items():
            per_target = counts.get(name, {})
            if getattr(target, "expect_stall", False):
                if not per_target.get(BUDGET_EXCEEDED):
                    problems.append(
                        f"{name}: adversarial-stall target never exhausted "
                        f"its budget (verdicts: {per_target or 'none'})"
                    )
                for bad in (VIOLATION, CRASH):
                    if per_target.get(bad):
                        problems.append(
                            f"{name}: stall target produced "
                            f"{per_target[bad]} {bad} verdict(s) — it must "
                            "sacrifice liveness, never safety"
                        )
            elif target.expect_violation:
                if not per_target.get(VIOLATION):
                    problems.append(
                        f"{name}: planted bug never tripped a monitor "
                        f"(verdicts: {per_target or 'none'})"
                    )
            else:
                for bad in (VIOLATION, CRASH):
                    if per_target.get(bad):
                        problems.append(
                            f"{name}: healthy target produced "
                            f"{per_target[bad]} {bad} verdict(s)"
                        )
        return problems

    def summary(
        self, targets: Optional[Iterable[ChaosTarget]] = None
    ) -> str:
        registry = target_registry(targets)
        counts = self.verdict_counts()
        lines = [
            f"chaos campaign: master_seed={self.master_seed} "
            f"runs/target={self.runs} complete={self.complete}"
        ]
        for name in sorted(set(counts) | set(registry)):
            per_target = counts.get(name, {})
            tally = " ".join(
                f"{verdict}={per_target[verdict]}"
                for verdict in (PASS, VIOLATION, BUDGET_EXCEEDED, CRASH)
                if per_target.get(verdict)
            ) or "no runs"
            if name in registry and getattr(
                registry[name], "expect_stall", False
            ):
                expectation = "expects stall"
            elif name in registry and registry[name].expect_violation:
                expectation = "expects violation"
            else:
                expectation = "healthy"
            lines.append(f"  {name} ({expectation}): {tally}")
        if self.coverage:
            lines.append(
                f"  coverage: {sum(self.coverage.values())} distinct traces "
                f"over {self.cases} cases"
            )
        dedup = self.dedup_stats()
        if dedup:
            violations = sum(d["violations"] for d in dedup.values())
            exemplars = sum(d["exemplars"] for d in dedup.values())
            lines.append(
                f"  violation dedup: {violations} violating runs -> "
                f"{exemplars} shrunk exemplars"
            )
        for cx in self.counterexamples:
            lines.append(
                f"  counterexample {cx.target}: seed={cx.seed} "
                f"|schedule| {len(cx.atoms)} -> {len(cx.shrunk)} "
                f"[{cx.violation.monitor}] fingerprint={cx.fingerprint[:16]} "
                f"replay={'ok' if cx.replay_verified else 'DIVERGED'} "
                f"x{cx.occurrences}"
            )
        if not self.complete:
            lines.append(
                "  budget exhausted; resume from "
                + ", ".join(
                    f"{name}@{index}"
                    for name, index in sorted(self.resume_at.items())
                    if index < self.runs
                )
            )
        return "\n".join(lines)


# ---------------------------------------------------------------------------
# Case execution (worker side)
# ---------------------------------------------------------------------------

#: A run's monitored outcome: its violations, its trace fingerprint
#: (empty when only the violations are known) and, for a run that
#: overdrew the target's own budget, the overdraft's error text.
KnownRun = Tuple[Tuple[Violation, ...], str, str]

#: One planned case: everything a worker needs to execute it from
#: scratch — ``(target, index, seed, atoms, per_run_budget, known)``.
#: ``known`` is the memoized outcome of ``atoms`` when the campaign has
#: already run that schedule; such a case is folded without a run.
PlanItem = Tuple[
    ChaosTarget, int, int, Tuple, Optional[Budget], Optional[KnownRun]
]


class _RunMemo:
    """The outcomes of the ``(target, schedule)`` runs a campaign made.

    Completed runs (PASS or VIOLATION) are kept, and so are overdrafts
    of the target's own step budget (an expect-stall target's
    ``STALL_BUDGET``), whose error text names only the target.  A CRASH
    or an overdraft of the per-case meter, whose error names the case,
    always runs.  Shrink checks record violations alone (no
    fingerprint), which answers a later check but not a case.  At most
    :data:`RUN_MEMO_CAP` entries are kept, oldest evicted first.
    """

    def __init__(self):
        self._runs: Dict[Tuple[ChaosTarget, Tuple], KnownRun] = {}

    def __len__(self) -> int:
        return len(self._runs)

    def get(self, target: ChaosTarget, atoms: Tuple) -> Optional[KnownRun]:
        return self._runs.get((target, atoms))

    def known_case(
        self, target: ChaosTarget, atoms: Tuple
    ) -> Optional[KnownRun]:
        """The outcome a case of ``atoms`` would fold, if fully known."""
        known = self._runs.get((target, atoms))
        return known if known is not None and known[1] else None

    def remember(
        self,
        target: ChaosTarget,
        atoms: Tuple,
        violations: Tuple[Violation, ...],
        fingerprint: str = "",
        stall: str = "",
    ) -> None:
        key = (target, atoms)
        known = self._runs.get(key)
        if known is not None and (known[1] or not fingerprint):
            return
        self._runs[key] = (violations, fingerprint, stall)
        if len(self._runs) > RUN_MEMO_CAP:
            del self._runs[next(iter(self._runs))]


def _execute_case(item: PlanItem) -> CaseResult:
    """Run one planned case; classification only, no shrinking.

    Pure function of the plan item — safe to run in any process, in any
    order.  Shrinking stays in the parent fold so counterexample
    artifacts are byte-identical at every worker count.
    """
    target, index, seed, atoms, per_run_budget, known = item
    if known is not None:
        violations, fingerprint, stall = known
        if stall:
            return CaseResult(
                target.name, index, seed, BUDGET_EXCEEDED,
                error=stall, fingerprint=fingerprint,
            )
        return CaseResult(
            target.name,
            index,
            seed,
            VIOLATION if violations else PASS,
            violations=violations,
            fingerprint=fingerprint,
        )
    meter = (
        per_run_budget.meter(f"{target.name}#{index}")
        if per_run_budget is not None
        else None
    )
    try:
        trace = target.run(atoms, meter=meter)
    except BudgetExceeded as exc:
        # The fold gives an expect-stall target's receipt its fingerprint.
        return CaseResult(
            target.name, index, seed, BUDGET_EXCEEDED,
            error=str(exc), own_budget=exc.context == target.name,
        )
    except Exception as exc:
        # Fault isolation: one broken run is a verdict, not a campaign abort.
        return CaseResult(target.name, index, seed, CRASH, error=repr(exc))
    violations = tuple(target.violations(trace, atoms))
    verdict = VIOLATION if violations else PASS
    return CaseResult(
        target.name,
        index,
        seed,
        verdict,
        violations=violations,
        fingerprint=trace.fingerprint(),
    )


def _is_known(item: PlanItem) -> bool:
    return item[5] is not None


def _shrink_case(
    target: ChaosTarget,
    atoms: Tuple,
    seed: int,
    index: int,
    per_run_budget: Optional[Budget],
    shrink_checks: int,
    memo: _RunMemo,
    exemplars: Dict[Tuple[str, Tuple], Counterexample],
) -> Counterexample:
    """Minimize one violating schedule and re-verify the result.

    ``memo`` answers checks of schedules already run and records the
    new ones.  ``exemplars`` maps ``(target name, shrunk schedule)`` to
    known exemplars: a shrink ending at one of those returns it as is,
    without a final run, fingerprint or replay.
    """
    # ``(candidate, trace, violations)`` of the last check that ran and
    # failed.  Its candidate is usually the shrunk schedule, whose run
    # then need not be repeated: a meter only raises, so it never
    # changes a trace.
    accepted = None

    def fails(candidate: Tuple) -> bool:
        nonlocal accepted
        candidate = tuple(candidate)
        known = memo.get(target, candidate)
        if known is not None:
            return bool(known[0])
        meter = (
            per_run_budget.meter(f"{target.name}-shrink")
            if per_run_budget is not None
            else None
        )
        try:
            trace = target.run(candidate, meter=meter)
        except Exception:
            # A crash or budget overdraft is a *different* failure mode;
            # the shrinker must stay on the monitored violation.
            return False
        violations = tuple(target.violations(trace, candidate))
        memo.remember(target, candidate, violations)
        if violations:
            accepted = candidate, trace, violations
        return bool(violations)

    shrunk, checks = shrink_schedule(
        atoms, fails, target.simplify_atom, max_checks=shrink_checks
    )
    exemplar = exemplars.get((target.name, shrunk))
    if exemplar is not None:
        return exemplar
    if accepted is not None and accepted[0] == shrunk:
        _, trace, violations = accepted
    else:
        trace = target.run(shrunk)
        violations = target.violations(trace, shrunk)
    violation = violations[0]
    try:
        replay(trace)
        verified = True
    except ReplayError:
        verified = False
    return Counterexample(
        target=target.name,
        index=index,
        seed=seed,
        atoms=tuple(atoms),
        shrunk=tuple(shrunk),
        violation=violation,
        trace=trace,
        fingerprint=trace.fingerprint(),
        shrink_checks=checks,
        replay_verified=verified,
    )


# ---------------------------------------------------------------------------
# The fold (parent side)
# ---------------------------------------------------------------------------


class CampaignFold:
    """The constant-memory accumulator a streaming campaign folds into.

    Consumes ``(plan item, CaseResult)`` pairs in serial order and
    maintains:

    * per-target verdict **tallies** (what the report and summary read);
    * a behavioural **coverage** map of trace fingerprints, sized by
      distinct behaviours, not cases;
    * optional **corpus** persistence of every novel-coverage schedule;
    * a capped **run memo** of completed ``(target, schedule)`` runs
      and of overdrafts of a target's own step budget,
      which the planner reads to fold repeat cases without running them
      and the shrinker reads before each check;
    * shrunk counterexample **exemplars**, deduplicated three ways: a
      raw outcome-signature cache short-circuits re-shrinking cases
      whose ``(verdict, violations, error)`` was already minimized, a
      shrink that ends at an exemplar's shrunk schedule merges into it
      without re-running that schedule, and the shrunk-trace
      fingerprint merges distinct shrunk schedules that minimize to the
      same bug (``occurrences`` counts all three);
    * optionally the full **results** list (batch mode) and an
      incremental per-case JSONL **log**.

    Everything here is a pure function of the fold order, which the
    planner fixes to the serial iteration order at any worker count;
    the memo only decides which runs are repeated, never what they
    produce.
    """

    def __init__(
        self,
        shrink: bool,
        shrink_checks: int,
        per_run_budget: Optional[Budget],
        keep_results: bool = True,
        corpus: Optional[ScheduleCorpus] = None,
        case_log: Optional[AtomicLineWriter] = None,
        resume: Optional[CampaignReport] = None,
    ):
        self.shrink = shrink
        self.shrink_checks = shrink_checks
        self.per_run_budget = per_run_budget
        self.corpus = corpus
        self.case_log = case_log
        self.results: Optional[List[CaseResult]] = None
        if keep_results:
            self.results = (
                list(resume.results)
                if resume is not None and resume.results is not None
                else []
            )
        self.tallies: Dict[str, Dict[str, int]] = {}
        self.counterexamples: List[Counterexample] = []
        self.coverage = CoverageMap()
        self.memo = _RunMemo()
        self.cases = 0
        self.corpus_added = 0
        self._exemplars: Dict[Tuple[str, str], Counterexample] = {}
        self._by_schedule: Dict[Tuple[str, Tuple], Counterexample] = {}
        self._sig_cache: Dict[Tuple, Counterexample] = {}
        self._meter = Budget().meter("chaos-campaign-throughput")
        if resume is not None:
            self.tallies = {
                name: dict(per) for name, per in resume.tallies.items()
            }
            self.counterexamples = list(resume.counterexamples)
            self.cases = resume.cases
            for cx in self.counterexamples:
                self._exemplars[(cx.target, cx.fingerprint)] = cx
                self._by_schedule[(cx.target, tuple(cx.shrunk))] = cx
        if corpus is not None:
            # A campaign resumed against an existing corpus chases only
            # behaviours the corpus has not seen.
            corpus.seed_coverage(self.coverage)

    def fold(self, item: PlanItem, result: CaseResult) -> None:
        target, _index, _seed, atoms, _budget, known = item
        encoded = None
        if (
            known is None
            and result.verdict == BUDGET_EXCEEDED
            and getattr(target, "expect_stall", False)
        ):
            # An expect-stall target's budget receipt is a first-class
            # behaviour: give it the synthetic schedule-digest fingerprint
            # so the corpus can persist it and replay can demand the stall
            # reproduce.  The schedule is encoded once, for the digest and
            # for a corpus entry.  Unexpected overdrafts stay
            # fingerprint-less.
            encoded = encode(tuple(atoms))
            result = replace(
                result, fingerprint=stall_fingerprint(atoms, encoded)
            )
        self.cases += 1
        self._meter.charge_steps()
        per_target = self.tallies.setdefault(result.target, {})
        per_target[result.verdict] = per_target.get(result.verdict, 0) + 1
        if self.results is not None:
            self.results.append(result)
        if self.case_log is not None:
            self.case_log.write_json_line(_case_log_line(result))
        if known is None and result.verdict in (PASS, VIOLATION):
            self.memo.remember(
                target, atoms, result.violations, result.fingerprint
            )
        elif known is None and result.own_budget:
            self.memo.remember(
                target, atoms, (), result.fingerprint, result.error
            )
        novel = bool(result.fingerprint) and self.coverage.observe(
            result.target, result.fingerprint
        )
        if novel and self.corpus is not None:
            if self.corpus.add(
                CorpusEntry(
                    target=result.target,
                    trace_fingerprint=result.fingerprint,
                    atoms=atoms,
                    seed=result.seed,
                    verdict=result.verdict,
                    encoded_atoms=encoded,
                )
            ):
                self.corpus_added += 1
        if result.verdict == VIOLATION and self.shrink:
            self._fold_violation(target, atoms, result)

    def _fold_violation(
        self, target: ChaosTarget, atoms: Tuple, result: CaseResult
    ) -> None:
        signature = (
            result.target, result.verdict, result.violations, result.error,
        )
        known = self._sig_cache.get(signature)
        if known is not None:
            known.occurrences += 1
            return
        cx = _shrink_case(
            target,
            atoms,
            result.seed,
            result.index,
            self.per_run_budget,
            self.shrink_checks,
            memo=self.memo,
            exemplars=self._by_schedule,
        )
        exemplar = self._exemplars.get((cx.target, cx.fingerprint))
        if exemplar is not None:
            # A different raw outcome that minimizes to a known bug.
            exemplar.occurrences += 1
            self._sig_cache[signature] = exemplar
            self._by_schedule[(cx.target, cx.shrunk)] = exemplar
            return
        self._exemplars[(cx.target, cx.fingerprint)] = cx
        self._by_schedule[(cx.target, cx.shrunk)] = cx
        self._sig_cache[signature] = cx
        self.counterexamples.append(cx)

    def throughput(self) -> Dict[str, float]:
        spent = self._meter.throughput()
        return {
            "cases_per_s": spent["steps_per_s"],
            "seconds": spent["seconds"],
        }


def _case_log_line(result: CaseResult) -> Dict:
    return {
        "target": result.target,
        "index": result.index,
        "seed": result.seed,
        "verdict": result.verdict,
        "fingerprint": result.fingerprint,
        "error": result.error,
        "violations": [_violation_to_payload(v) for v in result.violations],
    }


# ---------------------------------------------------------------------------
# Planning (parent side)
# ---------------------------------------------------------------------------


def _plan_cases(
    roster: List[ChaosTarget],
    runs: int,
    master_seed: int,
    start_at: Dict[str, int],
    per_run_budget: Optional[Budget],
    campaign_meter,
    state: Dict,
    memo: _RunMemo,
) -> Iterator[PlanItem]:
    """Yield base cases lazily in serial order, charging the budget.

    Each case's schedule is generated here, once, and looked up in
    ``memo``.  ``state`` receives ``resume_at`` per finished target and
    ``interrupted`` on overdraft — exactly the bookkeeping the batch
    runner did eagerly, now performed as the stream is pulled.
    """
    for target in roster:
        index = start_at.get(target.name, 0)
        while index < runs:
            if campaign_meter is not None:
                try:
                    campaign_meter.charge_steps()
                except BudgetExceeded:
                    state["interrupted"] = True
                    state["resume_at"][target.name] = index
                    return
            seed = derive_seed(master_seed, target.name, index)
            atoms = tuple(target.generate(random.Random(seed)))
            yield (
                target, index, seed, atoms, per_run_budget,
                memo.known_case(target, atoms),
            )
            index += 1
        state["resume_at"][target.name] = index


def _plan_mutations(
    roster: List[ChaosTarget],
    corpus: ScheduleCorpus,
    runs: int,
    mutations: int,
    master_seed: int,
    per_run_budget: Optional[Budget],
    campaign_meter,
    memo: _RunMemo,
) -> Iterator[PlanItem]:
    """Yield mutation cases: each corpus schedule, mutated ``mutations``
    times through :func:`~repro.chaos.generators.mutate_schedule`.

    Runs strictly after the base sweep, so the corpus content — and
    hence this plan — is a deterministic function of the base fold at
    any worker count.  Mutation indices continue past ``runs`` per
    target, keeping ``derive_seed`` coordinates disjoint from base
    cases.  The campaign budget also bounds this stage; overdraft ends
    it early (the corpus keeps what the base sweep added).
    """
    registry = {target.name: target for target in roster}
    cursors = {name: runs for name in registry}
    for entry in corpus.entries():
        target = registry.get(entry.target)
        if target is None:
            continue
        for _ in range(mutations):
            index = cursors[entry.target]
            cursors[entry.target] = index + 1
            if campaign_meter is not None:
                try:
                    campaign_meter.charge_steps()
                except BudgetExceeded:
                    return
            seed = derive_seed(master_seed, entry.target, index)
            atoms = tuple(
                mutate_schedule(random.Random(seed), entry.atoms,
                                target.generate)
            )
            yield (
                target, index, seed, atoms, per_run_budget,
                memo.known_case(target, atoms),
            )


# ---------------------------------------------------------------------------
# The campaign
# ---------------------------------------------------------------------------


def run_campaign(
    targets: Optional[Iterable[ChaosTarget]] = None,
    runs: int = 40,
    master_seed: int = 0,
    per_run_budget: Optional[Budget] = DEFAULT_PER_RUN_BUDGET,
    shrink: bool = True,
    shrink_checks: int = 256,
    budget: Optional[Budget] = None,
    resume: Optional[CampaignReport] = None,
    workers=1,
    keep_results: bool = True,
    corpus: Optional[Union[str, ScheduleCorpus]] = None,
    mutations: int = 0,
    case_log: Optional[str] = None,
) -> CampaignReport:
    """Fuzz every target ``runs`` times; shrink and verify what breaks.

    One streaming pipeline serves every configuration: the planner
    generates cases in serial order, ``map_stream`` executes them with a
    bounded in-flight window, and the parent folds outcomes in that same
    order — so reports, summaries and artifacts are byte-identical at
    any ``workers`` count and whether or not results are kept.

    ``keep_results=False`` is streaming mode: the report's ``results``
    is None and memory is bounded by behaviours found, not by ``runs``.
    ``corpus`` (a directory path or :class:`ScheduleCorpus`) persists
    every novel-coverage schedule, made durable at two sync points: after
    the base sweep and when the campaign returns or raises (a corpus
    opened here from a path is also closed then).  ``mutations=k`` then
    re-expands each corpus schedule k times through seeded mutation
    operators after the base sweep.  ``case_log`` streams one JSON line
    per case to the given path through an atomic incremental writer.

    ``budget`` (one step charged per case) bounds the whole campaign; on
    overdraft the report comes back with ``complete=False`` and
    ``resume_at`` marking the first unexecuted case per target — pass
    the report back as ``resume`` to continue.  ``per_run_budget``
    bounds each individual run; overdrafts there are BUDGET_EXCEEDED
    verdicts, not campaign aborts.
    """
    roster = list(targets) if targets is not None else default_targets()
    nworkers = resolve_workers(workers)
    corpus_obj: Optional[ScheduleCorpus]
    corpus_obj = ScheduleCorpus(corpus) if isinstance(corpus, str) else corpus
    campaign_meter = (
        budget.meter("chaos-campaign") if budget is not None else None
    )
    start_at = {
        target.name: (
            resume.resume_at.get(target.name, 0) if resume is not None else 0
        )
        for target in roster
    }
    state: Dict = {"interrupted": False, "resume_at": {}}
    log_writer = AtomicLineWriter(case_log) if case_log is not None else None
    try:
        if log_writer is not None:
            log_writer.write_json_line(
                {
                    "schema": CASE_LOG_SCHEMA,
                    "master_seed": master_seed,
                    "runs": runs,
                }
            )
        fold = CampaignFold(
            shrink=shrink,
            shrink_checks=shrink_checks,
            per_run_budget=per_run_budget,
            keep_results=keep_results,
            corpus=corpus_obj,
            case_log=log_writer,
            resume=resume,
        )
        chunk = STREAM_CHUNK if nworkers > 1 else 1
        with WorkerPool(nworkers) as pool:
            plan = _plan_cases(
                roster, runs, master_seed, start_at, per_run_budget,
                campaign_meter, state, fold.memo,
            )
            for item, result in pool.map_stream(
                _execute_case, plan, chunk=chunk, inline=_is_known
            ):
                fold.fold(item, result)
            if corpus_obj is not None:
                # First sync point: the base sweep's entries are durable
                # before the mutation stage reads them back.
                corpus_obj.sync()
            if (
                corpus_obj is not None
                and mutations > 0
                and not state["interrupted"]
            ):
                mutation_plan = _plan_mutations(
                    roster, corpus_obj, runs, mutations, master_seed,
                    per_run_budget, campaign_meter, fold.memo,
                )
                for item, result in pool.map_stream(
                    _execute_case, mutation_plan, chunk=chunk,
                    inline=_is_known,
                ):
                    fold.fold(item, result)
        if state["interrupted"]:
            for target in roster:
                state["resume_at"].setdefault(
                    target.name, start_at[target.name]
                )
        if log_writer is not None:
            log_writer.commit()
            log_writer = None
    except BaseException:
        if log_writer is not None:
            log_writer.discard()
        raise
    finally:
        if corpus_obj is not None:
            # Second sync point: however the campaign ends, every entry
            # it added is durable.
            corpus_obj.sync()
            if corpus_obj is not corpus:
                corpus_obj.close()  # opened here from a path
    return CampaignReport(
        master_seed=master_seed,
        runs=runs,
        results=fold.results,
        counterexamples=fold.counterexamples,
        complete=not state["interrupted"],
        resume_at=dict(state["resume_at"]),
        tallies=fold.tallies,
        coverage=fold.coverage.counts(),
        cases=fold.cases,
        corpus_added=fold.corpus_added,
        throughput=fold.throughput(),
    )


# ---------------------------------------------------------------------------
# Store payloads
# ---------------------------------------------------------------------------


def _violation_to_payload(violation: Violation) -> Dict:
    return {
        "monitor": violation.monitor,
        "description": violation.description,
        "step": violation.step,
    }


def _violation_from_payload(payload: Dict) -> Violation:
    return Violation(
        monitor=payload["monitor"],
        description=payload["description"],
        step=payload["step"],
    )


def report_to_payload(report: CampaignReport) -> Dict:
    """A JSON-native form of a whole campaign, for the certificate store.

    Everything needed to reconstruct the report exactly is embedded:
    case verdicts field by field (or ``None`` in streaming mode), the
    incremental tallies and coverage, and counterexamples with their
    original and shrunk schedules through the tagged value encoding,
    each shrunk trace as its own (fingerprint-carrying) JSONL document —
    so a report pulled back out of the store writes byte-identical
    counterexample artifacts to the campaign that produced it.
    ``throughput`` is deliberately absent: it is wall-clock noise, and
    store entries must be byte-stable across runs.
    """
    return {
        "schema": REPORT_SCHEMA,
        "master_seed": report.master_seed,
        "runs": report.runs,
        "complete": report.complete,
        "resume_at": dict(report.resume_at),
        "tallies": {
            name: dict(per) for name, per in sorted(report.tallies.items())
        },
        "coverage": dict(sorted(report.coverage.items())),
        "cases": report.cases,
        "corpus_added": report.corpus_added,
        "results": None if report.results is None else [
            {
                "target": r.target,
                "index": r.index,
                "seed": r.seed,
                "verdict": r.verdict,
                "violations": [
                    _violation_to_payload(v) for v in r.violations
                ],
                "error": r.error,
                "fingerprint": r.fingerprint,
            }
            for r in report.results
        ],
        "counterexamples": [
            {
                "target": cx.target,
                "index": cx.index,
                "seed": cx.seed,
                "atoms": encode(tuple(cx.atoms)),
                "shrunk": encode(tuple(cx.shrunk)),
                "violation": _violation_to_payload(cx.violation),
                "fingerprint": cx.fingerprint,
                "shrink_checks": cx.shrink_checks,
                "replay_verified": cx.replay_verified,
                "occurrences": cx.occurrences,
                "trace": cx.trace.to_jsonl(),
            }
            for cx in report.counterexamples
        ],
    }


def report_from_payload(payload: Dict) -> CampaignReport:
    """Invert :func:`report_to_payload`.

    Each embedded trace reloads through :meth:`Trace.from_jsonl`, which
    re-verifies its fingerprint — a tampered trace raises rather than
    producing a counterexample that never happened.
    """
    if payload.get("schema") != REPORT_SCHEMA:
        raise ReplayError(
            f"unknown campaign report schema {payload.get('schema')!r} "
            f"(expected {REPORT_SCHEMA!r})"
        )
    results = None if payload["results"] is None else [
        CaseResult(
            target=r["target"],
            index=r["index"],
            seed=r["seed"],
            verdict=r["verdict"],
            violations=tuple(
                _violation_from_payload(v) for v in r["violations"]
            ),
            error=r["error"],
            fingerprint=r.get("fingerprint", ""),
        )
        for r in payload["results"]
    ]
    counterexamples = []
    for c in payload["counterexamples"]:
        trace = Trace.from_jsonl(c["trace"])
        if trace.fingerprint() != c["fingerprint"]:
            raise ReplayError(
                f"counterexample for {c['target']!r} carries fingerprint "
                f"{c['fingerprint']}, its trace reloads as "
                f"{trace.fingerprint()}"
            )
        counterexamples.append(
            Counterexample(
                target=c["target"],
                index=c["index"],
                seed=c["seed"],
                atoms=tuple(decode(c["atoms"])),
                shrunk=tuple(decode(c["shrunk"])),
                violation=_violation_from_payload(c["violation"]),
                trace=trace,
                fingerprint=c["fingerprint"],
                shrink_checks=c["shrink_checks"],
                replay_verified=c["replay_verified"],
                occurrences=c.get("occurrences", 1),
            )
        )
    return CampaignReport(
        master_seed=payload["master_seed"],
        runs=payload["runs"],
        results=results,
        counterexamples=counterexamples,
        complete=payload["complete"],
        resume_at=dict(payload["resume_at"]),
        tallies={
            name: dict(per) for name, per in payload.get("tallies", {}).items()
        },
        coverage=dict(payload.get("coverage", {})),
        cases=payload.get("cases", 0),
        corpus_added=payload.get("corpus_added", 0),
    )


# ---------------------------------------------------------------------------
# Artifacts
# ---------------------------------------------------------------------------


def write_counterexample(cx: Counterexample, directory: str) -> str:
    """Save one counterexample as a self-contained JSONL artifact.

    Line 1 is campaign metadata (target, seed, original and shrunk
    schedules, the violated property, the trace fingerprint); the rest is
    the shrunk run's trace via :meth:`~repro.core.runtime.Trace.to_jsonl`.
    Written through :class:`~repro.core.artifacts.AtomicLineWriter`, so a
    campaign killed mid-write never leaves a truncated artifact that
    later "reproduces" as a corrupt counterexample.
    """
    os.makedirs(directory, exist_ok=True)
    meta = {
        "schema": ARTIFACT_SCHEMA,
        "target": cx.target,
        "index": cx.index,
        "seed": cx.seed,
        "atoms": encode(tuple(cx.atoms)),
        "shrunk": encode(tuple(cx.shrunk)),
        "violation": {
            "monitor": cx.violation.monitor,
            "description": cx.violation.description,
        },
        "fingerprint": cx.fingerprint,
        "replay_verified": cx.replay_verified,
    }
    path = os.path.join(directory, f"{cx.target}-{cx.seed}.jsonl")
    with AtomicLineWriter(path) as writer:
        writer.write_line(json.dumps(meta, sort_keys=True))
        writer.write(cx.trace.to_jsonl())
    return path


def write_artifacts(report: CampaignReport, directory: str) -> List[str]:
    """Save every counterexample in the report; return the paths."""
    return [
        write_counterexample(cx, directory) for cx in report.counterexamples
    ]


def reproduce(
    path: str, targets: Optional[Iterable[ChaosTarget]] = None
) -> Trace:
    """Re-derive a saved counterexample from its artifact and verify it.

    Three checks: the stored trace's fingerprint is internally consistent
    (via :meth:`Trace.from_jsonl`), a fresh run of the shrunk schedule
    reproduces that exact fingerprint, and the fresh run still violates
    the target's monitors.  Returns the fresh trace.
    """
    with open(path, encoding="utf-8") as handle:
        lines = handle.read().splitlines()
    if not lines:
        raise ReplayError(f"empty counterexample artifact {path!r}")
    meta = json.loads(lines[0])
    if meta.get("schema") != ARTIFACT_SCHEMA:
        raise ReplayError(
            f"unknown artifact schema {meta.get('schema')!r} "
            f"(expected {ARTIFACT_SCHEMA!r})"
        )
    registry = target_registry(targets)
    if meta["target"] not in registry:
        raise ReplayError(f"unknown chaos target {meta['target']!r}")
    target = registry[meta["target"]]
    shrunk = tuple(decode(meta["shrunk"]))
    saved = Trace.from_jsonl("\n".join(lines[1:]) + "\n")
    if saved.fingerprint() != meta["fingerprint"]:
        raise ReplayError(
            "artifact metadata fingerprint does not match the stored trace"
        )
    fresh = target.run(shrunk)
    if fresh.fingerprint() != meta["fingerprint"]:
        raise ReplayError(
            f"re-run of shrunk schedule produced fingerprint "
            f"{fresh.fingerprint()}, artifact recorded {meta['fingerprint']} "
            "— the counterexample no longer reproduces byte-identically"
        )
    if not target.violations(fresh, shrunk):
        raise ReplayError(
            "re-run of shrunk schedule no longer violates any monitor — "
            "the planted bug may have been fixed"
        )
    return fresh
