"""Schedule corpus + coverage map: the feedback loop of mega-campaigns.

Coverage-guided fuzzing needs two pieces of persistent state: a
*coverage map* saying which behaviours have been seen, and a *corpus* of
the inputs that first exhibited each one.  Both reuse machinery the
repository already trusts:

* **Coverage signal** is the trace fingerprint
  (:meth:`repro.core.runtime.Trace.fingerprint` — sha256 of the
  canonical trace JSONL).  Two schedules that drive a target through
  byte-identical traces are behaviourally equivalent for every monitor
  we own, so the fingerprint set *is* the campaign's behavioural
  coverage, with no instrumentation of the substrates.

* **Corpus persistence** is a :class:`~repro.service.store.SegmentLog`:
  each novel-coverage schedule becomes one self-verifying store entry,
  keyed by ``(target, trace_fingerprint)`` via the canonical
  :class:`~repro.service.keys.QueryKey` fingerprints, appended as one
  line to this writer's own segment file under ``segments/``.  Lines are
  the exact bytes the content-addressed
  :class:`~repro.service.store.CertificateStore` writes for the same
  entry, so every line re-verifies on load by its bytes: it must be
  exactly the prefix of the key its description names, the result, and
  a tail recording the sha256 of the result bytes.  A torn tail or a
  corrupt line is skipped and counted, never replayed wrong.  Writes
  are made durable in groups, at the campaign's sync points, not one
  fsync per entry.  Content addressing makes corpus merges trivial —
  two campaigns writing the same directory converge on one entry per
  behaviour — and makes the corpus a *regression suite*:
  :func:`replay_corpus` re-runs every entry and checks the traces (and
  the planted violations) reproduce exactly, which is what the CI
  mega-campaign gate asserts.

Entries deliberately store the *schedule*, not the trace: schedules are
tiny (a handful of atoms) where traces are not, so a million-case
campaign's corpus stays kilobytes, and replay re-derives everything else
from the determinism invariant.
"""

from __future__ import annotations

import hashlib
import os
from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, Iterator, List, Optional, Set, Tuple

from ..core.budget import BudgetExceeded
from ..core.canonical import canonical_json, decode, encode
from ..core.errors import ReproError
from ..service.keys import QueryKey
from ..service.store import SegmentLog
from .targets import ChaosTarget, Schedule, target_registry

CORPUS_KIND = "chaos-corpus"
CORPUS_SCHEMA = "repro-chaos-corpus-entry/v1"

#: verdict string shared with :mod:`repro.chaos.campaign` (no import cycle)
STALL_VERDICT = "BUDGET_EXCEEDED"


def stall_fingerprint(atoms: Schedule, encoded: Any = None) -> str:
    """The synthetic coverage fingerprint of a stalled (budget-exceeded)
    case: a stall has no completed trace to hash, so its behavioural
    identity is the canonical digest of the schedule that provoked it.

    The ``stall:`` prefix keeps the namespace disjoint from real trace
    fingerprints, and the canonical-JSON digest makes the value stable
    across processes and machines — which is what lets expect-stall
    corpus entries replay as first-class regression cases.  ``encoded``
    may carry ``encode(tuple(atoms))`` when the caller has it already.
    """
    if encoded is None:
        encoded = encode(tuple(atoms))
    canonical = canonical_json(encoded)
    return "stall:" + hashlib.sha256(canonical.encode("utf-8")).hexdigest()


@dataclass(frozen=True)
class CorpusEntry:
    """One novel-coverage schedule: the input, its seed, what it showed.

    ``encoded_atoms`` may carry ``encode(tuple(atoms))`` when the caller
    has it already; it is not part of the entry's identity.
    """

    target: str
    trace_fingerprint: str
    atoms: Schedule
    seed: int
    verdict: str
    encoded_atoms: Any = field(default=None, compare=False, repr=False)

    def key(self) -> QueryKey:
        return QueryKey.make(
            CORPUS_KIND,
            target=self.target,
            trace_fingerprint=self.trace_fingerprint,
        )

    def payload(self) -> Dict[str, Any]:
        return {
            "schema": CORPUS_SCHEMA,
            "target": self.target,
            "trace_fingerprint": self.trace_fingerprint,
            "atoms": (
                encode(tuple(self.atoms))
                if self.encoded_atoms is None
                else self.encoded_atoms
            ),
            "seed": self.seed,
            "verdict": self.verdict,
        }

    @classmethod
    def from_payload(cls, payload: Dict[str, Any]) -> "CorpusEntry":
        if payload.get("schema") != CORPUS_SCHEMA:
            raise ValueError(
                f"unknown corpus entry schema {payload.get('schema')!r}"
            )
        return cls(
            target=payload["target"],
            trace_fingerprint=payload["trace_fingerprint"],
            atoms=tuple(decode(payload["atoms"])),
            seed=int(payload["seed"]),
            verdict=payload["verdict"],
        )


class CoverageMap:
    """Which trace fingerprints each target has already exhibited.

    Constant-size relative to behaviours, not cases: a million cases
    that all retread known traces add nothing here.  ``observe`` is the
    novelty test — True exactly when the fingerprint is new for that
    target — and doubles as the record, so the fold calls it once per
    case and branches on the answer.
    """

    def __init__(self):
        self._seen: Dict[str, Set[str]] = {}

    def observe(self, target: str, trace_fingerprint: str) -> bool:
        seen = self._seen.setdefault(target, set())
        if trace_fingerprint in seen:
            return False
        seen.add(trace_fingerprint)
        return True

    def counts(self) -> Dict[str, int]:
        """target -> distinct behaviours seen (sorted by target name)."""
        return {name: len(fps) for name, fps in sorted(self._seen.items())}

    def total(self) -> int:
        return sum(len(fps) for fps in self._seen.values())


class LegacyCorpusLayout(ReproError):
    """A corpus directory still holds the old one-file-per-entry
    ``objects/`` tree, which this version does not read.

    Raised on open so the old layout is never mistaken for an empty
    corpus; ``directory`` names it.
    """

    def __init__(self, directory: str):
        self.directory = directory
        super().__init__(
            f"corpus directory {directory} holds the old objects/ layout, "
            "which is no longer read; re-run the campaign into a fresh "
            "corpus directory to rebuild it"
        )


class ScheduleCorpus:
    """A directory of novel-coverage schedules, self-verifying and mergeable.

    Thin veneer over a :class:`~repro.service.store.SegmentLog` rooted at
    ``root`` (``store``, whose counters account every read and write):
    :meth:`add` appends an entry iff its ``(target, trace_fingerprint)``
    key is not already present, :meth:`entries` loads and re-verifies
    every segment in canonical ``(target, fingerprint)`` order, and
    :meth:`seed_coverage` pre-loads a :class:`CoverageMap` so a campaign
    resumed against an existing corpus only chases *new* behaviours.
    Added entries are durable after :meth:`sync` (or :meth:`close`).
    """

    def __init__(self, root: str):
        root = os.path.abspath(root)
        if os.path.isdir(os.path.join(root, "objects")):
            raise LegacyCorpusLayout(root)
        self.store = SegmentLog(root)
        self.root = root

    def add(self, entry: CorpusEntry) -> bool:
        """Append ``entry`` if novel; True iff a line was written."""
        return self.store.add(entry.key(), entry.payload())

    def sync(self) -> None:
        """Make every entry added so far durable (one group fsync)."""
        self.store.sync()

    def close(self) -> None:
        """Sync and release this writer's segment."""
        self.store.close()

    def _payloads(self) -> Iterator[Dict[str, Any]]:
        """Every verified corpus-entry payload, in segment order.

        Unverifiable lines (counted by the store) and foreign-kind or
        foreign-schema entries are skipped; nothing here decodes a
        schedule, so counting and coverage never pay for the atoms.
        """
        for key, payload in self.store.items():
            if (
                key.kind == CORPUS_KIND
                and payload.get("schema") == CORPUS_SCHEMA
            ):
                yield payload

    def entries(self) -> List[CorpusEntry]:
        """Every verified entry, sorted by (target, trace fingerprint).

        The sort makes replay order — and hence replay reports —
        independent of segment names and write order.
        """
        loaded: List[CorpusEntry] = []
        for payload in self._payloads():
            try:
                loaded.append(CorpusEntry.from_payload(dict(payload)))
            except (KeyError, TypeError, ValueError):
                continue
        loaded.sort(key=lambda e: (e.target, e.trace_fingerprint))
        return loaded

    def fingerprints(self) -> Dict[str, Set[str]]:
        """target -> trace fingerprints on disk."""
        out: Dict[str, Set[str]] = {}
        for payload in self._payloads():
            out.setdefault(payload["target"], set()).add(
                payload["trace_fingerprint"]
            )
        return out

    def seed_coverage(self, coverage: CoverageMap) -> int:
        """Mark everything on disk as already-seen; return entry count."""
        count = 0
        for payload in self._payloads():
            coverage.observe(payload["target"], payload["trace_fingerprint"])
            count += 1
        return count

    def __len__(self) -> int:
        return sum(1 for _ in self._payloads())


def replay_corpus(
    corpus: ScheduleCorpus,
    targets: Optional[Iterable[ChaosTarget]] = None,
) -> Dict[str, Any]:
    """Re-run every corpus entry; report reproducibility and refound bugs.

    The corpus-as-regression-suite check: each schedule must drive its
    target through the *same* trace it was saved for (the determinism
    invariant across machines and runs), and each violating entry must
    violate again.  Expect-stall entries (verdict ``BUDGET_EXCEEDED``,
    synthetic ``stall:`` fingerprint) must *stall* again — the replayed
    run has to exit via :class:`~repro.core.budget.BudgetExceeded`, and
    completing instead is a fingerprint mismatch.  The report carries,
    per target, how many entries replayed, how many reproduced, and
    which targets re-exhibited a violation or a stall — the CI gate
    asserts every planted-bug target appears in ``violations_refound``
    and every expect-stall target in ``stalls_refound``.
    """
    registry = target_registry(targets)
    per_target: Dict[str, Dict[str, int]] = {}
    refound: Set[str] = set()
    stalled: Set[str] = set()
    mismatches: List[Tuple[str, str, str]] = []
    unknown: List[str] = []
    for entry in corpus.entries():
        target = registry.get(entry.target)
        if target is None:
            unknown.append(entry.target)
            continue
        stats = per_target.setdefault(
            entry.target,
            {"entries": 0, "reproduced": 0, "violations": 0, "stalls": 0},
        )
        stats["entries"] += 1
        try:
            trace = target.run(entry.atoms)
        except BudgetExceeded:
            if (
                entry.verdict == STALL_VERDICT
                and entry.trace_fingerprint == stall_fingerprint(entry.atoms)
            ):
                stats["reproduced"] += 1
                stats["stalls"] += 1
                stalled.add(entry.target)
            else:
                mismatches.append(
                    (entry.target, entry.trace_fingerprint, "stall")
                )
            continue
        fingerprint = trace.fingerprint()
        if fingerprint == entry.trace_fingerprint:
            stats["reproduced"] += 1
        else:
            # Covers both trace divergence and a stall entry that
            # replayed to completion (its budget receipt didn't
            # reproduce): either way the recorded behaviour is gone.
            mismatches.append(
                (entry.target, entry.trace_fingerprint, fingerprint)
            )
        if target.violations(trace, entry.atoms):
            stats["violations"] += 1
            refound.add(entry.target)
    return {
        "entries": sum(s["entries"] for s in per_target.values()),
        "per_target": per_target,
        "violations_refound": sorted(refound),
        "stalls_refound": sorted(stalled),
        "fingerprint_mismatches": mismatches,
        "unknown_targets": sorted(set(unknown)),
    }
