"""Command-line entry point: ``python -m repro.chaos``.

Runs a seeded chaos campaign (or reproduces a saved counterexample
artifact, or replays a schedule corpus) and exits nonzero when the
campaign fails — a planted-bug target whose bug was never found, or a
healthy target that produced a violation or crash.

Mega-campaign mode: ``--cases 1000000 --corpus DIR`` streams a
million-case campaign in constant memory, persisting every
novel-coverage schedule; ``--replay-corpus DIR`` later re-runs the whole
corpus as a regression gate.
"""

from __future__ import annotations

import argparse
import math
import sys
from typing import List, Optional


def _replay(corpus, roster) -> int:
    """Replay every corpus schedule; the corpus-as-regression-suite gate."""
    from .corpus import replay_corpus

    outcome = replay_corpus(corpus, roster)
    print(
        f"corpus replay: {outcome['entries']} entries from {corpus.root}"
    )
    for name, stats in sorted(outcome["per_target"].items()):
        print(
            f"  {name}: {stats['entries']} entries, "
            f"{stats['reproduced']} reproduced byte-identically, "
            f"{stats['violations']} still violating, "
            f"{stats.get('stalls', 0)} still stalling"
        )
    problems = []
    for target_name, recorded, got in outcome["fingerprint_mismatches"]:
        problems.append(
            f"{target_name}: schedule replayed to fingerprint {got[:16]}, "
            f"corpus recorded {recorded[:16]}"
        )
    refound = set(outcome["violations_refound"])
    stalled = set(outcome.get("stalls_refound", ()))
    for target in roster:
        if target.expect_violation and target.name not in refound:
            problems.append(
                f"{target.name}: no corpus schedule re-finds the planted bug"
            )
        if (
            getattr(target, "expect_stall", False)
            and target.name in outcome["per_target"]
            and target.name not in stalled
        ):
            problems.append(
                f"{target.name}: no corpus schedule re-produces the "
                "pre-stabilization stall"
            )
    for problem in problems:
        print(f"FAIL: {problem}", file=sys.stderr)
    return 1 if problems else 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.chaos",
        description="Seeded adversary-fuzzing campaigns with counterexample "
        "shrinking over every simulation substrate.",
    )
    parser.add_argument(
        "--runs", type=int, default=40, help="fuzzed runs per target"
    )
    parser.add_argument(
        "--cases",
        type=int,
        default=None,
        metavar="N",
        help="total case budget across the roster (overrides --runs, "
        "implies --stream): runs/target = ceil(N / #targets)",
    )
    parser.add_argument(
        "--seed", type=int, default=0, help="campaign master seed"
    )
    parser.add_argument(
        "--targets",
        nargs="*",
        default=None,
        metavar="NAME",
        help="restrict to these target names (default: full roster)",
    )
    parser.add_argument(
        "--stream",
        action="store_true",
        help="constant-memory mode: fold cases instead of keeping the "
        "full result list (reports and artifacts stay byte-identical)",
    )
    parser.add_argument(
        "--corpus",
        default=None,
        metavar="DIR",
        help="persist every novel-coverage schedule into this "
        "segment-log corpus directory (and skip behaviours already in it)",
    )
    parser.add_argument(
        "--mutations",
        type=int,
        default=0,
        metavar="K",
        help="after the base sweep, re-expand each corpus schedule K "
        "times through seeded mutation operators (requires --corpus)",
    )
    parser.add_argument(
        "--replay-corpus",
        default=None,
        metavar="DIR",
        help="replay every schedule in this corpus as a regression gate, "
        "then exit (nonzero on fingerprint drift or a lost planted bug)",
    )
    parser.add_argument(
        "--log",
        default=None,
        metavar="PATH",
        help="stream one JSON line per case to PATH (atomic incremental "
        "JSONL artifact)",
    )
    parser.add_argument(
        "--artifacts",
        default=None,
        metavar="DIR",
        help="write shrunk-counterexample JSONL artifacts into DIR",
    )
    parser.add_argument(
        "--store",
        default=None,
        metavar="DIR",
        help="certificate store directory: answer this campaign from the "
        "store when a verified entry exists, run and cache it otherwise",
    )
    parser.add_argument(
        "--workers",
        default=1,
        metavar="N",
        help="shard case execution across N worker processes "
        "(or 'auto' for one per CPU); results are bit-identical to "
        "--workers 1 (default)",
    )
    parser.add_argument(
        "--max-seconds",
        type=float,
        default=None,
        help="campaign wall-clock budget; overdraft yields a resumable "
        "partial report",
    )
    parser.add_argument(
        "--no-shrink",
        action="store_true",
        help="skip delta-debugging of violating schedules",
    )
    parser.add_argument(
        "--reproduce",
        default=None,
        metavar="PATH",
        help="re-derive and verify a saved counterexample artifact, "
        "then exit",
    )
    args = parser.parse_args(argv)
    # Imported after parsing, so ``--help`` loads no campaign, corpus
    # or store module.
    from ..core.budget import Budget
    from .campaign import reproduce, run_campaign, write_artifacts
    from .corpus import LegacyCorpusLayout, ScheduleCorpus
    from .targets import select_targets

    if args.reproduce is not None:
        trace = reproduce(args.reproduce)
        print(
            f"reproduced {args.reproduce}: substrate={trace.substrate} "
            f"protocol={trace.protocol} events={trace.steps} "
            f"fingerprint={trace.fingerprint()[:16]} — byte-identical, "
            "still violating"
        )
        return 0

    try:
        roster = select_targets(args.targets or None)
    except ValueError as exc:
        parser.error(str(exc))

    def open_corpus(directory: str) -> ScheduleCorpus:
        try:
            return ScheduleCorpus(directory)
        except LegacyCorpusLayout as exc:
            parser.error(str(exc))

    if args.replay_corpus is not None:
        return _replay(open_corpus(args.replay_corpus), roster)

    if args.mutations and not args.corpus:
        parser.error("--mutations requires --corpus")
    if args.store is not None and (args.corpus or args.stream or args.cases):
        # The store caches whole reports by (targets, runs, seed, shrink)
        # alone; corpus/streaming side effects are not part of that key.
        parser.error(
            "--store cannot be combined with --corpus/--stream/--cases"
        )

    runs = args.runs
    streaming = args.stream
    if args.cases is not None:
        runs = max(1, math.ceil(args.cases / len(roster)))
        streaming = True

    budget = (
        Budget(max_seconds=args.max_seconds)
        if args.max_seconds is not None
        else None
    )
    workers = args.workers if args.workers == "auto" else int(args.workers)
    if args.store is not None:
        from ..service.service import run_campaign_cached
        from ..service.store import CertificateStore

        store = CertificateStore(args.store)
        report, source = run_campaign_cached(
            store,
            targets=roster,
            runs=runs,
            master_seed=args.seed,
            shrink=not args.no_shrink,
            budget=budget,
            workers=workers,
        )
        print(f"campaign answered from {source}; {store.stats_line()}")
    else:
        corpus = open_corpus(args.corpus) if args.corpus else None
        report = run_campaign(
            targets=roster,
            runs=runs,
            master_seed=args.seed,
            shrink=not args.no_shrink,
            budget=budget,
            workers=workers,
            keep_results=not streaming,
            corpus=corpus,
            mutations=args.mutations,
            case_log=args.log,
        )
        if corpus is not None:
            print(
                f"corpus {corpus.root}: +{report.corpus_added} novel "
                f"schedules ({len(corpus)} total)"
            )
            corpus.close()
        if streaming and report.throughput:
            print(
                f"streamed {report.cases} cases at "
                f"{report.throughput['cases_per_s']} cases/s "
                f"({report.throughput['seconds']}s)"
            )
    print(report.summary(roster))

    if args.artifacts and report.counterexamples:
        for path in write_artifacts(report, args.artifacts):
            print(f"wrote {path}")

    failures = report.failures(roster)
    for problem in failures:
        print(f"FAIL: {problem}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
