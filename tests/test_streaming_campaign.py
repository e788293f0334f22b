"""Streaming mega-campaigns: constant memory, corpus, coverage, dedup.

The contract under test: the streaming fold (``keep_results=False``) is
*observably identical* to the batch path — same summary bytes, same
counterexample artifacts, same tallies — at any worker count, while its
memory peak is bounded by behaviours found rather than cases run; the
schedule corpus round-trips through the certificate store and replays as
a regression suite that re-finds every planted bug; and the mobile-fault
satellite target exhibits the Gafni–Losa boundary exactly (relentless
muting breaks agreement, bounded staleness never does).
"""

import json
import os
import random
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.chaos import (
    PASS,
    VIOLATION,
    CorpusEntry,
    MobileFloodSetTarget,
    ScheduleCorpus,
    default_targets,
    replay_corpus,
    run_campaign,
    write_artifacts,
)
from repro.chaos.__main__ import main as chaos_main
from repro.chaos.generators import (
    mobile_omission_adversary,
    mutate_schedule,
    muted_rounds,
    random_mobile_crash_atoms,
)
from repro.chaos.monitors import BoundedStalenessMonitor
from repro.chaos.targets import (
    AlternatingBitTarget,
    FloodSetCrashTarget,
    LCRRingTarget,
)
from repro.core.artifacts import AtomicLineWriter
from repro.core.budget import Budget
from repro.parallel.pool import WorkerPool

MASTER_SEED = 0
RUNS = 40


def _observable(report):
    """Everything a streaming report must share with its batch twin."""
    return (
        report.summary(),
        report.tallies,
        report.coverage,
        report.cases,
        report.complete,
        report.resume_at,
        [
            (cx.target, cx.seed, cx.fingerprint, cx.shrunk, cx.occurrences)
            for cx in report.counterexamples
        ],
    )


def _artifact_bytes(report, directory):
    write_artifacts(report, directory)
    return {
        name: open(os.path.join(directory, name), "rb").read()
        for name in sorted(os.listdir(directory))
    }


# ---------------------------------------------------------------------------
# Streaming == batch, at workers 1 and 2
# ---------------------------------------------------------------------------


class TestStreamingEquivalence:
    @settings(max_examples=6, deadline=None)
    @given(
        master_seed=st.integers(0, 2**16),
        runs=st.integers(1, 5),
        roster=st.sampled_from(
            [
                (FloodSetCrashTarget,),
                (MobileFloodSetTarget, LCRRingTarget),
                (FloodSetCrashTarget, AlternatingBitTarget),
            ]
        ),
    )
    def test_streaming_matches_batch(self, master_seed, runs, roster):
        batch = run_campaign(
            targets=[cls() for cls in roster],
            runs=runs,
            master_seed=master_seed,
            shrink_checks=8,
        )
        stream = run_campaign(
            targets=[cls() for cls in roster],
            runs=runs,
            master_seed=master_seed,
            shrink_checks=8,
            keep_results=False,
        )
        assert stream.results is None
        assert _observable(stream) == _observable(batch)

    def test_streaming_matches_batch_at_workers_2(self, tmp_path):
        kwargs = dict(runs=12, master_seed=MASTER_SEED, shrink_checks=32)
        batch = run_campaign(**kwargs)
        variants = {
            "stream-w1": run_campaign(keep_results=False, **kwargs),
            "stream-w2": run_campaign(
                keep_results=False, workers=2, **kwargs
            ),
            "batch-w2": run_campaign(workers=2, **kwargs),
        }
        reference = _artifact_bytes(batch, str(tmp_path / "batch"))
        assert reference, "campaign found no counterexamples to compare"
        for name, report in variants.items():
            assert _observable(report) == _observable(batch), name
            assert (
                _artifact_bytes(report, str(tmp_path / name)) == reference
            ), f"{name} artifacts not byte-identical to batch"

    def test_budget_interrupt_and_resume_while_streaming(self):
        roster = lambda: [FloodSetCrashTarget(), LCRRingTarget()]  # noqa: E731
        partial = run_campaign(
            targets=roster(), runs=6, master_seed=MASTER_SEED,
            keep_results=False, shrink=False, budget=Budget(max_steps=4),
        )
        assert not partial.complete
        assert partial.resume_at == {
            "floodset-truncated-crash": 4, "lcr-ring": 0,
        }
        finished = run_campaign(
            targets=roster(), runs=6, master_seed=MASTER_SEED,
            keep_results=False, shrink=False, resume=partial,
        )
        straight = run_campaign(
            targets=roster(), runs=6, master_seed=MASTER_SEED,
            keep_results=False, shrink=False,
        )
        assert finished.complete
        assert finished.verdict_counts() == straight.verdict_counts()


# ---------------------------------------------------------------------------
# Bounded memory
# ---------------------------------------------------------------------------


def _peak_bytes(runs, keep_results):
    tracemalloc.start()
    run_campaign(
        targets=[FloodSetCrashTarget()],
        runs=runs,
        master_seed=MASTER_SEED,
        shrink=False,
        keep_results=keep_results,
    )
    _current, peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    return peak


class TestBoundedMemory:
    def test_streaming_peak_is_case_count_independent(self):
        small = _peak_bytes(200, keep_results=False)
        large = _peak_bytes(2000, keep_results=False)
        # 10x the cases must not cost 10x the memory: the fold holds
        # tallies and a behaviour set, never the case stream.  The
        # residual growth is the coverage set — bounded by the target's
        # schedule space, not the case count — hence the 4x allowance
        # against a 10x input.
        assert large < small * 4, (
            f"streaming peak grew {large / small:.1f}x for 10x cases "
            f"({small} -> {large} bytes); the fold is accumulating per-case "
            "state"
        )

    def test_batch_peak_grows_where_streaming_stays_flat(self):
        # The contrast that makes the previous assertion meaningful:
        # keeping results *does* scale with cases, and at 2000 cases the
        # batch path already needs a multiple of the streaming peak.
        batch_small = _peak_bytes(200, keep_results=True)
        batch_large = _peak_bytes(2000, keep_results=True)
        stream_large = _peak_bytes(2000, keep_results=False)
        assert batch_large > batch_small * 3
        assert batch_large > stream_large * 2


# ---------------------------------------------------------------------------
# Corpus: round-trip, replay, mutation
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def corpus_dir(tmp_path_factory):
    """A pinned fixed-seed corpus from one full-roster campaign."""
    directory = str(tmp_path_factory.mktemp("corpus"))
    report = run_campaign(
        runs=RUNS,
        master_seed=MASTER_SEED,
        shrink=False,
        keep_results=False,
        corpus=directory,
    )
    assert report.corpus_added > 0
    return directory


class TestCorpus:
    def test_entry_payload_roundtrip(self):
        entry = CorpusEntry(
            target="floodset-mobile-omission",
            trace_fingerprint="ab" * 32,
            atoms=(("mute", 1, 0), ("mute", 2, 3)),
            seed=1234,
            verdict=VIOLATION,
        )
        assert CorpusEntry.from_payload(entry.payload()) == entry

    def test_add_is_idempotent_and_store_verified(self, tmp_path):
        corpus = ScheduleCorpus(str(tmp_path))
        entry = CorpusEntry("t", "ff" * 32, (("x", 1),), 7, PASS)
        assert corpus.add(entry)
        assert not corpus.add(entry)
        assert corpus.entries() == [entry]

    def test_corrupt_entry_is_skipped_not_replayed(self, tmp_path):
        corpus = ScheduleCorpus(str(tmp_path))
        corpus.add(CorpusEntry("t", "aa" * 32, (("x", 1),), 7, PASS))
        (path,) = [
            os.path.join(root, name)
            for root, _dirs, names in os.walk(str(tmp_path))
            for name in names
        ]
        with open(path, "w", encoding="utf-8") as handle:
            handle.write('{"schema": "garbage"}\n')
        assert corpus.entries() == []
        assert corpus.store.corrupt == 1

    def test_campaign_against_existing_corpus_adds_nothing(self, corpus_dir):
        again = run_campaign(
            runs=RUNS,
            master_seed=MASTER_SEED,
            shrink=False,
            keep_results=False,
            corpus=corpus_dir,
        )
        assert again.corpus_added == 0

    def test_replay_refinds_every_planted_bug(self, corpus_dir):
        outcome = replay_corpus(ScheduleCorpus(corpus_dir))
        assert outcome["fingerprint_mismatches"] == []
        assert outcome["unknown_targets"] == []
        planted = {
            target.name
            for target in default_targets()
            if target.expect_violation
        }
        assert planted <= set(outcome["violations_refound"]), (
            "corpus replay lost planted bugs: "
            f"{planted - set(outcome['violations_refound'])}"
        )
        for stats in outcome["per_target"].values():
            assert stats["reproduced"] == stats["entries"]

    def test_mutation_stage_is_deterministic(self, tmp_path):
        def mega(directory):
            return run_campaign(
                targets=[FloodSetCrashTarget()],
                runs=10,
                master_seed=MASTER_SEED,
                shrink=False,
                keep_results=False,
                corpus=directory,
                mutations=3,
            )

        first = mega(str(tmp_path / "a"))
        second = mega(str(tmp_path / "b"))
        assert _observable(first) == _observable(second)
        assert first.cases > 10  # the mutation stage actually ran
        assert (
            ScheduleCorpus(str(tmp_path / "a")).fingerprints()
            == ScheduleCorpus(str(tmp_path / "b")).fingerprints()
        )

    def test_mutate_schedule_seeded_and_closed_over_atoms(self):
        target = FloodSetCrashTarget()
        atoms = target.generate(random.Random(5))
        for seed in range(20):
            once = mutate_schedule(
                random.Random(seed), atoms, target.generate
            )
            again = mutate_schedule(
                random.Random(seed), atoms, target.generate
            )
            assert once == again
            assert isinstance(once, tuple)


# ---------------------------------------------------------------------------
# Violation dedup by shrunk fingerprint
# ---------------------------------------------------------------------------


class TestViolationDedup:
    @pytest.fixture(scope="class")
    def report(self):
        return run_campaign(runs=RUNS, master_seed=MASTER_SEED)

    def test_exemplars_unique_by_shrunk_fingerprint(self, report):
        keys = [
            (cx.target, cx.fingerprint) for cx in report.counterexamples
        ]
        assert len(keys) == len(set(keys))

    def test_occurrences_account_for_every_violating_run(self, report):
        stats = report.dedup_stats()
        counts = report.verdict_counts()
        for name, per in stats.items():
            assert per["violations"] == counts[name][VIOLATION]
            assert per["exemplars"] <= per["violations"]

    def test_planted_bugs_collapse_to_few_exemplars(self, report):
        stats = report.dedup_stats()
        collapsed = [
            name
            for name, per in stats.items()
            if per["violations"] > per["exemplars"]
        ]
        assert collapsed, (
            "40 runs/target re-found bugs without any duplicate exemplars — "
            "dedup never engaged"
        )

    def test_summary_reports_dedup_and_occurrences(self, report):
        text = report.summary()
        assert "violation dedup:" in text
        assert " x" in text  # per-exemplar occurrence counts


# ---------------------------------------------------------------------------
# The mobile-fault target (Gafni–Losa boundary)
# ---------------------------------------------------------------------------


class TestMobileFaults:
    def test_relentless_muting_breaks_full_round_floodset(self):
        target = MobileFloodSetTarget()
        atoms = tuple(
            ("mute", rnd, 0) for rnd in range(1, target.ROUNDS + 1)
        )
        trace = target.run(atoms)
        violations = target.violations(trace, atoms)
        assert any(v.monitor == "agreement" for v in violations)
        assert all(v.monitor != "bounded-staleness" for v in violations)

    def test_bounded_staleness_schedules_always_agree(self):
        target = MobileFloodSetTarget()
        rng = random.Random(11)
        checked = 0
        for _ in range(200):
            atoms = random_mobile_crash_atoms(
                rng, n=target.N, rounds=target.ROUNDS
            )
            monitor = BoundedStalenessMonitor(
                muted_rounds(atoms), target.ROUNDS, range(target.N)
            )
            if monitor.fully_muted():
                continue  # the impossible side; agreement may break there
            checked += 1
            trace = target.run(atoms)
            assert target.violations(trace, atoms) == []
        assert checked > 50

    def test_shrinks_to_one_mute_per_round(self):
        report = run_campaign(
            targets=[MobileFloodSetTarget()],
            runs=RUNS,
            master_seed=MASTER_SEED,
        )
        smallest = min(
            report.counterexamples, key=lambda cx: len(cx.shrunk)
        )
        assert len(smallest.shrunk) == MobileFloodSetTarget.ROUNDS
        victims = {pid for (_tag, _rnd, pid) in smallest.shrunk}
        assert len(victims) == 1  # one process silenced in every round

    def test_mobile_adversary_mutes_every_recipient(self):
        atoms = (("mute", 2, 1),)
        adversary = mobile_omission_adversary(atoms, n=4)
        assert adversary.drops == {(2, 1, 0), (2, 1, 2), (2, 1, 3)}


# ---------------------------------------------------------------------------
# Streaming plumbing: AtomicLineWriter, map_stream, case log, throughput
# ---------------------------------------------------------------------------


class TestAtomicLineWriter:
    def test_commit_publishes_all_lines(self, tmp_path):
        path = str(tmp_path / "out.jsonl")
        with AtomicLineWriter(path) as writer:
            writer.write_json_line({"a": 1})
            writer.write_line("plain")
            writer.write("raw\n")
            assert not os.path.exists(path)  # nothing until commit
        assert open(path, encoding="utf-8").read() == '{"a": 1}\nplain\nraw\n'

    def test_exception_discards_staging(self, tmp_path):
        path = str(tmp_path / "out.jsonl")
        with pytest.raises(RuntimeError):
            with AtomicLineWriter(path) as writer:
                writer.write_line("half")
                raise RuntimeError("killed mid-write")
        assert os.listdir(str(tmp_path)) == []

    def test_line_counter(self, tmp_path):
        writer = AtomicLineWriter(str(tmp_path / "n.txt"))
        writer.write_line("one")
        writer.write("two\nthree\n")
        assert writer.lines == 3
        writer.discard()


class TestMapStream:
    def test_serial_yields_pairs_in_order(self):
        with WorkerPool(1) as pool:
            pairs = list(pool.map_stream(lambda x: x * x, range(7)))
        assert pairs == [(i, i * i) for i in range(7)]

    def test_parallel_preserves_submission_order(self):
        with WorkerPool(2) as pool:
            pairs = list(
                pool.map_stream(_square, range(50), window=3, chunk=4)
            )
        assert pairs == [(i, i * i) for i in range(50)]

    def test_input_is_pulled_lazily(self):
        pulled = []

        def source():
            for i in range(1000):
                pulled.append(i)
                yield i

        with WorkerPool(1) as pool:
            stream = pool.map_stream(lambda x: x, source())
            for _item, _result in zip(range(3), stream):
                pass
        assert len(pulled) < 10  # nowhere near the 1000 available


def _square(x):
    return x * x


class TestCaseLogAndThroughput:
    def test_case_log_is_complete_and_parseable(self, tmp_path):
        path = str(tmp_path / "cases.jsonl")
        report = run_campaign(
            targets=[FloodSetCrashTarget()],
            runs=8,
            master_seed=MASTER_SEED,
            shrink=False,
            keep_results=False,
            case_log=path,
        )
        lines = [
            json.loads(line)
            for line in open(path, encoding="utf-8").read().splitlines()
        ]
        header, cases = lines[0], lines[1:]
        assert header["schema"] == "repro-chaos-case-log/v1"
        assert len(cases) == report.cases == 8
        assert [c["index"] for c in cases] == list(range(8))
        assert all(c["verdict"] in (PASS, VIOLATION) for c in cases)

    def test_throughput_is_populated_but_never_compared(self):
        report = run_campaign(
            targets=[LCRRingTarget()], runs=3, master_seed=MASTER_SEED
        )
        assert report.throughput["cases_per_s"] > 0
        assert report.throughput["seconds"] >= 0
        from repro.chaos.campaign import report_to_payload

        assert "throughput" not in report_to_payload(report)


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------


class TestMegaCampaignCLI:
    def test_cases_flag_streams_and_reports_throughput(self, capsys):
        code = chaos_main(
            ["--cases", "10", "--seed", "0", "--targets", "lcr-ring"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "streamed 10 cases at" in out

    def test_corpus_build_and_replay_gate(self, tmp_path, capsys):
        corpus = str(tmp_path / "corpus")
        code = chaos_main(
            ["--runs", "40", "--seed", "0", "--no-shrink", "--stream",
             "--corpus", corpus]
        )
        assert code == 0
        assert "novel" in capsys.readouterr().out
        assert chaos_main(["--replay-corpus", corpus]) == 0
        assert "still violating" in capsys.readouterr().out

    def test_replay_gate_fails_when_a_bug_is_missing(self, tmp_path, capsys):
        corpus = str(tmp_path / "corpus")
        # A corpus fed only by the healthy control cannot re-find the
        # planted bugs: the gate must fail loudly.
        assert chaos_main(
            ["--runs", "3", "--seed", "0", "--no-shrink",
             "--targets", "lcr-ring", "--corpus", corpus]
        ) == 0
        assert chaos_main(["--replay-corpus", corpus]) == 1
        assert "no corpus schedule re-finds" in capsys.readouterr().err

    def test_store_refuses_corpus_flags(self, tmp_path):
        with pytest.raises(SystemExit):
            chaos_main(
                ["--store", str(tmp_path / "s"),
                 "--corpus", str(tmp_path / "c")]
            )

    def test_mutations_require_corpus(self):
        with pytest.raises(SystemExit):
            chaos_main(["--mutations", "2"])
