"""Segment fault drills for the schedule corpus.

A corpus is a directory of append-only segment files, one per writer,
each line one self-verifying store entry.  Every drill here damages or
races the layout and must end in counted misses or the expected
entries — never in an exception or a wrong replay.
"""

import glob
import os

import pytest

from repro.chaos import (
    CorpusEntry,
    CoverageMap,
    ScheduleCorpus,
    run_campaign,
)
from repro.chaos import corpus as corpus_module
from repro.chaos.__main__ import main as chaos_main
from repro.chaos.campaign import CampaignFold, PASS
from repro.chaos.corpus import LegacyCorpusLayout
from repro.chaos.targets import FloodSetCrashTarget, LCRRingTarget
from repro.core.budget import Budget
from repro.core.errors import ReproError
from repro.service.store import CertificateStore


def _entry(i: int, target: str = "t") -> CorpusEntry:
    return CorpusEntry(target, f"{i:064x}", (("x", i), i), 1000 + i, PASS)


def _segments(root) -> list:
    return sorted(glob.glob(os.path.join(str(root), "segments", "*.jsonl")))


def _written(root, entries) -> str:
    corpus = ScheduleCorpus(str(root))
    for entry in entries:
        assert corpus.add(entry)
    corpus.close()
    (segment,) = _segments(root)
    return segment


@pytest.fixture
def count_fsyncs(monkeypatch):
    calls = []
    real = os.fsync

    def fsync(fd):
        calls.append(fd)
        real(fd)

    monkeypatch.setattr(os, "fsync", fsync)
    return calls


def test_segment_line_is_the_object_file_bytes(tmp_path):
    entry = _entry(7)
    segment = _written(tmp_path / "corpus", [entry])
    path = CertificateStore(str(tmp_path / "store")).put(
        entry.key(), entry.payload()
    )
    with open(segment, "rb") as line, open(path, "rb") as blob:
        assert line.read() == blob.read()


def test_truncated_tail_is_one_counted_miss(tmp_path):
    entries = [_entry(i) for i in range(5)]
    segment = _written(tmp_path, entries)
    with open(segment, "rb") as handle:
        data = handle.read()
    last = data.rindex(b"\n", 0, len(data) - 1) + 1
    with open(segment, "wb") as handle:
        handle.write(data[: last + (len(data) - last) // 2])
    corpus = ScheduleCorpus(str(tmp_path))
    before = corpus.store.stats
    assert corpus.entries() == entries[:4]
    after = corpus.store.stats
    assert after["corrupt"] == before["corrupt"] + 1
    assert after["misses"] == before["misses"] + 1
    # The torn entry is not in the corpus, so a later writer adds it
    # again, into its own segment.
    assert corpus.add(entries[4])
    assert not corpus.add(entries[0])
    corpus.close()
    assert ScheduleCorpus(str(tmp_path)).entries() == entries


def test_flipped_byte_in_a_result_misses_only_that_entry(tmp_path):
    entries = [_entry(i) for i in range(5)]
    segment = _written(tmp_path, entries)
    with open(segment, "rb") as handle:
        lines = handle.read().split(b"\n")
    seed = lines[2].index(b'"seed":1002') + len(b'"seed":100')
    lines[2] = lines[2][:seed] + b"3" + lines[2][seed + 1:]
    with open(segment, "wb") as handle:
        handle.write(b"\n".join(lines))
    corpus = ScheduleCorpus(str(tmp_path))
    before = corpus.store.corrupt
    assert corpus.entries() == entries[:2] + entries[3:]
    assert corpus.store.corrupt == before + 1


def test_counts_decode_no_schedule_and_agree_with_entries(
    tmp_path, monkeypatch
):
    entries = [_entry(i) for i in range(5)]
    segment = _written(tmp_path, entries)
    with open(segment, "rb") as handle:
        lines = handle.read().split(b"\n")
    seed = lines[2].index(b'"seed":1002') + len(b'"seed":100')
    lines[2] = lines[2][:seed] + b"3" + lines[2][seed + 1:]
    torn = b"\n".join(lines)
    with open(segment, "wb") as handle:
        handle.write(torn[: len(torn) - 40])  # flipped line 2, torn line 4
    decoded = []
    real = corpus_module.decode

    def counting_decode(value):
        decoded.append(value)
        return real(value)

    monkeypatch.setattr(corpus_module, "decode", counting_decode)
    corpus = ScheduleCorpus(str(tmp_path))
    coverage = CoverageMap()
    assert corpus.seed_coverage(coverage) == len(corpus) == 3
    assert coverage.counts() == {"t": 3}
    assert decoded == []
    kept = corpus.entries()
    assert kept == [entries[0], entries[1], entries[3]]
    assert len(decoded) == 3
    assert corpus.fingerprints() == {
        "t": {entry.trace_fingerprint for entry in kept}
    }


def test_two_writers_on_one_directory_union(tmp_path):
    first = ScheduleCorpus(str(tmp_path))
    second = ScheduleCorpus(str(tmp_path))
    for i in range(10):
        assert first.add(_entry(i))
        # Keys 5..9 overlap: the second writer opened before the first
        # wrote them, so it appends its own copies.
        assert second.add(_entry(i + 5))
    # Each writer's lines are visible at once, without a sync.
    union = [_entry(i) for i in range(15)]
    assert first.entries() == second.entries() == union
    first.close()
    second.close()
    assert len(_segments(tmp_path)) == 2
    assert ScheduleCorpus(str(tmp_path)).entries() == union


def test_reopened_corpus_rejects_a_present_key(tmp_path):
    _written(tmp_path, [_entry(1)])
    corpus = ScheduleCorpus(str(tmp_path))
    assert not corpus.add(_entry(1))
    assert corpus.store.puts == 0
    corpus.close()
    assert len(_segments(tmp_path)) == 1  # no empty segment left behind


def test_campaign_fsyncs_per_sync_point_not_per_entry(tmp_path, count_fsyncs):
    report = run_campaign(
        targets=[FloodSetCrashTarget(), LCRRingTarget()],
        runs=300,
        master_seed=0,
        shrink=False,
        keep_results=False,
        corpus=str(tmp_path),
        mutations=1,
    )
    assert report.corpus_added > 500
    # After the base sweep: the segment and, once, its directory; at the
    # end: the segment.
    assert len(count_fsyncs) <= 3
    assert len(ScheduleCorpus(str(tmp_path)).entries()) == report.corpus_added


def test_budget_interrupted_campaign_syncs(tmp_path, count_fsyncs):
    corpus = ScheduleCorpus(str(tmp_path))
    report = run_campaign(
        targets=[FloodSetCrashTarget()],
        runs=50,
        master_seed=0,
        shrink=False,
        keep_results=False,
        corpus=corpus,
        mutations=1,
        budget=Budget(max_steps=20),
    )
    assert not report.complete and report.corpus_added > 0
    assert len(count_fsyncs) == 2
    corpus.close()


def test_raising_campaign_syncs(tmp_path, count_fsyncs, monkeypatch):
    real_fold = CampaignFold.fold

    def fold(self, item, result):
        real_fold(self, item, result)
        if self.cases == 15:
            raise KeyboardInterrupt

    monkeypatch.setattr(CampaignFold, "fold", fold)
    corpus = ScheduleCorpus(str(tmp_path))
    with pytest.raises(KeyboardInterrupt):
        run_campaign(
            targets=[FloodSetCrashTarget()],
            runs=50,
            master_seed=0,
            shrink=False,
            keep_results=False,
            corpus=corpus,
        )
    assert corpus.store.puts > 0
    assert len(count_fsyncs) == 2
    corpus.close()


def test_legacy_objects_layout_is_refused(tmp_path, capsys):
    legacy = str(tmp_path / "old-corpus")
    entry = _entry(3)
    CertificateStore(legacy).put(entry.key(), entry.payload())
    with pytest.raises(LegacyCorpusLayout) as info:
        ScheduleCorpus(legacy)
    assert isinstance(info.value, ReproError)
    assert info.value.directory == legacy
    assert legacy in str(info.value)
    assert "re-run the campaign" in str(info.value)
    with pytest.raises(LegacyCorpusLayout):
        run_campaign(targets=[LCRRingTarget()], runs=2, corpus=legacy)
    with pytest.raises(SystemExit) as exit_info:
        chaos_main(["--replay-corpus", legacy])
    assert exit_info.value.code == 2
    assert "re-run the campaign" in capsys.readouterr().err
