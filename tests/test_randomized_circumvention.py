"""The randomized circumvention engine under the chaos adversary.

End-to-end coverage for the PR's wiring: the three new roster targets
(honest Ben-Or, the planted biased-coin bug, the GST stall target) run
through a fixed-seed campaign; the persisted corpus re-finds both the
bug and the pre-stabilization stall; the ``benor``/``gst`` CLI
subcommands and the ``benor-run``/``gst-run`` service query kinds are
driven exactly as CI drives them.
"""

import random
from collections import Counter

import pytest

from repro.chaos import (
    BUDGET_EXCEEDED,
    PASS,
    VIOLATION,
    BenOrTarget,
    BiasedCoinBenOrTarget,
    GSTConsensusTarget,
    ScheduleCorpus,
    replay_corpus,
    run_campaign,
    stall_fingerprint,
)
from repro.chaos import campaign as campaign_module
from repro.chaos import corpus as corpus_module
from repro.chaos.generators import (
    benor_adversary,
    gst_adversary,
    random_benor_atoms,
    random_gst_atoms,
    simplify_gst_atom,
)
from repro.circumvention.__main__ import main as circumvention_main
from repro.core import canonical
from repro.service import (
    CertificateStore,
    QueryService,
    benor_run_key,
    gst_run_key,
)

CAMPAIGN_RUNS = 12
MASTER_SEED = 0


def _targets():
    return [BenOrTarget(), BiasedCoinBenOrTarget(), GSTConsensusTarget()]


@pytest.fixture(scope="module")
def corpus_dir(tmp_path_factory):
    return str(tmp_path_factory.mktemp("randomized-corpus"))


@pytest.fixture(scope="module")
def report(corpus_dir):
    """One fixed-seed campaign over the three new targets."""
    return run_campaign(
        targets=_targets(),
        runs=CAMPAIGN_RUNS,
        master_seed=MASTER_SEED,
        corpus=corpus_dir,
    )


class TestCampaign:
    def test_honest_benor_is_clean(self, report):
        assert report.verdict_counts()["benor-consensus"] == {
            PASS: CAMPAIGN_RUNS
        }

    def test_biased_coin_bug_found_every_run(self, report):
        counts = report.verdict_counts()["benor-biased-coin-bug"]
        assert counts.get(VIOLATION, 0) == CAMPAIGN_RUNS

    def test_biased_coin_bug_shrinks_to_empty_schedule(self, report):
        """The bug needs no adversary at all: ddmin proves it by
        reducing every finding to the empty schedule."""
        found = [
            cx for cx in report.counterexamples
            if cx.target == "benor-biased-coin-bug"
        ]
        assert found
        for cx in found:
            assert cx.shrunk == ()
            assert cx.replay_verified

    def test_gst_target_stalls_never_violates(self, report):
        counts = report.verdict_counts()["gst-consensus"]
        assert counts.get(BUDGET_EXCEEDED, 0) > 0
        assert counts.get(VIOLATION, 0) == 0

    def test_campaign_passes_its_own_gate(self, report):
        assert report.failures(_targets()) == []

    def test_corpus_refinds_bug_and_stall(self, report, corpus_dir):
        """The persisted ScheduleCorpus alone re-produces both the
        planted biased-coin bug and the pre-GST stall."""
        outcome = replay_corpus(
            ScheduleCorpus(corpus_dir), targets=_targets()
        )
        assert outcome["fingerprint_mismatches"] == []
        assert "benor-biased-coin-bug" in outcome["violations_refound"]
        assert "gst-consensus" in outcome["stalls_refound"]

    def test_benor_campaign_workers_bit_identical(self):
        serial = run_campaign(
            targets=[BenOrTarget()], runs=8,
            master_seed=MASTER_SEED, workers=1,
        )
        fanned = run_campaign(
            targets=[BenOrTarget()], runs=8,
            master_seed=MASTER_SEED, workers=2,
        )
        keyed = lambda rep: [  # noqa: E731
            (r.target, r.index, r.seed, r.verdict, r.fingerprint)
            for r in rep.results
        ]
        assert keyed(serial) == keyed(fanned)


class TestStallFingerprint:
    def test_deterministic(self):
        atoms = (("gst", 5), ("delay", 2, (0, 1), 1))
        assert stall_fingerprint(atoms) == stall_fingerprint(atoms)
        assert stall_fingerprint(atoms).startswith("stall:")

    def test_pinned_value(self):
        # Corpus entries recorded by earlier campaigns carry this digest;
        # a change in the canonical encoding would orphan them.
        atoms = (("gst", 5), ("delay", 2, (0, 1), 1))
        assert stall_fingerprint(atoms) == (
            "stall:59783322ec4cd1af2c92e90847bd8a3648c5833400882284b3e580357437ff66"
        )

    def test_distinguishes_schedules(self):
        assert stall_fingerprint((("gst", 5),)) != stall_fingerprint(
            (("gst", 6),)
        )

    def test_campaign_encodes_each_stalled_schedule_once(
        self, tmp_path, monkeypatch
    ):
        # The stall digest and the corpus entry share one encoding.
        counts = Counter()

        def counting_encode(value):
            counts[value] += 1
            return canonical.encode(value)

        monkeypatch.setattr(campaign_module, "encode", counting_encode)
        monkeypatch.setattr(corpus_module, "encode", counting_encode)
        report = run_campaign(
            targets=[GSTConsensusTarget()], runs=CAMPAIGN_RUNS,
            master_seed=MASTER_SEED, corpus=str(tmp_path / "corpus"),
        )
        stalled = {
            r.fingerprint for r in report.results
            if r.verdict == BUDGET_EXCEEDED
        }
        assert stalled and report.corpus_added >= len(stalled)
        assert max(counts.values()) == 1


class TestGenerators:
    def test_benor_atoms_deterministic_and_bounded(self):
        a = random_benor_atoms(random.Random(7), n=4, t=1)
        b = random_benor_atoms(random.Random(7), n=4, t=1)
        assert a == b
        adversary = benor_adversary(a, t=1)
        assert len(adversary.crash_at) <= 1

    def test_gst_atoms_deterministic(self):
        a = random_gst_atoms(random.Random(3), n=4)
        b = random_gst_atoms(random.Random(3), n=4)
        assert a == b
        assert any(
            isinstance(x, tuple) and x[0] == "gst" for x in a
        )

    def test_gst_adversary_honours_stabilization(self):
        adversary = gst_adversary(
            (("gst", 4), ("delay", 2, (0, 1), 1)), n=4
        )
        assert not adversary.delivered(2, 0, 1)  # delayed pre-GST
        assert adversary.delivered(5, 0, 1)  # synchrony after GST

    def test_simplify_moves_toward_stabilization(self):
        assert ("gst", 2) in simplify_gst_atom(("gst", 5))
        (eased,) = simplify_gst_atom(("delay", 3, (0, 1), 4))
        assert eased == ("delay", 3, (0, 1), 1)


class TestCLI:
    def test_benor_sweep_exits_0(self, capsys):
        rc = circumvention_main(
            ["benor", "--trials", "40", "--seed", "0"]
        )
        out = capsys.readouterr().out
        assert rc == 0
        assert "termination" in out

    def test_benor_biased_coin_exits_2(self, capsys):
        rc = circumvention_main(
            ["benor", "--trials", "10", "--biased-coin",
             "--max-events", "300"]
        )
        assert rc == 2
        assert "STALLED" in capsys.readouterr().out

    def test_gst_decides_exits_0(self, capsys):
        rc = circumvention_main(["gst", "--gst", "5"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "decided" in out

    def test_gst_stall_exits_2_with_receipt(self, capsys):
        rc = circumvention_main(["gst", "--gst", "8", "--stall"])
        out = capsys.readouterr().out
        assert rc == 2
        assert "STALLED" in out
        assert "steps" in out

    @pytest.mark.parametrize("command", [
        ["gst", "--n", "2", "--t", "1"],
        ["benor", "--n", "2", "--t", "1", "--trials", "5"],
    ])
    def test_refused_configuration_exits_3(self, command, capsys):
        rc = circumvention_main(command)
        captured = capsys.readouterr()
        assert rc == 3
        assert captured.out == ""
        assert captured.err.startswith("REFUSED: ")
        assert "n > 2t" in captured.err
        assert len(captured.err.splitlines()) == 1


class TestServiceKinds:
    def test_benor_run_miss_then_hit(self, tmp_path):
        service = QueryService(
            CertificateStore(str(tmp_path / "certs"))
        )
        key = benor_run_key(atoms=(3, 1, 4), seed=17)
        cold = service.resolve(key)
        assert cold.source == "live" and cold.complete
        warm = service.resolve(key)
        assert warm.source == "store"
        assert warm.result == cold.result

    def test_gst_run_miss_then_hit(self, tmp_path):
        service = QueryService(
            CertificateStore(str(tmp_path / "certs"))
        )
        key = gst_run_key(atoms=(("gst", 4),), seed=5)
        cold = service.resolve(key)
        assert cold.source == "live" and cold.complete
        warm = service.resolve(key)
        assert warm.source == "store"
        assert warm.result == cold.result
        assert cold.result["decisions"]
