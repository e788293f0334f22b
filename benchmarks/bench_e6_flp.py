"""E6 — FLP: no 1-resilient asynchronous consensus (§2.2.4).

Paper claims reproduced:
* each candidate protocol fails the FLP dichotomy one way or the other
  (agreement violation or blocking under one crash), verified by
  exhaustive valency analysis over all schedules;
* bivalent initial configurations exist wherever the dichotomy allows;
* the stalling adversary preserves bivalence through fairness stages
  (Lemma 3's machinery);
* Ben-Or's randomized protocol circumvents the theorem: safety in every
  seeded run, termination empirically at probability ~1.
"""

from conftest import record

from repro.asynchronous import (
    FirstMessageWins,
    QuorumVote,
    WaitForAll,
    flp_analysis,
)
from repro.circumvention import expected_rounds
from repro.impossibility import StallingAdversary, ValencyAnalyzer
from repro.asynchronous import AsyncConsensusSystem


def test_e6_dichotomy_table(benchmark):
    def build():
        return {
            "first-message-wins": flp_analysis(FirstMessageWins(), 2).failure_mode,
            "quorum-vote": flp_analysis(QuorumVote(), 3).failure_mode,
            "wait-for-all": flp_analysis(WaitForAll(), 2).failure_mode,
        }

    table = benchmark(build)
    record(benchmark, failure_modes=table)
    assert table == {
        "first-message-wins": "agreement-violation",
        "quorum-vote": "agreement-violation",
        "wait-for-all": "blocks-under-crash",
    }


def test_e6_stalling_adversary(benchmark):
    def stall():
        system = AsyncConsensusSystem(QuorumVote(), 3)
        analyzer = ValencyAnalyzer(system)
        adversary = StallingAdversary(analyzer)
        return adversary.run(system.configuration_for((0, 1, 1)), stages=30)

    result = benchmark(stall)
    record(benchmark, stages=result.stages,
           events=len(result.schedule),
           stayed_bivalent=result.stayed_bivalent)
    assert result.stayed_bivalent


def test_e6_ben_or_circumvents(benchmark):
    sweep = benchmark(lambda: expected_rounds(40, master_seed=0))
    record(benchmark, trials=sweep.trials,
           termination_rate=sweep.termination_rate,
           mean_rounds=sweep.mean_rounds, worst_rounds=sweep.worst_rounds)
    assert sweep.ok(min_termination=0.9)
