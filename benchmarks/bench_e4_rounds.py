"""E4 — t+1 rounds are necessary and sufficient for consensus (§2.2.2).

Paper claims reproduced:
* every truncation of FloodSet below t+1 rounds is defeated by some crash
  pattern (exhaustive search over patterns and inputs);
* the full t+1-round FloodSet survives the entire pattern space;
* a fooling pair (two runs indistinguishable to a common process with
  different decision sets) exhibits the chain argument's engine.
"""

from conftest import record

from repro.consensus import (
    FloodSet,
    find_fooling_pair,
    find_round_bound_violation,
    round_lower_bound_certificate,
)


def test_e4_round_bound_t1(benchmark):
    cert = benchmark(
        lambda: round_lower_bound_certificate(
            lambda r: FloodSet(rounds_override=r), n=3, t=1
        )
    )
    record(benchmark, runs_checked=cert.details["full_protocol_runs_checked"],
           rounds_simulated=cert.details["full_protocol_rounds_simulated"],
           truncations_defeated=len(cert.witnesses))
    assert len(cert.witnesses) == 1


def test_e4_round_bound_t2(benchmark):
    cert = benchmark(
        lambda: round_lower_bound_certificate(
            lambda r: FloodSet(rounds_override=r), n=4, t=2
        )
    )
    record(benchmark, runs_checked=cert.details["full_protocol_runs_checked"],
           rounds_simulated=cert.details["full_protocol_rounds_simulated"],
           truncations_defeated=len(cert.witnesses))
    assert len(cert.witnesses) == 2


def test_e4_rounds_table(benchmark):
    """The necessary/sufficient table: rounds r vs violation found."""
    def build():
        table = {}
        for r in (1, 2, 3):
            result = find_round_bound_violation(
                FloodSet(rounds_override=r), n=4, t=2, rounds=r
            )
            table[r] = result.violation is not None
        return table

    table = benchmark(build)
    record(benchmark, violations_by_rounds=table)
    assert table == {1: True, 2: True, 3: False}  # t+1 = 3


def test_e4_fooling_pair(benchmark):
    pair = benchmark(
        lambda: find_fooling_pair(FloodSet(rounds_override=1), n=3, t=1, rounds=1)
    )
    record(benchmark, fooled_process=pair.fooled_process, reason=pair.reason)
    assert pair is not None
