"""E24 — the firing squad: agreement on a *time* (§2.2.1, [31]).

Paper claims reproduced: simultaneous firing is achievable under t
crashes by flooding and firing at signal-age t+2 (verified exhaustively
over the full crash-pattern space), and firing any earlier is splittable
— the relay floor the firing-squad lower bounds formalize.  Both searches
walk the crash patterns as one state-keyed crash tree.
"""

from conftest import record

from repro.consensus import (
    FloodingFiringSquad,
    HastyFiringSquad,
    find_simultaneity_violation,
)


def test_e24_flooding_squad_simultaneous(benchmark):
    result = benchmark(
        lambda: find_simultaneity_violation(FloodingFiringSquad(), n=4, t=2)
    )
    record(benchmark, runs_checked=result.runs_checked,
           rounds_simulated=result.rounds_simulated)
    assert result.violation_adversary is None
    assert result.runs_checked == 9_761


def test_e24_hasty_squad_split(benchmark):
    result = benchmark(
        lambda: find_simultaneity_violation(HastyFiringSquad(), n=4, t=1)
    )
    record(
        benchmark,
        runs_checked=result.runs_checked,
        rounds_simulated=result.rounds_simulated,
        firing_rounds={str(k): v for k, v in (result.firing_rounds or {}).items()},
    )
    assert result.firing_rounds == {1: 1, 2: 2, 3: 2}
