"""The E4 and E24 crash-pattern searches as they were before the crash
tree — kept only as the differential references for
``tests/test_e4_kernel_differential.py`` and
``tests/test_e24_kernel_differential.py``.

Every (input vector, crash adversary) pair is a fresh
:func:`run_synchronous` from round 1, in the order of the original
adversary enumeration below; the first violating run is returned.
"""

from __future__ import annotations

import itertools
from typing import Hashable, Iterable, Iterator, Optional, Sequence

from repro.consensus.firing_squad import SimultaneityResult
from repro.consensus.lower_bounds import RoundBoundResult
from repro.consensus.synchronous import (
    CrashAdversary,
    NoFaults,
    Pid,
    SyncAdversary,
    SyncProtocol,
    SyncRun,
    run_synchronous,
)


def _check_run(run: SyncRun) -> Optional[str]:
    if not run.all_honest_decided():
        return "termination"
    if not run.agreement_holds():
        return "agreement"
    if not run.validity_holds():
        return "validity"
    return None


def reference_crash_adversaries(n: int, t: int, rounds: int
                                ) -> Iterator[SyncAdversary]:
    yield NoFaults()
    pids = list(range(n))
    for k in range(1, t + 1):
        for victims in itertools.combinations(pids, k):
            per_victim_options = []
            for victim in victims:
                others = [p for p in pids if p != victim]
                options = [
                    (rnd, subset)
                    for rnd in range(1, rounds + 1)
                    for size in range(len(others) + 1)
                    for subset in itertools.combinations(others, size)
                ]
                per_victim_options.append(options)
            for combo in itertools.product(*per_victim_options):
                yield CrashAdversary(
                    {victim: choice for victim, choice in zip(victims, combo)}
                )


def reference_round_bound_violation(
    protocol: SyncProtocol,
    n: int,
    t: int,
    rounds: Optional[int] = None,
    input_vectors: Optional[Iterable[Sequence[Hashable]]] = None,
) -> RoundBoundResult:
    rounds = rounds if rounds is not None else protocol.rounds(n, t)
    if input_vectors is None:
        input_vectors = list(itertools.product((0, 1), repeat=n))
    runs_checked = 0
    for inputs in input_vectors:
        for adversary in reference_crash_adversaries(n, t, rounds):
            run = run_synchronous(
                protocol, list(inputs), adversary=adversary, t=t, rounds=rounds,
                record_trace=False,
            )
            runs_checked += 1
            violated = _check_run(run)
            if violated is not None:
                return RoundBoundResult(
                    protocol.name, n, t, rounds, runs_checked, run, violated,
                    runs_checked * rounds,
                )
    return RoundBoundResult(
        protocol.name, n, t, rounds, runs_checked, None, None,
        runs_checked * rounds,
    )


def reference_simultaneity_violation(
    protocol: SyncProtocol, n: int, t: int, initiator: Pid = 0
) -> SimultaneityResult:
    inputs = [1 if pid == initiator else 0 for pid in range(n)]
    rounds = protocol.rounds(n, t)
    runs = 0
    for adversary in reference_crash_adversaries(n, t, rounds):
        run = run_synchronous(protocol, inputs, adversary=adversary, t=t,
                              record_trace=False)
        runs += 1
        fired = {pid: run.decisions[pid] for pid in run.honest_pids}
        distinct = {r for r in fired.values()}
        if len(distinct) > 1:
            return SimultaneityResult(protocol.name, runs, adversary, fired)
    return SimultaneityResult(protocol.name, runs, None, None)
