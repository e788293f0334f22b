"""The E4 crash-pattern search as it was before the prefix tree — kept
only as the differential reference for
``tests/test_e4_kernel_differential.py``.

Every (input vector, crash adversary) pair is a fresh
:func:`run_synchronous` from round 1, in the order of the original
adversary enumeration below; the first violating run is returned.
"""

from __future__ import annotations

import itertools
from typing import Hashable, Iterable, Iterator, Optional, Sequence

from repro.consensus.lower_bounds import RoundBoundResult, _check_run
from repro.consensus.synchronous import (
    CrashAdversary,
    NoFaults,
    SyncAdversary,
    SyncProtocol,
    run_synchronous,
)


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
