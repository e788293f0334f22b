"""The generic E1 candidate check as it was before the integer kernel —
kept only as the differential reference for
``tests/test_e1_kernel_differential.py``.

Each candidate pair becomes a :class:`MutexSystem` of two
:class:`SyntheticTasProcess` participants, model-checked by the generic
checkers: one reachability search for mutual exclusion, then a
starvation-cycle search (networkx SCCs) per victim for deadlock- and
lockout-freedom.
"""

from __future__ import annotations

import itertools
from typing import List, Tuple

from repro.shared_memory.lower_bounds import (
    CandidateVerdict,
    ProtocolTable,
    build_synthetic_system,
    enumerate_protocol_tables,
)


def reference_check_candidate(tables: Tuple[ProtocolTable, ...],
                              max_states: int = 20_000) -> CandidateVerdict:
    system = build_synthetic_system(tables)
    mutex_ok = system.check_mutual_exclusion(max_states=max_states) is None
    if not mutex_ok:
        return CandidateVerdict(tables, False, False, False)
    deadlock_ok = all(
        system.check_deadlock_freedom(p.name, max_states=max_states) is None
        for p in system.processes
    )
    if not deadlock_ok:
        return CandidateVerdict(tables, True, False, False)
    lockout_ok = all(
        system.check_lockout_freedom(p.name, max_states=max_states) is None
        for p in system.processes
    )
    return CandidateVerdict(tables, True, True, lockout_ok)


def reference_search(values: int, modes: int = 1,
                     symmetric: bool = False) -> List[CandidateVerdict]:
    """Every candidate of the class checked by the reference, in class
    order (no pid-swap quotient)."""
    tables = list(enumerate_protocol_tables(values, modes))
    if symmetric:
        pairs = ((t, t) for t in tables)
    else:
        pairs = itertools.product(tables, repeat=2)
    return [reference_check_candidate(pair) for pair in pairs]
