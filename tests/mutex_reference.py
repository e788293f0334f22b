"""The E1 candidate checks the decision-tree walk replaced — kept only as
differential references for ``tests/test_e1_kernel_differential.py``.

``reference_check_candidate`` is the generic check as it was before the
integer kernel: each candidate pair becomes a :class:`MutexSystem` of two
:class:`SyntheticTasProcess` participants, model-checked by one
reachability search for mutual exclusion, then a starvation-cycle search
per victim for deadlock- and lockout-freedom.  The cycle search is the
networkx copy in ``tests/starvation_reference.py``, so it shares no code
with the fairness-cycle kernel it checks.

``eager_search`` is the integer kernel's search as it was before the
walk: one whole-table BFS per ordered pair ``a <= b``, its verdict
copied to ``(b, a)`` by the pid-swap symmetry.
"""

from __future__ import annotations

import itertools
from typing import Dict, List, Optional, Tuple

from repro.core.errors import SearchBudgetExceeded
from repro.shared_memory.lower_bounds import (
    _ACT,
    _CRIT,
    _CRIT_OUTPUT,
    _CRIT_PENDING,
    _EXIT,
    _EXIT_INPUT,
    _REM,
    _REM_PENDING,
    _TRYING,
    CandidateVerdict,
    ProtocolTable,
    _IDLE,
    build_synthetic_system,
    enumerate_protocol_tables,
)
from repro.core.packed import admissible_component
from repro.shared_memory.mutex import TRYING

from .starvation_reference import find_starvation_cycle


def reference_check_candidate(tables: Tuple[ProtocolTable, ...],
                              max_states: int = 20_000) -> CandidateVerdict:
    system = build_synthetic_system(tables)
    mutex_ok = system.check_mutual_exclusion(max_states=max_states) is None
    if not mutex_ok:
        return CandidateVerdict(tables, False, False, False)

    def starves(victim, forbidden_actions=None):
        return find_starvation_cycle(
            system, victim,
            victim_stuck=lambda s: system.local_state(s, victim)["region"] == TRYING,
            environment_returns=system._environment_owes,
            forbidden_actions=forbidden_actions,
            max_states=max_states,
        ) is not None

    def crit(action):
        return isinstance(action, tuple) and action[0] == "crit"

    if any(starves(p.name, crit) for p in system.processes):
        return CandidateVerdict(tables, True, False, False)
    lockout_ok = not any(starves(p.name) for p in system.processes)
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


def _moves(table: ProtocolTable, pid: int) -> List[Tuple[int, int, int]]:
    """Process ``pid``'s move ``(local', value', label)`` per
    ``local * values + value``."""
    act = _ACT << pid
    moves = []
    for local in range(_TRYING + table.modes):
        for v in range(table.values):
            if local == _REM:
                moves.append((_TRYING, v, 0))  # the try input
            elif local == _CRIT_PENDING:
                moves.append((_CRIT, v, act | _CRIT_OUTPUT))
            elif local == _CRIT:
                moves.append((_EXIT, v, _EXIT_INPUT << pid))
            elif local == _EXIT:
                moves.append((_REM_PENDING, table.exit_table[v], act))
            elif local == _REM_PENDING:
                moves.append((_REM, v, act))
            else:
                entry = table.try_entry(local - _TRYING, v)
                if entry[0] == "enter":
                    moves.append((_CRIT_PENDING, entry[1], act))
                else:
                    moves.append((_TRYING + entry[1], entry[2], act))
    return moves


def eager_check_candidate(tables: Tuple[ProtocolTable, ...],
                          max_states: int = 20_000,
                          moves: Optional[Tuple[List, List]] = None
                          ) -> CandidateVerdict:
    """One whole-table integer BFS, then the kernel's SCC checks."""
    values = tables[0].values
    locals_ = _TRYING + max(table.modes for table in tables)
    row = locals_ * values
    if moves is None:
        moves = _moves(tables[0], 0), _moves(tables[1], 1)
    moves0, moves1 = moves
    order = [0]
    local_of: Dict[int, Tuple[int, int]] = {}
    succ: Dict[int, Tuple[Tuple[int, int], ...]] = {}
    seen = bytearray(locals_ * row)
    seen[0] = 1
    for s in order:
        l0, rest = divmod(s, row)
        l1, v = divmod(rest, values)
        if _CRIT_PENDING <= l0 <= _CRIT and _CRIT_PENDING <= l1 <= _CRIT:
            return CandidateVerdict(tables, False, False, False)
        local_of[s] = (l0, l1)
        n0, v0, label0 = moves0[l0 * values + v]
        n1, v1, label1 = moves1[l1 * values + v]
        edges = ((n0 * row + l1 * values + v0, label0),
                 (l0 * row + n1 * values + v1, label1))
        succ[s] = edges
        for child, _label in edges:
            if not seen[child]:
                if len(order) >= max_states:
                    raise SearchBudgetExceeded(
                        f"candidate check exceeded {max_states} states"
                    )
                seen[child] = 1
                order.append(child)
    stuck = [bytes(s in local_of and local_of[s][victim] >= _TRYING
                   for s in range(len(seen)))
             for victim in (0, 1)]
    locals_at = [local_of.get(s, (_REM, _REM)) for s in range(len(seen))]
    idle = [(l0 in _IDLE) | (l1 in _IDLE) << 1 for l0, l1 in locals_at]
    owed = [_EXIT_INPUT if l0 == _CRIT else _EXIT_INPUT << 1 if l1 == _CRIT
            else 0 for l0, l1 in locals_at]

    def starves(trying, skip):
        return admissible_component(order, succ, trying, idle, owed, skip,
                                    3) is not None

    if any(starves(trying, _CRIT_OUTPUT) for trying in stuck):
        return CandidateVerdict(tables, True, False, False)
    lockout_ok = not any(starves(trying, 0) for trying in stuck)
    return CandidateVerdict(tables, True, True, lockout_ok)


def eager_search(values: int, modes: int = 1,
                 symmetric: bool = False) -> List[CandidateVerdict]:
    """Every candidate of the class by :func:`eager_check_candidate`, in
    class order; an asymmetric class checks ``a <= b`` and mirrors."""
    tables = list(enumerate_protocol_tables(values, modes))
    if symmetric:
        return [eager_check_candidate((t, t)) for t in tables]
    moves1 = [_moves(table, 1) for table in tables]
    verdicts: List[CandidateVerdict] = []
    checked: List[List[CandidateVerdict]] = []  # checked[i][j - i] for j >= i
    for i, a in enumerate(tables):
        for j, b in enumerate(tables[:i]):
            mirror = checked[j][i - j]
            verdicts.append(CandidateVerdict(
                (a, b), mirror.mutual_exclusion, mirror.deadlock_free,
                mirror.lockout_free,
            ))
        moves0 = _moves(a, 0)
        row = [
            eager_check_candidate((a, b), moves=(moves0, moves1[j]))
            for j, b in enumerate(tables[i:], i)
        ]
        checked.append(row)
        verdicts.extend(row)
    return verdicts
