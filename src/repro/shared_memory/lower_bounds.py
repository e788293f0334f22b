"""Mechanized Cremers–Hibbard values bound (survey §2.1, E1).

"Two values of a single test-and-set variable are insufficient for fair
2-process mutual exclusion."  We enumerate *every* protocol in two
bounded classes — memoryless single-variable TAS protocols, and
symmetric protocols with one bit of trying-region memory — model-check
each candidate for mutual exclusion, deadlock-freedom and
lockout-freedom, and certify that no candidate achieves all three with a
2-valued variable, while semaphore-like candidates do achieve the first
two (the paper's "a 2-valued semaphore is plenty if there are no
fairness requirements").

The search runs on an integer kernel of its own, whose SCC check is the
fairness-cycle kernel the generic mutex checkers share
(:func:`repro.core.packed.admissible_component`); the generic mutex stack
(:func:`build_synthetic_system`) loads only when a caller asks for it.
The other §2.1 result, the Burns–Lynch adversary (E2), is in
:mod:`.burns_lynch`.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import (
    Callable, Dict, Iterable, Iterator, List, Optional, Tuple,
)

from ..core.errors import ModelError, SearchBudgetExceeded
from ..core.packed import admissible_component
from ..impossibility.certificate import ImpossibilityCertificate

# A trying-table entry is either ("enter", w) — move to the critical region
# writing w — or ("stay", m, w) — remain trying, switch to mode m, write w.
TryEntry = Tuple
TryTable = Dict[Tuple[int, int], TryEntry]  # (mode, value) -> entry
ExitTable = Dict[int, int]  # value -> written value


@dataclass(frozen=True)
class ProtocolTable:
    """One synthesized single-variable TAS protocol for one process."""

    values: int
    modes: int
    try_table: Tuple[TryEntry, ...]  # indexed by mode * values + value
    exit_table: Tuple[int, ...]  # indexed by value

    def try_entry(self, mode: int, value: int) -> TryEntry:
        return self.try_table[mode * self.values + value]


def enumerate_protocol_tables(values: int, modes: int) -> Iterator[ProtocolTable]:
    """Every protocol table over ``values`` shared values and ``modes``
    trying modes.

    Entry options per (mode, value): ``values`` ways to enter plus
    ``modes * values`` ways to stay.
    """
    entry_options: List[TryEntry] = [("enter", w) for w in range(values)]
    entry_options += [
        ("stay", m, w) for m in range(modes) for w in range(values)
    ]
    slots = modes * values
    exit_options = list(itertools.product(range(values), repeat=values))
    for try_choice in itertools.product(entry_options, repeat=slots):
        for exit_choice in exit_options:
            yield ProtocolTable(values, modes, tuple(try_choice), tuple(exit_choice))


@dataclass
class CandidateVerdict:
    """Model-checking outcome for one candidate protocol pair."""

    tables: Tuple[ProtocolTable, ...]
    mutual_exclusion: bool
    deadlock_free: bool
    lockout_free: bool

    @property
    def fair_solution(self) -> bool:
        return self.mutual_exclusion and self.deadlock_free and self.lockout_free

    @property
    def unfair_solution(self) -> bool:
        return self.mutual_exclusion and self.deadlock_free and not self.lockout_free


def build_synthetic_system(tables: Iterable[ProtocolTable], initial_value: int = 0):
    """The generic :class:`MutexSystem` that runs ``tables``, one
    :class:`~repro.shared_memory.mutex.synthetic.SyntheticTasProcess`
    each."""
    from .mutex.synthetic import SyntheticTasProcess
    from .mutex.base import MutexSystem

    processes = [
        SyntheticTasProcess(f"p{i}", table) for i, table in enumerate(tables)
    ]
    return MutexSystem(
        processes,
        initial_memory={SyntheticTasProcess.VAR: initial_value},
        name="synthetic-tas",
    )


# The integer kernel.  A synthesized process has one non-ignored move in
# every local state, so a candidate's state graph has out-degree two.  Its
# local states are small ints (trying mode m is _TRYING + m) and a global
# state (local0, local1, v) is the int (local0 * L + local1) * values + v.
_REM, _CRIT_PENDING, _CRIT, _EXIT, _REM_PENDING, _TRYING = range(6)
_IDLE = (_REM, _CRIT)  # no step to take

# Edge labels, as core.packed.admissible_component reads them: bit pid
# marks a step or output of that process, bit 2 + pid the environment's
# (owed) exit input to it, bit 4 a crit output (a deadlock check's skip).
_ACT = 1
_EXIT_INPUT = 4
_CRIT_OUTPUT = 16

# A table is a row of digits: one per trying entry, in table order, then
# one per exit entry.  A digit is the entry's index among its options, so
# a class's candidates in class order are its digit rows counted in mixed
# radix.  Trying options: ("enter", w) is w, ("stay", m, w) is
# values * (1 + m) + w, as in enumerate_protocol_tables; an exit digit is
# the value written.


def _digits(table: ProtocolTable) -> List[int]:
    values = table.values
    return [
        entry[1] if entry[0] == "enter" else values * (1 + entry[1]) + entry[2]
        for entry in table.try_table
    ] + list(table.exit_table)


def _options(values: int, modes: int) -> List[List[Tuple[int, int]]]:
    """Per digit of one table, its options as moves ``(local', value')``."""
    trying = [(_CRIT_PENDING, w) for w in range(values)]
    trying += [(_TRYING + m, w) for m in range(modes) for w in range(values)]
    exiting = [(_REM_PENDING, w) for w in range(values)]
    return [trying] * (modes * values) + [exiting] * values


def _reader(values: int, modes: int, locals_: int, base: int) -> List[int]:
    """The digit a process reads per ``local * values + value`` (-1 for a
    move that reads no entry), its table's digits starting at ``base``."""
    reads = [-1] * (locals_ * values)
    for v in range(values):
        reads[_EXIT * values + v] = base + modes * values + v
        for m in range(modes):
            reads[(_TRYING + m) * values + v] = base + m * values + v
    return reads


def _layout(values: int, modes0: int, modes1: int, shared: bool
            ) -> Tuple[List[List[Tuple[int, int]]], Tuple[List[int], List[int]]]:
    """A candidate pair's digit options and each pid's reader.  With
    ``shared`` both pids read one table (of ``modes0`` modes), as in a
    symmetric class; otherwise pid 1 reads a second table after it."""
    locals_ = _TRYING + max(modes0, modes1)
    options = _options(values, modes0)
    reads0 = _reader(values, modes0, locals_, 0)
    if shared:
        return options, (reads0, reads0)
    reads1 = _reader(values, modes1, locals_, len(options))
    return options + _options(values, modes1), (reads0, reads1)


def _fixed_moves(values: int, locals_: int, pid: int) -> List[Optional[Tuple[int, int, int]]]:
    """Process ``pid``'s move ``(local', value', label)`` per
    ``local * values + value`` where it reads no table entry."""
    act = _ACT << pid
    moves: List[Optional[Tuple[int, int, int]]] = [None] * (locals_ * values)
    for v in range(values):
        moves[_REM * values + v] = (_TRYING, v, 0)  # the try input
        moves[_CRIT_PENDING * values + v] = (_CRIT, v, act | _CRIT_OUTPUT)
        moves[_CRIT * values + v] = (_EXIT, v, _EXIT_INPUT << pid)
        moves[_REM_PENDING * values + v] = (_REM, v, act)
    return moves


Verdict = Tuple[bool, bool, bool]  # mutual exclusion, deadlock-, lockout-free


def _walk(values: int, options: List[List[Tuple[int, int]]],
          reads: Tuple[List[int], List[int]], digits: List[int],
          max_states: int, leaf: Callable[[List[int], Verdict], None]) -> None:
    """Decide every candidate whose digits agree with ``digits`` (-1 marks
    a free entry), calling ``leaf(digits, verdict)`` once per leaf of the
    decision tree.

    One breadth-first pass over the integer-encoded state graph decides
    mutual exclusion; deadlock- and lockout-freedom for each victim come
    from SCCs of that graph.  When the pass reads a free entry it branches
    on the entry's options, in option order, and resumes at the same
    state; a branch's new states are dropped before the next.  Candidates
    that agree on the entries read share one pass, hence one verdict.
    Raises :class:`SearchBudgetExceeded` past ``max_states`` states.
    """
    reads0, reads1 = reads
    locals_ = len(reads0) // values
    row = locals_ * values
    size = locals_ * row
    local_of = [(s // row, s // values % locals_) for s in range(size)]
    # The kernel's masks per state (per victim, ``stuck``: it is trying):
    # a leaf's graph is closed under successors, so one set per walk
    # serves every SCC check.
    stuck = [bytes(local[victim] >= _TRYING for local in local_of)
             for victim in (0, 1)]
    idle = bytes((l0 in _IDLE) | (l1 in _IDLE) << 1 for l0, l1 in local_of)
    owed = bytes(_EXIT_INPUT if l0 == _CRIT else _EXIT_INPUT << 1 if l1 == _CRIT
                 else 0 for l0, l1 in local_of)
    fixed0, fixed1 = (_fixed_moves(values, locals_, pid) for pid in (0, 1))
    succ: List[Tuple[Tuple[int, int], ...]] = [()] * size
    order = [0]  # the initial state: both in rem, v = 0
    seen = bytearray(size)
    seen[0] = 1
    # The open branches, innermost last: (state index, digit, len(order)
    # when the branch was opened).
    branches: List[Tuple[int, int, int]] = []
    k = 0
    while True:
        free = -1
        while k < len(order):
            s = order[k]
            l0, l1 = local_of[s]
            if _CRIT_PENDING <= l0 <= _CRIT and _CRIT_PENDING <= l1 <= _CRIT:
                leaf(digits, (False, False, False))
                break
            v = s % values
            key = l0 * values + v
            p = reads0[key]
            if p < 0:
                n0, v0, label0 = fixed0[key]
            elif digits[p] < 0:
                free = p
                break
            else:
                (n0, v0), label0 = options[p][digits[p]], _ACT
            key = l1 * values + v
            p = reads1[key]
            if p < 0:
                n1, v1, label1 = fixed1[key]
            elif digits[p] < 0:
                free = p
                break
            else:
                (n1, v1), label1 = options[p][digits[p]], _ACT << 1
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
            k += 1
        else:
            if any(admissible_component(order, succ, trying, idle, owed,
                                        _CRIT_OUTPUT, 3) is not None
                   for trying in stuck):
                leaf(digits, (True, False, False))
            else:
                lockout_ok = all(
                    admissible_component(order, succ, trying, idle, owed, 0, 3)
                    is None for trying in stuck
                )
                leaf(digits, (True, True, lockout_ok))
        if free >= 0:  # branch on the free digit's first option
            branches.append((k, free, len(order)))
            digits[free] = 0
            continue
        # Drop the finished option's new states; go on with the next
        # option of the innermost branch that has one.
        while branches:
            k, p, mark = branches[-1]
            for s in order[mark:]:
                seen[s] = 0
            del order[mark:]
            if digits[p] + 1 < len(options[p]):
                digits[p] += 1
                break
            digits[p] = -1
            branches.pop()
        else:
            return


def check_candidate(tables: Tuple[ProtocolTable, ...],
                    max_states: int = 20_000) -> CandidateVerdict:
    """Model-check one candidate protocol pair for all three properties.

    The decision-tree walk of :func:`search_two_process_protocols` with
    every entry fixed: a single leaf.  The verdict equals the generic
    :class:`MutexSystem` checkers' on :func:`build_synthetic_system`.
    Raises :class:`SearchBudgetExceeded` past ``max_states`` states.
    """
    a, b = tables
    options, reads = _layout(a.values, a.modes, b.modes, shared=False)
    verdicts: List[Verdict] = []
    _walk(a.values, options, reads, _digits(a) + _digits(b), max_states,
          lambda _row, verdict: verdicts.append(verdict))
    return CandidateVerdict(tables, *verdicts[0])


def _decision_leaves(values: int, modes: int, symmetric: bool,
                     max_states: int = 20_000) -> List[Tuple[Tuple[int, ...], Verdict]]:
    """The class's decision tree as ``(digits, verdict)`` leaves, in walk
    order; a leaf's free entries are -1."""
    options, reads = _layout(values, modes, modes, shared=symmetric)
    leaves: List[Tuple[Tuple[int, ...], Verdict]] = []
    _walk(values, options, reads, [-1] * len(options), max_states,
          lambda row, verdict: leaves.append((tuple(row), verdict)))
    return leaves


def search_two_process_protocols(
    values: int,
    modes: int = 1,
    symmetric: bool = False,
    max_candidates: Optional[int] = None,
) -> List[CandidateVerdict]:
    """Model-check every candidate 2-process protocol in the class.

    With ``symmetric=True`` both processes run the same table (the class is
    then linear rather than quadratic in the table count).  One
    decision-tree walk (see :func:`_walk`) decides the class: each leaf's
    verdict goes to every candidate that agrees with the leaf's entries.
    Returns the verdict list in class order; see
    :func:`cremers_hibbard_certificate` for the certified conclusion.
    """
    options, _reads = _layout(values, modes, modes, shared=symmetric)
    radices = [len(digit) for digit in options]
    total = math.prod(radices)
    if max_candidates is not None and total > max_candidates:
        raise ModelError(
            f"protocol class has {total} candidates, above the limit "
            f"{max_candidates}; narrow the class"
        )
    weights = [math.prod(radices[i + 1:]) for i in range(len(radices))]
    verdict_of: List[Verdict] = [None] * total  # type: ignore[list-item]
    for digits, verdict in _decision_leaves(values, modes, symmetric):
        # The agreeing candidates' class indices, in mixed radix: the
        # fixed digits give the first, the free ones every offset.
        first, offsets = 0, [0]
        for digit, radix, weight in zip(digits, radices, weights):
            if digit < 0:
                offsets = [o + c for o in offsets
                           for c in range(0, radix * weight, weight)]
            else:
                first += digit * weight
        for offset in offsets:
            verdict_of[first + offset] = verdict
    tables = list(enumerate_protocol_tables(values, modes))
    pairs = ((t, t) for t in tables) if symmetric else itertools.product(tables, repeat=2)
    return [CandidateVerdict(pair, *verdict)
            for pair, verdict in zip(pairs, verdict_of)]


def cremers_hibbard_certificate(
    values: int = 2, modes: int = 1, symmetric: bool = False
) -> ImpossibilityCertificate:
    """Certify: no candidate with ``values`` shared values is a *fair*
    mutual exclusion protocol, though unfair (semaphore-like) ones exist.

    Raises if a fair candidate is found — which would refute the claim for
    this class (and would be a library bug for values=2, or a discovery for
    values=3).
    """
    # Count over the decision tree's leaves: a leaf stands for every
    # candidate that agrees with its fixed digits.
    options, _reads = _layout(values, modes, modes, shared=symmetric)
    candidates = exclusive = unfair = fair = 0
    for digits, (mutex, deadlock_free, lockout_free) in _decision_leaves(
        values, modes, symmetric
    ):
        weight = math.prod(
            len(choices) for digit, choices in zip(digits, options) if digit < 0
        )
        candidates += weight
        exclusive += weight * mutex
        fair += weight * (mutex and deadlock_free and lockout_free)
        unfair += weight * (mutex and deadlock_free and not lockout_free)
    if fair:
        raise ModelError(
            f"found {fair} fair protocols with {values} values — "
            "the impossibility claim fails for this class"
        )
    shape = "symmetric" if symmetric else "asymmetric"
    return ImpossibilityCertificate(
        claim=(
            f"no 2-process mutual exclusion protocol over a single "
            f"{values}-valued test-and-set variable is lockout-free"
        ),
        scope=(
            f"{shape} protocols, {modes} trying mode(s), one TAS access per "
            f"step, exhaustive over {candidates} candidates"
        ),
        technique="pigeonhole / exhaustive model checking",
        candidates_checked=candidates,
        details={
            "mutual_exclusion_holders": exclusive,
            "unfair_solutions": unfair,
            "fair_solutions": 0,
        },
    )

