"""Mechanized shared-memory lower bounds (survey §2.1).

Two results are mechanized here.

**Cremers–Hibbard values bound (E1).**  "Two values of a single
test-and-set variable are insufficient for fair 2-process mutual
exclusion."  We enumerate *every* protocol in two bounded classes —
memoryless single-variable TAS protocols, and symmetric protocols with one
bit of trying-region memory — model-check each candidate for mutual
exclusion, deadlock-freedom and lockout-freedom, and certify that no
candidate achieves all three with a 2-valued variable, while semaphore-like
candidates do achieve the first two (the paper's "a 2-valued semaphore is
plenty if there are no fairness requirements").

**Burns–Lynch register bound, n = 2 case (E2).**  "Mutual exclusion for n
processes requires at least n read/write registers."  Rather than
enumerate protocols, we implement the proof itself as an *adversary*: a
procedure that takes an arbitrary 2-process algorithm using a single
read/write register and constructs a violating execution, by the covering
argument — (1) a process must write before entering its critical region
(or it is invisible), and (2) a write to the only register obliterates all
evidence that the other process ever ran.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Dict, Hashable, Iterable, Iterator, List, Optional, Tuple

from ..core.errors import ModelError, SearchBudgetExceeded
from ..core.execution import Execution
from ..core.freeze import frozendict
from ..impossibility.certificate import (
    CounterexampleCertificate,
    ImpossibilityCertificate,
)
from .mutex.base import CRITICAL, MutexProcess, MutexSystem, REMAINDER
from .variables import Access, Read, Write, tas

# --------------------------------------------------------------------------
# E1: exhaustive search over single-TAS-variable protocol classes
# --------------------------------------------------------------------------

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


class SyntheticTasProcess(MutexProcess):
    """A mutex participant driven by a :class:`ProtocolTable`.

    Every trying step and the single exit step are one atomic test-and-set
    access, exactly the Cremers–Hibbard model.
    """

    VAR = "v"

    def __init__(self, name: str, table: ProtocolTable):
        super().__init__(name)
        self.table = table

    def initial_fields(self):
        return {"mode": 0}

    def _try_step(self, value: Hashable, arg: Hashable) -> Tuple[Hashable, Hashable]:
        entry = self.table.try_entry(arg, value)
        if entry[0] == "enter":
            return entry[1], ("enter",)
        return entry[2], ("stay", entry[1])

    def trying_access(self, local: frozendict) -> Optional[Access]:
        return tas(self.VAR, self._try_step, arg=local["mode"], name="synthetic-try")

    def after_trying(self, local: frozendict, response: Hashable) -> frozendict:
        if response[0] == "enter":
            return local.set("region", CRITICAL).set("mode", 0)
        return local.set("mode", response[1])

    def _exit_step(self, value: Hashable, arg: Hashable) -> Tuple[Hashable, Hashable]:
        return self.table.exit_table[value], None

    def exit_access(self, local: frozendict) -> Optional[Access]:
        return tas(self.VAR, self._exit_step, name="synthetic-exit")

    def after_exit(self, local: frozendict, response: Hashable) -> frozendict:
        return local.set("region", REMAINDER).set("mode", 0)


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


def build_synthetic_system(tables: Iterable[ProtocolTable], initial_value: int = 0
                           ) -> MutexSystem:
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

# Edge labels: bit pid marks a step or output of that process, bit 2 + pid
# the environment's exit input to it, bit 4 a crit output.
_ACT = 1
_EXIT_INPUT = 4
_CRIT_OUTPUT = 16


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


def _admissible_cycle(order: List[int], succ: Dict[int, Tuple[Tuple[int, int], ...]],
                      local_of: Dict[int, Tuple[int, int]], victim: int,
                      skip: int) -> bool:
    """Does some maximal SCC of the graph restricted to states with
    ``victim`` trying (dropping edges labelled ``skip``) unroll into an
    admissible execution?  The three conditions of
    :func:`~repro.shared_memory.system.find_starvation_cycle`: every process
    acts in it or is idle at one of its states, every owed exit occurs in
    it, and no skipped edge is used."""
    stuck = {s for s in order if local_of[s][victim] >= _TRYING}
    index: Dict[int, int] = {}
    low: Dict[int, int] = {}
    component: Dict[int, int] = {}
    stack: List[int] = []
    for root in order:
        if root not in stuck or root in index:
            continue
        index[root] = low[root] = len(index)
        stack.append(root)
        work = [(root, 0)]
        while work:
            s, i = work[-1]
            edges = succ[s]
            if i < len(edges):
                work[-1] = (s, i + 1)
                child, label = edges[i]
                if child not in stuck or label & skip:
                    continue
                if child not in index:
                    index[child] = low[child] = len(index)
                    stack.append(child)
                    work.append((child, 0))
                elif child not in component and index[child] < low[s]:
                    low[s] = index[child]
                continue
            work.pop()
            if work and low[s] < low[work[-1][0]]:
                low[work[-1][0]] = low[s]
            if low[s] != index[s]:
                continue
            members = []
            while True:
                member = stack.pop()
                component[member] = s
                members.append(member)
                if member == s:
                    break
            acts = idle = owed = 0
            has_edge = False
            for member in members:
                l0, l1 = local_of[member]
                idle |= (l0 in _IDLE) | (l1 in _IDLE) << 1
                if l0 == _CRIT:
                    owed |= _EXIT_INPUT
                elif l1 == _CRIT:
                    owed |= _EXIT_INPUT << 1
                for child, label in succ[member]:
                    if component.get(child) == s and not label & skip:
                        acts |= label
                        has_edge = True
            if has_edge and (acts | idle) & 3 == 3 and not owed & ~acts:
                return True
    return False


def check_candidate(tables: Tuple[ProtocolTable, ...],
                    max_states: int = 20_000,
                    moves: Optional[Tuple[List, List]] = None) -> CandidateVerdict:
    """Model-check one candidate protocol pair for all three properties.

    One breadth-first pass over the integer-encoded state graph decides
    mutual exclusion; deadlock- and lockout-freedom for each victim come
    from SCCs of that graph.  The verdict equals the generic
    :class:`MutexSystem` checkers' on :func:`build_synthetic_system`.
    Raises :class:`SearchBudgetExceeded` past ``max_states`` states.
    ``moves`` may carry ``(_moves(tables[0], 0), _moves(tables[1], 1))``
    when the caller has built them already.
    """
    values = tables[0].values
    locals_ = _TRYING + max(table.modes for table in tables)
    row = locals_ * values
    if moves is None:
        moves = _moves(tables[0], 0), _moves(tables[1], 1)
    moves0, moves1 = moves
    order = [0]  # the initial state: both in rem, v = 0
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
    if any(_admissible_cycle(order, succ, local_of, victim, _CRIT_OUTPUT)
           for victim in (0, 1)):
        return CandidateVerdict(tables, True, False, False)
    lockout_ok = not any(_admissible_cycle(order, succ, local_of, victim, 0)
                         for victim in (0, 1))
    return CandidateVerdict(tables, True, True, lockout_ok)


def search_two_process_protocols(
    values: int,
    modes: int = 1,
    symmetric: bool = False,
    max_candidates: Optional[int] = None,
) -> List[CandidateVerdict]:
    """Model-check every candidate 2-process protocol in the class.

    With ``symmetric=True`` both processes run the same table (the class is
    then linear rather than quadratic in the table count).  Otherwise the
    pid swap is a symmetry of the class: ``(a, b)`` is checked once and its
    verdict reused for ``(b, a)``.  Returns the verdict list in class order;
    see :func:`cremers_hibbard_certificate` for the certified conclusion.
    """
    # The table count of enumerate_protocol_tables, known before enumerating.
    count = (values * (1 + modes)) ** (modes * values) * values ** values
    total = count if symmetric else count ** 2
    if max_candidates is not None and total > max_candidates:
        raise ModelError(
            f"protocol class has {total} candidates, above the limit "
            f"{max_candidates}; narrow the class"
        )
    tables = list(enumerate_protocol_tables(values, modes))
    if symmetric:
        return [check_candidate((t, t)) for t in tables]
    # Each table's moves, built once per pid for the whole search.
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
            check_candidate((a, b), moves=(moves0, moves1[j]))
            for j, b in enumerate(tables[i:], i)
        ]
        checked.append(row)
        verdicts.extend(row)
    return verdicts


def cremers_hibbard_certificate(
    values: int = 2, modes: int = 1, symmetric: bool = False
) -> ImpossibilityCertificate:
    """Certify: no candidate with ``values`` shared values is a *fair*
    mutual exclusion protocol, though unfair (semaphore-like) ones exist.

    Raises if a fair candidate is found — which would refute the claim for
    this class (and would be a library bug for values=2, or a discovery for
    values=3).
    """
    verdicts = search_two_process_protocols(values, modes, symmetric)
    fair = [v for v in verdicts if v.fair_solution]
    unfair = [v for v in verdicts if v.unfair_solution]
    if fair:
        raise ModelError(
            f"found {len(fair)} fair protocols with {values} values — "
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
            f"step, exhaustive over {len(verdicts)} candidates"
        ),
        technique="pigeonhole / exhaustive model checking",
        candidates_checked=len(verdicts),
        details={
            "mutual_exclusion_holders": sum(
                1 for v in verdicts if v.mutual_exclusion
            ),
            "unfair_solutions": len(unfair),
            "fair_solutions": 0,
        },
    )


# --------------------------------------------------------------------------
# E2: the Burns–Lynch covering adversary for a single read/write register
# --------------------------------------------------------------------------


@dataclass
class SoloRun:
    """A process's solo behaviour: inputs + steps until critical entry.

    ``actions`` replays against the full system; ``first_write_index``
    locates the process's first write step within them (None if it enters
    its critical region without writing).  ``enters`` is False when the
    solo run cycles without entering (a progress violation on its own).
    """

    victim: str
    actions: Tuple
    first_write_index: Optional[int]
    enters: bool


def _classify_access(access: Access) -> str:
    if isinstance(access.op, Read):
        return "read"
    if isinstance(access.op, Write):
        return "write"
    raise ModelError(
        "the Burns–Lynch adversary applies to read/write algorithms only; "
        f"found operation {access.op!r}"
    )


def _solo_run(system: MutexSystem, victim: str, budget: int = 10_000) -> SoloRun:
    """Simulate ``victim`` running alone from the initial state."""
    state = next(iter(system.initial_states()))
    proc = system.process_named(victim)
    actions: List = [("try", victim)]
    state = next(iter(system.apply(state, ("try", victim))))
    first_write: Optional[int] = None
    seen = {state}
    for _ in range(budget):
        local = system.local_state(state, victim)
        output = proc.output_action(local)
        if output is not None:
            actions.append(output)
            state = next(iter(system.apply(state, output)))
            if output == ("crit", victim):
                return SoloRun(victim, tuple(actions), first_write, True)
            continue
        access = proc.pending_access(local)
        if access is None:
            break
        if _classify_access(access) == "write" and first_write is None:
            first_write = len(actions)
        actions.append(("step", victim))
        state = next(iter(system.apply(state, ("step", victim))))
        if state in seen and first_write is None:
            # Cycling on reads alone: never enters, never writes.
            return SoloRun(victim, tuple(actions), None, False)
        seen.add(state)
    return SoloRun(victim, tuple(actions), first_write, False)


def burns_lynch_attack(system: MutexSystem) -> CounterexampleCertificate:
    """Defeat any 2-process mutex algorithm over one read/write register.

    Implements the covering argument of [27] constructively: returns a
    certificate whose evidence is a concrete execution of ``system`` that
    either puts both processes in their critical regions simultaneously or
    exhibits a solo progress failure.  Raises :class:`ModelError` if the
    system does not match the theorem's hypotheses (two processes, one
    shared variable, read/write accesses only).
    """
    if len(system.processes) != 2:
        raise ModelError("the attack is stated for exactly two processes")
    if len(system.initial_memory) != 1:
        raise ModelError(
            "the attack applies to algorithms using a single shared register; "
            f"this system has {len(system.initial_memory)}"
        )
    p0, p1 = (p.name for p in system.processes)
    run0 = _solo_run(system, p0)
    run1 = _solo_run(system, p1)

    for run in (run0, run1):
        if not run.enters and run.first_write_index is None:
            execution = Execution.run(system, run.actions)
            return CounterexampleCertificate(
                claim=(
                    f"{system.name}: {run.victim} running alone never enters "
                    "its critical region — progress violation"
                ),
                technique="covering argument (solo run)",
                evidence=execution,
                details={"solo_steps": len(run.actions)},
            )

    # Interleave: p0 up to (but excluding) its first write — all reads, so
    # memory still looks initial to p1; p1's full solo run to its critical
    # region; then p0's continuation, whose first step *obliterates* the
    # register, hiding p1 entirely.
    if run0.first_write_index is None:
        prefix0 = list(run0.actions)  # p0 entered without ever writing
        suffix0: List = []
    else:
        prefix0 = list(run0.actions[: run0.first_write_index])
        suffix0 = list(run0.actions[run0.first_write_index:])
    actions = prefix0 + list(run1.actions) + suffix0
    execution = Execution.run(system, actions)
    final = execution.last_state
    both_critical = len(system.critical_processes(final)) == 2
    if not both_critical:
        raise ModelError(
            f"covering attack failed to violate mutual exclusion on "
            f"{system.name}; the system may not satisfy the theorem's "
            "hypotheses (e.g. nondeterministic or non-register operations)"
        )
    return CounterexampleCertificate(
        claim=(
            f"{system.name}: both processes simultaneously critical — "
            "mutual exclusion is impossible with a single read/write register"
        ),
        technique="covering argument (obliterated write)",
        evidence=execution,
        replay=lambda: len(
            system.critical_processes(Execution.run(system, actions).last_state)
        ) == 2,
        details={
            "p0_reads_before_first_write": len(prefix0) - 1,
            "schedule_length": len(actions),
        },
    )


# --------------------------------------------------------------------------
# A deliberately plausible single-register algorithm for the adversary to eat
# --------------------------------------------------------------------------


class NaiveSpinLockProcess(MutexProcess):
    """Read the register until it is 0, then write 1 and enter.

    The natural first attempt at a lock with one read/write register; the
    Burns–Lynch adversary finds its race in four moves.
    """

    VAR = "lock"

    def initial_fields(self):
        return {"pc": "read"}

    def trying_access(self, local: frozendict) -> Optional[Access]:
        from .variables import read as read_access, write as write_access

        if local["pc"] == "read":
            return read_access(self.VAR)
        return write_access(self.VAR, 1)

    def after_trying(self, local: frozendict, response: Hashable) -> frozendict:
        if local["pc"] == "read":
            if response == 0:
                return local.set("pc", "write")
            return local
        return local.set("region", CRITICAL).set("pc", "read")

    def start_exit(self, local: frozendict) -> frozendict:
        return local.set("pc", "release")

    def exit_access(self, local: frozendict) -> Optional[Access]:
        from .variables import write as write_access

        return write_access(self.VAR, 0)

    def after_exit(self, local: frozendict, response: Hashable) -> frozendict:
        return local.set("region", REMAINDER).set("pc", "read")


def naive_spin_lock_system() -> MutexSystem:
    processes = [NaiveSpinLockProcess("p0"), NaiveSpinLockProcess("p1")]
    return MutexSystem(
        processes,
        initial_memory={NaiveSpinLockProcess.VAR: 0},
        name="naive-spin-lock",
    )
