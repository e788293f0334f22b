"""The asynchronous shared-memory system automaton.

Composes :class:`~repro.shared_memory.process.SharedMemoryProcess`
instances with a set of shared variables into one
:class:`~repro.core.automaton.IOAutomaton`:

* global state = (tuple of process local states, frozendict of variable
  values);
* one internal action ``('step', p)`` per process — performing p's pending
  atomic access;
* each process's output actions are outputs of the system; each process's
  input actions are inputs, delivered only to the processes declaring
  them (ill-formed inputs are ignored, keeping the system input-enabled);
* one fairness task per process, so round-robin scheduling of tasks yields
  admissible executions ("every non-failed process keeps taking steps").

Also provides the admissible-liveness checker used by the mutual exclusion
results: a search for *fair starvation cycles*, i.e. infinite admissible
executions in which a victim process remains forever in its trying region.
The proper treatment of admissibility is, as the survey stresses, "one of
the most difficult aspects of this work" — the checker encodes it as three
side conditions on a cycle (every process is serviced, the environment
returns the resource, no vacuous stalls).  The cycle search is the
integer fairness-cycle kernel E1 uses too,
:func:`repro.core.packed.admissible_component`, run over the shared state
graph's ids; states are looked up only to build the witness.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from functools import cache
from typing import (
    Callable,
    Dict,
    FrozenSet,
    Hashable,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
)

from ..core.automaton import Action, IOAutomaton, Signature, State
from ..core.errors import ModelError
from ..core.freeze import frozendict
from ..core.packed import admissible_component
from ..core.stategraph import state_graph
from .process import SharedMemoryProcess


class SharedMemorySystem(IOAutomaton):
    """Processes plus shared variables, as a single I/O automaton."""

    def __init__(
        self,
        processes: Sequence[SharedMemoryProcess],
        initial_memory: Dict[str, Hashable],
        name: str = "shared-memory-system",
    ):
        if len({p.name for p in processes}) != len(processes):
            raise ModelError("process names must be unique")
        self.processes: Tuple[SharedMemoryProcess, ...] = tuple(processes)
        self.initial_memory = frozendict(initial_memory)
        self.name = name
        self._index = {p.name: i for i, p in enumerate(self.processes)}

        # Per action, the processes an input is delivered to, and the
        # process owning a step or an output (the first that declares it).
        self._receivers: Dict[Action, Tuple[int, ...]] = {}
        self._owner: Dict[Action, int] = {}
        for i, p in enumerate(self.processes):
            self._owner[("step", p.name)] = i
            for action in p.input_actions():
                self._receivers[action] = self._receivers.get(action, ()) + (i,)
            for action in p.output_actions():
                self._owner.setdefault(action, i)
        outputs = frozenset(self._owner) - {("step", p.name) for p in self.processes}
        self._signature = Signature(
            inputs=frozenset(self._receivers) - outputs,
            outputs=outputs,
            internals=frozenset(("step", p.name) for p in self.processes),
        )

    # -- IOAutomaton interface -------------------------------------------

    @property
    def signature(self) -> Signature:
        return self._signature

    def initial_states(self) -> Iterator[State]:
        locals_ = tuple(p.initial_local() for p in self.processes)
        yield (locals_, self.initial_memory)

    def enabled_actions(self, state: State) -> Iterator[Action]:
        locals_, _memory = state
        for i, p in enumerate(self.processes):
            output = p.output_action(locals_[i])
            if output is not None:
                yield output
            elif p.pending_access(locals_[i]) is not None:
                yield ("step", p.name)

    def apply(self, state: State, action: Action) -> Iterator[State]:
        kind = self._signature.classify(action)
        locals_, memory = state
        if kind == "internal":
            _tag, pname = action
            i = self._index[pname]
            p = self.processes[i]
            if p.output_action(locals_[i]) is not None:
                return  # outputs take priority; the step is not enabled
            access = p.pending_access(locals_[i])
            if access is None:
                return
            if access.var not in memory:
                raise ModelError(f"{pname} accessed unknown variable {access.var!r}")
            new_value, response = access.perform(memory[access.var])
            new_local = p.after_access(locals_[i], response)
            new_locals = locals_[:i] + (new_local,) + locals_[i + 1:]
            yield (new_locals, memory.set(access.var, new_value))
            return
        if kind == "output":
            for i, p in enumerate(self.processes):
                if p.output_action(locals_[i]) == action:
                    new_local = p.after_output(locals_[i])
                    new_locals = locals_[:i] + (new_local,) + locals_[i + 1:]
                    yield (new_locals, memory)
                    return
            return  # not currently enabled
        # Input: deliver to every receptive receiver; ignore if none.
        new_locals = list(locals_)
        touched = False
        for i in self._receivers[action]:
            reaction = self.processes[i].on_input(locals_[i], action)
            if reaction is not None:
                new_locals[i] = reaction
                touched = True
        yield (tuple(new_locals), memory) if touched else state

    def tasks(self) -> Sequence[FrozenSet[Action]]:
        return [
            frozenset({("step", p.name)} | set(p.output_actions()))
            for p in self.processes
        ]

    # -- convenience -------------------------------------------------------

    def local_state(self, state: State, pname: str) -> State:
        locals_, _memory = state
        return locals_[self._index[pname]]

    def memory(self, state: State) -> frozendict:
        return state[1]

    def process_named(self, pname: str) -> SharedMemoryProcess:
        return self.processes[self._index[pname]]


@dataclass
class StarvationWitness:
    """An admissible infinite execution starving ``victim``.

    ``stem`` is a path of (state, action) pairs from an initial state to
    the cycle entry; ``cycle`` is the repeating segment.  Pumping the cycle
    forever yields an admissible execution in which the victim's predicate
    (e.g. "in trying region") holds at every state.
    """

    victim: str
    stem_states: Tuple[State, ...]
    cycle_states: Tuple[State, ...]
    cycle_actions: Tuple[Action, ...]

    def describe(self) -> str:
        return (
            f"starvation of {self.victim}: stem of {len(self.stem_states)} states "
            f"reaches a fair cycle of {len(self.cycle_actions)} actions"
        )


def _process_of_action(system: SharedMemorySystem, action: Action) -> Optional[str]:
    """Which process an action belongs to (None for pure inputs)."""
    i = system._owner.get(action)
    return None if i is None else system.processes[i].name


def run_system(
    system: SharedMemorySystem,
    scheduler=None,
    max_steps: int = 1_000,
    start: Optional[State] = None,
    stop_when: Optional[Callable[[State], bool]] = None,
    meter=None,
):
    """Drive the composed system under a scheduler, in the unified schema.

    A thin adapter over :meth:`repro.core.scheduler.Scheduler.run_traced`
    with ``substrate="shared-memory"`` and each STEP event attributed to
    the process owning the action (via :func:`_process_of_action`), so
    shared-memory runs interleave into the same
    :class:`~repro.core.runtime.Trace` schema as every other substrate.
    Defaults to the fair :class:`~repro.core.scheduler.RoundRobinScheduler`.
    Returns a :class:`~repro.core.scheduler.TracedExecution`.
    """
    from ..core.scheduler import RoundRobinScheduler

    if scheduler is None:
        scheduler = RoundRobinScheduler(system)
    return scheduler.run_traced(
        system,
        max_steps,
        start=start,
        stop_when=stop_when,
        substrate="shared-memory",
        actor_of=lambda action: _process_of_action(system, action) or "environment",
        meter=meter,
    )


def find_starvation_cycle(
    system: SharedMemorySystem,
    victim: str,
    victim_stuck: Callable[[State], bool],
    environment_returns: Optional[Callable[[State], Optional[Action]]] = None,
    forbidden_actions: Optional[Callable[[Action], bool]] = None,
    max_states: int = 100_000,
) -> Optional[StarvationWitness]:
    """Search for an admissible infinite execution starving ``victim``.

    The search explores the reachable graph (environment inputs included),
    restricts to states where ``victim_stuck`` holds, and looks for a
    strongly connected subgraph whose infinite unrolling is *admissible*:

    1. **process fairness** — every process either takes an action inside
       the cycle or has no enabled action at some state of the cycle;
    2. **environment cooperation** — if ``environment_returns(state)``
       names an input owed by a well-behaved environment (e.g. the exit of
       a process sitting in its critical region), that input occurs in the
       cycle;
    3. optionally, no ``forbidden_actions`` occur in the cycle (used to ask
       for deadlock rather than mere lockout).

    The SCC search is :func:`~repro.core.packed.admissible_component` over
    the shared state graph's ids; states are looked up only for the
    witness.  Returns a witness or None.  This is the mechanized form of
    "construct an incompatible infinite admissible execution" from [26].
    """
    graph = state_graph(system)
    frontier = graph.frontier(include_inputs=True)
    frontier.expand_all(max_states)
    state_of = graph.interner.state_of
    size = len(graph.interner)
    processes = system.processes
    # Per id: is the victim stuck; which processes idle; which owed input
    # (its bit, above the n owner bits).  Per action: its label.
    stuck = bytearray(size)
    idle = [0] * size
    owed = [0] * size
    owed_bit: Dict[Action, int] = {}
    is_idle = [cache(p.is_idle) for p in processes]  # one call per local
    for sid in frontier.order:
        state = state_of(sid)
        if not victim_stuck(state):
            continue
        stuck[sid] = 1
        idle[sid] = sum(is_idle[i](local) << i for i, local in enumerate(state[0]))
        action = environment_returns(state) if environment_returns else None
        if action is not None:
            owed[sid] = owed_bit.setdefault(
                action, 1 << (len(processes) + len(owed_bit)))
    skip = 1 << (len(processes) + len(owed_bit)) if forbidden_actions else 0
    owner = system._owner
    signature = system.signature
    labels = {
        action: (1 << owner[action] if action in owner else 0)
        | owed_bit.get(action, 0)
        | (skip if skip and forbidden_actions(action) else 0)
        for action in signature.inputs | signature.outputs | signature.internals
    }
    succ: List[Tuple[Tuple[int, int], ...]] = [()] * size
    moves: Dict[int, List[Tuple[Action, int]]] = {}
    for sid in frontier.order:
        if not stuck[sid]:
            continue
        # Edges to stuck states, minus ignored inputs (not real steps).
        moves[sid] = [
            (action, child) for packed in graph._expand_id(sid, True)
            for action, child in zip(packed.labels_of(sid), packed.successors_ids(sid))
            if stuck[child] and not (child == sid and action in signature.inputs)
        ]
        succ[sid] = tuple((child, labels[action]) for action, child in moves[sid])
    members = admissible_component(frontier.order, succ, stuck, idle, owed,
                                   skip, (1 << len(processes)) - 1)
    if members is None:
        return None
    inside = set(members)
    inner = {sid: [(action, child) for action, child in moves[sid]
                   if child in inside and not labels[action] & skip]
             for sid in members}
    # A closed walk taking an edge of every action of the component.  A
    # process that never acts there changes only by inputs, and a mutex
    # process takes its inputs only while idle, so the walk passes a state
    # where it idles.
    legs: Dict[Action, Tuple[int, int]] = {}
    for sid in members:
        for action, child in inner[sid]:
            legs.setdefault(action, (sid, child))
    start = next(iter(legs.values()))[0]
    walk, walk_actions = [start], []

    def go(target: int) -> None:
        """Extend the walk by a shortest path in the component to ``target``."""
        parent: Dict[int, Optional[Tuple[int, Action]]] = {walk[-1]: None}
        queue = deque([walk[-1]])
        while target not in parent:
            sid = queue.popleft()
            for action, child in inner[sid]:
                if child not in parent:
                    parent[child] = (sid, action)
                    queue.append(child)
        path = []
        while parent[target] is not None:
            path.append((target, parent[target][1]))
            target = parent[target][0]
        for sid, action in reversed(path):
            walk.append(sid)
            walk_actions.append(action)

    for action, (u, v) in legs.items():
        if action not in walk_actions:
            go(u)
            walk.append(v)
            walk_actions.append(action)
    go(start)
    stem = [start]
    while frontier.parent_of[stem[-1]] is not None:
        stem.append(frontier.parent_of[stem[-1]][0])
    return StarvationWitness(
        victim=victim,
        stem_states=tuple(state_of(sid) for sid in reversed(stem)),
        cycle_states=tuple(state_of(sid) for sid in walk),
        cycle_actions=tuple(walk_actions),
    )
