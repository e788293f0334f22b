"""Schedulers: the adversaries that resolve nondeterminism.

Every impossibility argument in the survey is a game against a scheduler —
the entity choosing which process moves next, which message is delivered,
which fault occurs.  Schedulers are the I/O-automaton instantiation of the
unified :class:`~repro.core.runtime.FaultAdversary` interface: they use the
*scheduling* power only.  This module provides the schedulers the
simulators and experiments use:

* :class:`RoundRobinScheduler` — cycles through tasks, giving each enabled
  task a turn; its infinite runs are fair, so its finite runs approximate
  admissible executions.
* :class:`RandomScheduler` — seeded uniform choice among enabled actions;
  used for randomized-algorithm experiments (Ben-Or, Itai–Rodeh).
* :class:`GreedyScheduler` — picks the enabled action minimizing/maximizing
  a user-supplied score; used to build *bad* executions (e.g. stalling
  consensus, maximizing message counts).

All schedulers are deterministic functions of their seed and the run so
far, which keeps every test and benchmark reproducible; :meth:`~Scheduler.
run_traced` additionally records the run in the unified
:class:`~repro.core.runtime.Trace` schema so it replays through
:func:`repro.core.runtime.replay`.
"""

from __future__ import annotations

import random
from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Callable, Hashable, Iterable, List, Optional, Sequence

from .automaton import Action, IOAutomaton, State
from .budget import BudgetMeter
from .canonical import text
from .errors import ExecutionError
from .execution import Execution
from .runtime import STEP, FaultAdversary, SimulationRuntime, Trace


@dataclass
class TracedExecution:
    """An execution plus its unified-schema trace."""

    execution: Execution
    trace: Trace


class Scheduler(FaultAdversary, ABC):
    """Chooses the next action of an execution.

    The I/O-automaton face of :class:`~repro.core.runtime.FaultAdversary`:
    subclasses implement :meth:`choose` (and optionally
    :meth:`resolve_state` for nondeterministic automata) and inherit the
    uniform fault/reset contract.
    """

    @abstractmethod
    def choose(self, execution: Execution, enabled: Sequence[Action]) -> Action:
        """Pick one of the enabled locally controlled actions."""

    def resolve_state(
        self, execution: Execution, action: Action, successors: Sequence[State]
    ) -> State:
        """Pick among nondeterministic successor states (default: first)."""
        return successors[0]

    def run(
        self,
        automaton: IOAutomaton,
        max_steps: int,
        start: Optional[State] = None,
        stop_when: Optional[Callable[[State], bool]] = None,
        meter: Optional[BudgetMeter] = None,
    ) -> Execution:
        """Generate an execution of up to ``max_steps`` steps.

        Stops early when the automaton is quiescent or ``stop_when`` holds
        in the current state.  A ``meter`` charges one step per transition
        and raises :class:`~repro.core.budget.BudgetExceeded` on overdraft.
        """
        execution, _runtime = self._drive(
            automaton, max_steps, start, stop_when, runtime=None, meter=meter
        )
        return execution

    def run_traced(
        self,
        automaton: IOAutomaton,
        max_steps: int,
        start: Optional[State] = None,
        stop_when: Optional[Callable[[State], bool]] = None,
        *,
        substrate: str = "io-automaton",
        actor_of: Optional[Callable[[Action], Hashable]] = None,
        meter: Optional[BudgetMeter] = None,
    ) -> TracedExecution:
        """Like :meth:`run`, recording the run in the unified trace schema.

        ``actor_of`` maps an action to the actor charged with it in the
        trace (default: the automaton's name), letting composed systems
        attribute steps to their component processes.
        """
        runtime = SimulationRuntime(
            substrate=substrate, protocol=automaton.name, adversary=self
        )
        execution, runtime = self._drive(
            automaton, max_steps, start, stop_when,
            runtime=runtime, actor_of=actor_of, meter=meter,
        )

        def replayer(
            _self=self, _automaton=automaton, _max_steps=max_steps,
            _start=start, _stop_when=stop_when, _substrate=substrate,
            _actor_of=actor_of,
        ) -> Trace:
            _self.reset()
            return _self.run_traced(
                _automaton, _max_steps, _start, _stop_when,
                substrate=_substrate, actor_of=_actor_of,
            ).trace

        trace = runtime.finish(
            outcome={"steps": len(execution)},
            replayer=replayer,
        )
        return TracedExecution(execution=execution, trace=trace)

    def _drive(
        self,
        automaton: IOAutomaton,
        max_steps: int,
        start: Optional[State],
        stop_when: Optional[Callable[[State], bool]],
        runtime: Optional[SimulationRuntime],
        actor_of: Optional[Callable[[Action], Hashable]] = None,
        meter: Optional[BudgetMeter] = None,
    ):
        """The single scheduling loop behind :meth:`run` and
        :meth:`run_traced`."""
        execution = Execution.initial(automaton, start)
        for _ in range(max_steps):
            if meter is not None:
                meter.charge_steps()
            state = execution.last_state
            if stop_when is not None and stop_when(state):
                break
            enabled = list(automaton.enabled_actions(state))
            if not enabled:
                break
            action = self.choose(execution, enabled)
            successors = list(automaton.apply(state, action))
            if not successors:
                raise ExecutionError(
                    f"scheduler chose {action!r} but it has no successors"
                )
            next_state = self.resolve_state(execution, action, successors)
            execution = execution.extend(action, next_state)
            if runtime is not None:
                actor = actor_of(action) if actor_of is not None else automaton.name
                runtime.emit(STEP, actor, action)
        return execution, runtime


class RoundRobinScheduler(Scheduler):
    """Cycle over the automaton's tasks, giving each a turn when enabled.

    This implements weak fairness over the task partition: in any
    sufficiently long run, every continuously enabled task takes steps at a
    bounded interval.  Finite prefixes of its runs are the library's
    stand-in for admissible executions.
    """

    def __init__(self, automaton: IOAutomaton):
        super().__init__()
        self._tasks = list(automaton.tasks())
        self._cursor = 0

    def choose(self, execution: Execution, enabled: Sequence[Action]) -> Action:
        enabled_set = set(enabled)
        for offset in range(len(self._tasks)):
            task = self._tasks[(self._cursor + offset) % len(self._tasks)]
            candidates = sorted(task & enabled_set, key=text)
            if candidates:
                self._cursor = (self._cursor + offset + 1) % len(self._tasks)
                return candidates[0]
        # Enabled actions outside any task (shouldn't happen for well-formed
        # automata); fall back to a deterministic choice.
        return sorted(enabled, key=text)[0]

    def reset(self) -> None:
        self._cursor = 0


class RandomScheduler(Scheduler):
    """Uniformly random choice among enabled actions, from a seed."""

    def __init__(self, seed: int = 0):
        super().__init__()
        self._seed = seed
        self._rng = random.Random(seed)

    def choose(self, execution: Execution, enabled: Sequence[Action]) -> Action:
        ordered = sorted(enabled, key=text)
        return ordered[self._rng.randrange(len(ordered))]

    def resolve_state(
        self, execution: Execution, action: Action, successors: Sequence[State]
    ) -> State:
        ordered = sorted(successors, key=text)
        return ordered[self._rng.randrange(len(ordered))]

    def schedule(self, options, rng=None):
        """Scheduling-adversary face: the scheduler's own seeded RNG rules."""
        return self._rng.randrange(len(options))

    def reset(self) -> None:
        self._rng = random.Random(self._seed)


class GreedyScheduler(Scheduler):
    """Choose the enabled action maximizing ``score(execution, action)``.

    Ties are broken deterministically by canonical text order.  Used to construct
    bad executions: e.g. score = "does this step keep the configuration
    bivalent?" yields FLP-style stalling adversaries.
    """

    def __init__(self, score: Callable[[Execution, Action], float]):
        super().__init__()
        self._score = score

    def choose(self, execution: Execution, enabled: Sequence[Action]) -> Action:
        ordered = sorted(enabled, key=text)
        return max(ordered, key=lambda a: self._score(execution, a))


class FixedScheduler(Scheduler):
    """Replay a fixed schedule of actions; used to re-validate certificates."""

    def __init__(self, schedule: Iterable[Action]):
        super().__init__()
        self._schedule: List[Action] = list(schedule)
        self._index = 0

    def choose(self, execution: Execution, enabled: Sequence[Action]) -> Action:
        if self._index >= len(self._schedule):
            raise ExecutionError("fixed schedule exhausted")
        action = self._schedule[self._index]
        self._index += 1
        if action not in set(enabled):
            raise ExecutionError(
                f"scheduled action {action!r} is not enabled; enabled: {sorted(map(repr, enabled))}"
            )
        return action

    def reset(self) -> None:
        self._index = 0


class ScriptedIndexScheduler(Scheduler):
    """Replay a script of *indices* into the canonically sorted enabled set.

    The chaos fuzzer's interleaving adversary: a schedule is a plain
    tuple of ints, so delta-debugging can delete and simplify atoms
    freely — out-of-range indices wrap (mod the number of options) and
    an exhausted script falls back to index 0, so every finite script
    denotes a total, deterministic schedule no matter how it is mangled.

    The same instance serves every scheduling-shaped substrate: it is a
    :class:`Scheduler` for I/O-automaton and shared-memory runs, and its
    :meth:`schedule` face drives the ring and asynchronous-network
    simulators through the unified
    :class:`~repro.core.runtime.FaultAdversary` protocol.
    """

    def __init__(self, script: Iterable[int]):
        super().__init__()
        self._script: List[int] = [int(i) for i in script]
        self._index = 0

    @property
    def script(self) -> List[int]:
        return list(self._script)

    def _next(self, width: int) -> int:
        if width <= 0 or self._index >= len(self._script):
            return 0
        index = self._script[self._index]
        self._index += 1
        return index % width

    def choose(self, execution: Execution, enabled: Sequence[Action]) -> Action:
        ordered = sorted(enabled, key=text)
        return ordered[self._next(len(ordered))]

    def resolve_state(
        self, execution: Execution, action: Action, successors: Sequence[State]
    ) -> State:
        ordered = sorted(successors, key=text)
        return ordered[self._next(len(ordered))] if len(ordered) > 1 else ordered[0]

    def schedule(self, options, rng=None):
        return self._next(len(options))

    def reset(self) -> None:
        self._index = 0
