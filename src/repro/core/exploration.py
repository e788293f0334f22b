"""State-space exploration: reachability, invariant checking, CTL-lite.

The mechanized impossibility checkers reduce the survey's arguments to
finite graph questions over configuration spaces:

* *pigeonhole* arguments become reachability plus counting;
* *bivalence* arguments become valency labelling of the reachable graph;
* exhaustive protocol search enumerates automata and asks reachability
  questions about each.

This module is the query layer over the shared
:class:`~repro.core.stategraph.StateGraph` engine: every helper routes
through one memoized successor cache and one resumable breadth-first
frontier per automaton, so asking five questions of the same automaton
expands its graph once, not five times.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import (
    Callable,
    Dict,
    Iterable,
    List,
    Optional,
    Set,
    Tuple,
)

from .automaton import Action, IOAutomaton, State
from .budget import Budget, BudgetExceeded
from .errors import InvariantViolation, SearchBudgetExceeded
from .execution import Execution
from .stategraph import state_graph


@dataclass
class ReachabilityResult:
    """Outcome of a breadth-first exploration.

    ``parents`` maps each discovered state to the ``(state, action)`` edge
    it was first discovered through, enabling path reconstruction.

    When a :class:`~repro.core.budget.Budget` capped the exploration,
    ``complete`` is False and ``budget_exceeded`` carries the structured
    overdraft.  The partial result is *resumable*: the automaton's shared
    frontier retains the BFS queue, so calling :func:`explore` again (with
    a fresh or absent budget) continues exactly where this run stopped
    instead of restarting.
    """

    automaton: IOAutomaton
    reachable: Set[State]
    parents: Dict[State, Optional[Tuple[State, Action]]]
    complete: bool
    budget_exceeded: Optional[BudgetExceeded] = None

    def path_to(self, target: State) -> Execution:
        """Reconstruct a shortest execution from a start state to ``target``."""
        if target not in self.parents:
            raise ValueError(
                f"state {target!r} was not discovered by this exploration of "
                f"{self.automaton.name} ({len(self.parents)} states searched); "
                "cannot reconstruct a path to it"
            )
        states: List[State] = [target]
        actions: List[Action] = []
        cursor = target
        while self.parents[cursor] is not None:
            prev, action = self.parents[cursor]  # type: ignore[misc]
            states.append(prev)
            actions.append(action)
            cursor = prev
        states.reverse()
        actions.reverse()
        return Execution(self.automaton, tuple(states), tuple(actions))


def explore(
    automaton: IOAutomaton,
    max_states: int = 100_000,
    include_inputs: bool = False,
    actions_filter: Optional[Callable[[State, Action], bool]] = None,
    initial_states: Optional[Iterable[State]] = None,
    budget: Optional[Budget] = None,
) -> ReachabilityResult:
    """Breadth-first search of the reachable state graph.

    By default only locally controlled actions are explored (closed
    systems); set ``include_inputs`` to also fire every input action in
    every state (open systems under a maximally hostile environment).

    The expansion is served by the automaton's shared
    :class:`~repro.core.stategraph.StateGraph`, so repeated calls (and
    the other helpers in this module) reuse one frontier.  Passing
    ``actions_filter`` or ``initial_states`` asks a question about a
    *different* graph or starting point, which gets a one-off frontier —
    still backed by the memoized successor cache.

    Raises :class:`SearchBudgetExceeded` when more than ``max_states``
    distinct states are discovered.  A :class:`~repro.core.budget.Budget`
    instead caps the search *gracefully*: on overdraft the function
    returns a partial :class:`ReachabilityResult` (``complete=False``)
    rather than raising, and — on the default shared-frontier path — a
    later call resumes the same frontier where the budget ran out.
    """
    graph = state_graph(automaton)
    meter = budget.meter(automaton.name) if budget is not None else None
    if actions_filter is None and initial_states is None:
        frontier = graph.frontier(include_inputs)
        try:
            frontier.expand_all(max_states, meter)
        except BudgetExceeded as overdraft:
            return ReachabilityResult(
                automaton,
                set(frontier.parents),
                dict(frontier.parents),
                complete=False,
                budget_exceeded=overdraft,
            )
        return ReachabilityResult(
            automaton, set(frontier.parents), dict(frontier.parents), complete=True
        )

    starts = list(
        initial_states if initial_states is not None else automaton.initial_states()
    )
    reachable: Set[State] = set()
    parents: Dict[State, Optional[Tuple[State, Action]]] = {}
    queue: deque = deque()
    for s in starts:
        if s not in reachable:
            reachable.add(s)
            parents[s] = None
            queue.append(s)
    overdraft: Optional[BudgetExceeded] = None
    while queue:
        state = queue.popleft()
        try:
            if meter is not None:
                meter.check_time()
            for action, succ in graph.transitions(state, include_inputs):
                if actions_filter is not None and not actions_filter(state, action):
                    continue
                if succ in reachable:
                    continue
                if len(reachable) >= max_states:
                    raise SearchBudgetExceeded(
                        f"exploration of {automaton.name} exceeded {max_states} states"
                    )
                if meter is not None:
                    meter.charge_states()
                reachable.add(succ)
                parents[succ] = (state, action)
                queue.append(succ)
        except BudgetExceeded as exc:
            overdraft = exc
            break
    return ReachabilityResult(
        automaton,
        reachable,
        parents,
        complete=overdraft is None,
        budget_exceeded=overdraft,
    )


def _check_invariant_counting(
    automaton: IOAutomaton,
    invariant: Callable[[State], bool],
    max_states: int,
    include_inputs: bool,
) -> Tuple[Optional[Execution], int]:
    """Scan the shared frontier for a violation; also count states checked.

    States stream in BFS discovery order, so the first violation found is
    at minimal depth and its parent chain is a shortest counterexample.
    """
    graph = state_graph(automaton)
    frontier = graph.frontier(include_inputs)
    checked = 0
    for state in frontier.states(max_states):
        checked += 1
        if not invariant(state):
            result = ReachabilityResult(
                automaton, set(), frontier.parents, complete=False
            )
            return result.path_to(state), checked
    return None, checked


def check_invariant(
    automaton: IOAutomaton,
    invariant: Callable[[State], bool],
    max_states: int = 100_000,
    include_inputs: bool = False,
) -> Optional[Execution]:
    """Search for a reachable state violating ``invariant``.

    Returns a shortest counterexample execution, or None when the invariant
    holds over the entire (budget-bounded) reachable space.
    """
    witness, _checked = _check_invariant_counting(
        automaton, invariant, max_states, include_inputs
    )
    return witness


def assert_invariant(
    automaton: IOAutomaton,
    invariant: Callable[[State], bool],
    description: str,
    max_states: int = 100_000,
    include_inputs: bool = False,
) -> int:
    """Raise :class:`InvariantViolation` with a witness if the invariant fails.

    Returns the number of states checked when the invariant holds — counted
    during the single exploration pass, not by re-exploring.
    """
    witness, checked = _check_invariant_counting(
        automaton, invariant, max_states, include_inputs
    )
    if witness is not None:
        raise InvariantViolation(
            f"invariant violated: {description}\n{witness.describe()}", witness=witness
        )
    return checked


def find_state(
    automaton: IOAutomaton,
    goal: Callable[[State], bool],
    max_states: int = 100_000,
    include_inputs: bool = False,
) -> Optional[Execution]:
    """Find a shortest execution reaching a state satisfying ``goal``."""
    return check_invariant(
        automaton,
        invariant=lambda s: not goal(s),
        max_states=max_states,
        include_inputs=include_inputs,
    )


def reachable_states_satisfying(
    automaton: IOAutomaton,
    predicate: Callable[[State], bool],
    max_states: int = 100_000,
    include_inputs: bool = False,
) -> List[State]:
    """All reachable states satisfying ``predicate`` (exploration-complete)."""
    graph = state_graph(automaton)
    return [
        s for s in graph.states(max_states, include_inputs) if predicate(s)
    ]


def can_reach_from(
    automaton: IOAutomaton,
    start: State,
    goal: Callable[[State], bool],
    max_states: int = 100_000,
) -> bool:
    """Reachability of ``goal`` from a specific configuration.

    This is the primitive ad-hoc valency queries build on: "is a
    0-decision reachable from C?".  The forward cone of ``start`` is
    memoized on the automaton's shared graph, so repeated queries from
    one configuration pay for its expansion once.
    """
    cone = state_graph(automaton).cone(start, max_states)
    return any(goal(s) for s in cone)
