"""The shared state-graph engine: memoized successor expansion.

Every mechanized impossibility argument in this reproduction bottoms out
in repeated reachability queries over the same configuration graph —
pigeonhole counting explores it, invariant checking scans it, liveness
checking builds cycles over it, and exhaustive protocol search asks all
three questions of every candidate.  Before this module existed each
query re-expanded the graph from scratch: five helpers, five independent
BFS passes, five rounds of ``enabled_actions``/``apply`` on identical
states.

:class:`StateGraph` is the explicit-state-model-checker answer: one
engine per automaton that

* names each state by a dense id in its own
  :class:`~repro.core.packed.StateInterner`, the only identity a state
  has: states are values, so an equal state built anywhere else (a
  decoded trace, another graph) gets the same id here;
* memoizes **successor expansion** per state (``transitions``), so each
  ``(state, action) -> successors`` sweep happens exactly once no matter
  how many queries ask for it;
* maintains one **resumable breadth-first frontier** per exploration
  mode (with/without environment inputs), so ``explore``,
  ``check_invariant``, ``find_state`` and ``reachable_states_satisfying``
  all extend the same discovery order instead of restarting;
* memoizes **forward cones** for ``can_reach_from`` so repeated valency
  style queries from one configuration are answered from cache;
* keeps hit/miss statistics so benchmarks (and tests) can observe the
  sharing.

Graphs are looked up per automaton through :func:`state_graph`, which
caches the graph on the automaton itself (so it is garbage collected
with it) and is how the module-level helpers in
:mod:`repro.core.exploration` transparently share work.  The cache
assumes the automaton's transition relation is immutable after
construction — true for every automaton in this repository; call
:func:`forget_state_graph` if you mutate one.
"""

from __future__ import annotations

from collections import deque
from typing import (
    Dict,
    FrozenSet,
    Iterator,
    List,
    Optional,
    Set,
    Tuple,
)

from .automaton import Action, IOAutomaton, State
from .budget import BudgetMeter
from .errors import SearchBudgetExceeded
from .packed import IdFlags, PackedGraph, StateInterner

Edge = Tuple[Action, State]


class _Frontier:
    """A resumable breadth-first exploration from the initial states.

    States are discovered in BFS order over dense interned ids: the
    visited set is a flat bitmap and the parent map is keyed by id, so
    the per-successor probe never hashes a frozen state.  ``order``
    holds ids; :meth:`states` and the :attr:`parents` view convert back
    to states at the boundary.  The queue persists between queries: a
    later query with a larger budget resumes expansion exactly where
    the previous one stopped.
    """

    __slots__ = (
        "graph", "include_inputs", "order", "seen", "parent_of", "queue",
        "started",
    )

    def __init__(self, graph: "StateGraph", include_inputs: bool):
        self.graph = graph
        self.include_inputs = include_inputs
        self.order: List[int] = []
        self.seen = IdFlags()
        self.parent_of: Dict[int, Optional[Tuple[int, Action]]] = {}
        self.queue: deque = deque()
        self.started = False

    @property
    def complete(self) -> bool:
        return self.started and not self.queue

    @property
    def parents(self) -> Dict[State, Optional[Tuple[State, Action]]]:
        """The BFS parent map, keyed by states (built on access)."""
        state_of = self.graph.interner.state_of
        out: Dict[State, Optional[Tuple[State, Action]]] = {}
        for sid in self.order:
            entry = self.parent_of[sid]
            out[state_of(sid)] = (
                None if entry is None else (state_of(entry[0]), entry[1])
            )
        return out

    def _start(self) -> None:
        self.started = True
        intern = self.graph.interner.intern
        for s in self.graph.automaton.initial_states():
            sid = intern(s)
            if self.seen.add(sid):
                self.parent_of[sid] = None
                self.order.append(sid)
                self.queue.append(sid)

    def _expand_one(
        self, max_states: int, meter: Optional[BudgetMeter] = None
    ) -> None:
        """Expand the state at the head of the queue.

        The head is popped only once its whole successor sweep is
        recorded, so a budget abort mid-sweep can be resumed without
        losing edges (the sweep is idempotent over already-seen states).
        """
        if meter is not None:
            meter.check_time()
        sid = self.queue[0]
        graph = self.graph
        seen = self.seen
        parent_of = self.parent_of
        for packed in graph._expand_id(sid, self.include_inputs):
            start, end = packed.row_bounds(sid)
            succ = packed._succ
            labels = packed._labels
            for i in range(start, end):
                child = succ[i]
                if child in seen:
                    continue
                if seen.count >= max_states:
                    raise SearchBudgetExceeded(
                        f"exploration of {graph.automaton.name} exceeded "
                        f"{max_states} states"
                    )
                if meter is not None:
                    meter.charge_states()
                seen.add(child)
                parent_of[child] = (sid, labels[i])
                self.order.append(child)
                self.queue.append(child)
        self.queue.popleft()

    def states(
        self, max_states: int, meter: Optional[BudgetMeter] = None
    ) -> Iterator[State]:
        """Yield every reachable state in BFS order, expanding on demand.

        Already-discovered states stream out of the cache; the frontier
        only grows when the consumer outruns it.  Raises
        :class:`SearchBudgetExceeded` past ``max_states`` *new* states,
        or :class:`~repro.core.budget.BudgetExceeded` when ``meter``
        overdraws — in either case the frontier stays resumable.
        """
        if not self.started:
            self._start()
        state_of = self.graph.interner.state_of
        i = 0
        while True:
            while i < len(self.order):
                yield state_of(self.order[i])
                i += 1
            if not self.queue:
                return
            self._expand_one(max_states, meter)

    def expand_all(
        self, max_states: int, meter: Optional[BudgetMeter] = None
    ) -> None:
        if not self.started:
            self._start()
        while self.queue:
            self._expand_one(max_states, meter)


class StateGraph:
    """Memoized successor expansion and shared frontiers for one automaton.

    Backed by the packed state engine (:mod:`repro.core.packed`): states
    are interned to dense ids in a per-graph :class:`StateInterner` and
    successor sweeps live as CSR rows in two :class:`PackedGraph` stores
    (locally controlled edges; input-action edges).  Ids stay internal —
    every public method accepts and returns frozen states, so existing
    callers are unaffected.
    """

    def __init__(self, automaton: IOAutomaton):
        self.automaton = automaton
        self.interner = StateInterner()
        self._plocal = PackedGraph(self.interner)
        self._pinput = PackedGraph(self.interner)
        self._lviews: List[Optional[Tuple[Edge, ...]]] = []
        self._iviews: List[Optional[Tuple[Edge, ...]]] = []
        self._frontiers: Dict[bool, _Frontier] = {}
        self._cones: Dict[State, FrozenSet[State]] = {}
        self.hits = 0
        self.misses = 0

    # -- successor expansion ---------------------------------------------

    def _sweep_local(self, sid: int) -> None:
        """Record ``sid``'s locally-controlled successor row (one sweep)."""
        automaton = self.automaton
        state = self.interner.state_of(sid)
        intern = self.interner.intern
        labels: List[Action] = []
        succ_ids: List[int] = []
        for action in automaton.enabled_actions(state):
            for succ in automaton.apply(state, action):
                labels.append(action)
                succ_ids.append(intern(succ))
        self._plocal.add_row(sid, labels, succ_ids)

    def _sweep_input(self, sid: int) -> None:
        automaton = self.automaton
        state = self.interner.state_of(sid)
        intern = self.interner.intern
        labels: List[Action] = []
        succ_ids: List[int] = []
        for action in automaton.signature.inputs:
            for succ in automaton.apply(state, action):
                labels.append(action)
                succ_ids.append(intern(succ))
        self._pinput.add_row(sid, labels, succ_ids)

    def _expand_id(self, sid: int, include_inputs: bool) -> Tuple[PackedGraph, ...]:
        """Ensure ``sid``'s rows exist; return the stores carrying them.

        The id-level twin of :meth:`transitions`, with the same hit/miss
        accounting (one hit or one miss per call, on the local store).
        """
        if self._plocal.is_expanded(sid):
            self.hits += 1
        else:
            self.misses += 1
            self._sweep_local(sid)
        if not include_inputs:
            return (self._plocal,)
        if not self._pinput.is_expanded(sid):
            self._sweep_input(sid)
        return (self._plocal, self._pinput)

    def _view(
        self, packed: PackedGraph, views: List[Optional[Tuple[Edge, ...]]],
        sid: int,
    ) -> Tuple[Edge, ...]:
        """The ``(action, successor-state)`` tuple of ``sid``'s row,
        built from the packed row once and memoized."""
        if sid < len(views):
            view = views[sid]
            if view is not None:
                return view
        else:
            views.extend([None] * (sid + 1 - len(views)))
        start, end = packed.row_bounds(sid)
        state_of = self.interner.state_of
        succ = packed._succ
        labels = packed._labels
        view = tuple((labels[i], state_of(succ[i])) for i in range(start, end))
        views[sid] = view
        return view

    def transitions(self, state: State, include_inputs: bool = False) -> Tuple[Edge, ...]:
        """All ``(action, successor)`` edges out of ``state``, memoized.

        Locally controlled actions always; with ``include_inputs``, every
        input action of the signature is fired as well (the maximally
        hostile environment).
        """
        sid = self.interner.intern(state)
        self._expand_id(sid, include_inputs)
        edges = self._view(self._plocal, self._lviews, sid)
        if not include_inputs:
            return edges
        return edges + self._view(self._pinput, self._iviews, sid)

    def successors(self, state: State, include_inputs: bool = False) -> Tuple[State, ...]:
        return tuple(s for _a, s in self.transitions(state, include_inputs))

    # -- the shared forward frontier --------------------------------------

    def frontier(self, include_inputs: bool = False) -> _Frontier:
        frontier = self._frontiers.get(include_inputs)
        if frontier is None:
            frontier = _Frontier(self, include_inputs)
            self._frontiers[include_inputs] = frontier
        return frontier

    def states(
        self,
        max_states: int = 100_000,
        include_inputs: bool = False,
        meter: Optional[BudgetMeter] = None,
    ) -> Iterator[State]:
        """Reachable states in BFS discovery order (resumable, budgeted)."""
        return self.frontier(include_inputs).states(max_states, meter)

    def reachable(
        self,
        max_states: int = 100_000,
        include_inputs: bool = False,
        meter: Optional[BudgetMeter] = None,
    ) -> Set[State]:
        """The full reachable state set (a copy; the frontier stays cached)."""
        frontier = self.frontier(include_inputs)
        frontier.expand_all(max_states, meter)
        return set(frontier.parents)

    def parents(self, include_inputs: bool = False) -> Dict[State, Optional[Tuple[State, Action]]]:
        """The BFS parent map of the (so far) explored frontier (a copy)."""
        return dict(self.frontier(include_inputs).parents)

    # -- cones (reachability from an arbitrary configuration) -------------

    def cone(self, start: State, max_states: int = 100_000) -> FrozenSet[State]:
        """All states reachable from ``start`` by locally controlled actions.

        Complete cones are memoized per start state, which is what makes
        repeated "is a v-decision reachable from C?" queries cheap.  The
        BFS itself runs over ids — one bitmap probe per successor.
        """
        cached = self._cones.get(start)
        if cached is not None:
            return cached
        start_id = self.interner.intern(start)
        seen = IdFlags()
        seen.add(start_id)
        queue: deque = deque([start_id])
        plocal = self._plocal
        while queue:
            sid = queue.popleft()
            self._expand_id(sid, False)
            begin, end = plocal.row_bounds(sid)
            succ = plocal._succ
            for i in range(begin, end):
                child = succ[i]
                if child in seen:
                    continue
                if seen.count >= max_states:
                    raise SearchBudgetExceeded(
                        f"cone exploration of {self.automaton.name} from "
                        f"{start!r} exceeded {max_states} states"
                    )
                seen.add(child)
                queue.append(child)
        state_of = self.interner.state_of
        cone = frozenset(state_of(sid) for sid in seen.ids())
        self._cones[start] = cone
        return cone

    # -- bookkeeping -------------------------------------------------------

    @property
    def stats(self) -> Dict[str, int]:
        """Cache accounting: expansion hits/misses, frontier sizes, and
        the interner / packed-store footprint."""
        return {
            "hits": self.hits,
            "misses": self.misses,
            "states_expanded": self._plocal.rows,
            "frontier_states": sum(
                f.seen.count for f in self._frontiers.values()
            ),
            "cones_cached": len(self._cones),
            "states_interned": len(self.interner),
            "packed_bytes": self._plocal.nbytes() + self._pinput.nbytes(),
        }


# The graph is cached as an attribute on the automaton itself, so its
# lifetime is exactly the automaton's lifetime.  (A global map keyed by
# automaton — even a WeakKeyDictionary — would pin every automaton
# forever, because the graph holds a strong reference back to its key;
# exhaustive protocol searches create thousands of throwaway automata
# and would leak every explored graph.)  The automaton <-> graph cycle
# is ordinary cyclic garbage, collected with the automaton.
_GRAPH_ATTR = "_repro_state_graph"


def state_graph(automaton: IOAutomaton) -> StateGraph:
    """The shared :class:`StateGraph` for ``automaton``.

    The graph lives on the automaton and is garbage collected with it.
    Automata that reject attribute assignment (slots, frozen) get a
    fresh (unshared) graph per call.
    """
    graph = getattr(automaton, _GRAPH_ATTR, None)
    if graph is not None and graph.automaton is automaton:
        return graph
    graph = StateGraph(automaton)
    try:
        setattr(automaton, _GRAPH_ATTR, graph)
    except (AttributeError, TypeError):
        pass
    return graph


def forget_state_graph(automaton: IOAutomaton) -> None:
    """Drop the cached graph for ``automaton`` (after mutating it)."""
    try:
        delattr(automaton, _GRAPH_ATTR)
    except (AttributeError, TypeError):
        pass

