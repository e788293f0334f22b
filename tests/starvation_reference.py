"""The networkx starvation-cycle search the fairness-cycle kernel
replaced — kept only as a differential reference.

:func:`find_starvation_cycle` is the generic checker as it was before
``repro.core.packed.admissible_component``: a networkx ``MultiDiGraph``
over frozen states, its SCCs checked one by one for the three
admissibility conditions, and a witness cycle stitched from networkx
shortest paths.  It shares no code with the kernel, so
``tests/test_starvation_differential.py`` and
``tests/mutex_reference.py`` check the kernel against an independent
implementation.
"""

from __future__ import annotations

from typing import Callable, List, Optional, Set, Tuple

import networkx

from repro.core.automaton import Action, State
from repro.core.exploration import explore
from repro.core.stategraph import state_graph
from repro.shared_memory.system import SharedMemorySystem, StarvationWitness


def _process_of_action(system: SharedMemorySystem, action: Action) -> Optional[str]:
    """Which process an action belongs to (None for pure inputs)."""
    if isinstance(action, tuple) and len(action) == 2 and action[0] == "step":
        return action[1]
    for p in system.processes:
        if action in p.output_actions():
            return p.name
    return None


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

    Returns a witness or None.  This is the mechanized form of "construct
    an incompatible infinite admissible execution" from [26].
    """
    import networkx as nx

    reach = explore(system, max_states=max_states, include_inputs=True)
    # The exploration above populated the shared state graph; rebuilding
    # the stuck-subgraph edges below is served entirely from its cache.
    shared = state_graph(system)
    inputs = system.signature.inputs

    graph = nx.MultiDiGraph()
    for state in reach.reachable:
        if not victim_stuck(state):
            continue
        graph.add_node(state)
        for action, succ in shared.transitions(state, include_inputs=True):
            if forbidden_actions is not None and forbidden_actions(action):
                continue
            if succ == state and action in inputs:
                continue  # ignored input; not a real step
            if victim_stuck(succ):
                graph.add_edge(state, succ, action=action)

    for component in nx.strongly_connected_components(graph):
        subgraph = graph.subgraph(component)
        edges = list(subgraph.edges(data="action"))
        if not edges:
            continue
        actions_in_cycle = {a for (_u, _v, a) in edges}
        # Condition 1: process fairness.
        fair = True
        for p in system.processes:
            acts_here = any(
                _process_of_action(system, a) == p.name for a in actions_in_cycle
            )
            if acts_here:
                continue
            sometimes_idle = any(
                p.is_idle(system.local_state(state, p.name)) for state in component
            )
            if not sometimes_idle:
                fair = False
                break
        if not fair:
            continue
        # Condition 2: environment cooperation.
        if environment_returns is not None:
            owed = {
                environment_returns(state)
                for state in component
                if environment_returns(state) is not None
            }
            if not owed <= actions_in_cycle:
                continue
        # Build a concrete cycle through the component covering one edge per
        # required action (any closed walk through all of them).
        witness_cycle = _closed_walk_covering(subgraph, actions_in_cycle)
        if witness_cycle is None:
            continue
        cycle_states, cycle_actions = witness_cycle
        stem = reach.path_to(cycle_states[0])
        return StarvationWitness(
            victim=victim,
            stem_states=stem.states,
            cycle_states=tuple(cycle_states),
            cycle_actions=tuple(cycle_actions),
        )
    return None


def _closed_walk_covering(
    graph: "networkx.MultiDiGraph", required_actions: Set[Action]
) -> Optional[Tuple[List[State], List[Action]]]:
    """A closed walk in a strongly connected multigraph covering every
    required action at least once."""
    import networkx as nx

    # Pick, for each required action, one edge carrying it; then stitch the
    # edges together with shortest paths (the graph is strongly connected).
    chosen: List[Tuple[State, State, Action]] = []
    remaining = set(required_actions)
    for u, v, a in graph.edges(data="action"):
        if a in remaining:
            chosen.append((u, v, a))
            remaining.discard(a)
        if not remaining:
            break
    if remaining or not chosen:
        return None
    walk_states: List[State] = [chosen[0][0]]
    walk_actions: List[Action] = []
    current = chosen[0][0]
    for u, v, a in chosen:
        if current != u:
            path = nx.shortest_path(graph, current, u)
            for i in range(len(path) - 1):
                edge_action = next(
                    iter(graph.get_edge_data(path[i], path[i + 1]).values())
                )["action"]
                walk_states.append(path[i + 1])
                walk_actions.append(edge_action)
            current = u
        walk_states.append(v)
        walk_actions.append(a)
        current = v
    if current != walk_states[0]:
        path = nx.shortest_path(graph, current, walk_states[0])
        for i in range(len(path) - 1):
            edge_action = next(
                iter(graph.get_edge_data(path[i], path[i + 1]).values())
            )["action"]
            walk_states.append(path[i + 1])
            walk_actions.append(edge_action)
    return walk_states, walk_actions
