"""Tests for the shared state-graph engine and memoized valency labelling."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    FunctionAutomaton,
    SearchBudgetExceeded,
    Signature,
    StateGraph,
    StateInterner,
    TableAutomaton,
    assert_invariant,
    can_reach_from,
    check_invariant,
    explore,
    find_state,
    forget_state_graph,
    freeze,
    frozendict,
    state_graph,
)
from repro.impossibility import ValencyAnalyzer


def counter(limit=5):
    sig = Signature(internals=frozenset({"inc"}))
    transitions = {(i, "inc"): [i + 1] for i in range(limit)}
    return TableAutomaton(sig, initial=[0], transitions=transitions, name="counter")


class TestSuccessorCache:
    def test_each_state_expanded_once_across_queries(self):
        auto = counter(50)
        graph = state_graph(auto)
        explore(auto)
        misses_after_explore = graph.misses
        assert misses_after_explore > 0
        # Four more queries over the same automaton: all served from cache.
        check_invariant(auto, lambda s: s <= 50)
        find_state(auto, lambda s: s == 17)
        assert explore(auto).reachable == set(range(51))
        assert_invariant(auto, lambda s: True, "trivial")
        assert graph.misses == misses_after_explore
        # Asking for an expanded state's edges again is a hit, not a sweep.
        graph.transitions(0)
        assert graph.hits > 0

    def test_registry_returns_same_graph(self):
        auto = counter(3)
        assert state_graph(auto) is state_graph(auto)

    def test_distinct_automata_get_distinct_graphs(self):
        assert state_graph(counter(3)) is not state_graph(counter(3))

    def test_forget_drops_the_cached_graph(self):
        auto = counter(3)
        graph = state_graph(auto)
        explore(auto)
        forget_state_graph(auto)
        fresh = state_graph(auto)
        assert fresh is not graph
        assert fresh.misses == 0

    def test_stats_accounting(self):
        auto = counter(4)
        graph = state_graph(auto)
        explore(auto)
        stats = graph.stats
        assert stats["states_expanded"] == 5
        assert stats["misses"] == 5
        assert stats["frontier_states"] == 5

    def test_transitions_cached_per_state(self):
        calls = []
        sig = Signature(internals=frozenset({"inc"}))
        auto = FunctionAutomaton(
            sig,
            initial=[0],
            enabled=lambda s: ["inc"] if s < 5 else [],
            transition=lambda s, a: (calls.append(s), [s + 1])[1],
            name="instrumented",
        )
        graph = StateGraph(auto)
        graph.transitions(0)
        graph.transitions(0)
        graph.transitions(0)
        assert calls == [0]


class TestSinglePassAssert:
    def test_assert_invariant_explores_once(self):
        expansions = []
        sig = Signature(internals=frozenset({"inc"}))
        auto = FunctionAutomaton(
            sig,
            initial=[0],
            enabled=lambda s: ["inc"] if s < 9 else [],
            transition=lambda s, a: (expansions.append(s), [s + 1])[1],
            name="count-once",
        )
        assert assert_invariant(auto, lambda s: True, "trivial") == 10
        # One transition sweep per reachable non-terminal state — the old
        # implementation re-explored after the check and did twice this.
        assert len(expansions) == 9

    def test_count_matches_reachable_states(self):
        assert assert_invariant(counter(7), lambda s: True, "trivial") == 8


class TestBudgets:
    def test_explore_budget(self):
        with pytest.raises(SearchBudgetExceeded):
            explore(counter(100), max_states=10)

    def test_budget_exceeded_then_resumed(self):
        auto = counter(30)
        with pytest.raises(SearchBudgetExceeded):
            explore(auto, max_states=10)
        # A later call with budget to spare resumes the same frontier.
        result = explore(auto, max_states=1000)
        assert result.reachable == set(range(31))

    def test_check_invariant_budget(self):
        with pytest.raises(SearchBudgetExceeded):
            check_invariant(counter(100), lambda s: True, max_states=10)

    def test_cone_budget(self):
        with pytest.raises(SearchBudgetExceeded):
            can_reach_from(counter(100), 0, lambda s: s == 99, max_states=10)

    def test_valency_budget(self):
        system = _chain_system(length=40)
        analyzer = ValencyAnalyzer(system, max_configurations=10)
        with pytest.raises(SearchBudgetExceeded):
            analyzer.valency(0)


class TestPathErrors:
    def test_path_to_undiscovered_state_is_informative(self):
        result = explore(counter(5))
        with pytest.raises(ValueError, match="not discovered"):
            result.path_to(99)


class TestConeMemoization:
    def test_repeated_queries_share_cone(self):
        auto = counter(20)
        graph = state_graph(auto)
        assert can_reach_from(auto, 3, lambda s: s == 20)
        misses = graph.misses
        assert not can_reach_from(auto, 3, lambda s: s == 0)
        assert graph.misses == misses
        assert graph.stats["cones_cached"] == 1


class TestInterning:
    def test_freeze_interns_equal_values(self):
        a = freeze({"x": [1, 2], "y": {"z": 3}})
        b = freeze({"y": {"z": 3}, "x": (1, 2)})
        assert a == b and hash(a) == hash(b)
        interner = StateInterner()
        assert interner.intern(a) == interner.intern(b) == 0

    def test_frozendict_set_unchanged_returns_self(self):
        d = frozendict({"a": 1, "b": 2})
        assert d.set("a", 1) is d
        assert d.set("a", 2) is not d

    def test_hash_fast_path_eq(self):
        d1 = frozendict({"a": 1})
        d2 = frozendict({"a": 2})
        hash(d1), hash(d2)
        assert d1 != d2
        assert d1 == frozendict({"a": 1})


# ---------------------------------------------------------------------------
# Valency labelling vs. the straightforward per-configuration reference
# ---------------------------------------------------------------------------


class _GraphSystem:
    """A decision system given by an explicit (possibly cyclic) digraph."""

    processes = (0, 1)
    values = (0, 1)

    def __init__(self, succs, decided, initial):
        self._succs = succs          # node -> tuple of successor nodes
        self._decided = decided      # node -> frozenset of decided values
        self._initial = initial

    def initial_configurations(self):
        return list(self._initial)

    def events(self, config):
        return [(i, i % 2) for i in range(len(self._succs[config]))]

    def owner(self, event):
        return event[1]

    def apply(self, config, event):
        return self._succs[config][event[0]]

    def decisions(self, config):
        return {i: v for i, v in enumerate(sorted(self._decided[config]))}

    def decided_values(self, config):
        return self._decided[config]

    def fair_events(self, config):
        owed = {}
        for event in self.events(config):
            owed.setdefault(self.owner(event), event)
        return owed


def _chain_system(length):
    succs = {i: (i + 1,) for i in range(length)}
    succs[length] = ()
    decided = {i: frozenset() for i in range(length)}
    decided[length] = frozenset({0})
    return _GraphSystem(succs, decided, [0])


def _reference_valency(system, config):
    """The definition, executed naively: union of decided values over the
    reachable cone of ``config`` (fresh DFS per query, no sharing)."""
    seen = set()
    stack = [config]
    vals = set()
    while stack:
        current = stack.pop()
        if current in seen:
            continue
        seen.add(current)
        vals |= system.decided_values(current)
        for event in system.events(current):
            child = system.apply(current, event)
            if child not in seen:
                stack.append(child)
    return frozenset(vals)


@st.composite
def graph_systems(draw):
    n = draw(st.integers(min_value=1, max_value=10))
    succs = {}
    decided = {}
    for node in range(n):
        out_degree = draw(st.integers(min_value=0, max_value=3))
        succs[node] = tuple(
            draw(st.integers(min_value=0, max_value=n - 1))
            for _ in range(out_degree)
        )
        decided[node] = frozenset(
            draw(st.sets(st.sampled_from([0, 1]), max_size=2))
        )
    initial = draw(
        st.lists(
            st.integers(min_value=0, max_value=n - 1),
            min_size=1, max_size=3, unique=True,
        )
    )
    return _GraphSystem(succs, decided, initial)


class TestValencyAgainstReference:
    @settings(max_examples=200, deadline=None)
    @given(graph_systems())
    def test_backward_closure_matches_per_config_dfs(self, system):
        analyzer = ValencyAnalyzer(system)
        for config in range(len(system._succs)):
            assert analyzer.valency(config) == _reference_valency(
                system, config
            ), f"valency mismatch at node {config}"

    @settings(max_examples=100, deadline=None)
    @given(graph_systems())
    def test_batched_labelling_matches_lazy_queries(self, system):
        batched = ValencyAnalyzer(system)
        labels = batched.label_reachable()
        lazy = ValencyAnalyzer(system)
        for config, valency in labels.items():
            assert lazy.valency(config) == valency

    @settings(max_examples=100, deadline=None)
    @given(graph_systems())
    def test_classification_consistency(self, system):
        analyzer = ValencyAnalyzer(system)
        for config, valency in analyzer.classify_initial():
            assert analyzer.is_bivalent(config) == (len(valency) >= 2)
            assert analyzer.is_univalent(config) == (len(valency) == 1)


class TestTransitionCacheSharing:
    def test_agreement_search_reuses_valency_expansion(self):
        system = _chain_system(length=25)
        analyzer = ValencyAnalyzer(system)
        analyzer.label_reachable()
        misses = analyzer.cache.misses
        assert analyzer.find_disagreement() is None
        assert analyzer.cache.misses == misses
        assert analyzer.cache.hits > 0

    def test_find_disagreement_is_the_agreement_query(self):
        system = _chain_system(length=3)
        analyzer = ValencyAnalyzer(system)
        assert (
            analyzer.find_disagreement() is None
            and analyzer.find_agreement_violation() is None
        )
