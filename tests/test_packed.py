"""The packed state engine: frozen-path equivalence, id lifetime, dedup.

The bit-packed engine (:mod:`repro.core.packed`) is an internal
representation change — dense integer ids and CSR adjacency behind the
same public APIs.  These tests pin the contract from three sides:

* **frozen equivalence** — reachability sets, BFS parent maps and
  valency labels over the packed stores are identical to a naive
  frozen-state reference executed per query, across hypothesis-random
  automata;
* **id lifetime** — ids are local to one graph's interner and never
  leak across interners/automata;
* **fingerprint stability** — fixed-seed chaos campaigns produce the
  same counterexample fingerprints at any worker count, so packing the
  parallel fabric's id-table deltas changed no observable output.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.chaos.campaign import run_campaign
from repro.chaos.targets import FloodSetCrashTarget, LCRRingTarget
from repro.core import (
    IdFlags,
    IdToValue,
    PackedGraph,
    Signature,
    StateInterner,
    TableAutomaton,
    ValueTable,
    state_graph,
)
from repro.registers.exhaustive import (
    BehaviourClasses,
    enumerate_programs,
)
from repro.registers.herlihy import (
    ObjectConsensusSystem,
    ProgramConsensus,
    wait_free_verdict,
)


# ---------------------------------------------------------------------------
# Packed primitives


class TestPrimitives:
    def test_interner_ids_are_dense_and_stable(self):
        interner = StateInterner()
        a = interner.intern(("a",))
        b = interner.intern(("b",))
        assert (a, b) == (0, 1)
        assert interner.intern(("a",)) == a
        assert interner.state_of(b) == ("b",)
        assert len(interner) == 2

    def test_packed_graph_rows_are_append_once(self):
        g = PackedGraph()
        s = g.interner.intern("s")
        t = g.interner.intern("t")
        g.add_row(s, ["go"], [t])
        g.add_row(s, ["other"], [s])  # ignored: first sweep wins
        assert list(g.successors_ids(s)) == [t]
        assert g.labels_of(s) == ["go"]
        assert g.rows == 1

    def test_packed_graph_rejects_misaligned_rows(self):
        g = PackedGraph()
        s = g.interner.intern("s")
        with pytest.raises(ValueError):
            g.add_row(s, ["one", "two"], [0])
        assert not g.is_expanded(s)

    def test_id_flags_membership_and_count(self):
        flags = IdFlags()
        assert flags.add(5) and not flags.add(5)
        assert 5 in flags and 4 not in flags
        flags.discard(5)
        assert 5 not in flags and len(flags) == 0

    def test_id_to_value_absent_sentinel(self):
        table = IdToValue()
        assert table.get(3) == -1 and 3 not in table
        table.set(3, 7)
        assert table.get(3) == 7 and len(table) == 1

    def test_value_table_masks_round_trip(self):
        table = ValueTable([0, 1])
        mask = table.mask_of([1, 0])
        assert table.set_of(mask) == frozenset({0, 1})
        assert table.set_of(table.bit_of(1)) == frozenset({1})


# ---------------------------------------------------------------------------
# Frozen-path equivalence on random automata


@st.composite
def table_automata(draw):
    """A random automaton over integer states with internal actions."""
    n = draw(st.integers(min_value=1, max_value=8))
    actions = ["a", "b"]
    transitions = {}
    for state in range(n):
        for action in actions:
            succs = draw(
                st.lists(
                    st.integers(min_value=0, max_value=n - 1),
                    max_size=3,
                )
            )
            if succs:
                transitions[(state, action)] = succs
    initial = draw(
        st.lists(
            st.integers(min_value=0, max_value=n - 1),
            min_size=1, max_size=2, unique=True,
        )
    )
    sig = Signature(internals=frozenset(actions))
    return TableAutomaton(
        sig, initial=initial, transitions=transitions, name="random"
    )


def _reference_bfs(automaton):
    """The frozen-path reference: plain dict/set BFS, no packed stores."""
    parents = {}
    order = []
    queue = []
    for s in automaton.initial_states():
        if s not in parents:
            parents[s] = None
            order.append(s)
            queue.append(s)
    head = 0
    while head < len(queue):
        state = queue[head]
        head += 1
        for action in automaton.enabled_actions(state):
            for succ in automaton.apply(state, action):
                if succ in parents:
                    continue
                parents[succ] = (state, action)
                order.append(succ)
                queue.append(succ)
    return set(parents), parents, order


class TestFrozenEquivalence:
    @settings(max_examples=150, deadline=None)
    @given(table_automata())
    def test_reachability_and_parents_match_reference(self, automaton):
        ref_reachable, ref_parents, _order = _reference_bfs(automaton)
        graph = state_graph(automaton)
        frontier = graph.frontier(False)
        frontier.expand_all(max_states=10_000)
        assert set(frontier.parents) == ref_reachable
        assert frontier.parents == ref_parents

    @settings(max_examples=100, deadline=None)
    @given(table_automata())
    def test_cone_matches_reference_cone(self, automaton):
        graph = state_graph(automaton)
        for start in automaton.initial_states():
            seen = set()
            stack = [start]
            while stack:
                state = stack.pop()
                if state in seen:
                    continue
                seen.add(state)
                for action in automaton.enabled_actions(state):
                    stack.extend(automaton.apply(state, action))
            assert graph.cone(start) == frozenset(seen)

    def test_transitions_view_is_frozen_states(self):
        sig = Signature(internals=frozenset({"inc"}))
        auto = TableAutomaton(
            sig, initial=[0], transitions={(0, "inc"): [1]}, name="t"
        )
        graph = state_graph(auto)
        assert graph.transitions(0) == (("inc", 1),)
        # Served from the packed row on the second ask — still states.
        assert graph.transitions(0) == (("inc", 1),)
        assert graph.hits >= 1


# ---------------------------------------------------------------------------
# Register search: packed integer checker == generic wait_free_verdict


_CLASSES = BehaviourClasses(2)
_PAIRS = dict(zip(enumerate_programs(2), _CLASSES.root_pairs()))


def _packed_verdict_kind(program):
    """The behaviour-class verdict of one program of the class."""
    return _CLASSES.verdict(_PAIRS[program])


class TestPackedRegisterSearch:
    def test_packed_checker_matches_generic_verdict_exhaustively(self):
        """Every depth<=1 candidate, classified by both engines."""
        for program in enumerate_programs(1):
            fast = _packed_verdict_kind(program)
            system = ObjectConsensusSystem(ProgramConsensus(program), 2)
            verdict = wait_free_verdict(system, solo_bound=3)
            slow = (
                "solution" if verdict.solves_consensus
                else (verdict.failure_kind or "wait_freedom")
            )
            assert fast == slow, f"{program}: packed={fast} generic={slow}"

    @settings(max_examples=60, deadline=None)
    @given(st.integers(min_value=0, max_value=10_000))
    def test_packed_checker_matches_generic_on_depth_2(self, index):
        programs = list(enumerate_programs(2))
        program = programs[index % len(programs)]
        fast = _packed_verdict_kind(program)
        system = ObjectConsensusSystem(ProgramConsensus(program), 2)
        verdict = wait_free_verdict(system, solo_bound=4)
        slow = (
            "solution" if verdict.solves_consensus
            else (verdict.failure_kind or "wait_freedom")
        )
        assert fast == slow



# ---------------------------------------------------------------------------
# Id lifetime: per-graph interners, no cross-automaton leaks


def _counter(limit):
    sig = Signature(internals=frozenset({"inc"}))
    transitions = {(i, "inc"): [i + 1] for i in range(limit)}
    return TableAutomaton(
        sig, initial=[0], transitions=transitions, name="counter"
    )


class TestIdLifetime:
    def test_no_cross_automaton_id_leakage(self):
        """Two graphs intern the same states to independent id spaces."""
        a, b = _counter(5), _counter(9)
        ga, gb = state_graph(a), state_graph(b)
        ga.frontier(False).expand_all(10_000)
        gb.frontier(False).expand_all(10_000)
        assert len(ga.interner) == 6
        assert len(gb.interner) == 10
        assert ga.stats["states_interned"] == 6
        assert ga.stats["packed_bytes"] > 0
        # Same state, independently interned — ids are interner-local.
        assert ga.interner.id_of(3) is not None
        assert gb.interner.id_of(3) is not None
        assert ga.interner.state_of(ga.interner.id_of(5)) == 5
        assert gb.interner.state_of(gb.interner.id_of(9)) == 9


# ---------------------------------------------------------------------------
# Golden fingerprints are worker-count independent


class TestFingerprintStability:
    @pytest.mark.parametrize("workers", [1, 2])
    def test_campaign_fingerprints_any_worker_count(self, workers):
        report = run_campaign(
            targets=[LCRRingTarget(), FloodSetCrashTarget()],
            runs=3,
            master_seed=20260807,
            workers=workers,
        )
        got = [cx.fingerprint for cx in report.counterexamples]
        serial = run_campaign(
            targets=[LCRRingTarget(), FloodSetCrashTarget()],
            runs=3,
            master_seed=20260807,
        )
        assert got == [cx.fingerprint for cx in serial.counterexamples]
        assert report.results == serial.results
