"""The fairness-cycle kernel's starvation search checked against the
networkx search it replaced (``tests/starvation_reference.py``).

For every victim of every system below, both searches run on lockout
(the owed exit must occur on the cycle), on deadlock (no crit output on
the cycle either) and on lockout without environment cooperation
(ablation A1).  They must agree on every verdict: a witness, or None.
Every witness the kernel's path returns must also pass
:func:`assert_admissible`, which replays it through ``system.apply``
and checks the three admissibility conditions on the cycle itself.
"""

import functools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.shared_memory import enumerate_protocol_tables, naive_spin_lock_system
from repro.shared_memory.kexclusion import (
    cas_semaphore_system,
    counting_semaphore_system,
)
from repro.shared_memory.mutex import (
    TRYING,
    dijkstra_system,
    handoff_lock_system,
    peterson_system,
    tas_semaphore_system,
    tournament_system,
)
from repro.shared_memory.lower_bounds import build_synthetic_system
from repro.shared_memory.system import find_starvation_cycle

from . import starvation_reference

SYSTEMS = {
    "tas-semaphore-2": lambda: tas_semaphore_system(2),
    "tas-semaphore-3": lambda: tas_semaphore_system(3),
    "handoff-lock": handoff_lock_system,
    "peterson": peterson_system,
    "dijkstra-2": lambda: dijkstra_system(2),
    "tournament-2": lambda: tournament_system(2),
    "counting-semaphore-2-1": lambda: counting_semaphore_system(2, 1),
    "counting-semaphore-3-1": lambda: counting_semaphore_system(3, 1),
    "counting-semaphore-3-2": lambda: counting_semaphore_system(3, 2),
    "cas-semaphore-2-1": lambda: cas_semaphore_system(2, 1),
    "cas-semaphore-3-1": lambda: cas_semaphore_system(3, 1),
    "cas-semaphore-3-2": lambda: cas_semaphore_system(3, 2),
    "naive-spin-lock": naive_spin_lock_system,
}

MODES = ("lockout", "deadlock", "lockout-without-environment")


def _crit(action):
    return isinstance(action, tuple) and action[0] == "crit"


def question(system, victim, mode):
    """The keyword arguments of one starvation search."""
    return {
        "victim": victim,
        "victim_stuck": lambda s: system.local_state(s, victim)["region"] == TRYING,
        "environment_returns": (
            None if mode == "lockout-without-environment"
            else system._environment_owes
        ),
        "forbidden_actions": _crit if mode == "deadlock" else None,
    }


def assert_admissible(system, witness, victim, victim_stuck,
                      environment_returns, forbidden_actions):
    """``witness`` is an admissible execution starving ``victim``."""
    inputs = system.signature.inputs

    def moves(state):
        actions = list(system.enabled_actions(state)) + sorted(inputs)
        return {succ for action in actions for succ in system.apply(state, action)}

    assert witness.victim == victim
    stem, cycle, actions = (witness.stem_states, witness.cycle_states,
                            witness.cycle_actions)
    # The stem replays from an initial state to the cycle's entry.
    assert stem[0] in set(system.initial_states())
    for state, succ in zip(stem, stem[1:]):
        assert succ in moves(state)
    assert stem[-1] == cycle[0]
    # The cycle replays action by action and closes.
    assert actions and len(cycle) == len(actions) + 1 and cycle[-1] == cycle[0]
    for state, action, succ in zip(cycle, actions, cycle[1:]):
        if action in inputs:
            assert succ != state, f"ignored input {action!r} on the cycle"
        else:
            assert action in set(system.enabled_actions(state))
        assert succ in set(system.apply(state, action))
    # The victim is stuck throughout, and no forbidden action occurs.
    assert all(victim_stuck(state) for state in cycle)
    if forbidden_actions is not None:
        assert not any(forbidden_actions(action) for action in actions)
    # Every process acts on the cycle or idles at one of its states.
    for p in system.processes:
        own = {("step", p.name)} | set(p.output_actions())
        assert own & set(actions) or any(
            p.is_idle(system.local_state(state, p.name)) for state in cycle
        ), f"{p.name} is starved of steps by the cycle itself"
    # Every input owed at a cycle state occurs on the cycle.
    if environment_returns is not None:
        for state in cycle:
            owed = environment_returns(state)
            assert owed is None or owed in actions


def compare(system, victim, mode):
    """Run both searches; they must agree, and the kernel's witness must
    be admissible.  Returns the kernel's witness."""
    kwargs = question(system, victim, mode)
    got = find_starvation_cycle(system, **kwargs)
    want = starvation_reference.find_starvation_cycle(system, **kwargs)
    assert (got is None) == (want is None), (system.name, victim, mode)
    for witness in (got, want):
        if witness is not None:
            assert_admissible(system, witness, **kwargs)
    return got


@pytest.mark.parametrize("name", list(SYSTEMS))
def test_verdicts_match_the_networkx_reference(name):
    system = SYSTEMS[name]()
    for p in system.processes:
        for mode in MODES:
            compare(system, p.name, mode)


def test_ablation_a1_is_unchanged():
    """Without environment cooperation the checker flags Peterson; with
    it, it does not."""
    system = peterson_system()
    assert compare(system, "p0", "lockout") is None
    assert compare(system, "p0", "lockout-without-environment") is not None


@functools.lru_cache(maxsize=None)
def tables_of(values, modes):
    return tuple(enumerate_protocol_tables(values, modes))


@st.composite
def table_pairs(draw):
    values, modes = draw(st.sampled_from(((2, 1), (2, 2), (3, 1))))
    tables = tables_of(values, modes)
    return tuple(tables[draw(st.integers(0, len(tables) - 1))] for _ in range(2))


@settings(max_examples=150, deadline=None)
@given(table_pairs())
def test_verdicts_match_on_e1_tables(pair):
    system = build_synthetic_system(pair)
    for p in system.processes:
        for mode in MODES:
            compare(system, p.name, mode)
