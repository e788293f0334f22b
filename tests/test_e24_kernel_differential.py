"""The E24 firing-squad search on the crash tree, checked against the
per-adversary loop it replaced (``tests/round_bound_reference.py``).

For the two firing squads, and for random small table-driven protocols
with and without state keys, ``find_simultaneity_violation`` must count
the same crash patterns and report the same first violating adversary
and firing rounds as a fresh ``run_synchronous`` per adversary.  The
random protocols also run the E4 search against its reference.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.consensus import (
    FloodingFiringSquad,
    HastyFiringSquad,
    find_round_bound_violation,
    find_simultaneity_violation,
)
from repro.consensus.synchronous import SyncProcess, SyncProtocol

from .round_bound_reference import (
    reference_round_bound_violation,
    reference_simultaneity_violation,
)


def outcome(result):
    adversary = result.violation_adversary
    shape = None
    if adversary is not None:
        shape = type(adversary).__name__, getattr(adversary, "crashes", {})
    return result.runs_checked, shape, result.firing_rounds


def assert_same(protocol, n, t, initiator=0):
    kernel = find_simultaneity_violation(protocol, n, t, initiator)
    reference = reference_simultaneity_violation(protocol, n, t, initiator)
    assert outcome(kernel) == outcome(reference)
    return kernel


@pytest.mark.parametrize("n, t", [(3, 1), (4, 1), (4, 2)])
@pytest.mark.parametrize("squad", [FloodingFiringSquad, HastyFiringSquad])
def test_squads_match_the_loop(squad, n, t):
    result = assert_same(squad(), n, t)
    assert (result.violation_adversary is None) == (squad is FloodingFiringSquad)


@pytest.mark.parametrize("initiator", [1, 2, 3])
@pytest.mark.parametrize("squad", [FloodingFiringSquad, HastyFiringSquad])
def test_other_initiators_match_the_loop(squad, initiator):
    assert_same(squad(), 4, 1, initiator)


def test_pins():
    flooding = find_simultaneity_violation(FloodingFiringSquad(), 4, 2)
    assert (flooding.runs_checked, flooding.violation_adversary) == (9761, None)
    assert 0 < flooding.rounds_simulated < 9761 * 5
    hasty = find_simultaneity_violation(HastyFiringSquad(), 4, 1)
    assert hasty.runs_checked == 3
    assert hasty.violation_adversary.crashes == {0: (1, frozenset({1}))}
    assert hasty.firing_rounds == {1: 1, 2: 2, 3: 2}


# -- random table-driven protocols ---------------------------------------


class _TableProcess(SyncProcess):
    def __init__(self, pid, n, t, input_value, tables, keyed):
        super().__init__(pid, n, t, input_value)
        self.tables = tables
        self.keyed = keyed
        self.state = tables["start"][pid, input_value]

    def message_to(self, rnd, dest):
        return self.tables["send"][self.pid, rnd, self.state, dest]

    def receive(self, rnd, received):
        state = self.state
        for src, message in sorted(received.items()):
            state = self.tables["step"][state, src, message]
        self.state = state

    def decision(self):
        return self.tables["decide"][self.pid, self.state]

    def state_key(self):
        # With the pid and the round, the state fixes every later
        # message and the decision.
        return self.state if self.keyed else None


class _TableProtocol(SyncProtocol):
    """A protocol drawn from ``seed``: per-(pid, round, state, dest)
    messages, per-(state, sender, message) transitions and per-(pid,
    state) decisions.  The draws lean towards keeping a state and
    deciding its parity, so that a third to a half of the instances
    survive the first crash pattern."""

    STATES = 3

    def __init__(self, seed, n, rounds, keyed):
        rng = random.Random(seed)
        states = range(self.STATES)
        self.name = f"table-{seed}-{'keyed' if keyed else 'history'}"
        self._rounds = rounds
        self.keyed = keyed
        self.tables = {
            "start": {(p, v): v for p in range(n) for v in (0, 1)},
            "send": {(p, r, s, d): None if rng.random() < 0.2 else s % 2
                     for p in range(n) for r in range(1, rounds + 1)
                     for s in states for d in range(n)},
            "step": {(s, src, m): s if rng.random() < 0.6 else rng.choice(states)
                     for s in states for src in range(n) for m in (0, 1)},
            "decide": {(p, s): s % 2 if rng.random() < 0.85
                       else rng.choice((None, 0, 1))
                       for p in range(n) for s in states},
        }

    def rounds(self, n, t):
        return self._rounds

    def spawn(self, pid, n, t, input_value):
        return _TableProcess(pid, n, t, input_value, self.tables, self.keyed)


@settings(max_examples=60, deadline=None)
@given(
    st.integers(0, 2**32 - 1),
    st.sampled_from([(3, 1), (3, 2), (4, 1)]),
    st.integers(1, 3),
    st.booleans(),
)
def test_random_table_protocols(seed, shape, rounds, keyed):
    n, t = shape
    protocol = _TableProtocol(seed, n, rounds, keyed)
    assert_same(protocol, n, t, initiator=seed % n)
    kernel = find_round_bound_violation(protocol, n, t)
    reference = reference_round_bound_violation(protocol, n, t)
    assert kernel.runs_checked == reference.runs_checked
    assert kernel.violated_property == reference.violated_property
    if kernel.violation is not None:
        assert kernel.violation.inputs == reference.violation.inputs
        assert kernel.violation.decisions == reference.violation.decisions
        assert (getattr(kernel.violation.adversary, "crashes", {})
                == getattr(reference.violation.adversary, "crashes", {}))
