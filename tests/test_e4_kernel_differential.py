"""The E4 crash-pattern prefix tree checked against the linear scan it
replaced (``tests/round_bound_reference.py``).

For every protocol and instance below, ``find_round_bound_violation``
must count the same logical runs and report the same first violation —
same property, inputs, crash pattern and decisions — as a fresh
``run_synchronous`` per (input vector, crash pattern) pair.  The shared
pattern generator must keep the adversary order the firing-squad search
and the reference rely on.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.consensus import (
    DolevStrong,
    EIGByzantine,
    FloodSet,
    PhaseKing,
    TwoPhaseCommit,
    enumerate_crash_adversaries,
    find_round_bound_violation,
)
from repro.consensus.synchronous import SyncProcess, SyncProtocol, run_synchronous
from repro.core.errors import ModelError

from .round_bound_reference import (
    reference_crash_adversaries,
    reference_round_bound_violation,
)


def outcome(result):
    run = result.violation
    witness = None
    if run is not None:
        witness = (
            run.inputs,
            getattr(run.adversary, "crashes", {}),
            run.decisions,
        )
    return result.runs_checked, result.violated_property, witness


def assert_same(protocol, n, t, rounds=None, input_vectors=None):
    vectors = None if input_vectors is None else list(input_vectors)
    kernel = find_round_bound_violation(protocol, n, t, rounds, vectors)
    reference = reference_round_bound_violation(protocol, n, t, rounds, vectors)
    assert outcome(kernel) == outcome(reference)
    return kernel


@pytest.mark.parametrize("rounds", [0, 1, 2, 3])
def test_floodset_truncations_n3_t1(rounds):
    assert_same(FloodSet(rounds_override=rounds), 3, 1, rounds)


@pytest.mark.parametrize("rounds", [1, 2])
def test_floodset_truncations_n4_t2(rounds):
    result = assert_same(FloodSet(rounds_override=rounds), 4, 2, rounds)
    assert result.violated_property == "agreement"


def test_full_floodset_n4_t2_counts_every_run():
    result = find_round_bound_violation(FloodSet(), 4, 2)
    assert result.violation is None
    assert result.runs_checked == 16 * len(list(enumerate_crash_adversaries(4, 2, 3)))
    # Shared prefixes are simulated once: fewer rounds than runs x rounds.
    assert 0 < result.rounds_simulated < result.runs_checked * result.rounds


@pytest.mark.parametrize("vectors", [
    [(1, 1, 1)],
    [(1, 1, 1), (0, 0, 0), (1, 0, 1)],
    [(0, 1, 1), (1, 0, 0)],
])
@pytest.mark.parametrize("rounds", [1, 2])
def test_custom_input_vectors(vectors, rounds):
    assert_same(FloodSet(rounds_override=rounds), 3, 1, rounds, vectors)


def test_input_vectors_may_be_a_one_shot_iterator():
    vectors = [(0, 0, 1), (1, 1, 0)]
    once = find_round_bound_violation(
        FloodSet(rounds_override=1), 3, 1, 1, iter(vectors)
    )
    assert outcome(once) == outcome(reference_round_bound_violation(
        FloodSet(rounds_override=1), 3, 1, 1, vectors
    ))


@pytest.mark.parametrize("protocol, n, t", [
    (PhaseKing(), 4, 1),
    (TwoPhaseCommit(), 3, 1),
    (TwoPhaseCommit(), 4, 2),
    (EIGByzantine(), 4, 1),
    (DolevStrong(), 3, 1),
])
def test_other_protocols(protocol, n, t):
    assert_same(protocol, n, t)


@settings(max_examples=40, deadline=None)
@given(
    st.sampled_from([(3, 1), (3, 2), (4, 1)]),
    st.integers(0, 2),
    st.lists(st.tuples(st.integers(0, 1), st.integers(0, 1), st.integers(0, 1),
                       st.integers(0, 1)), min_size=1, max_size=4),
)
def test_sampled_floodset_instances(shape, rounds, raw_vectors):
    n, t = shape
    vectors = [v[:n] for v in raw_vectors]
    assert_same(FloodSet(rounds_override=rounds), n, t, rounds, vectors)


def test_witness_replays_through_the_simulator():
    result = find_round_bound_violation(FloodSet(rounds_override=2), 4, 2, 2)
    bad = result.violation
    again = run_synchronous(
        FloodSet(rounds_override=2), list(bad.inputs), adversary=bad.adversary,
        t=2, rounds=2,
    )
    assert again.decisions == bad.decisions


class _StampedProcess(SyncProcess):
    def __init__(self, pid, n, t, input_value, stamp):
        super().__init__(pid, n, t, input_value)
        self.stamp = stamp

    def message_to(self, rnd, dest):
        return None

    def receive(self, rnd, received):
        pass

    def decision(self):
        return self.input_value if self.stamp < 3 else 0


class _SpawnOrderProtocol(SyncProtocol):
    """Decides by how many processes the protocol object spawned before:
    not a function of the view, so the tree and the simulator disagree."""

    name = "spawn-order"

    def __init__(self):
        self.spawned = 0

    def rounds(self, n, t):
        return 0

    def spawn(self, pid, n, t, input_value):
        self.spawned += 1
        return _StampedProcess(pid, n, t, input_value, self.spawned - 1)


def test_protocol_that_is_not_a_function_of_its_views_is_caught():
    with pytest.raises(ModelError):
        find_round_bound_violation(
            _SpawnOrderProtocol(), 3, 1, input_vectors=[(0, 1, 1)]
        )


def test_mismatched_input_vector_is_rejected():
    with pytest.raises(ValueError):
        find_round_bound_violation(FloodSet(), 3, 1, input_vectors=[(0, 1)])


@pytest.mark.parametrize("n, t, rounds", [(3, 1, 1), (3, 2, 2), (4, 2, 3)])
def test_adversary_order_unchanged(n, t, rounds):
    def shape(adversary):
        return type(adversary).__name__, sorted(
            getattr(adversary, "crashes", {}).items()
        )

    ours = [shape(a) for a in enumerate_crash_adversaries(n, t, rounds)]
    old = [shape(a) for a in reference_crash_adversaries(n, t, rounds)]
    assert ours == old

