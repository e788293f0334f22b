"""The E4 crash-pattern prefix tree checked against the linear scan it
replaced (``tests/round_bound_reference.py``).

For every protocol and instance below, ``find_round_bound_violation``
must count the same logical runs and report the same first violation —
same property, inputs, crash pattern and decisions — as a fresh
``run_synchronous`` per (input vector, crash pattern) pair.  The shared
pattern generator must keep the adversary order the firing-squad search
and the reference rely on.  Every protocol under ``src/`` that declares
itself symmetric (and so is walked one input orbit at a time), and every
process class that declares a state key (and so is merged with equal
states), is checked on every vector.
"""

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.consensus import (
    DolevStrong,
    EIGByzantine,
    FloodingFiringSquad,
    FloodSet,
    HastyFiringSquad,
    PhaseKing,
    TwoPhaseCommit,
    enumerate_crash_adversaries,
    find_round_bound_violation,
)
from repro.consensus.firing_squad import _FiringProcess
from repro.consensus.floodset import FloodSetProcess
from repro.consensus.lower_bounds import _crash_patterns, _pattern_count
from repro.consensus.synchronous import SyncProcess, SyncProtocol, run_synchronous
from repro.core.errors import ModelError

from .round_bound_reference import (
    reference_crash_adversaries,
    reference_round_bound_violation,
)
from .src_classes import subclasses_under_src


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
    st.lists(st.tuples(st.integers(0, 2), st.integers(0, 2), st.integers(0, 2),
                       st.integers(0, 2)), min_size=1, max_size=4),
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


@pytest.mark.parametrize("n, t, rounds", [
    (1, 1, 2), (2, 1, 0), (3, 1, 1), (3, 2, 2), (3, 4, 1), (4, 2, 3), (4, 2, 5),
])
def test_pattern_count_matches_the_generator(n, t, rounds):
    assert _pattern_count(n, t, rounds) == len(list(_crash_patterns(n, t, rounds)))


# -- the orbit walk of symmetric protocols ------------------------------

#: How to build each symmetric protocol truncated to r rounds.
SYMMETRIC_FACTORIES = {
    FloodSet: lambda rounds: FloodSet(rounds_override=rounds),
}


def test_every_symmetric_protocol_has_a_factory():
    found = subclasses_under_src(SyncProtocol, lambda cls: cls.symmetric)
    assert found == set(SYMMETRIC_FACTORIES)


SYMMETRIC_CASES = [(3, 1, r) for r in range(4)] + [(4, 2, r) for r in (1, 2, 3)]


@pytest.mark.parametrize("cls", list(SYMMETRIC_FACTORIES), ids=lambda c: c.__name__)
@pytest.mark.parametrize("n, t, rounds", SYMMETRIC_CASES)
def test_symmetric_protocols_match_reference_on_every_vector(cls, n, t, rounds):
    protocol = SYMMETRIC_FACTORIES[cls](rounds)
    assert protocol.symmetric
    assert_same(protocol, n, t, rounds)


@pytest.mark.parametrize("cls", list(SYMMETRIC_FACTORIES), ids=lambda c: c.__name__)
@pytest.mark.parametrize("n, t, vectors", [
    # repeats of one orbit before a violating orbit, unsorted
    (3, 1, [(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 0), (0, 1, 1)]),
    # non-binary values, the same vector twice
    (3, 1, [(2, 0, 1), (1, 2, 0), (2, 0, 1), (0, 2, 2), (2, 2, 0)]),
    (4, 2, [(3, 1, 1, 0), (1, 3, 0, 1), (0, 1, 3, 1), (2, 2, 0, 1),
            (1, 0, 2, 2)]),
])
@pytest.mark.parametrize("rounds", [1, 2])
def test_symmetric_protocols_on_custom_vectors(cls, n, t, vectors, rounds):
    assert_same(SYMMETRIC_FACTORIES[cls](rounds), n, t, rounds, vectors)


class _HistoryKeyedProcess(FloodSetProcess):
    """A FloodSet process keyed by its whole received history."""

    def state_key(self):
        return None


class _HistoryKeyedFloodSet(FloodSet):
    """FloodSet without state keys: one view per received history."""

    def spawn(self, pid, n, t, input_value):
        return _HistoryKeyedProcess(pid, n, t, input_value, self.rounds(n, t))


class _UndeclaredFloodSet(_HistoryKeyedFloodSet):
    """FloodSet without the symmetry declaration or state keys: every
    vector is walked, every history is its own view."""

    symmetric = False


def test_orbit_walk_simulates_only_representatives():
    full = find_round_bound_violation(_HistoryKeyedFloodSet(), 4, 2)
    assert (full.runs_checked, full.rounds_simulated) == (56848, 9937)


@pytest.mark.parametrize("rounds, runs, simulated", [
    (1, 1287, 517), (2, 11299, 6162), (3, 56848, 31856),
])
def test_undeclared_protocol_walks_every_vector(rounds, runs, simulated):
    result = find_round_bound_violation(_UndeclaredFloodSet(rounds), 4, 2, rounds)
    assert (result.runs_checked, result.rounds_simulated) == (runs, simulated)
    symmetric = find_round_bound_violation(FloodSet(rounds), 4, 2, rounds)
    assert outcome(symmetric) == outcome(result)
    assert symmetric.rounds_simulated < simulated


@pytest.mark.parametrize("protocol, n, t, runs, simulated", [
    (PhaseKing(), 4, 1, 2064, 4320),
    (EIGByzantine(), 4, 1, 1040, 1568),
    (DolevStrong(), 3, 1, 177, 258),
])
def test_asymmetric_protocols_simulate_as_before(protocol, n, t, runs, simulated):
    assert not protocol.symmetric
    result = find_round_bound_violation(protocol, n, t)
    assert (result.runs_checked, result.rounds_simulated) == (runs, simulated)


# -- state keys: equal process states share one subtree -----------------

#: The protocols whose processes are of a class that declares a state
#: key, each with the (n, t) shapes it is checked at on every vector.
STATE_KEYED = {
    FloodSetProcess: [
        (FloodSet(rounds_override=rounds), n, t)
        for rounds in (1, 2)
        for n, t in [(3, 1), (3, 2), (4, 1), (4, 2)]
    ],
    _FiringProcess: [
        (squad, n, t)
        for squad in (FloodingFiringSquad(), HastyFiringSquad())
        for n, t in [(3, 1), (3, 2), (4, 1)]
    ],
}


def _declares_state_key(cls):
    return cls.state_key is not SyncProcess.state_key


def test_every_state_keyed_process_has_cases():
    found = subclasses_under_src(SyncProcess, _declares_state_key)
    assert found == set(STATE_KEYED)


@pytest.mark.parametrize("protocol, n, t", [
    case for cases in STATE_KEYED.values() for case in cases
], ids=lambda v: getattr(v, "name", str(v)))
def test_state_keyed_protocols_match_reference_on_every_vector(protocol, n, t):
    for vector in itertools.product((0, 1), repeat=n):
        assert_same(protocol, n, t, input_vectors=[vector])


# A one-round tree has no node below the root to merge.
@pytest.mark.parametrize("rounds, keyed_simulated, history_simulated", [
    (1, 388, 388), (2, 1472, 3082), (3, 2767, 9937),
])
def test_state_keys_merge_views_without_changing_the_outcome(
    rounds, keyed_simulated, history_simulated
):
    keyed = find_round_bound_violation(FloodSet(rounds), 4, 2, rounds)
    history = find_round_bound_violation(_HistoryKeyedFloodSet(rounds), 4, 2, rounds)
    assert outcome(keyed) == outcome(history)
    assert keyed.rounds_simulated == keyed_simulated
    assert history.rounds_simulated == history_simulated


class _MinOnlyProcess(FloodSetProcess):
    """Keyed by ``min(seen)``: {0} and {0, 1} merge, yet they send
    different sets next round."""

    def state_key(self):
        return min(self.seen)


class _SizeOnlyProcess(FloodSetProcess):
    """Keyed by ``len(seen)``: {0} and {1} merge, yet they decide
    differently."""

    def state_key(self):
        return len(self.seen)


class _FalselyKeyedFloodSet(FloodSet):
    def __init__(self, process_class, rounds):
        super().__init__(rounds_override=rounds)
        self.process_class = process_class

    def spawn(self, pid, n, t, input_value):
        return self.process_class(pid, n, t, input_value, self.rounds(n, t))


@pytest.mark.parametrize("process_class, rounds", [
    (_MinOnlyProcess, 2),  # the outboxes differ
    (_SizeOnlyProcess, 1),  # the decisions differ at the last round
])
def test_false_state_key_is_caught(process_class, rounds):
    with pytest.raises(ModelError, match="state_key"):
        find_round_bound_violation(
            _FalselyKeyedFloodSet(process_class, rounds), 3, 1, rounds
        )
