"""The bitmask heartbeat detector and quorum lease checked against the
per-query simulators they replaced (``tests/circumvention_reference.py``).

In-flight heartbeats now wait in buckets keyed by arrival step, and
liveness and reachability come from the partition adversary's per-step
masks.  On random schedules of splits, cuts and crashes, over seeds,
sizes, jitter on and off and adaptation on and off (detector) and the
honest and planted-bug grant rules (lease), each simulator must produce
the same trace fingerprint and run record as its reference, and every
mask bit must answer what the per-query ``crashed``/``blocked`` logic
answers, as must ``majority_connected``.
"""

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.circumvention.detectors import run_heartbeat_detector
from repro.circumvention.leases import run_quorum_lease
from repro.circumvention.partitions import PartitionAdversary

from .circumvention_reference import (
    ReferencePartition,
    run_reference_detector,
    run_reference_lease,
)

HORIZON = 30


@st.composite
def partition_atoms(draw, n):
    step = st.integers(0, HORIZON)
    pid = st.integers(0, n - 1)
    return tuple(
        draw(
            st.lists(
                st.one_of(
                    st.tuples(st.just("split"), step,
                              st.integers(0, (1 << n) - 1)),
                    st.tuples(st.just("cut"), step, pid, pid),
                    st.tuples(st.just("down"), step, pid),
                ),
                max_size=16,
            )
        )
    )


@st.composite
def detector_cases(draw):
    n = draw(st.integers(2, 5))
    atoms = draw(partition_atoms(n))
    seed = draw(st.integers(0, 2**32 - 1))
    jitter = draw(st.sampled_from((0, 1)))
    adaptive = draw(st.booleans())
    initial_timeout = draw(st.sampled_from((0, 2, 4)))
    return atoms, seed, n, jitter, adaptive, initial_timeout


def _observed(run):
    return (
        run.trace.fingerprint(),
        run.suspects,
        run.leaders,
        run.leader_changes,
        run.last_change,
        run.complete,
    )


@settings(max_examples=150, deadline=None)
@given(detector_cases())
@example(((), 0, 4, 1, False, 0))
@example(((("split", 3, 0b0011), ("cut", 3, 0, 2), ("down", 6, 1),
           ("cut", 9, 2, 2), ("split", 9, 0b1010)), 7, 4, 1, True, 4))
def test_same_run_as_the_scanning_reference(case):
    atoms, seed, n, jitter, adaptive, initial_timeout = case
    coords = dict(n=n, horizon=HORIZON, heartbeat_every=3,
                  initial_timeout=initial_timeout, adaptive=adaptive,
                  jitter=jitter)
    ref = run_reference_detector(atoms, seed, **coords)
    run = run_heartbeat_detector(atoms, seed, **coords)
    assert _observed(run) == _observed(ref)


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 5).flatmap(
    lambda n: st.tuples(st.just(n), partition_atoms(n))
))
def test_masks_answer_the_per_query_logic(case):
    n, atoms = case
    partition = PartitionAdversary(atoms, n)
    reference = ReferencePartition(atoms, n)
    for t in range(HORIZON + 2):
        alive = partition.alive_mask(t)
        rows = partition.reach(t)
        for src in range(n):
            assert bool(alive >> src & 1) == (not reference.crashed(t, src))
            for dst in range(n):
                assert bool(rows[src] >> dst & 1) == (
                    not reference.blocked(t, src, dst)
                ), (t, src, dst)
                assert partition.blocked(t, src, dst) == reference.blocked(
                    t, src, dst
                )
            assert partition.majority_connected(
                t, src
            ) == reference.majority_connected(t, src)


@st.composite
def lease_cases(draw):
    n = draw(st.integers(2, 5))
    atoms = draw(partition_atoms(n))
    seed = draw(st.integers(0, 2**32 - 1))
    buggy = draw(st.booleans())
    lease_len = draw(st.sampled_from((3, 8)))
    return atoms, seed, n, buggy, lease_len


def _lease_observed(run):
    return run.trace.fingerprint(), run.leases, run.commits, run.complete


@settings(max_examples=150, deadline=None)
@given(lease_cases())
@example(((("split", 0, 0b0011),), 0, 4, True, 8))
@example(((("cut", 2, 1, 0), ("split", 3, 0b0110), ("down", 5, 0),
           ("cut", 7, 3, 3)), 5, 4, False, 3))
def test_lease_runs_match_the_per_query_reference(case):
    atoms, seed, n, buggy, lease_len = case
    coords = dict(n=n, horizon=HORIZON, lease_len=lease_len, renew_margin=2,
                  staleness_bound=8, write_every=3, read_every=5,
                  buggy_no_quorum=buggy)
    ref = run_reference_lease(atoms, seed, **coords)
    run = run_quorum_lease(atoms, seed, **coords)
    assert _lease_observed(run) == _lease_observed(ref)
