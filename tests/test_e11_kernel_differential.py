"""The E11 behaviour-class census checked against the per-candidate checks
it replaced (``tests/register_reference.py``).

Every candidate must get the per-candidate reference's verdict at depths
0, 1 and 2, and the memoized first violation must be the one a BFS from
all four input vectors dequeues first: same level, same input vector,
same kind.  Verdicts are searched once per root pair, skipping the
search from 01 only where it cannot come first, and the searches share
one memo of configurations over behaviour classes; the budget cursor and
a resumed search must match the full search.
"""

import pytest

from repro.core.budget import Budget
from repro.registers.exhaustive import (
    BehaviourClasses,
    count_programs,
    enumerate_programs,
    search_register_consensus,
)

from .register_reference import four_start_first_violation, reference_verdicts


@pytest.mark.parametrize("depth", [0, 1, 2])
def test_every_candidate_matches_reference(depth):
    classes = BehaviourClasses(depth)
    kernel = [classes.verdict(pair) for pair in classes.root_pairs()]
    assert kernel == reference_verdicts(depth)


@pytest.mark.parametrize("depth", [0, 1, 2])
def test_candidates_are_the_enumeration(depth):
    classes = BehaviourClasses(depth)
    candidates = len(list(classes.root_pairs()))
    assert candidates == count_programs(depth)
    assert [classes.program_of(index) for index in range(candidates)] == list(
        enumerate_programs(depth)
    )


def test_subtrees_are_shared():
    # Interning by signature: the 192 slots of the 32 depth-1 subtrees
    # are 20 states, and every state is one signature.
    classes = BehaviourClasses(2)
    assert len(classes.slots) == 32
    assert len({state for slots in classes.slots for state in slots}) == 20
    assert len(set(classes.states)) == len(classes.states) == 244


def test_depth_two_census():
    serial = search_register_consensus(depth=2)
    assert (
        serial.candidates,
        serial.solutions,
        serial.agreement_failures,
        serial.validity_failures,
        serial.wait_freedom_failures,
    ) == (1124, [], 290, 834, 0)


def test_budget_cursor_and_resume_match_serial():
    full = search_register_consensus(depth=2)
    part = search_register_consensus(depth=2, budget=Budget(max_steps=700))
    assert not part.complete and part.resume_at == 700
    assert part.candidates == 700
    rest = search_register_consensus(depth=2, resume=part)
    assert rest == full


@pytest.mark.parametrize("max_steps", [3, 10, 100])
@pytest.mark.parametrize("depth", [0, 1, 2])
def test_budgeted_resumes_add_up_to_the_full_census(depth, max_steps):
    full = search_register_consensus(depth=depth)
    outcome = None
    cursors = []
    while outcome is None or not outcome.complete:
        outcome = search_register_consensus(
            depth=depth, budget=Budget(max_steps=max_steps), resume=outcome
        )
        cursors.append(outcome.resume_at)
    assert outcome == full
    stops = -(-full.candidates // max_steps) - 1  # ceil, minus the last run
    assert cursors == [max_steps * k for k in range(1, stops + 1)] + [0]


def test_depth_two_behaviour_classes():
    classes = BehaviourClasses(2)
    # The 32 subtrees fall into 21 groups as a read's if0 child and 21
    # as its if1 child; the 1124 candidates have 507 root pairs.
    assert len(set(classes._if0)) == len(set(classes._if1)) == 21
    pairs = list(classes.root_pairs())
    assert len(pairs) == 1124 and len(set(pairs)) == 507


def test_one_search_per_behaviour_on_a_fresh_table():
    classes = BehaviourClasses(2)
    assert classes._verdicts == {} and classes._memo == {}
    pairs = list(classes.root_pairs())
    kinds = [classes.verdict(pair) for pair in pairs]
    assert len(classes._verdicts) == 507
    # Candidates of one root pair share a verdict, and every verdict is
    # the memo's for its root pair.
    assert kinds == [classes._verdicts[pair] for pair in pairs]


def test_per_vector_memo_sizes():
    # One memo entry per configuration reachable, without passing a
    # violation, from the start configurations searched: 00 and 11 of
    # the 507 root pairs, and 01 where it can come first (violations
    # included).  Searching 01 for every pair stores 2,705; the
    # per-vector BFS searches dequeued 4,635 configurations.
    classes = BehaviourClasses(2)
    for pair in classes.root_pairs():
        classes.verdict(pair)
    assert len(classes._memo) == 1738


def _top_level_searches(classes):
    """Record the start ``(a, b)`` of every search ``classes`` runs, not
    counting the recursive calls inside one."""
    starts = []
    inner = classes._first
    nested = [0]

    def first(a, b, mem):
        if not nested[0]:
            starts.append((a, b))
        nested[0] += 1
        try:
            return inner(a, b, mem)
        finally:
            nested[0] -= 1

    classes._first = first
    return starts


def test_01_search_runs_only_where_it_can_come_first():
    classes = BehaviourClasses(2)
    starts = _top_level_searches(classes)
    searched_01 = 0
    for pair in dict.fromkeys(classes.root_pairs()):
        del starts[:]
        classes.verdict(pair)
        searched_01 += len(starts) == 3
    assert searched_01 == 179


@pytest.mark.parametrize("depth", [0, 1, 2])
def test_split_search_matches_the_four_start_search(depth):
    classes = BehaviourClasses(depth)
    for pair, program in zip(classes.root_pairs(), enumerate_programs(depth)):
        assert classes.first_violation(*pair) == four_start_first_violation(
            program
        ), program
