"""The E11 shared-subtree-table kernel checked against the checkers it
replaced (``tests/register_reference.py``).

Every candidate must get the per-candidate reference's verdict at depths
0, 1 and 2, through the per-table memos: one search per root-lid
signature for the input vectors 00 and 11, and at most one bounded
search of the vector 01 per behaviour (the pair of root-lid
signatures).  The same verdicts must come from one BFS over all four
input vectors; the budget cursor and a resumed search must match the
full search.
"""

from unittest import mock

import pytest

from repro.core.budget import Budget
from repro.registers.exhaustive import (
    SubtreeTable,
    count_programs,
    enumerate_programs,
    search_register_consensus,
)

from .register_reference import (
    _packed_verdict_kind,
    four_start_search,
    reference_verdicts,
)


@pytest.mark.parametrize("depth", [0, 1, 2])
def test_every_candidate_matches_reference(depth):
    # The search's path: one memoized BFS per behaviour.
    table = SubtreeTable(depth)
    kernel = [table.verdict(nid, depth + 2) for nid in table.candidates]
    assert kernel == reference_verdicts(depth)


@pytest.mark.parametrize("depth", [0, 1, 2])
def test_candidates_are_the_enumeration(depth):
    table = SubtreeTable(depth)
    assert len(table.candidates) == count_programs(depth)
    assert [table.program_of(nid) for nid in table.candidates] == list(
        enumerate_programs(depth)
    )


def test_subtrees_are_shared():
    # Hash-consing: every distinct subtree is one node, and the depth-2
    # class is closed under taking subtrees.
    assert len(SubtreeTable(2).heights) == count_programs(2)


@pytest.mark.parametrize("solo_bound", [0, 1])
def test_generic_fallback_above_solo_bound(solo_bound):
    # Trees deeper than the solo bound go through wait_free_verdict, on
    # both sides.
    table = SubtreeTable(1)
    for nid in table.candidates:
        program = table.program_of(nid)
        assert table.verdict(nid, solo_bound) == _packed_verdict_kind(
            program, solo_bound
        )


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


def behaviours(table):
    return [
        (table._signature(nid * 6), table._signature(nid * 6 + 3))
        for nid in table.candidates
    ]


def test_depth_two_behaviour_classes():
    table = SubtreeTable(2)
    # The 32 depth-1 subtrees' lids fall into 20 classes; the 1124
    # candidates into 507 behaviours.
    assert len(table.behaviour) == 32 * 6
    assert len(set(table.behaviour)) == 20
    assert len(set(behaviours(table))) == 507


def test_one_search_per_behaviour_on_a_fresh_table():
    table = SubtreeTable(2)
    assert table._verdicts == {}
    kinds = [table.verdict(nid, 4) for nid in table.candidates]
    assert len(table._verdicts) == 507
    # Candidates of one behaviour share a verdict, and every verdict is
    # the memo's for its behaviour.
    assert kinds == [table._verdicts[pair] for pair in behaviours(table)]


@pytest.mark.parametrize("depth", [0, 1, 2])
def test_split_search_matches_the_four_start_search(depth):
    table = SubtreeTable(depth)
    for nid in table.candidates:
        assert table.verdict(nid, depth + 2) == four_start_search(
            table, nid * 6
        ), table.program_of(nid)


def test_per_vector_memo_sizes():
    table = SubtreeTable(2)
    with mock.patch.object(
        SubtreeTable, "_first_violation", autospec=True,
        side_effect=SubtreeTable._first_violation,
    ) as search:
        for nid in table.candidates:
            table.verdict(nid, 4)
    # One search per root-lid signature of the vectors 00 and 11, and at
    # most one 01 search per behaviour: none where 00 fails at level 0.
    starts = [call.args[1:3] for call in search.call_args_list]
    diagonal = [lid0 for lid0, lid1 in starts if lid0 == lid1]
    assert len(diagonal) == len(table._diagonals) == 244
    assert len(starts) - len(diagonal) <= len(table._verdicts) == 507
