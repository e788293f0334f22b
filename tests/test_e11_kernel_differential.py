"""The E11 shared-subtree-table kernel checked against the per-candidate
checker it replaced (``tests/register_reference.py``).

Every candidate must get the reference's verdict at depths 0, 1 and 2;
the sharded census, the budget cursor and the solutions list must match
the serial search.
"""

import pytest

from repro.core.budget import Budget
from repro.registers.exhaustive import (
    SubtreeTable,
    count_programs,
    enumerate_programs,
    search_register_consensus,
)

from .register_reference import _packed_verdict_kind, reference_verdicts


@pytest.mark.parametrize("depth", [0, 1, 2])
def test_every_candidate_matches_reference(depth):
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


def test_sharded_census_matches_serial():
    serial = search_register_consensus(depth=2)
    assert search_register_consensus(depth=2, workers=2) == serial
    assert (
        serial.candidates,
        serial.solutions,
        serial.agreement_failures,
        serial.validity_failures,
        serial.wait_freedom_failures,
    ) == (1124, [], 290, 834, 0)


@pytest.mark.parametrize("workers", [1, 2])
def test_budget_cursor_and_resume_match_serial(workers):
    full = search_register_consensus(depth=2)
    part = search_register_consensus(
        depth=2, budget=Budget(max_steps=700), workers=workers
    )
    assert not part.complete and part.resume_at == 700
    assert part.candidates == 700
    rest = search_register_consensus(depth=2, resume=part, workers=workers)
    assert rest == full
