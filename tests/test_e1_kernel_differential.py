"""The integer E1 kernel checked against the generic model checker it
replaced (``tests/mutex_reference.py``).

On every candidate compared, ``check_candidate`` must give the reference's
(mutual exclusion, deadlock-free, lockout-free) verdict; the verdict must
not change under the pid swap the search quotients by; and the three
classes the survey's claim rests on keep their census.
"""

import functools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.errors import SearchBudgetExceeded
from repro.shared_memory import (
    ProtocolTable,
    check_candidate,
    enumerate_protocol_tables,
    search_two_process_protocols,
)

from .mutex_reference import reference_check_candidate, reference_search

CLASSES = ((2, 1), (2, 2), (3, 1))


def verdict(v):
    return v.mutual_exclusion, v.deadlock_free, v.lockout_free


@functools.lru_cache(maxsize=None)
def tables_of(values, modes):
    return tuple(enumerate_protocol_tables(values, modes))


def test_full_two_valued_symmetric_class_matches_reference():
    kernel = search_two_process_protocols(2, modes=1, symmetric=True)
    reference = reference_search(2, modes=1, symmetric=True)
    assert [v.tables for v in kernel] == [v.tables for v in reference]
    assert [verdict(v) for v in kernel] == [verdict(v) for v in reference]


@st.composite
def ordered_pairs(draw):
    values, modes = draw(st.sampled_from(CLASSES))
    tables = tables_of(values, modes)
    a = draw(st.integers(0, len(tables) - 1))
    b = draw(st.integers(0, len(tables) - 1))
    return tables[a], tables[b]


@settings(max_examples=150, deadline=None)
@given(ordered_pairs())
def test_kernel_matches_reference_on_sampled_pairs(pair):
    assert verdict(check_candidate(pair)) == verdict(
        reference_check_candidate(pair)
    )


@settings(max_examples=300, deadline=None)
@given(ordered_pairs())
def test_verdict_is_pid_swap_invariant(pair):
    a, b = pair
    assert verdict(check_candidate((a, b))) == verdict(check_candidate((b, a)))


def test_quotiented_search_keeps_class_order_and_mirrors_verdicts():
    verdicts = search_two_process_protocols(2, modes=1, symmetric=False)
    tables = tables_of(2, 1)
    assert [v.tables for v in verdicts] == [(a, b) for a in tables for b in tables]
    size = len(tables)
    for i in range(0, size, 7):
        for j in range(0, size, 5):
            assert verdict(verdicts[i * size + j]) == verdict(
                verdicts[j * size + i]
            )


@pytest.mark.parametrize(
    "values, modes, symmetric, census",
    [
        (2, 1, False, (4096, 2016, 4, 0)),
        (2, 2, True, (5184, 2478, 100, 0)),
        (3, 1, True, (5832, 2232, 192, 0)),
    ],
)
def test_class_census(values, modes, symmetric, census):
    verdicts = search_two_process_protocols(values, modes, symmetric)
    assert (
        len(verdicts),
        sum(v.mutual_exclusion for v in verdicts),
        sum(v.unfair_solution for v in verdicts),
        sum(v.fair_solution for v in verdicts),
    ) == census


def test_state_budget_still_raises():
    semaphore = ProtocolTable(2, 1, (("enter", 1), ("stay", 0, 1)), (0, 0))
    assert verdict(check_candidate((semaphore, semaphore))) == (True, True, False)
    with pytest.raises(SearchBudgetExceeded):
        reference_check_candidate((semaphore, semaphore), max_states=2)
    with pytest.raises(SearchBudgetExceeded):
        check_candidate((semaphore, semaphore), max_states=2)
