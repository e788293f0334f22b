"""The E1 decision-tree walk checked against the checks it replaced
(``tests/mutex_reference.py``).

On every candidate compared, ``check_candidate`` and the search must give
the generic reference's (mutual exclusion, deadlock-free, lockout-free)
verdict; on the three classes the survey's claim rests on, the search's
verdict lists must equal the eager per-pair search's and keep their
census; the verdict must not change under the pid swap; the decision
trees keep their leaf counts; and the certificate's leaf-weighted counts
must be the materialized search's.
"""

import functools
import importlib
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.errors import ModelError, SearchBudgetExceeded
from repro.shared_memory import (
    ProtocolTable,
    check_candidate,
    cremers_hibbard_certificate,
    enumerate_protocol_tables,
    search_two_process_protocols,
)
from repro.shared_memory.lower_bounds import _decision_leaves, _layout

from .mutex_reference import (
    eager_check_candidate,
    eager_search,
    reference_check_candidate,
    reference_search,
)

CLASSES = ((2, 1), (2, 2), (3, 1))
SEARCHED = ((2, 1, False), (2, 2, True), (3, 1, True))


def verdict(v):
    return v.mutual_exclusion, v.deadlock_free, v.lockout_free


@functools.lru_cache(maxsize=None)
def tables_of(values, modes):
    return tuple(enumerate_protocol_tables(values, modes))


@functools.lru_cache(maxsize=None)
def searched(values, modes, symmetric):
    return tuple(search_two_process_protocols(values, modes, symmetric))


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


@pytest.mark.parametrize("values, modes, symmetric", SEARCHED)
def test_search_matches_eager_reference(values, modes, symmetric):
    lazy = searched(values, modes, symmetric)
    eager = eager_search(values, modes, symmetric)
    assert [v.tables for v in lazy] == [v.tables for v in eager]
    assert [verdict(v) for v in lazy] == [verdict(v) for v in eager]


@st.composite
def searched_candidates(draw):
    values, modes, symmetric = draw(st.sampled_from(SEARCHED))
    verdicts = searched(values, modes, symmetric)
    return verdicts[draw(st.integers(0, len(verdicts) - 1))]


@settings(max_examples=150, deadline=None)
@given(searched_candidates())
def test_search_matches_reference_on_sampled_candidates(candidate):
    assert verdict(candidate) == verdict(
        reference_check_candidate(candidate.tables)
    )


@pytest.mark.parametrize(
    "values, modes, symmetric, leaves, candidates",
    [(2, 1, False, 462, 4096), (2, 2, True, 792, 5184), (3, 1, True, 224, 5832)],
)
def test_decision_tree_leaf_counts(values, modes, symmetric, leaves, candidates):
    tree = _decision_leaves(values, modes, symmetric)
    assert len(tree) == leaves
    # The leaves partition the class: their candidate counts add up.
    options, _reads = _layout(values, modes, modes, shared=symmetric)
    assert sum(
        math.prod(len(options[i]) for i, digit in enumerate(digits) if digit < 0)
        for digits, _verdict in tree
    ) == candidates


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


@pytest.mark.parametrize(
    "values, modes, symmetric", SEARCHED + ((2, 1, True),)
)
def test_certificate_counts_match_the_materialized_search(values, modes, symmetric):
    # The certificate weighs each decision-tree leaf by its free digits'
    # radices; the search hands every candidate its leaf's verdict.
    cert = cremers_hibbard_certificate(values, modes, symmetric)
    verdicts = searched(values, modes, symmetric)
    assert cert.candidates_checked == len(verdicts)
    assert cert.details == {
        "mutual_exclusion_holders": sum(v.mutual_exclusion for v in verdicts),
        "unfair_solutions": sum(v.unfair_solution for v in verdicts),
        "fair_solutions": sum(v.fair_solution for v in verdicts),
    }


def test_state_budget_still_raises():
    semaphore = ProtocolTable(2, 1, (("enter", 1), ("stay", 0, 1)), (0, 0))
    assert verdict(check_candidate((semaphore, semaphore))) == (True, True, False)
    with pytest.raises(SearchBudgetExceeded):
        reference_check_candidate((semaphore, semaphore), max_states=2)
    with pytest.raises(SearchBudgetExceeded):
        eager_check_candidate((semaphore, semaphore), max_states=2)
    with pytest.raises(SearchBudgetExceeded):
        check_candidate((semaphore, semaphore), max_states=2)
    with pytest.raises(SearchBudgetExceeded):
        _decision_leaves(2, 1, False, max_states=2)


def test_candidate_limit_raises_before_walking(monkeypatch):
    module = importlib.import_module("repro.shared_memory.lower_bounds")

    def no_walk(*_args, **_kwargs):
        raise AssertionError("walked a class above the candidate limit")

    monkeypatch.setattr(module, "_walk", no_walk)
    with pytest.raises(ModelError, match="5832 candidates"):
        search_two_process_protocols(3, 1, symmetric=True, max_candidates=5831)
