"""Rotating consensus as the DLS engine under a suspicion oracle, checked
against the engine it replaced (``tests/rotating_reference.py``).

On random suspicion schedules the merged engine must reach the same
first decision — same round, same value — as the old one, bring every
process to that value (processes that suspected the deciding coordinator
learn it by relay, one round later at most), and, under a relentless
full coalition, overdraw the same step budget at the same step.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.circumvention import run_rotating_consensus
from repro.core.budget import Budget, BudgetExceeded
from repro.core.runtime import DECIDE

from .rotating_reference import DECIDE as REF_DECIDE
from .rotating_reference import run_reference


@st.composite
def suspicion_schedules(draw):
    n = draw(st.sampled_from((3, 4, 5)))
    inputs = tuple(draw(st.lists(st.integers(0, 1), min_size=n, max_size=n)))
    scripted = draw(
        st.lists(
            st.tuples(st.just("suspect"), st.integers(0, 12),
                      st.integers(0, n - 1)),
            max_size=30,
        )
    )
    relentless = draw(st.sets(st.integers(0, n - 1), max_size=n - 1))
    atoms = tuple(scripted) + tuple(("relentless", p) for p in relentless)
    return n, inputs, atoms


@settings(max_examples=300, deadline=None)
@given(suspicion_schedules())
def test_same_first_decision_and_everyone_learns_it(case):
    n, inputs, atoms = case
    ref = run_reference(atoms, inputs)
    run = run_rotating_consensus(atoms, 0, inputs=inputs)
    assert run.complete
    ref_first = next(
        ((r, value) for r, _p, kind, value in ref.events if kind == REF_DECIDE),
        None,
    )
    first = next(
        ((e.round, e.payload) for e in run.trace.events if e.kind == DECIDE),
        None,
    )
    assert first == ref_first
    assert run.decided == ref.decided
    if ref.decided is None:
        assert run.rounds == ref.rnd
    else:
        decisions = dict(run.trace.outcome_dict()["decisions"])
        assert set(decisions.values()) == {ref.decided}
        assert ref.rnd <= run.rounds <= ref.rnd + 1


@settings(max_examples=60, deadline=None)
@given(st.sampled_from((3, 4, 5)), st.integers(1, 3 * 63))
def test_relentless_coalition_stalls_at_the_same_step(n, max_steps):
    atoms = tuple(("relentless", p) for p in range(n))
    inputs = (0,) + (1,) * (n - 1)
    with pytest.raises(BudgetExceeded) as ref_exc:
        run_reference(atoms, inputs, meter=Budget(max_steps=max_steps).meter())
    with pytest.raises(BudgetExceeded) as exc:
        run_rotating_consensus(
            atoms, 0, inputs=inputs, meter=Budget(max_steps=max_steps).meter()
        )
    assert (exc.value.spent, exc.value.limit) == (
        ref_exc.value.spent, ref_exc.value.limit
    )
