"""Partial-synchrony consensus (§2.2.4, DLS [46]).

Everything runs on the GST engine (:mod:`repro.circumvention.gst`).
The first half checks runs under seeded pre-GST message loss, GST at a
fixed round and crashes as ``("down", 0, pid)`` atoms, and the engine's
fault contract; the second half drives ``("gst", g)`` / ``("delay", r,
link, d)`` adversary atoms directly —
hypothesis safety on every seed, byte-identical replay, and the provable
pre-GST stall exiting via a structured
:class:`~repro.core.budget.BudgetExceeded` receipt.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.circumvention import blackout_atoms, run_gst_consensus
from repro.core import ModelError
from repro.core.budget import Budget, BudgetExceeded
from repro.core.runtime import replay

#: rounds a run may take
MAX_ROUNDS = 40


def lossy_run(inputs, t, seed, gst=None, crashed=()):
    """DLS consensus under seeded loss: before round ``gst`` (never, for
    ``None``) each directed link's message is delayed past its round with
    probability 1/2; ``crashed`` processes are down from round 0."""
    n = len(inputs)
    rng = random.Random(seed)
    atoms = [] if gst is None else [("gst", gst)]
    atoms += [
        ("delay", r, (src, dst), 1)
        for r in range(MAX_ROUNDS if gst is None else gst)
        for src in range(n)
        for dst in range(n)
        if src != dst and rng.random() < 0.5
    ]
    atoms += [("down", 0, pid) for pid in sorted(crashed)]
    return run_gst_consensus(
        atoms, seed, inputs=inputs, t=t, max_rounds=MAX_ROUNDS
    )


def live_decisions(run):
    return [v for p, v in run.decisions.items() if p not in run.crashed]


def agreement(run):
    return len({v for v in live_decisions(run) if v is not None}) <= 1


def all_live_decided(run):
    return None not in live_decisions(run)


class TestSafety:
    def test_sweep_finds_no_violations(self):
        for seed in range(30):
            inputs = tuple((seed + i) % 2 for i in range(4))
            assert agreement(lossy_run(inputs, 1, seed))
            assert agreement(lossy_run(inputs, 1, seed, gst=3))

    @pytest.mark.parametrize("seed", range(15))
    def test_safety_without_stabilization(self, seed):
        """Never-GST runs may not decide, but never disagree."""
        assert agreement(lossy_run((0, 1, 1, 0), 1, seed))

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 10_000), st.tuples(*[st.integers(0, 1)] * 5))
    def test_safety_property(self, seed, inputs):
        assert agreement(lossy_run(inputs, 2, seed))


class TestLiveness:
    @pytest.mark.parametrize("seed", range(10))
    def test_decides_after_gst(self, seed):
        run = lossy_run((0, 1, 1, 0), 1, seed, gst=2)
        assert all_live_decided(run)
        assert agreement(run)

    def test_decides_despite_crashes(self):
        run = lossy_run((1, 1, 0, 0, 1), 2, 2, gst=3, crashed=(4, 3))
        assert all_live_decided(run)
        assert agreement(run)

    def test_crashed_coordinator_is_rotated_past(self):
        """Crashing process 0 (the first coordinator) only delays things."""
        run = lossy_run((1, 0, 1, 0, 1), 2, 9, gst=1, crashed=(0,))
        assert all_live_decided(run)

    def test_decision_is_prompt_after_gst(self):
        gst, n = 2, 4
        run = lossy_run((1, 1, 0, 0), 1, 1, gst=gst)
        # Within a coordinator rotation of GST.
        assert run.rounds <= gst + 1 + n


class TestValidity:
    @pytest.mark.parametrize("v", [0, 1])
    def test_unanimous_inputs_decide_that_value(self, v):
        run = lossy_run((v,) * 4, 1, 3, gst=1)
        assert {d for d in run.decisions.values() if d is not None} == {v}


class TestContract:
    def test_requires_majority_correct(self):
        with pytest.raises(ModelError):
            run_gst_consensus((), 0, inputs=(0, 1, 0, 1), t=2)

    def test_rejects_too_many_crashes(self):
        """Down atoms past the fault bound ``t`` are not honoured."""
        run = lossy_run((0, 1, 0, 1), 1, 0, gst=1, crashed=(0, 1))
        assert run.crashed == (0,)
        assert all_live_decided(run)


# ---------------------------------------------------------------------------
# GST engine: adversary atoms as first-class schedule elements
# ---------------------------------------------------------------------------

#: partial-synchrony schedules: a GST point plus per-round link delays
_delay_atoms = st.lists(
    st.tuples(
        st.just("delay"),
        st.integers(0, 12),
        st.tuples(st.integers(0, 3), st.integers(0, 3)),
        st.integers(1, 3),
    ),
    max_size=10,
)


class TestAtomSafety:
    @settings(max_examples=30, deadline=None)
    @given(
        st.integers(0, 10_000),
        st.integers(1, 12),
        _delay_atoms,
        st.tuples(*[st.integers(0, 1)] * 4),
    )
    def test_agreement_on_every_seed_and_schedule(
        self, seed, gst, delays, inputs
    ):
        atoms = (("gst", gst),) + tuple(delays)
        run = run_gst_consensus(atoms, seed, inputs=inputs, t=1)
        decided = {
            v
            for p, v in run.decisions.items()
            if v is not None and p not in run.crashed
        }
        assert len(decided) <= 1
        assert decided <= set(inputs)

    @settings(max_examples=15, deadline=None)
    @given(st.integers(0, 10_000), st.integers(0, 1))
    def test_unanimous_validity(self, seed, v):
        run = run_gst_consensus(
            (("gst", 2),), seed, inputs=(v,) * 4, t=1
        )
        assert {d for d in run.decisions.values() if d is not None} == {v}


class TestAtomLiveness:
    def test_blackout_decides_first_post_gst_rotation(self):
        """Total silence until GST, then a full rotation suffices."""
        gst = 6
        run = run_gst_consensus(blackout_atoms(gst, 4), 0, t=1)
        assert all(v is not None for v in run.decisions.values())
        assert gst <= run.rounds <= gst + 4

    def test_replay_is_byte_identical(self):
        run = run_gst_consensus(
            blackout_atoms(5, 4) + (("down", 0, 3),), 11, t=1
        )
        assert replay(run.trace).fingerprint() == run.trace.fingerprint()


class TestProvableStall:
    def test_pre_gst_stall_exits_via_structured_receipt(self):
        """Before GST nothing can decide: the budget receipt proves it."""
        gst, n = 8, 4
        budget_steps = n * gst - n  # exhausted strictly before GST
        with pytest.raises(BudgetExceeded) as exc_info:
            run_gst_consensus(
                blackout_atoms(gst, n),
                0,
                t=1,
                meter=Budget(max_steps=budget_steps).meter("gst-stall"),
            )
        receipt = exc_info.value
        assert receipt.resource == "steps"
        assert receipt.spent > receipt.limit

    def test_own_budget_returns_resumable_partial(self):
        gst, n = 8, 4
        partial = run_gst_consensus(
            blackout_atoms(gst, n), 0, t=1,
            budget=Budget(max_steps=n * 2),
        )
        assert not partial.complete
        assert partial.interrupted is not None
        assert all(v is None for v in partial.decisions.values())
        resumed = run_gst_consensus((), resume=partial)
        assert resumed.complete
        assert all(v is not None for v in resumed.decisions.values())
        # The finished trace matches an uninterrupted run byte-for-byte.
        whole = run_gst_consensus(blackout_atoms(gst, n), 0, t=1)
        assert resumed.trace.fingerprint() == whole.trace.fingerprint()


class TestAtomContract:
    def test_rejects_overpowered_fault_bound(self):
        with pytest.raises(ModelError):
            run_gst_consensus((("gst", 2),), 0, inputs=(0, 1, 0, 1), t=2)
