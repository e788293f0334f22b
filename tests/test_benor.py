"""Ben-Or randomized consensus: safety on every seed, liveness w.p. 1.

Everything runs on the runtime engine (:mod:`repro.circumvention.
randomized`).  The first half checks seeded schedules, crash plans as
``("crash", event, pid)`` atoms, the decision rate over mixed inputs
with a crash, and the engine's fault contract; the second half
exercises ``(atoms, seed)`` coordinates directly — hypothesis
properties for agreement/validity on every seed, byte-identical replay,
and bit-identical expected-round sweeps at any worker count.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.circumvention import expected_rounds, run_ben_or_traced
from repro.core import ModelError
from repro.core.runtime import replay

#: an event cap far past any terminating run's length
MAX_EVENTS = 200_000


def _live(run):
    return [p for p in run.decisions if p not in run.crashed]


class TestSafety:
    @pytest.mark.parametrize("seed", range(15))
    def test_agreement_under_random_schedules(self, seed):
        run = run_ben_or_traced(
            (), seed, t=1, inputs=(0, 1, seed % 2), max_events=MAX_EVENTS
        )
        assert run.agreement

    @pytest.mark.parametrize("seed", range(10))
    def test_agreement_with_crash(self, seed):
        atoms = (("crash", 7 * seed + 1, 3), ("crash", 3 * seed, 4))
        run = run_ben_or_traced(
            atoms, seed, t=2, inputs=(0, 1, 0, 1, 1), max_events=MAX_EVENTS
        )
        assert run.agreement

    def test_validity_unanimous_inputs(self):
        for v in (0, 1):
            run = run_ben_or_traced(
                (), 9, t=1, inputs=(v,) * 4, max_events=MAX_EVENTS
            )
            assert run.validity
            assert all(run.decisions[p] == v for p in _live(run))

    def test_unanimous_decides_in_first_phase(self):
        run = run_ben_or_traced(
            (), 3, t=1, inputs=(1, 1, 1, 1), max_events=MAX_EVENTS
        )
        assert all(run.phases[p] == 1 for p in _live(run))


class TestLiveness:
    def test_high_decision_rate(self):
        """Mixed inputs, the last process crashing at a varying event:
        nearly every seeded run still decides."""
        trials = 30
        decided = 0
        for trial in range(trials):
            inputs = tuple((trial + i) % 2 for i in range(4))
            run = run_ben_or_traced(
                (("crash", 10 * (trial % 5), 3),), trial, t=1,
                inputs=inputs, max_events=MAX_EVENTS,
            )
            decided += all(run.decisions[p] is not None for p in _live(run))
        assert decided / trials >= 0.9

    def test_reproducible(self):
        a = run_ben_or_traced((), 42, t=1, inputs=(0, 1, 1))
        b = run_ben_or_traced((), 42, t=1, inputs=(0, 1, 1))
        assert a.decisions == b.decisions
        assert a.events == b.events

    def test_different_seeds_vary_schedule(self):
        events = {
            run_ben_or_traced((), s, t=1, inputs=(0, 1, 1)).events
            for s in range(6)
        }
        assert len(events) > 1


class TestContract:
    def test_rejects_overpowered_adversary(self):
        """Crash atoms past the fault bound ``t`` are not honoured."""
        atoms = (("crash", 1, 0), ("crash", 2, 1))
        run = run_ben_or_traced(atoms, 0, t=1, inputs=(0, 1, 1))
        assert run.crashed == (0,)
        assert run.agreement

    def test_rejects_wrong_input_count(self):
        """The inputs fix ``n``: two of them cannot tolerate ``t = 1``."""
        with pytest.raises(ModelError):
            run_ben_or_traced((), 0, n=3, t=1, inputs=(0, 1))


# ---------------------------------------------------------------------------
# Runtime engine: (atoms, seed) coordinates
# ---------------------------------------------------------------------------

#: adversary schedules drawn as atoms: a script prefix plus crash atoms
_scripts = st.lists(st.integers(0, 31), max_size=12)
_crashes = st.lists(
    st.tuples(
        st.just("crash"), st.integers(0, 40), st.integers(0, 3)
    ),
    max_size=2,
)


class TestRuntimeSafety:
    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 10_000), st.tuples(*[st.integers(0, 1)] * 4))
    def test_agreement_and_validity_on_every_seed(self, seed, inputs):
        run = run_ben_or_traced((), seed, t=1, inputs=inputs)
        assert run.agreement
        assert run.validity

    @settings(max_examples=30, deadline=None)
    @given(_scripts, _crashes, st.integers(0, 10_000))
    def test_safety_under_adversarial_atoms(self, script, crashes, seed):
        atoms = tuple(script) + tuple(crashes)
        run = run_ben_or_traced(atoms, seed, t=1, inputs=(0, 1, 0, 1))
        assert run.agreement
        assert run.validity

    @settings(max_examples=20, deadline=None)
    @given(st.integers(0, 10_000), st.integers(0, 1))
    def test_unanimous_inputs_decide_that_value(self, seed, v):
        run = run_ben_or_traced((), seed, t=1, inputs=(v,) * 4)
        live = [p for p in run.decisions if p not in run.crashed]
        assert all(run.decisions[p] in (None, v) for p in live)

    def test_biased_coin_is_safe_but_never_terminates(self):
        """The planted bug: anti-correlated coins re-split every phase."""
        run = run_ben_or_traced(
            (), 0, t=1, inputs=(0, 1, 0, 1), biased_coin=True,
            max_events=400,
        )
        assert run.agreement and run.validity  # safety is coin-independent
        assert all(v is None for v in run.decisions.values())


class TestRuntimeReplay:
    @settings(max_examples=20, deadline=None)
    @given(st.integers(0, 10_000))
    def test_replay_is_byte_identical(self, seed):
        run = run_ben_or_traced((3, 1, 4, 1, 5), seed, t=1,
                                inputs=(0, 1, 0, 1))
        fresh = replay(run.trace)  # raises ReplayDivergence on mismatch
        assert fresh.fingerprint() == run.trace.fingerprint()

    def test_crash_atoms_replay(self):
        atoms = (2, 7, ("crash", 3, 1))
        run = run_ben_or_traced(atoms, 5, t=1, inputs=(1, 0, 1, 0))
        assert run.crashed == (1,)
        assert replay(run.trace).fingerprint() == run.trace.fingerprint()


class TestExpectedRounds:
    def test_sweep_terminates_and_is_clean(self):
        sweep = expected_rounds(40, master_seed=0)
        assert sweep.violations == ()
        assert sweep.ok(min_termination=0.9)
        assert sweep.ci_low <= sweep.mean_rounds <= sweep.ci_high

    @settings(max_examples=5, deadline=None)
    @given(st.integers(0, 1000))
    def test_sharded_sweep_is_bit_identical(self, master_seed):
        solo = expected_rounds(24, master_seed, workers=1)
        duo = expected_rounds(24, master_seed, workers=2)
        assert solo == duo  # frozen dataclass: bit-for-bit equality

    def test_three_workers_match_too(self):
        assert expected_rounds(30, 7, workers=1) == expected_rounds(
            30, 7, workers=3
        )

    def test_biased_coin_sweep_reports_zero_termination(self):
        sweep = expected_rounds(10, 0, biased_coin=True, max_events=300)
        assert sweep.termination_rate == 0.0
        assert sweep.violations == ()  # still safe on every seed
        assert not sweep.ok()

    def test_rejects_unknown_confidence(self):
        with pytest.raises(ValueError):
            expected_rounds(10, 0, confidence=0.42)
