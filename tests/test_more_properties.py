"""Second property-based suite: randomized structures against the theorems.

Generates random *valid* distributed computations, adversary scripts and
input vectors, and checks the library's invariants hold across them —
the clock-condition biconditional, authenticated-agreement robustness,
and partial-synchrony validity.
"""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.clocks import (
    Computation,
    Event,
    check_clock_condition,
    check_vector_condition,
)
from repro.consensus import DolevStrong, ScriptedByzantine, run_synchronous


def random_computation(seed: int, processes=("p", "q", "r"), steps: int = 12
                       ) -> Computation:
    """Build a random valid computation: local events, sends, and receives
    of previously sent (not yet received) messages."""
    rng = random.Random(seed)
    counters = {p: 0 for p in processes}
    in_flight = []
    events = []
    message_id = 0
    for _ in range(steps):
        p = rng.choice(processes)
        deliverable = [m for m in in_flight if m[1] != p]
        kind = rng.choice(
            ["local", "send"] + (["recv"] if deliverable else [])
        )
        if kind == "local":
            events.append(Event(p, counters[p], "local"))
        elif kind == "send":
            message_id += 1
            events.append(Event(p, counters[p], "send", f"m{message_id}"))
            in_flight.append((f"m{message_id}", p))
        else:
            mid, _src = deliverable[rng.randrange(len(deliverable))]
            in_flight.remove((mid, _src))
            events.append(Event(p, counters[p], "recv", mid))
        counters[p] += 1
    return Computation(events)


class TestClockTheorems:
    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 10_000))
    def test_lamport_condition_on_random_computations(self, seed):
        assert check_clock_condition(random_computation(seed))

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 10_000))
    def test_vector_biconditional_on_random_computations(self, seed):
        assert check_vector_condition(random_computation(seed))

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 10_000))
    def test_happens_before_is_a_strict_partial_order(self, seed):
        c = random_computation(seed, steps=10)
        events = c.events
        for a in events:
            assert not c.happens_before(a, a)
            for b in events:
                if c.happens_before(a, b):
                    assert not c.happens_before(b, a)
                    for d in events:
                        if c.happens_before(b, d):
                            assert c.happens_before(a, d)


def random_script(seed: int, n: int, rounds: int, faulty: int):
    """A random signature-respecting Byzantine script for Dolev–Strong:
    the faulty sender signs arbitrary values; silence is also allowed."""
    rng = random.Random(seed)
    script = {}
    for dest in range(n):
        if dest == faulty:
            continue
        if rng.random() < 0.8:
            value = rng.randrange(2)
            script[(1, faulty, dest)] = frozenset({(value, (faulty,))})
    return script


class TestAuthenticatedAgreementProperty:
    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 10_000))
    def test_dolev_strong_agreement_under_random_sender_scripts(self, seed):
        """Whatever single-signature chains a faulty sender distributes,
        the honest processes agree."""
        n, t = 4, 1
        adversary = ScriptedByzantine([0], random_script(seed, n, t + 1, 0))
        run = run_synchronous(DolevStrong(), [0] * n, adversary=adversary, t=t)
        assert run.agreement_holds()
        assert run.all_honest_decided()


class TestPartialSynchronyProperty:
    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 10_000), st.integers(0, 1))
    def test_dls_unanimous_validity(self, seed, v):
        from repro.chaos.generators import random_gst_atoms
        from repro.circumvention import run_gst_consensus

        atoms = random_gst_atoms(random.Random(seed), n=4)
        run = run_gst_consensus(atoms, seed, inputs=(v,) * 4, t=1)
        decided = {d for d in run.decisions.values() if d is not None}
        assert decided <= {v}


class TestRenamingVsSnapshotIntegration:
    @settings(max_examples=20, deadline=None)
    @given(st.integers(0, 200))
    def test_snapshot_histories_linearizable_under_random_mixes(self, seed):
        from repro.registers import (
            RegisterSpace,
            SnapshotObject,
            check_snapshot_history,
            initial_registers,
            run_concurrent,
        )

        rng = random.Random(seed)
        n = 3
        obj = SnapshotObject(n)
        space = RegisterSpace(initial_registers(n))
        ops = []
        for p in range(n):
            for k in range(rng.randrange(1, 3)):
                if rng.random() < 0.6:
                    ops.append(obj.update_op(f"p{p}", p, f"v{p}.{k}"))
                else:
                    ops.append(obj.scan_op(f"p{p}"))
        history = run_concurrent(space, ops, seed=seed)
        assert check_snapshot_history(history, n) is not None
