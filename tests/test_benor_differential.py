"""The scan-free Ben-Or simulator checked against the scanning one it
replaced (``tests/benor_reference.py``).

The flight list no longer holds messages addressed to crashed processes,
so the adversary indexes it directly instead of a rebuilt list of
deliverable indices; ``done`` reads a counter of live undecided
processes, crashes wait on a next-crash cursor and a delivery drains
only the receiver's outbox.  On random schedules mixing delivery scripts
with crash atoms — and on crash-heavy ``n=5, t=2`` schedules — both must
produce the same trace fingerprint, decisions, phases, crashed set and
event count.
"""

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.circumvention.randomized import run_ben_or_traced

from .benor_reference import ReferenceBenOrSim, run_reference


@st.composite
def benor_cases(draw):
    n = draw(st.sampled_from((3, 4, 5)))
    t = draw(st.sampled_from(sorted({1, (n - 1) // 2})))
    inputs = tuple(draw(st.lists(st.integers(0, 1), min_size=n, max_size=n)))
    atoms = tuple(
        draw(
            st.lists(
                st.one_of(
                    st.integers(0, 60),
                    st.tuples(st.just("crash"), st.integers(0, 40),
                              st.integers(0, n - 1)),
                ),
                max_size=24,
            )
        )
    )
    biased = draw(st.booleans())
    max_events = draw(st.sampled_from((50, 400, 4000)))
    seed = draw(st.integers(0, 2**32 - 1))
    return atoms, seed, n, t, inputs, biased, max_events


def _observed(run):
    return (
        run.trace.fingerprint(),
        run.decisions,
        run.phases,
        run.crashed,
        run.events,
        run.complete,
    )


@settings(max_examples=150, deadline=None)
@given(benor_cases())
@example(((2, 0, ("crash", 0, 1), 5), 7, 4, 1, (0, 1, 0, 1), False, 400))
@example(((("crash", 3, 0), 1, 1, ("crash", 9, 4)), 0, 5, 2, (0, 1, 0, 1, 1),
          True, 4000))
def test_same_run_as_the_scanning_reference(case):
    atoms, seed, n, t, inputs, biased, max_events = case
    ref = run_reference(atoms, seed, n=n, t=t, inputs=inputs,
                        biased_coin=biased, max_events=max_events)
    run = run_ben_or_traced(atoms, seed, n=n, t=t, inputs=inputs,
                            biased_coin=biased, max_events=max_events)
    assert _observed(run) == _observed(ref)


def test_crash_with_messages_in_flight_to_the_victim():
    # The case the new flight list changes: when pid 1 crashes, messages
    # addressed to it are still queued in the reference simulator.
    atoms = (4, 0, 2, ("crash", 3, 1), 1, 3)
    coords = dict(n=4, t=1, inputs=(0, 1, 1, 0), biased_coin=False,
                  max_events=400)
    sim = ReferenceBenOrSim(atoms, 11, coords["n"], coords["t"],
                            coords["inputs"], False, 400)
    while sim.k < 3:
        sim.step()
    assert any(dst == 1 for _src, dst, _msg in sim.flight)
    ref = run_reference(atoms, 11, **coords)
    run = run_ben_or_traced(atoms, 11, **coords)
    assert 1 in run.crashed
    assert _observed(run) == _observed(ref)


@st.composite
def crash_heavy_cases(draw):
    # n=5, t=2 with mostly crash atoms, early: crashes land while the
    # first phases are in flight, often two of them at one step, and
    # the next-crash cursor must fire each one exactly on time.
    n, t = 5, 2
    crash = st.tuples(st.just("crash"), st.integers(0, 12),
                      st.integers(0, n - 1))
    atoms = tuple(
        draw(
            st.lists(
                st.one_of(crash, crash, crash, st.integers(0, 60)),
                min_size=1,
                max_size=12,
            )
        )
    )
    inputs = tuple(draw(st.lists(st.integers(0, 1), min_size=n, max_size=n)))
    biased = draw(st.booleans())
    max_events = draw(st.sampled_from((50, 400, 4000)))
    seed = draw(st.integers(0, 2**32 - 1))
    return atoms, seed, n, t, inputs, biased, max_events


@settings(max_examples=150, deadline=None)
@given(crash_heavy_cases())
@example(((("crash", 2, 4), ("crash", 2, 0), ("crash", 5, 3)), 3, 5, 2,
          (0, 1, 1, 0, 1), False, 4000))
def test_crash_heavy_runs_match_the_reference(case):
    atoms, seed, n, t, inputs, biased, max_events = case
    ref = run_reference(atoms, seed, n=n, t=t, inputs=inputs,
                        biased_coin=biased, max_events=max_events)
    run = run_ben_or_traced(atoms, seed, n=n, t=t, inputs=inputs,
                            biased_coin=biased, max_events=max_events)
    assert _observed(run) == _observed(ref)
    assert len(run.crashed) <= t
