"""Tests for schedulers: fairness, reproducibility, replay."""

import os
import subprocess
import sys

import pytest

from repro.core import (
    ExecutionError,
    FixedScheduler,
    GreedyScheduler,
    RandomScheduler,
    RoundRobinScheduler,
    Signature,
    TableAutomaton,
)


def two_clocks():
    """Two independent ticking clocks; fairness should advance both."""
    sig = Signature(internals=frozenset({("tick", 0), ("tick", 1)}))
    transitions = {}
    for a in range(10):
        for b in range(10):
            if a < 9:
                transitions[((a, b), ("tick", 0))] = [(a + 1, b)]
            if b < 9:
                transitions[((a, b), ("tick", 1))] = [(a, b + 1)]
    return TableAutomaton(
        sig,
        initial=[(0, 0)],
        transitions=transitions,
        tasks=[{("tick", 0)}, {("tick", 1)}],
        name="two-clocks",
    )


class TestRoundRobin:
    def test_advances_every_task(self):
        auto = two_clocks()
        execution = RoundRobinScheduler(auto).run(auto, max_steps=10)
        a, b = execution.last_state
        assert a == 5 and b == 5  # perfectly alternating

    def test_skips_disabled_tasks(self):
        auto = two_clocks()
        sched = RoundRobinScheduler(auto)
        execution = sched.run(auto, max_steps=30)
        assert execution.last_state == (9, 9)  # both run to completion

    def test_stop_when(self):
        auto = two_clocks()
        execution = RoundRobinScheduler(auto).run(
            auto, max_steps=100, stop_when=lambda s: s[0] >= 3
        )
        assert execution.last_state[0] == 3


class TestRandomScheduler:
    def test_same_seed_same_run(self):
        auto = two_clocks()
        e1 = RandomScheduler(seed=7).run(auto, max_steps=12)
        e2 = RandomScheduler(seed=7).run(auto, max_steps=12)
        assert e1.actions == e2.actions

    def test_different_seeds_usually_differ(self):
        auto = two_clocks()
        runs = {
            RandomScheduler(seed=s).run(auto, max_steps=12).actions
            for s in range(8)
        }
        assert len(runs) > 1


class TestGreedyScheduler:
    def test_maximizes_score(self):
        auto = two_clocks()
        # Adversary that always advances clock 0.
        adversary = GreedyScheduler(
            lambda execution, action: 1.0 if action == ("tick", 0) else 0.0
        )
        execution = adversary.run(auto, max_steps=9)
        assert execution.last_state == (9, 0)


class TestFixedScheduler:
    def test_replays_schedule(self):
        auto = two_clocks()
        schedule = [("tick", 1), ("tick", 1), ("tick", 0)]
        execution = FixedScheduler(schedule).run(auto, max_steps=3)
        assert execution.last_state == (1, 2)

    def test_rejects_disabled_action(self):
        auto = two_clocks()
        sig = [("tick", 0)] * 10  # clock 0 saturates at 9
        with pytest.raises(ExecutionError):
            FixedScheduler(sig).run(auto, max_steps=10)

    def test_exhausted_schedule_raises(self):
        auto = two_clocks()
        with pytest.raises(ExecutionError):
            FixedScheduler([("tick", 0)]).run(auto, max_steps=5)


_ORDER_PROBE = """\
from itertools import combinations
from repro.core.scheduler import ScriptedIndexScheduler
options = [("grant", frozenset(pair)) for pair in combinations("abcdef", 2)]
scheduler = ScriptedIndexScheduler(range(len(options)))
print([sorted(scheduler.choose(None, options)[1]) for _ in options])
print(sorted(map(repr, options)))
"""


def _outputs_under_hash_seeds(probe, hashseeds=("0", "1")):
    """The stdout lines of ``probe`` run under each of ``hashseeds``."""
    outputs = []
    for hashseed in hashseeds:
        env = dict(os.environ, PYTHONHASHSEED=hashseed)
        proc = subprocess.run(
            [sys.executable, "-c", probe],
            capture_output=True, text=True, env=env, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        outputs.append(proc.stdout.splitlines())
    return outputs


def test_option_order_independent_of_pythonhashseed():
    """Options holding a string set are ordered by their canonical text,
    so a scripted index picks the same option under every hash seed —
    while the raw ``repr`` order of the same options does move."""
    chosen, reprs = set(), set()
    for order, raw in _outputs_under_hash_seeds(_ORDER_PROBE):
        chosen.add(order)
        reprs.add(raw)
    assert len(chosen) == 1, "option order varies with PYTHONHASHSEED"
    assert len(reprs) > 1, "the hash seeds never reordered a repr"


_SET_KEY_PROBE = """\
from itertools import combinations
from repro.clocks.logical import Computation, Event
from repro.impossibility.certificate import BoundCertificate
from repro.shared_memory.mutex.base import MutexSystem
from repro.shared_memory.mutex.dijkstra import DijkstraProcess
names = [frozenset(pair) for pair in combinations("abcdef", 2)]
rank = {name: i for i, name in enumerate(names)}
summary = BoundCertificate("claim", "counting", series=rank).summary()
print(summary.splitlines()[1:])
processes = Computation([Event(name, 0, "local") for name in names]).processes
print([rank[name] for name in processes])
racers = [frozenset(pair) for pair in ("ad", "bc", "ae")]
log = []
class Logged(MutexSystem):
    def apply(self, state, action):
        log.append((action[0], racers.index(action[1])))
        return super().apply(state, action)
Logged(
    [DijkstraProcess(name, i, 3) for i, name in enumerate(racers)],
    initial_memory={"flag0": 0, "flag1": 0, "flag2": 0, "turn": 0},
).measure_bypass(racers[0], steps=40, seeds=[0])
print(log)
print(sorted(map(repr, names + racers)))
"""


def test_set_keyed_sorts_independent_of_pythonhashseed():
    """A bound certificate's summary, a computation's processes and the
    mutex bypass run's enabled actions are ordered by canonical text, so
    string-set keys come out in the same order under every hash seed;
    the summary also writes each point as its canonical text."""
    (*first, raw0), (*second, raw1) = _outputs_under_hash_seeds(
        _SET_KEY_PROBE
    )
    assert first == second, "a set-keyed order varies with PYTHONHASHSEED"
    assert raw0 != raw1, "the hash seeds never reordered a repr"


_PROGRAM_NAME_PROBE = """\
from repro.registers.herlihy import (
    ObjectConsensusSystem, ProgramConsensus, wait_free_verdict,
)
program = ("write", "own", ("decide", "own"))
protocol = ProgramConsensus(program)
print(protocol.name)
print(wait_free_verdict(ObjectConsensusSystem(protocol, 2)).protocol_name)
print(hash(program) & 0xFFFF)
"""


def test_program_consensus_name_independent_of_pythonhashseed():
    """A program protocol is named from the program's canonical text, so
    one program gets one name under every hash seed, while its ``hash``
    does move."""
    outputs = _outputs_under_hash_seeds(_PROGRAM_NAME_PROBE, ("0", "1", "2"))
    names = {name for lines in outputs for name in lines[:2]}
    assert len(names) == 1, "a ProgramConsensus name varies with PYTHONHASHSEED"
    assert len({lines[2] for lines in outputs}) > 1, (
        "the hash seeds never moved the program's hash"
    )
