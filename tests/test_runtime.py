"""The unified simulation runtime: one trace schema, one adversary
interface, seeded determinism across every model.

The contract under test: every substrate emits the same
:class:`~repro.core.runtime.TraceEvent` record schema, every run is a
deterministic function of ``(protocol, inputs, adversary, seed)``, and
:func:`~repro.core.runtime.replay` re-executes a trace and verifies the
re-run is byte-identical.
"""

import warnings

import pytest

from repro.asynchronous.flp import QuorumVote
from repro.asynchronous.network import AsyncConsensusSystem
from repro.consensus.floodset import FloodSet
from repro.consensus.synchronous import (
    CrashAdversary,
    SyncAdversary,
    run_synchronous,
)
from repro.core.runtime import (
    DECIDE,
    DECLARE,
    DELIVER,
    EVENT_KINDS,
    SEND,
    STEP,
    FaultAdversary,
    ReplayError,
    SimulationRuntime,
    Trace,
    TraceEvent,
    derive_seed,
    replay,
    spawn_rng,
)
from repro.core.scheduler import RandomScheduler
from repro.datalink.protocols import AlternatingBitReceiver, AlternatingBitSender
from repro.datalink.simulate import FairLossyScheduler, run_datalink
from repro.rings import (
    MaxTokenProtocol,
    itai_rodeh_election,
    lcr_election,
    run_lockstep,
)
from repro.shared_memory import run_system
from repro.shared_memory.mutex import peterson_system


# ---------------------------------------------------------------------------
# Schema
# ---------------------------------------------------------------------------


class TestTraceEventSchema:
    def test_fields(self):
        event = TraceEvent(step=3, actor="p1", kind=SEND, payload=("x",), round=2)
        assert event.step == 3
        assert event.actor == "p1"
        assert event.kind == SEND
        assert event.payload == ("x",)
        assert event.round == 2
        assert event.time is None

    def test_key_is_plain_tuple(self):
        event = TraceEvent(0, "a", DELIVER)
        assert event.key() == (0, "a", DELIVER, None, None, None)

    def test_kinds_are_closed_vocabulary(self):
        assert {SEND, DELIVER, DECIDE, DECLARE, STEP} <= EVENT_KINDS

    def test_trace_accessors(self):
        runtime = SimulationRuntime(substrate="s", protocol="p", seed=1)
        runtime.emit(SEND, "a", "m1")
        runtime.emit(DELIVER, "b", "m1")
        runtime.emit(DECIDE, "b", 1)
        trace = runtime.finish(outcome={"decided": 1})
        assert trace.steps == 3
        assert trace.messages_sent == 1
        assert trace.messages_delivered == 1
        assert [e.kind for e in trace.events_of(SEND, DELIVER)] == [SEND, DELIVER]
        assert [e.actor for e in trace.view("b")] == ["b", "b"]
        assert trace.outcome_dict() == {"decided": 1}


class TestDerivedSeeds:
    def test_stable_across_processes(self):
        # sha256-based: must not depend on PYTHONHASHSEED.
        assert derive_seed(0, "itai-rodeh", 1) == derive_seed(0, "itai-rodeh", 1)
        assert derive_seed("a", 1) != derive_seed("a", 2)

    def test_nonnegative_63_bit(self):
        for args in [(0,), ("x", 3), (1, 2, 3)]:
            seed = derive_seed(*args)
            assert 0 <= seed < 2**63

    def test_spawn_rng_decorrelates(self):
        import random

        parent = random.Random(7)
        child_a = spawn_rng(parent)
        child_b = spawn_rng(parent)
        assert child_a.random() != child_b.random()


class TestFaultAdversaryDefaults:
    def test_no_powers_by_default(self):
        adversary = FaultAdversary()
        assert not adversary.is_faulty("p")
        assert adversary.transform(1, 0, 1, "msg") == "msg"

    def test_schedule_uses_rng_when_available(self):
        import random

        adversary = FaultAdversary()
        picks = {adversary.schedule(["a", "b", "c"], random.Random(s)) for s in range(20)}
        assert picks == {0, 1, 2}
        assert adversary.schedule(["a", "b", "c"], None) == 0


# ---------------------------------------------------------------------------
# Determinism: same (protocol, inputs, adversary, seed) => identical trace
# ---------------------------------------------------------------------------


def _sync_run(record=True):
    adversary = CrashAdversary({0: (1, (2,))})
    return run_synchronous(
        FloodSet(), [0, 1, 1, 0], adversary=adversary, t=1, record_trace=record
    )


class TestDeterminism:
    def test_synchronous(self):
        a, b = _sync_run().trace, _sync_run().trace
        assert a.events == b.events
        assert a.fingerprint() == b.fingerprint()
        assert a.canonical_bytes() == b.canonical_bytes()

    def test_async_network(self):
        system = AsyncConsensusSystem(QuorumVote(), 3)
        a = system.run_fair_traced((0, 1, 1), seed=5).trace
        b = system.run_fair_traced((0, 1, 1), seed=5).trace
        assert a.fingerprint() == b.fingerprint()
        assert system.run_fair_traced((0, 1, 1), seed=6).trace.fingerprint() != \
            a.fingerprint()

    def test_async_ring(self):
        a = lcr_election([3, 1, 4, 1, 5], seed=2).trace
        b = lcr_election([3, 1, 4, 1, 5], seed=2).trace
        assert a.fingerprint() == b.fingerprint()

    def test_sync_ring(self):
        from repro.rings import timeslice_election

        a = timeslice_election([2, 5, 3]).trace
        b = timeslice_election([2, 5, 3]).trace
        assert a.fingerprint() == b.fingerprint()

    def test_lockstep_ring(self):
        a = run_lockstep(MaxTokenProtocol(), 6, 40).trace
        b = run_lockstep(MaxTokenProtocol(), 6, 40).trace
        assert a.fingerprint() == b.fingerprint()

    def test_datalink(self):
        def run():
            return run_datalink(
                AlternatingBitSender(), AlternatingBitReceiver(),
                ["a", "b"], FairLossyScheduler(loss=0.2, seed=3),
            )

        assert run().trace.fingerprint() == run().trace.fingerprint()

    def test_shared_memory(self):
        system = peterson_system()
        start = next(iter(system.initial_states()))
        for action in sorted(system.signature.inputs, key=repr):
            start = system.step(start, action)

        def run():
            return run_system(
                system, scheduler=RandomScheduler(seed=4), start=start,
                max_steps=25,
            )

        assert run().trace.fingerprint() == run().trace.fingerprint()

    def test_randomized_ring_is_a_function_of_the_seed(self):
        a = itai_rodeh_election(5, seed=11)
        b = itai_rodeh_election(5, seed=11)
        assert a.trace.fingerprint() == b.trace.fingerprint()
        assert a.leaders == b.leaders


# ---------------------------------------------------------------------------
# Replay: re-execution reproduces the trace byte for byte
# ---------------------------------------------------------------------------


class TestReplay:
    def test_synchronous_round_trip(self):
        trace = _sync_run().trace
        assert trace.replayable
        replayed = replay(trace)
        assert replayed.fingerprint() == trace.fingerprint()
        assert replayed.events == trace.events

    def test_async_network_round_trip(self):
        system = AsyncConsensusSystem(QuorumVote(), 3)
        trace = system.run_fair_traced((1, 0, 1), seed=9, exclude={0}).trace
        assert replay(trace).outcome == trace.outcome

    def test_ring_round_trip(self):
        trace = lcr_election([7, 2, 9, 4], seed=1).trace
        assert replay(trace).fingerprint() == trace.fingerprint()

    def test_datalink_round_trip(self):
        sender_factory = AlternatingBitSender
        receiver_factory = AlternatingBitReceiver
        result = run_datalink(
            sender_factory(), receiver_factory(), ["x", "y"],
            FairLossyScheduler(loss=0.25, seed=8),
            sender_factory=sender_factory, receiver_factory=receiver_factory,
        )
        assert replay(result.trace).fingerprint() == result.trace.fingerprint()

    def test_shared_memory_round_trip(self):
        system = peterson_system()
        start = next(iter(system.initial_states()))
        for action in sorted(system.signature.inputs, key=repr):
            start = system.step(start, action)
        traced = run_system(
            system, scheduler=RandomScheduler(seed=2), start=start, max_steps=20
        )
        assert replay(traced.trace).fingerprint() == traced.trace.fingerprint()

    def test_lockstep_round_trip(self):
        trace = run_lockstep(MaxTokenProtocol(), 5, 30).trace
        assert replay(trace).fingerprint() == trace.fingerprint()

    def test_execution_round_trip(self):
        from repro.core import Execution

        system = peterson_system()
        start = next(iter(system.initial_states()))
        execution = Execution.run(
            system, sorted(system.signature.inputs, key=repr), start
        )
        trace = execution.to_trace()
        assert replay(trace).fingerprint() == trace.fingerprint()

    def test_unreplayable_trace_raises(self):
        trace = Trace(substrate="s", protocol="p", seed=0, events=())
        assert not trace.replayable
        with pytest.raises(ReplayError):
            replay(trace)

    def test_divergent_replay_raises(self):
        good = Trace(substrate="s", protocol="p", seed=0, events=())
        bad = Trace(
            substrate="s", protocol="p", seed=0,
            events=(TraceEvent(0, "a", SEND),),
            replayer=lambda: good,
        )
        with pytest.raises(ReplayError):
            replay(bad)

    def test_record_trace_false_skips_recording(self):
        run = _sync_run(record=False)
        assert run.trace is None


# ---------------------------------------------------------------------------
# The adversary name unification left no old import paths behind
# ---------------------------------------------------------------------------


class TestDeprecatedAliases:
    def test_star_imports_raise_no_warning(self):
        """Every ``__all__`` name resolves without a deprecation alias."""
        import importlib

        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for module in ("repro.consensus", "repro.core"):
                namespace = {}
                exec(f"from {module} import *", namespace)
                exported = importlib.import_module(module).__all__
                assert set(exported) <= set(namespace)

    def test_unknown_attribute_still_raises(self):
        import repro.core.scheduler as scheduler_module

        with pytest.raises(AttributeError):
            scheduler_module.no_such_name

    def test_everything_is_a_fault_adversary(self):
        from repro.core.scheduler import Scheduler
        from repro.datalink.simulate import ChannelAdversary

        assert issubclass(SyncAdversary, FaultAdversary)
        assert issubclass(ChannelAdversary, FaultAdversary)
        assert issubclass(Scheduler, FaultAdversary)


# ---------------------------------------------------------------------------
# Cross-substrate: one schema everywhere
# ---------------------------------------------------------------------------


class TestUnifiedSchema:
    def test_every_substrate_emits_trace_events(self):
        system = AsyncConsensusSystem(QuorumVote(), 3)
        sm = peterson_system()
        start = next(iter(sm.initial_states()))
        for action in sorted(sm.signature.inputs, key=repr):
            start = sm.step(start, action)
        traces = [
            _sync_run().trace,
            system.run_fair_traced((0, 1, 1), seed=5).trace,
            lcr_election([3, 1, 2], seed=0).trace,
            run_lockstep(MaxTokenProtocol(), 4, 20).trace,
            run_datalink(
                AlternatingBitSender(), AlternatingBitReceiver(), ["m"],
                FairLossyScheduler(seed=1),
            ).trace,
            run_system(
                sm, scheduler=RandomScheduler(seed=0), start=start, max_steps=10
            ).trace,
        ]
        substrates = {t.substrate for t in traces}
        assert len(substrates) == len(traces)  # six distinct substrates
        for trace in traces:
            assert isinstance(trace, Trace)
            for event in trace.events:
                assert isinstance(event, TraceEvent)
                assert event.kind in EVENT_KINDS
            assert [e.step for e in trace.events] == list(range(len(trace.events)))

    def test_fingerprints_distinguish_substrates(self):
        sync = _sync_run().trace
        ring = lcr_election([3, 1, 2], seed=0).trace
        assert sync.fingerprint() != ring.fingerprint()
