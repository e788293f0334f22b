"""The synchronous round-based message-passing model with fault injection.

The substrate for the survey's §2.2 results on distributed consensus:
``n`` processes proceed in lockstep rounds; in each round every process
sends one message to every other process (point-to-point; a message may be
None), then all messages are delivered simultaneously, then every process
updates its state.

Faults are injected by a :class:`SyncAdversary` (the synchronous
instantiation of :class:`repro.core.runtime.FaultAdversary`), which owns a
set of faulty processes and may intercept every message they send:

* :class:`CrashAdversary` — a faulty process stops mid-round, reaching only
  a chosen subset of recipients with its final messages (the classic
  "crash with partial send" that the t+1-round chain argument turns on);
* :class:`ByzantineAdversary` — a faulty process sends arbitrary messages,
  computed by a behaviour function (with the honestly computed message
  available for mutation — equivocation, lies, silence);
* :class:`ScriptedByzantine` — replays an explicit message script, which
  is how the scenario (ring-splice) engine turns a spliced execution into
  a concrete Byzantine execution of the real system.

Everything is deterministic: the same protocol, inputs and adversary give
the same run, so every certificate replays.  Runs are recorded in the
unified :class:`~repro.core.runtime.Trace` schema and replayable through
:func:`repro.core.runtime.replay`.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from typing import (
    Callable,
    Dict,
    FrozenSet,
    Hashable,
    Iterable,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
)

from ..core.budget import BudgetMeter
from ..core.runtime import (
    DECIDE,
    DELIVER,
    SEND,
    FaultAdversary,
    SimulationRuntime,
    Trace,
)

Pid = int
Message = Hashable
Round = int


class SyncProcess(ABC):
    """Per-process protocol logic for the synchronous model."""

    def __init__(self, pid: Pid, n: int, t: int, input_value: Hashable):
        self.pid = pid
        self.n = n
        self.t = t
        self.input_value = input_value

    @abstractmethod
    def message_to(self, rnd: Round, dest: Pid) -> Message:
        """The message this process sends to ``dest`` in round ``rnd``.

        Called once per destination; broadcast protocols return the same
        value for every destination.  None means "no message".
        """

    @abstractmethod
    def receive(self, rnd: Round, received: Mapping[Pid, Message]) -> None:
        """Deliver round ``rnd``'s messages (absent keys = no message)."""

    @abstractmethod
    def decision(self) -> Optional[Hashable]:
        """The decided value, or None if undecided."""


class SyncProtocol(ABC):
    """A factory for :class:`SyncProcess` instances plus the round count."""

    name: str = "sync-protocol"

    @abstractmethod
    def spawn(self, pid: Pid, n: int, t: int, input_value: Hashable) -> SyncProcess:
        """Create the process with identifier ``pid``."""

    @abstractmethod
    def rounds(self, n: int, t: int) -> int:
        """How many rounds the protocol runs."""


class SyncAdversary(FaultAdversary):
    """Base synchronous adversary: no faults.

    The synchronous instantiation of the unified
    :class:`~repro.core.runtime.FaultAdversary`: it uses the *fault* power
    only (``is_faulty`` + ``transform`` over faulty senders' messages);
    scheduling is vacuous because rounds are lockstep.

    ``inputs_trustworthy`` says whether faulty processes' *inputs* count
    for validity: crash and omission failures are honest processes that
    die, so their inputs are real; Byzantine processes have no meaningful
    input.
    """


class NoFaults(SyncAdversary):
    """Every process behaves honestly."""


class CrashAdversary(SyncAdversary):
    """Crash (stopping) faults with partial final rounds.

    ``crashes`` maps pid -> (crash_round, receivers): in ``crash_round``
    the process's messages reach only ``receivers``; in later rounds it
    sends nothing.  Before its crash round it behaves honestly.
    """

    def __init__(self, crashes: Mapping[Pid, Tuple[Round, Iterable[Pid]]]):
        super().__init__(crashes.keys())
        self.crashes: Dict[Pid, Tuple[Round, FrozenSet[Pid]]] = {
            pid: (rnd, frozenset(receivers))
            for pid, (rnd, receivers) in crashes.items()
        }

    def transform(self, rnd, src, dest, honest_message):
        crash_round, receivers = self.crashes[src]
        if rnd < crash_round:
            return honest_message
        if rnd == crash_round:
            return honest_message if dest in receivers else None
        return None

    def crashed_by(self, pid: Pid, rnd: Round) -> bool:
        if pid not in self.crashes:
            return False
        return rnd >= self.crashes[pid][0]


class OmissionAdversary(SyncAdversary):
    """Send-omission faults: drop messages matching a predicate."""

    def __init__(self, faulty: Iterable[Pid],
                 drop: Callable[[Round, Pid, Pid], bool]):
        super().__init__(faulty)
        self._drop = drop

    def transform(self, rnd, src, dest, honest_message):
        if self._drop(rnd, src, dest):
            return None
        return honest_message


class ScriptedOmission(SyncAdversary):
    """Send-omission faults given by an explicit drop set.

    ``drops`` is a set of ``(round, src, dest)`` triples to suppress —
    the *data* form of :class:`OmissionAdversary`'s predicate, which is
    what the chaos fuzzer generates and the shrinker minimizes: deleting
    a triple from the set is exactly "fail one message fewer".  Processes
    appearing as a source in ``drops`` are the faulty set.
    """

    def __init__(self, drops: Iterable[Tuple[Round, Pid, Pid]]):
        drops = frozenset(drops)
        super().__init__({src for (_rnd, src, _dest) in drops})
        self.drops = drops

    def transform(self, rnd, src, dest, honest_message):
        if (rnd, src, dest) in self.drops:
            return None
        return honest_message


class ByzantineAdversary(SyncAdversary):
    """Arbitrary behaviour computed from the honest message.

    ``behaviour(rnd, src, dest, honest_message) -> message`` may lie,
    equivocate or stay silent.
    """

    inputs_trustworthy = False

    def __init__(self, faulty: Iterable[Pid],
                 behaviour: Callable[[Round, Pid, Pid, Message], Message]):
        super().__init__(faulty)
        self._behaviour = behaviour

    def transform(self, rnd, src, dest, honest_message):
        return self._behaviour(rnd, src, dest, honest_message)


class ScriptedByzantine(SyncAdversary):
    """Replay an explicit per-(round, src, dest) message script.

    Unscripted triples fall back to silence.  Used by the scenario engine
    to turn ring-splice views into concrete Byzantine executions.
    """

    inputs_trustworthy = False

    def __init__(self, faulty: Iterable[Pid],
                 script: Mapping[Tuple[Round, Pid, Pid], Message]):
        super().__init__(faulty)
        self.script = dict(script)

    def transform(self, rnd, src, dest, honest_message):
        return self.script.get((rnd, src, dest))


@dataclass
class ProcessView:
    """Everything one process observes: its input and per-round deliveries.

    The indistinguishability currency of every synchronous lower bound:
    two runs look the same to p iff p's views are equal.
    """

    pid: Pid
    input_value: Hashable
    rounds: Tuple[Mapping[Pid, Message], ...]

    def key(self) -> Hashable:
        return (
            self.pid,
            self.input_value,
            tuple(tuple(sorted(r.items())) for r in self.rounds),
        )


@dataclass
class SyncRun:
    """A completed synchronous execution."""

    protocol_name: str
    n: int
    t: int
    inputs: Tuple[Hashable, ...]
    adversary: SyncAdversary
    rounds_run: int
    decisions: Dict[Pid, Optional[Hashable]]
    views: Dict[Pid, ProcessView]
    messages_delivered: int
    messages_sent: int
    processes: Sequence[SyncProcess] = field(repr=False, default=())
    trace: Optional[Trace] = field(repr=False, default=None, compare=False)

    @property
    def honest_pids(self) -> List[Pid]:
        return [p for p in range(self.n) if not self.adversary.is_faulty(p)]

    def honest_decisions(self) -> Dict[Pid, Optional[Hashable]]:
        return {p: self.decisions[p] for p in self.honest_pids}

    def agreement_holds(self) -> bool:
        decided = {v for v in self.honest_decisions().values() if v is not None}
        return len(decided) <= 1

    def all_honest_decided(self) -> bool:
        return all(v is not None for v in self.honest_decisions().values())

    def validity_holds(self) -> bool:
        """If every relevant process started with the same value, the honest
        decisions equal it (the weak validity used across the survey).

        For crash/omission adversaries the faulty processes' inputs count
        (they are honest processes that die); for Byzantine they do not.
        """
        if self.adversary.inputs_trustworthy:
            relevant_inputs = set(self.inputs)
        else:
            relevant_inputs = {self.inputs[p] for p in self.honest_pids}
        if len(relevant_inputs) != 1:
            return True
        (v,) = relevant_inputs
        return all(
            d is None or d == v for d in self.honest_decisions().values()
        )

    def indistinguishable_to(self, other: "SyncRun", pid: Pid) -> bool:
        return self.views[pid].key() == other.views[pid].key()


def run_synchronous(
    protocol: SyncProtocol,
    inputs: Sequence[Hashable],
    adversary: Optional[SyncAdversary] = None,
    t: Optional[int] = None,
    rounds: Optional[int] = None,
    record_trace: bool = True,
    meter: Optional[BudgetMeter] = None,
) -> SyncRun:
    """Execute the protocol synchronously and return the completed run.

    The run is recorded in the unified trace schema (``record_trace=False``
    skips recording for bulk searches); ``SyncRun.trace`` replays through
    :func:`repro.core.runtime.replay`.  A ``meter`` charges one step per
    round, so campaign budgets preempt runaway protocols.
    """
    adversary = adversary or NoFaults()
    n = len(inputs)
    if t is None:
        t = len(adversary.faulty)
    total_rounds = rounds if rounds is not None else protocol.rounds(n, t)
    runtime = SimulationRuntime(
        substrate="synchronous",
        protocol=protocol.name,
        adversary=adversary,
        record=record_trace,
    )
    processes = [
        protocol.spawn(pid, n, t, inputs[pid]) for pid in range(n)
    ]
    view_rounds: List[List[Dict[Pid, Message]]] = [[] for _ in range(n)]
    delivered_count = 0
    sent_count = 0

    for rnd in range(1, total_rounds + 1):
        if meter is not None:
            meter.charge_steps()
        # Compute all round-r messages from pre-round states.
        outbox: Dict[Tuple[Pid, Pid], Message] = {}
        for src in range(n):
            for dest in range(n):
                if dest == src:
                    continue
                honest = processes[src].message_to(rnd, dest)
                if adversary.is_faulty(src):
                    msg = adversary.transform(rnd, src, dest, honest)
                else:
                    msg = honest
                if msg is not None:
                    outbox[(src, dest)] = msg
                    sent_count += 1
                    if record_trace:
                        runtime.emit(SEND, src, (dest, msg), round=rnd)
        # Deliver simultaneously.
        for dest in range(n):
            received = {
                src: outbox[(src, dest)]
                for src in range(n)
                if (src, dest) in outbox
            }
            delivered_count += len(received)
            view_rounds[dest].append(received)
            processes[dest].receive(rnd, received)
            if record_trace and received:
                runtime.emit(
                    DELIVER, dest, tuple(sorted(received.items())), round=rnd
                )

    decisions = {pid: processes[pid].decision() for pid in range(n)}
    if record_trace:
        for pid in range(n):
            if decisions[pid] is not None:
                runtime.emit(DECIDE, pid, decisions[pid], round=total_rounds)
    views = {
        pid: ProcessView(pid, inputs[pid], tuple(view_rounds[pid]))
        for pid in range(n)
    }
    trace: Optional[Trace] = None
    if record_trace:
        def replayer(
            _protocol=protocol, _inputs=tuple(inputs), _adversary=adversary,
            _t=t, _rounds=rounds,
        ) -> Trace:
            _adversary.reset()
            return run_synchronous(
                _protocol, _inputs, _adversary, t=_t, rounds=_rounds
            ).trace

        trace = runtime.finish(
            outcome={
                "decisions": tuple(sorted(decisions.items())),
                "rounds_run": total_rounds,
            },
            replayer=replayer,
        )
    return SyncRun(
        protocol_name=protocol.name,
        n=n,
        t=t,
        inputs=tuple(inputs),
        adversary=adversary,
        rounds_run=total_rounds,
        decisions=decisions,
        views=views,
        messages_delivered=delivered_count,
        messages_sent=sent_count,
        processes=processes,
        trace=trace,
    )
