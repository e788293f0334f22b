"""The FLP asynchronous message-passing model (§2.2.4).

Configurations are (process states, message buffer); the buffer is an
unordered multiset of (destination, message) pairs; an *event* delivers
one buffered message (or the null message) to its destination, which then
takes one deterministic step — updating its state and sending finitely
many messages.  The adversary chooses the event order; admissibility says
every process keeps taking steps and every buffered message is eventually
delivered.

Protocols are written state-passing style so configurations are hashable
and the valency machinery of :mod:`repro.impossibility.bivalence` applies
directly — :class:`AsyncConsensusSystem` is the
:class:`~repro.impossibility.bivalence.DecisionSystem` instantiation.
The searches run on its :class:`ConfigurationCodec`, which packs a
configuration into one canonical int.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import (
    Dict,
    FrozenSet,
    Hashable,
    Iterable,
    Iterator,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
)

from dataclasses import dataclass, field

from ..core.budget import BudgetMeter
from ..core.errors import EncodingOverflow, ModelError
from ..core.freeze import frozendict
from ..core.runtime import FaultAdversary, Trace
from ..impossibility.bivalence import DecisionSystem

Pid = int
Message = Hashable
NULL = ("__null__",)  # the null delivery of the FLP model
START = ("__start__",)  # self-addressed wake-up delivered as a first event


class AsyncProtocol(ABC):
    """A deterministic asynchronous protocol in state-passing style."""

    name: str = "async-protocol"
    uses_null_steps: bool = False

    @abstractmethod
    def initial_state(self, pid: Pid, n: int, input_value: Hashable) -> Hashable:
        """The initial local state (hashable).  Initial sends are modeled by
        :meth:`initial_messages`."""

    def initial_messages(
        self, pid: Pid, n: int, input_value: Hashable
    ) -> Iterable[Tuple[Pid, Message]]:
        """Messages in flight before any event.

        The default is a self-addressed START wake-up, so a process's
        opening broadcast happens as a *step* (deliver START, send) — which
        is what makes "crash at time zero" (never schedule the process)
        genuinely withhold its input from the others.
        """
        return ((pid, START),)

    @abstractmethod
    def transition(
        self, pid: Pid, state: Hashable, message: Message
    ) -> Tuple[Hashable, Tuple[Tuple[Pid, Message], ...]]:
        """Deliver ``message`` (possibly NULL): new state plus sends."""

    @abstractmethod
    def decision(self, state: Hashable) -> Optional[Hashable]:
        """The decided value, or None.  Decisions must be irrevocable."""


# The buffer is a frozendict {(dest, message): count}.
Buffer = frozendict
Configuration = Tuple[Tuple[Hashable, ...], Buffer]
Event = Tuple[str, Pid, Message]  # ("deliver", dest, message)


@dataclass
class FairRun:
    """Outcome of :meth:`AsyncConsensusSystem.run_fair_traced`."""

    config: Configuration
    steps: int
    trace: Optional[Trace] = field(repr=False, default=None, compare=False)


def _buffer_add(buffer: Buffer, items: Iterable[Tuple[Pid, Message]]) -> Buffer:
    contents = dict(buffer._data)
    for dest, msg in items:
        key = (dest, msg)
        contents[key] = contents.get(key, 0) + 1
    return frozendict._from_data(contents)

def _buffer_remove(buffer: Buffer, dest: Pid, msg: Message) -> Buffer:
    contents = dict(buffer._data)
    key = (dest, msg)
    if contents.get(key, 0) <= 0:
        raise KeyError(f"message {key} not in buffer")
    contents[key] -= 1
    if contents[key] == 0:
        del contents[key]
    return frozendict._from_data(contents)


# (dest, message) -> repr memo for the deterministic buffer sort in
# events()/fair_events().  Message vocabularies are tiny (protocol
# constants x pids), so this stays small while saving a deep repr per
# buffered message per expansion.
_REPR_KEYS: Dict[Hashable, str] = {}


def _repr_key(key: Hashable) -> str:
    r = _REPR_KEYS.get(key)
    if r is None:
        r = repr(key)
        _REPR_KEYS[key] = r
    return r


class AsyncConsensusSystem(DecisionSystem):
    """An asynchronous protocol under adversarial scheduling, as a
    :class:`DecisionSystem` for valency analysis.

    ``input_vectors`` defaults to all binary vectors, one initial
    configuration each — the domain of FLP Lemma 2.
    """

    def __init__(
        self,
        protocol: AsyncProtocol,
        n: int,
        input_vectors: Optional[Sequence[Sequence[Hashable]]] = None,
        values: Sequence[Hashable] = (0, 1),
    ):
        self.protocol = protocol
        self.n = n
        self._values = tuple(values)
        if input_vectors is None:
            import itertools

            input_vectors = list(itertools.product(self._values, repeat=n))
        self.input_vectors = [tuple(v) for v in input_vectors]
        # Per-local-state memos: protocols are deterministic, so both
        # decision(state) and transition(pid, state, message) are pure
        # functions of their (frozen, hashable) arguments.
        self._decisions: Dict[Hashable, Optional[Hashable]] = {}
        self._transitions: Dict[
            Tuple[Pid, Hashable, Message],
            Tuple[Hashable, Tuple[Tuple[Pid, Message], ...]],
        ] = {}
        # Built by the first TransitionCache over this system; plain
        # simulation (run_fair_traced) never needs it.
        self._codec: Optional[ConfigurationCodec] = None

    # -- DecisionSystem interface ------------------------------------------

    @property
    def processes(self) -> Sequence[Pid]:
        return list(range(self.n))

    @property
    def values(self) -> Sequence[Hashable]:
        return self._values

    def initial_configurations(self) -> Iterator[Configuration]:
        for inputs in self.input_vectors:
            yield self.configuration_for(inputs)

    def configuration_for(self, inputs: Sequence[Hashable]) -> Configuration:
        states = tuple(
            self.protocol.initial_state(pid, self.n, inputs[pid])
            for pid in range(self.n)
        )
        buffer = _buffer_add(
            frozendict(),
            (
                (dest, msg)
                for pid in range(self.n)
                for dest, msg in self.protocol.initial_messages(
                    pid, self.n, inputs[pid]
                )
            ),
        )
        return (states, buffer)

    def events(self, config: Configuration) -> Iterator[Event]:
        _states, buffer = config
        for (dest, msg) in sorted(buffer._data, key=_repr_key):
            yield ("deliver", dest, msg)
        if self.protocol.uses_null_steps:
            for pid in range(self.n):
                yield ("deliver", pid, NULL)

    def owner(self, event: Event) -> Pid:
        return event[1]

    def apply(self, config: Configuration, event: Event) -> Configuration:
        states, buffer = config
        _tag, dest, msg = event
        local = states[dest]
        key = (dest, local, msg)
        try:
            new_state, sends = self._transitions[key]
        except KeyError:
            new_state, sends = self.protocol.transition(dest, local, msg)
            self._transitions[key] = (new_state, sends)
        # Remove the delivered message and fold in the sends in one pass
        # over a single buffer copy (the hot loop of every expansion).
        contents = dict(buffer._data)
        if msg != NULL:
            bkey = (dest, msg)
            count = contents.get(bkey, 0)
            if count <= 0:
                raise KeyError(f"message {bkey} not in buffer")
            if count == 1:
                del contents[bkey]
            else:
                contents[bkey] = count - 1
        for skey in sends:
            contents[skey] = contents.get(skey, 0) + 1
        new_states = states[:dest] + (new_state,) + states[dest + 1:]
        return (new_states, frozendict._from_data(contents))

    def configuration_codec(self) -> "ConfigurationCodec":
        """This system's :class:`ConfigurationCodec`, built on first use."""
        if self._codec is None:
            self._codec = ConfigurationCodec(self)
        return self._codec

    def decisions(self, config: Configuration) -> Mapping[Pid, Hashable]:
        states, _buffer = config
        out: Dict[Pid, Hashable] = {}
        memo = self._decisions
        decision = self.protocol.decision
        for pid, state in enumerate(states):
            try:
                value = memo[state]
            except KeyError:
                value = decision(state)
                memo[state] = value
            if value is not None:
                out[pid] = value
        return out

    def decided_values(self, config: Configuration) -> FrozenSet[Hashable]:
        states, _buffer = config
        memo = self._decisions
        decision = self.protocol.decision
        out = set()
        for state in states:
            try:
                value = memo[state]
            except KeyError:
                value = decision(state)
                memo[state] = value
            if value is not None:
                out.add(value)
        return frozenset(out)

    def fair_events(self, config: Configuration) -> Mapping[Pid, Event]:
        """The oldest-ish pending delivery per process (deterministic pick);
        null steps are owed only to processes with empty queues (when the
        protocol uses them)."""
        _states, buffer = config
        owed: Dict[Pid, Event] = {}
        for (dest, msg) in sorted(buffer._data, key=_repr_key):
            if dest not in owed:
                owed[dest] = ("deliver", dest, msg)
        if self.protocol.uses_null_steps:
            for pid in range(self.n):
                owed.setdefault(pid, ("deliver", pid, NULL))
        return owed

    # -- simulation helpers --------------------------------------------------

    def run_fair(
        self,
        inputs: Sequence[Hashable],
        max_steps: int = 10_000,
        exclude: Iterable[Pid] = (),
        seed: Optional[int] = None,
    ) -> Tuple[Configuration, int]:
        """Run a fair schedule (round-robin over processes' owed events),
        optionally *crashing* the processes in ``exclude`` (they take no
        steps; messages to them rot in the buffer, which the FLP
        admissibility notion permits for faulty processes).

        Returns (final configuration, steps taken).  Stops when every
        non-excluded process has decided or nothing is deliverable.  For a
        unified-schema trace of the same schedule use
        :meth:`run_fair_traced`.
        """
        run = self.run_fair_traced(
            inputs, max_steps=max_steps, exclude=exclude, seed=seed,
            record_trace=False,
        )
        return run.config, run.steps

    def run_fair_traced(
        self,
        inputs: Sequence[Hashable],
        max_steps: int = 10_000,
        exclude: Iterable[Pid] = (),
        seed: Optional[int] = None,
        record_trace: bool = True,
        adversary: Optional[FaultAdversary] = None,
        meter: Optional[BudgetMeter] = None,
    ) -> "FairRun":
        """:meth:`run_fair`, recorded in the unified trace schema.

        Each scheduling step emits a DELIVER event (actor = the stepping
        process, payload = the delivered message); CRASH events for the
        ``exclude`` set open the trace.  The trace replays through
        :func:`repro.core.runtime.replay` — the whole schedule is a
        deterministic function of ``(protocol, inputs, exclude, adversary,
        seed)``.

        An ``adversary`` wields the *scheduling* power of the unified
        :class:`~repro.core.runtime.FaultAdversary`: each step it picks
        which live process (sorted pid order) is served its owed event —
        the delivery-order control every FLP-style argument quantifies
        over, and what the chaos fuzzer's scripted schedulers drive.  A
        ``meter`` charges one step per delivery.
        """
        from ..core.runtime import CRASH, DELIVER, SimulationRuntime

        excluded = set(exclude)
        runtime = SimulationRuntime(
            substrate="async-network",
            protocol=self.protocol.name,
            seed=seed,
            adversary=adversary,
            record=record_trace,
        )
        record = record_trace
        rng = runtime.rng if seed is not None else None
        if record:
            for pid in sorted(excluded):
                runtime.emit(CRASH, pid)
        config = self.configuration_for(tuple(inputs))
        steps = 0
        order = [p for p in range(self.n) if p not in excluded]
        cursor = 0
        while steps < max_steps:
            if meter is not None:
                meter.charge_steps()
            live = {
                pid: event
                for pid, event in self.fair_events(config).items()
                if pid not in excluded
            }
            undecided = [
                p for p in order if p not in self.decisions(config)
            ]
            if not undecided or not live:
                break
            if adversary is not None:
                pids = sorted(live)
                pid = pids[adversary.schedule(pids, rng)]
                if record:
                    runtime.emit(DELIVER, pid, live[pid][2])
                config = self.apply(config, live[pid])
            elif rng is None:
                # Round-robin over processes with pending events.
                for offset in range(len(order)):
                    pid = order[(cursor + offset) % len(order)]
                    if pid in live:
                        cursor = (cursor + offset + 1) % len(order)
                        if record:
                            runtime.emit(DELIVER, pid, live[pid][2])
                        config = self.apply(config, live[pid])
                        break
                else:
                    break
            else:
                pid = rng.choice(sorted(live))
                if record:
                    runtime.emit(DELIVER, pid, live[pid][2])
                config = self.apply(config, live[pid])
            steps += 1

        trace: Optional[Trace] = None
        if record:
            def replayer(
                _self=self, _inputs=tuple(inputs), _max=max_steps,
                _exclude=frozenset(excluded), _seed=seed,
                _adversary=adversary,
            ) -> Trace:
                if _adversary is not None:
                    _adversary.reset()
                return _self.run_fair_traced(
                    _inputs, max_steps=_max, exclude=_exclude, seed=_seed,
                    adversary=_adversary,
                ).trace

            trace = runtime.finish(
                outcome={
                    "steps": steps,
                    "decisions": tuple(sorted(self.decisions(config).items())),
                },
                replayer=replayer,
            )
        return FairRun(config=config, steps=steps, trace=trace)


# -- integer configuration codes ---------------------------------------------

#: Width of one process's local-state field in a configuration code.
LOCAL_BITS = 32
#: Width of one message's count field; its top bit is a guard bit, so a
#: field holds counts below ``2 ** (COUNT_BITS - 1)``.
COUNT_BITS = 16
_COUNT_LIMIT = 1 << (COUNT_BITS - 1)
_COUNT_MASK = (1 << COUNT_BITS) - 1
_UNSET = object()  # "no decision memoized yet" (None is a decision)


class ConfigurationCodec:
    """Canonical integer codes for one :class:`AsyncConsensusSystem`.

    Local states and ``(dest, message)`` buffer keys are interned to
    small ids, per system.  A configuration's code is one int: process
    ``p``'s local id in bits ``[p * LOCAL_BITS, (p + 1) * LOCAL_BITS)``,
    then one ``COUNT_BITS`` count field per message id.  Equal
    configurations give equal codes, and :meth:`decode` inverts
    :meth:`encode`.

    A delivery is an additive delta per ``(local id, message id)``: the
    local field moves to the new state's id, the delivered message's
    count drops by one and each sent message's count rises.  So
    ``protocol.transition`` runs once per distinct pair, and expanding a
    configuration is integer additions (:meth:`row`).

    No field ever carries into its neighbour.  A delta adds less than
    ``2 ** (COUNT_BITS - 1)`` to any count field, so a sum stays inside
    its field, and the field's top (guard) bit is set exactly when the
    count has outgrown the limit.  :meth:`row` checks the guard bits of
    every successor and raises :class:`EncodingOverflow`, as do local-id
    allocation past ``2 ** LOCAL_BITS`` ids and a delta whose own count
    reaches the limit.
    """

    def __init__(self, system: "AsyncConsensusSystem"):
        # No reference back to the system: it holds this codec.
        self.protocol = system.protocol
        self._decisions = system._decisions  # shared per-state memo
        n = system.n
        self.local_shifts = tuple(pid * LOCAL_BITS for pid in range(n))
        self.local_mask = (1 << LOCAL_BITS) - 1
        self.base = n * LOCAL_BITS
        self.guard = 0
        self._local_ids: Dict[Hashable, int] = {}
        self._locals: List[Hashable] = []
        #: ``protocol.decision`` of each local id.
        self.local_decisions: List[Optional[Hashable]] = []
        self._message_ids: Dict[Tuple[Pid, Message], int] = {}
        self._messages: List[Tuple[Pid, Message]] = []
        self._deltas: List[Dict[int, int]] = []  # per message id: lid -> delta
        # Per message id, in _repr_key order: (count field mask over the
        # buffer bits, (dest's local shift, deltas, mid), event label).
        self._scan: List[Tuple[int, Tuple[int, Dict[int, int], int], Event]] = []
        if self.protocol.uses_null_steps:
            self._null_events: Tuple[Event, ...] = tuple(
                ("deliver", pid, NULL) for pid in range(n)
            )
        else:
            self._null_events = ()
        self._null_deltas: List[Dict[int, int]] = [{} for _ in range(n)]
        # buffer bits -> (row labels, ((local shift, deltas, mid), ...))
        self._rows: Dict[int, Tuple[Tuple[Event, ...], Tuple]] = {}

    # -- ids -------------------------------------------------------------

    def _local_id(self, state: Hashable) -> int:
        lid = self._local_ids.get(state)
        if lid is None:
            lid = len(self._locals)
            if lid > self.local_mask:
                raise EncodingOverflow(
                    f"{self.protocol.name}: more than {lid} distinct "
                    "local states do not fit a configuration code",
                    field="local", limit=self.local_mask,
                )
            self._local_ids[state] = lid
            self._locals.append(state)
            decision = self._decisions.get(state, _UNSET)
            if decision is _UNSET:
                decision = self.protocol.decision(state)
                self._decisions[state] = decision
            self.local_decisions.append(decision)
        return lid

    def _message_id(self, key: Tuple[Pid, Message]) -> int:
        mid = self._message_ids.get(key)
        if mid is None:
            mid = len(self._messages)
            self._message_ids[key] = mid
            self._messages.append(key)
            deltas: Dict[int, int] = {}
            self._deltas.append(deltas)
            self._scan.append((
                _COUNT_MASK << (mid * COUNT_BITS),
                (self.local_shifts[key[0]], deltas, mid),
                ("deliver", key[0], key[1]),
            ))
            self._scan.sort(key=lambda entry: _repr_key(
                self._messages[entry[1][2]]
            ))
            self.guard |= 1 << (self._count_shift(mid) + COUNT_BITS - 1)
        return mid

    def _count_shift(self, mid: int) -> int:
        return self.base + mid * COUNT_BITS

    def _overflow(self, key: Tuple[Pid, Message]) -> EncodingOverflow:
        return EncodingOverflow(
            f"{self.protocol.name}: {_COUNT_LIMIT} or more copies of "
            f"message {key!r} in flight do not fit a configuration code",
            field=key, limit=_COUNT_LIMIT - 1,
        )

    # -- codes -------------------------------------------------------------

    def encode(self, config: Configuration, create: bool = True) -> Optional[int]:
        """The code of ``config``.  With ``create=False``, None when a
        local state or message has never been seen (so no code of this
        system can equal it)."""
        states, buffer = config
        if len(states) != len(self.local_shifts):
            raise ModelError(
                f"configuration has {len(states)} local states, "
                f"system has {len(self.local_shifts)} processes"
            )
        code = 0
        for shift, state in zip(self.local_shifts, states):
            lid = self._local_ids.get(state)
            if lid is None:
                if not create:
                    return None
                lid = self._local_id(state)
            code |= lid << shift
        for key, count in buffer.items():
            mid = self._message_ids.get(key)
            if mid is None:
                if not create:
                    return None
                mid = self._message_id(key)
            if count < 1:
                raise ModelError(f"buffer count {count!r} for {key!r}")
            if count >= _COUNT_LIMIT:
                raise self._overflow(key)
            code |= count << self._count_shift(mid)
        return code

    def decode(self, code: int) -> Configuration:
        """The frozen ``(states, buffer)`` configuration behind ``code``."""
        local_mask = self.local_mask
        states = tuple(
            self._locals[(code >> shift) & local_mask]
            for shift in self.local_shifts
        )
        bits = code >> self.base
        contents = {}
        for field, (_shift, _deltas, mid), _event in self._scan:
            if bits & field:
                contents[self._messages[mid]] = (bits & field) >> (
                    mid * COUNT_BITS
                )
        return (states, frozendict._from_data(contents))

    def decided_values(self, code: int) -> FrozenSet[Hashable]:
        """The decided values of ``code``'s processes, read off the
        per-local-id decisions."""
        decisions = self.local_decisions
        local_mask = self.local_mask
        values = [
            decisions[(code >> shift) & local_mask]
            for shift in self.local_shifts
        ]
        return frozenset(value for value in values if value is not None)

    def fair_events(self, code: int) -> Dict[Pid, Event]:
        """:meth:`AsyncConsensusSystem.fair_events` of ``code``: the first
        event per process in row order."""
        bits = code >> self.base
        spec = self._rows.get(bits)
        if spec is None:
            spec = self._row_spec(bits)
        owed: Dict[Pid, Event] = {}
        for event in spec[0]:
            owed.setdefault(event[1], event)
        return owed

    # -- successors ----------------------------------------------------------

    def row(self, code: int) -> Tuple[Tuple[Event, ...], List[int]]:
        """``(events, successor codes)`` out of ``code``, in the order of
        :meth:`AsyncConsensusSystem.events`."""
        bits = code >> self.base
        spec = self._rows.get(bits)
        if spec is None:
            spec = self._row_spec(bits)
        labels, plan = spec
        local_mask = self.local_mask
        guard = self.guard
        children = []
        for shift, deltas, mid in plan:
            lid = (code >> shift) & local_mask
            delta = deltas.get(lid)
            if delta is None:
                delta = self._delta(mid, lid)
                guard = self.guard
            child = code + delta
            if child & guard:
                raise self._overflow(self._overflowing(child))
            children.append(child)
        if self._null_events:
            for pid, shift in enumerate(self.local_shifts):
                lid = (code >> shift) & local_mask
                delta = self._null_deltas[pid].get(lid)
                if delta is None:
                    delta = self._delta(None, lid, pid)
                    guard = self.guard
                child = code + delta
                if child & guard:
                    raise self._overflow(self._overflowing(child))
                children.append(child)
        return labels, children

    def _row_spec(self, bits: int) -> Tuple[Tuple[Event, ...], Tuple]:
        plan = []
        labels = []
        for field, step, event in self._scan:
            if bits & field:
                plan.append(step)
                labels.append(event)
        spec = (tuple(labels) + self._null_events, tuple(plan))
        self._rows[bits] = spec
        return spec

    def _delta(self, mid: Optional[int], lid: int, pid: Optional[Pid] = None) -> int:
        """The additive delta of delivering message ``mid`` (None: the
        null message to ``pid``) to a process in local state ``lid``."""
        if mid is None:
            dest, msg = pid, NULL
        else:
            dest, msg = self._messages[mid]
        new_state, sends = self.protocol.transition(
            dest, self._locals[lid], msg
        )
        delta = (self._local_id(new_state) - lid) << self.local_shifts[dest]
        if msg != NULL:
            delta -= 1 << self._count_shift(mid)
        counts: Dict[int, int] = {}
        for key in sends:
            sent = self._message_id(key)
            counts[sent] = counts.get(sent, 0) + 1
        for sent, count in counts.items():
            if count >= _COUNT_LIMIT:
                raise self._overflow(self._messages[sent])
            delta += count << self._count_shift(sent)
        if mid is None:
            self._null_deltas[pid][lid] = delta
        else:
            self._deltas[mid][lid] = delta
        return delta

    def _overflowing(self, code: int) -> Tuple[Pid, Message]:
        bits = code >> self.base
        for mid, key in enumerate(self._messages):
            if (bits >> (mid * COUNT_BITS)) & _COUNT_MASK >= _COUNT_LIMIT:
                return key
        raise AssertionError("no count field overflowed")

