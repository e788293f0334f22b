"""Logical time: Lamport clocks, vector clocks, happens-before.

Lamport's logical clocks [74] are the survey's recurring tool — Welch's
reducibility from the FLP result to shared-register impossibility uses a
fault-tolerant version of them.  This module implements the happens-before
partial order over a distributed computation, Lamport timestamps (clock
condition: e -> f implies C(e) < C(f)) and vector clocks (the biconditional
version), with checkers for both conditions.

A computation is a sequence of events; each event is local, a send, or a
receive naming the send it matches.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Hashable, List, Optional, Sequence, Set

from ..core.canonical import text
from ..core.errors import ModelError


@dataclass(frozen=True)
class Event:
    """One event of a distributed computation.

    ``kind`` is "local", "send" or "recv"; ``message`` identifies the
    message for send/recv matching (each message sent once, received at
    most once).
    """

    process: Hashable
    index: int  # position within its process (0-based)
    kind: str
    message: Optional[Hashable] = None

    def __post_init__(self):
        if self.kind not in ("local", "send", "recv"):
            raise ModelError(f"unknown event kind {self.kind!r}")
        if self.kind in ("send", "recv") and self.message is None:
            raise ModelError("send/recv events need a message id")


class Computation:
    """A distributed computation: per-process event sequences."""

    def __init__(self, events: Sequence[Event]):
        self.events = list(events)
        self._by_process: Dict[Hashable, List[Event]] = {}
        senders: Dict[Hashable, Event] = {}
        receivers: Dict[Hashable, Event] = {}
        for event in self.events:
            seq = self._by_process.setdefault(event.process, [])
            if event.index != len(seq):
                raise ModelError(
                    f"events of process {event.process!r} must appear in "
                    f"index order; got index {event.index}, expected {len(seq)}"
                )
            seq.append(event)
            if event.kind == "send":
                if event.message in senders:
                    raise ModelError(f"message {event.message!r} sent twice")
                senders[event.message] = event
            elif event.kind == "recv":
                if event.message in receivers:
                    raise ModelError(f"message {event.message!r} received twice")
                receivers[event.message] = event
        for message, recv in receivers.items():
            if message not in senders:
                raise ModelError(f"message {message!r} received but never sent")
        self.senders = senders
        self.receivers = receivers

    @property
    def processes(self) -> List[Hashable]:
        return sorted(self._by_process, key=text)

    def process_events(self, process: Hashable) -> List[Event]:
        return self._by_process.get(process, [])

    # -- happens-before -----------------------------------------------------

    def direct_predecessors(self, event: Event) -> List[Event]:
        preds: List[Event] = []
        if event.index > 0:
            preds.append(self._by_process[event.process][event.index - 1])
        if event.kind == "recv":
            preds.append(self.senders[event.message])
        return preds

    def happens_before(self, a: Event, b: Event) -> bool:
        """Lamport's irreflexive partial order: a -> b."""
        if a == b:
            return False
        stack = [b]
        seen: Set[Event] = set()
        while stack:
            current = stack.pop()
            for pred in self.direct_predecessors(current):
                if pred == a:
                    return True
                if pred not in seen:
                    seen.add(pred)
                    stack.append(pred)
        return False

    def concurrent(self, a: Event, b: Event) -> bool:
        return (
            a != b
            and not self.happens_before(a, b)
            and not self.happens_before(b, a)
        )

    # -- clocks --------------------------------------------------------------

    def lamport_timestamps(self) -> Dict[Event, int]:
        """Lamport clocks: C(e) = 1 + max over direct predecessors."""
        stamps: Dict[Event, int] = {}

        def stamp(event: Event) -> int:
            if event in stamps:
                return stamps[event]
            preds = self.direct_predecessors(event)
            value = 1 + max((stamp(p) for p in preds), default=0)
            stamps[event] = value
            return value

        for event in self.events:
            stamp(event)
        return stamps

    def vector_clocks(self) -> Dict[Event, Dict[Hashable, int]]:
        """Vector clocks: the happens-before-complete timestamps."""
        processes = self.processes
        clocks: Dict[Event, Dict[Hashable, int]] = {}

        def clock(event: Event) -> Dict[Hashable, int]:
            if event in clocks:
                return clocks[event]
            vector = {p: 0 for p in processes}
            for pred in self.direct_predecessors(event):
                for p, v in clock(pred).items():
                    vector[p] = max(vector[p], v)
            vector[event.process] += 1
            clocks[event] = vector
            return vector

        for event in self.events:
            clock(event)
        return clocks


def vector_less(a: Dict, b: Dict) -> bool:
    """Strict vector order: a <= b pointwise and a != b."""
    return all(a[k] <= b[k] for k in a) and a != b


def check_clock_condition(computation: Computation) -> bool:
    """e -> f implies C(e) < C(f) for Lamport timestamps."""
    stamps = computation.lamport_timestamps()
    for a in computation.events:
        for b in computation.events:
            if computation.happens_before(a, b) and not stamps[a] < stamps[b]:
                return False
    return True


def check_vector_condition(computation: Computation) -> bool:
    """e -> f iff V(e) < V(f) for vector clocks (the biconditional)."""
    clocks = computation.vector_clocks()
    for a in computation.events:
        for b in computation.events:
            if a == b:
                continue
            if computation.happens_before(a, b) != vector_less(clocks[a], clocks[b]):
                return False
    return True
