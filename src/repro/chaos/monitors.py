"""Trace monitors: the correctness conditions chaos campaigns check.

Each monitor is a reusable predicate over a completed
:class:`~repro.core.runtime.Trace` — evaluated post-hoc, never inline, so
the same monitor reads runs of any substrate that speaks the unified
schema.  The conditions are the survey's: agreement and validity for
consensus (§2.2), termination, mutual exclusion (§2.3), exactly-once
in-order delivery for the data link (§2.5), and unique leaders for rings
(§2.4).

Decisions are read from DECIDE events when the substrate emits them and
from the trace outcome's ``decisions`` entry otherwise, so the consensus
monitors work unchanged on the synchronous rounds substrate (which emits
both) and the FLP asynchronous network (outcome only).
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Dict, Hashable, Iterable, List, Mapping, Optional, Sequence

from ..circumvention.partitions import PartitionAdversary
from ..core.canonical import text
from ..core.runtime import DECIDE, DECLARE, OUTPUT, Trace


@dataclass(frozen=True)
class Violation:
    """One monitored property failing on one trace."""

    monitor: str
    description: str
    step: Optional[int] = None

    def __str__(self) -> str:
        at = f" (at event {self.step})" if self.step is not None else ""
        return f"{self.monitor}: {self.description}{at}"


class TraceMonitor(ABC):
    """A safety/liveness predicate over a completed trace."""

    name: str = "monitor"

    @abstractmethod
    def check(self, trace: Trace) -> Optional[Violation]:
        """The first violation this trace exhibits, or None."""


def check_all(trace: Trace, monitors: Iterable[TraceMonitor]) -> List[Violation]:
    """Every violation the monitors find, in monitor order."""
    found = []
    for monitor in monitors:
        violation = monitor.check(trace)
        if violation is not None:
            found.append(violation)
    return found


def _decisions(trace: Trace) -> Dict[Hashable, Hashable]:
    """actor -> first decided value, from DECIDE events and the outcome."""
    decided: Dict[Hashable, Hashable] = {}
    for event in trace.events_of(DECIDE):
        decided.setdefault(event.actor, event.payload)
    for actor, value in trace.outcome_dict().get("decisions", ()) or ():
        if value is not None:
            decided.setdefault(actor, value)
    return decided


class AgreementMonitor(TraceMonitor):
    """No two honest processes decide differently."""

    name = "agreement"

    def __init__(self, honest: Iterable[Hashable]):
        self.honest = frozenset(honest)

    def check(self, trace: Trace) -> Optional[Violation]:
        decided = {
            actor: value
            for actor, value in _decisions(trace).items()
            if actor in self.honest
        }
        values = set(decided.values())
        if len(values) > 1:
            detail = ", ".join(
                f"{actor}->{value}" for actor, value in sorted(
                    decided.items(), key=text
                )
            )
            return Violation(self.name, f"honest decisions disagree: {detail}")
        return None


class ValidityMonitor(TraceMonitor):
    """If every trusted input is ``v``, honest decisions must equal ``v``."""

    name = "validity"

    def __init__(
        self,
        inputs: Mapping[Hashable, Hashable],
        honest: Iterable[Hashable],
        trusted: Optional[Iterable[Hashable]] = None,
    ):
        self.inputs = dict(inputs)
        self.honest = frozenset(honest)
        self.trusted = frozenset(trusted) if trusted is not None else self.honest

    def check(self, trace: Trace) -> Optional[Violation]:
        relevant = {self.inputs[actor] for actor in self.trusted}
        if len(relevant) != 1:
            return None
        (value,) = relevant
        for actor, decision in sorted(_decisions(trace).items(), key=text):
            if actor in self.honest and decision != value:
                return Violation(
                    self.name,
                    f"all trusted inputs are {value!r} but {actor} decided "
                    f"{decision!r}",
                )
        return None


class TerminationMonitor(TraceMonitor):
    """Every expected process decides by the end of the run."""

    name = "termination"

    def __init__(self, expected: Iterable[Hashable]):
        self.expected = frozenset(expected)

    def check(self, trace: Trace) -> Optional[Violation]:
        missing = self.expected - set(_decisions(trace))
        if missing:
            return Violation(
                self.name,
                f"processes never decided: {sorted(missing, key=text)}",
            )
        return None


class MutualExclusionMonitor(TraceMonitor):
    """At most one process in its critical region at any point.

    Reads the shared-memory mutex convention: an event whose payload is
    ``("crit", name)`` announces entry, ``("rem", name)`` announces exit.
    """

    name = "mutual-exclusion"

    def check(self, trace: Trace) -> Optional[Violation]:
        inside: set = set()
        for event in trace.events:
            payload = event.payload
            if not (isinstance(payload, tuple) and len(payload) == 2):
                continue
            tag, who = payload
            if tag == "crit":
                inside.add(who)
                if len(inside) > 1:
                    return Violation(
                        self.name,
                        f"{sorted(inside, key=text)} simultaneously in the "
                        "critical region",
                        step=event.step,
                    )
            elif tag == "rem":
                inside.discard(who)
        return None


class BoundedStalenessMonitor(TraceMonitor):
    """Under bounded staleness, agreement must hold — the possible side.

    The Gafni–Losa boundary condition for mobile (transient) faults: a
    process whose messages were dropped in *every* round never got its
    information out, so its view is unboundedly stale and disagreement
    is the impossibility result at work.  But when every process had at
    least one clean round (staleness bounded), information flooded and
    the run sits on the *possible* side of the boundary — honest
    processes disagreeing there is not the planted impossibility, it is
    an engine bug.  This monitor fires exactly in that second case, so a
    mobile-fault corpus exercises both sides of the boundary with a
    built-in no-false-positives check on the possible one.
    """

    name = "bounded-staleness"

    def __init__(
        self,
        muted_rounds: Mapping[Hashable, Iterable[int]],
        rounds: int,
        honest: Iterable[Hashable],
    ):
        self.muted_rounds = {
            pid: frozenset(rnds) for pid, rnds in muted_rounds.items()
        }
        self.rounds = rounds
        self.honest = frozenset(honest)

    def fully_muted(self) -> List[Hashable]:
        """Processes silenced in every round (unbounded staleness)."""
        every = frozenset(range(1, self.rounds + 1))
        return sorted(
            (pid for pid, rnds in self.muted_rounds.items() if rnds >= every),
            key=text,
        )

    def check(self, trace: Trace) -> Optional[Violation]:
        stale = self.fully_muted()
        if stale:
            # Unbounded staleness: the impossible side; any disagreement
            # belongs to the agreement monitor, not this one.
            return None
        decided = {
            actor: value
            for actor, value in _decisions(trace).items()
            if actor in self.honest
        }
        if len(set(decided.values())) > 1:
            detail = ", ".join(
                f"{actor}->{value}"
                for actor, value in sorted(decided.items(), key=text)
            )
            return Violation(
                self.name,
                "every process had a clean round (staleness bounded) yet "
                f"decisions disagree: {detail}",
            )
        return None


class FifoDeliveryMonitor(TraceMonitor):
    """Exactly-once, in-order delivery of the sent message sequence.

    The data-link correctness condition of §2.5: what the receiver
    delivered must be a prefix of what was sent (no duplicates, no
    reordering, no invention), and once the sender believes it is done,
    the prefix must be the whole sequence (no loss).
    """

    name = "fifo-delivery"

    def __init__(self, sent: Sequence[Hashable]):
        self.sent = tuple(sent)

    def check(self, trace: Trace) -> Optional[Violation]:
        outcome = trace.outcome_dict()
        delivered = tuple(outcome.get("delivered", ()))
        if delivered != self.sent[: len(delivered)]:
            return Violation(
                self.name,
                f"delivered {delivered!r} is not a prefix of sent "
                f"{self.sent!r} (duplicate, reordering or invention)",
            )
        if outcome.get("sender_done") and len(delivered) < len(self.sent):
            return Violation(
                self.name,
                f"sender believes all {len(self.sent)} messages are "
                f"acknowledged but only {len(delivered)} were delivered "
                "(loss)",
            )
        return None


class LeaseSafetyMonitor(TraceMonitor):
    """No two leases from different holders ever overlap in time.

    The quorum-lease safety condition: every ``("lease", holder, start,
    expiry)`` declaration names a half-open validity interval
    ``[start, expiry)``; two intervals from *different* holders must be
    disjoint under every partition schedule, because intersecting
    quorums carry a live promise that bars the second grant.  Renewals
    by the same holder legitimately overlap and are ignored.  The
    planted no-quorum-grant bug trips this on a single partition atom.
    """

    name = "lease-safety"

    def check(self, trace: Trace) -> Optional[Violation]:
        grants: List[tuple] = []
        for event in trace.events_of(DECLARE):
            payload = event.payload
            if (
                isinstance(payload, tuple)
                and len(payload) == 4
                and payload[0] == "lease"
            ):
                grants.append((event.step,) + payload[1:])
        for i, (_, h1, s1, e1) in enumerate(grants):
            for step, h2, s2, e2 in grants[i + 1:]:
                if h1 != h2 and s1 < e2 and s2 < e1:
                    return Violation(
                        self.name,
                        f"concurrent leases: holder {h1} owns [{s1},{e1}) "
                        f"while holder {h2} owns [{s2},{e2})",
                        step=step,
                    )
        return None


class LeaderStabilityMonitor(TraceMonitor):
    """The Omega contract: eventually one stable live leader everywhere.

    Once the partition schedule goes quiet, an eventually-accurate
    detector must stop changing its mind: no ``("leader", pid)``
    declaration may land in the final ``window`` steps of the horizon,
    and when the run ends every live process must agree on one live
    leader.  The planted never-stabilizing detector (a timeout below the
    heartbeat interval with adaptation disabled) flaps forever and fires
    this on the empty schedule.
    """

    name = "leader-stability"

    def __init__(self, live: Iterable[Hashable], horizon: int, window: int = 8):
        self.live = frozenset(live)
        self.horizon = horizon
        self.window = window

    def check(self, trace: Trace) -> Optional[Violation]:
        cutoff = self.horizon - self.window
        final: Dict[Hashable, Hashable] = {}
        for event in trace.events_of(DECLARE):
            payload = event.payload
            if not (
                isinstance(payload, tuple)
                and len(payload) == 2
                and payload[0] == "leader"
            ):
                continue
            if event.actor not in self.live:
                continue
            final[event.actor] = payload[1]
            if event.time is not None and event.time >= cutoff:
                return Violation(
                    self.name,
                    f"leader still changing inside the stability window: "
                    f"process {event.actor} switched to {payload[1]} at "
                    f"t={event.time} (cutoff {cutoff})",
                    step=event.step,
                )
        missing = self.live - set(final)
        if missing:
            return Violation(
                self.name,
                f"processes never elected a leader: {sorted(missing, key=text)}",
            )
        leaders = set(final.values())
        if len(leaders) > 1:
            detail = ", ".join(
                f"{actor}->{leader}"
                for actor, leader in sorted(final.items(), key=text)
            )
            return Violation(
                self.name, f"live processes disagree on the leader: {detail}"
            )
        if leaders and not leaders <= self.live:
            (leader,) = leaders
            return Violation(
                self.name, f"everyone elected crashed process {leader}"
            )
        return None


class DegradedModeMonitor(TraceMonitor):
    """Degraded modes degrade: no quorum-less write, no over-stale read.

    The CAP receipt for the lease protocol, checked against the *same*
    :class:`~repro.circumvention.partitions.PartitionAdversary` the
    simulator ran under: a ``("write-ack", value)`` output is only legal
    while its actor can reach a strict majority of the cluster (else the
    node was obligated to be read-only), and a ``("read", version,
    staleness)`` output must stay within the declared staleness bound
    (else the node was obligated to reject the read as stale).
    """

    name = "degraded-mode"

    def __init__(self, partition: PartitionAdversary, staleness_bound: int):
        self.partition = partition
        self.staleness_bound = staleness_bound

    def check(self, trace: Trace) -> Optional[Violation]:
        for event in trace.events_of(OUTPUT):
            payload = event.payload
            if not (isinstance(payload, tuple) and payload):
                continue
            if payload[0] == "write-ack" and event.time is not None:
                if not self.partition.majority_connected(
                    event.time, event.actor
                ):
                    return Violation(
                        self.name,
                        f"node {event.actor} acked write v{payload[1]} at "
                        f"t={event.time} without a majority quorum",
                        step=event.step,
                    )
            elif payload[0] == "read" and len(payload) == 3:
                if payload[2] > self.staleness_bound:
                    return Violation(
                        self.name,
                        f"node {event.actor} served a read {payload[2]} "
                        f"steps stale (bound {self.staleness_bound})",
                        step=event.step,
                    )
        return None


class UniqueLeaderMonitor(TraceMonitor):
    """Exactly one leader is declared (optionally, a specific one)."""

    name = "unique-leader"

    def __init__(self, expected: Optional[Hashable] = None):
        self.expected = expected

    def check(self, trace: Trace) -> Optional[Violation]:
        leaders = [
            event.actor
            for event in trace.events_of(DECLARE)
            if event.payload == "leader"
        ]
        if not leaders:
            leaders = list(trace.outcome_dict().get("leaders", ()))
        if len(leaders) != 1:
            return Violation(
                self.name,
                f"expected exactly one leader, saw {leaders!r}",
            )
        if self.expected is not None and leaders[0] != self.expected:
            return Violation(
                self.name,
                f"leader {leaders[0]!r} is not the expected {self.expected!r}",
            )
        return None
