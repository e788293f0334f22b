"""Ring network simulators: asynchronous and synchronous (§2.4).

The ring is the survey's favourite network.  Two engines:

* :func:`run_async_ring` — event-driven asynchronous ring with FIFO
  channels and a seeded (or scripted) adversarial scheduler; counts
  messages, which is what every bound in §2.4.2 is about.
* :func:`run_sync_ring` — lockstep rounds, for the synchronous results
  (Frederickson–Lynch, Attiya–Snir–Warmuth) where *silence* carries
  information and time can be traded for messages.

Process interfaces are callback-based and deliberately small; positions
are anonymous — a process knows only its own local state (typically its
ID, if the model grants IDs) and the direction a message came from.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from typing import (
    Callable,
    Dict,
    Hashable,
    List,
    Optional,
    Sequence,
    Tuple,
)

from ..core.budget import BudgetMeter
from ..core.errors import ModelError
from ..core.runtime import (
    DECLARE,
    DELIVER,
    OUTPUT,
    SEND,
    FaultAdversary,
    SimulationRuntime,
    Trace,
)

LEFT = "left"    # towards index - 1
RIGHT = "right"  # towards index + 1

# Actions a process may return from a callback:
#   ("send", direction, message)
#   ("leader",)          — declare itself the leader
#   ("nonleader",)       — declare itself a non-leader
#   ("output", value)    — emit a computed value (function computation)
Action = Tuple


class RingProcess(ABC):
    """One node of a ring network."""

    @abstractmethod
    def on_start(self) -> List[Action]:
        """Actions performed when the process wakes up."""

    @abstractmethod
    def on_message(self, direction: str, message: Hashable) -> List[Action]:
        """Actions performed on receiving ``message`` from ``direction``."""


@dataclass
class RingResult:
    """Outcome of a ring execution."""

    n: int
    messages: int
    leaders: List[int]
    nonleaders: List[int]
    outputs: Dict[int, Hashable]
    steps: int
    rounds: Optional[int] = None  # synchronous runs only
    trace: Optional[Trace] = field(repr=False, default=None, compare=False)

    @property
    def elected_exactly_one(self) -> bool:
        return len(self.leaders) == 1

    @property
    def election_complete(self) -> bool:
        return (
            len(self.leaders) == 1
            and len(self.nonleaders) == self.n - 1
        )


def run_async_ring(
    processes: Optional[Sequence[RingProcess]] = None,
    seed: int = 0,
    max_steps: int = 2_000_000,
    adversary: Optional[FaultAdversary] = None,
    process_factory: Optional[Callable[[], Sequence[RingProcess]]] = None,
    record_trace: bool = True,
    meter: Optional[BudgetMeter] = None,
) -> RingResult:
    """Execute the ring asynchronously with FIFO channels.

    Channels are per (node, direction) FIFO queues; each step delivers the
    head of one nonempty channel, chosen by the ``adversary``'s
    ``schedule`` power (default: seeded-uniform from the runtime RNG).

    The run is recorded in the unified trace schema; passing
    ``process_factory`` (fresh processes per call) instead of — or in
    addition to — ``processes`` makes the trace replayable through
    :func:`repro.core.runtime.replay`.
    """
    if processes is None:
        if process_factory is None:
            raise ModelError("need processes or process_factory")
        processes = list(process_factory())
    n = len(processes)
    runtime = SimulationRuntime(
        substrate="async-ring",
        protocol=type(processes[0]).__name__ if processes else "empty",
        seed=seed,
        adversary=adversary,
        record=record_trace,
    )
    channels: Dict[Tuple[int, str], List[Hashable]] = {}
    messages = 0
    leaders: List[int] = []
    nonleaders: List[int] = []
    outputs: Dict[int, Hashable] = {}
    record = record_trace

    def perform(node: int, actions: List[Action]) -> None:
        nonlocal messages
        for action in actions:
            kind = action[0]
            if kind == "send":
                _tag, direction, message = action
                if direction == RIGHT:
                    dest, arrival = (node + 1) % n, LEFT
                elif direction == LEFT:
                    dest, arrival = (node - 1) % n, RIGHT
                else:
                    raise ModelError(f"unknown direction {direction!r}")
                channels.setdefault((dest, arrival), []).append(message)
                messages += 1
                if record:
                    runtime.emit(SEND, node, (direction, message))
            elif kind == "leader":
                leaders.append(node)
                if record:
                    runtime.emit(DECLARE, node, "leader")
            elif kind == "nonleader":
                nonleaders.append(node)
                if record:
                    runtime.emit(DECLARE, node, "nonleader")
            elif kind == "output":
                outputs[node] = action[1]
                if record:
                    runtime.emit(OUTPUT, node, action[1])
            else:
                raise ModelError(f"unknown action {action!r}")

    for node, proc in enumerate(processes):
        perform(node, proc.on_start())

    steps = 0
    while steps < max_steps:
        if meter is not None:
            meter.charge_steps()
        nonempty = [key for key, queue in channels.items() if queue]
        if not nonempty:
            break
        nonempty.sort()
        node, direction = nonempty[runtime.choose_index(nonempty)]
        message = channels[(node, direction)].pop(0)
        if record:
            runtime.emit(DELIVER, node, (direction, message))
        perform(node, processes[node].on_message(direction, message))
        steps += 1
    if steps >= max_steps:
        raise ModelError(f"async ring did not quiesce within {max_steps} steps")

    trace: Optional[Trace] = None
    if record:
        replayer = None
        if process_factory is not None:
            def replayer(
                _factory=process_factory, _seed=seed, _max=max_steps,
                _adversary=adversary,
            ) -> Trace:
                if _adversary is not None:
                    _adversary.reset()
                return run_async_ring(
                    seed=_seed, max_steps=_max, adversary=_adversary,
                    process_factory=_factory,
                ).trace

        trace = runtime.finish(
            outcome={
                "messages": messages,
                "leaders": tuple(leaders),
                "nonleaders": tuple(sorted(nonleaders)),
            },
            replayer=replayer,
        )
    return RingResult(
        n=n, messages=messages, leaders=leaders, nonleaders=nonleaders,
        outputs=outputs, steps=steps, trace=trace,
    )


class SyncRingProcess(ABC):
    """One node of a synchronous ring: per-round send then receive."""

    @abstractmethod
    def send(self, rnd: int) -> Dict[str, Hashable]:
        """Messages for this round: direction -> message (omit for silence)."""

    @abstractmethod
    def receive(self, rnd: int, received: Dict[str, Hashable]) -> List[Action]:
        """Deliver this round's messages (keys absent = silence)."""

    def active(self, rnd: int) -> bool:
        """True while the process still intends to act in a later round.

        Silence-based algorithms (time-slice) override this so that rounds
        of deliberate silence do not count as quiescence.
        """
        return False


def run_sync_ring(
    processes: Optional[Sequence[SyncRingProcess]] = None,
    max_rounds: int = 1_000_000,
    process_factory: Optional[Callable[[], Sequence[SyncRingProcess]]] = None,
    record_trace: bool = True,
    meter: Optional[BudgetMeter] = None,
) -> RingResult:
    """Execute the ring in lockstep rounds until quiescence.

    Quiescence: a round in which nothing was sent and no process changed
    its declared status.  The message count excludes "null messages" —
    that is the point of the synchronous lower-bound discussion.

    As with :func:`run_async_ring`, the run is recorded in the unified
    trace schema and ``process_factory`` makes the trace replayable.
    """
    if processes is None:
        if process_factory is None:
            raise ModelError("need processes or process_factory")
        processes = list(process_factory())
    n = len(processes)
    runtime = SimulationRuntime(
        substrate="sync-ring",
        protocol=type(processes[0]).__name__ if processes else "empty",
        record=record_trace,
    )
    messages = 0
    leaders: List[int] = []
    nonleaders: List[int] = []
    outputs: Dict[int, Hashable] = {}
    halted = False
    record = record_trace

    rnd = 0
    while not halted and rnd < max_rounds:
        if meter is not None:
            meter.charge_steps()
        rnd += 1
        outbox: Dict[Tuple[int, str], Hashable] = {}
        for node, proc in enumerate(processes):
            for direction, message in proc.send(rnd).items():
                if message is None:
                    continue
                if direction == RIGHT:
                    outbox[((node + 1) % n, LEFT)] = message
                elif direction == LEFT:
                    outbox[((node - 1) % n, RIGHT)] = message
                else:
                    raise ModelError(f"unknown direction {direction!r}")
                messages += 1
                if record:
                    runtime.emit(SEND, node, (direction, message), round=rnd)
        any_action = bool(outbox)
        for node, proc in enumerate(processes):
            received = {
                direction: message
                for (dest, direction), message in outbox.items()
                if dest == node
            }
            if record and received:
                runtime.emit(
                    DELIVER, node, tuple(sorted(received.items())), round=rnd
                )
            for action in proc.receive(rnd, received):
                any_action = True
                if action[0] == "leader":
                    leaders.append(node)
                    if record:
                        runtime.emit(DECLARE, node, "leader", round=rnd)
                elif action[0] == "nonleader":
                    nonleaders.append(node)
                    if record:
                        runtime.emit(DECLARE, node, "nonleader", round=rnd)
                elif action[0] == "output":
                    outputs[node] = action[1]
                    if record:
                        runtime.emit(OUTPUT, node, action[1], round=rnd)
                else:
                    raise ModelError(f"unknown action {action!r}")
        if not any_action and not any(
            proc.active(rnd) for proc in processes
        ):
            halted = True

    trace: Optional[Trace] = None
    if record:
        replayer = None
        if process_factory is not None:
            def replayer(_factory=process_factory, _max=max_rounds) -> Trace:
                return run_sync_ring(
                    max_rounds=_max, process_factory=_factory
                ).trace

        trace = runtime.finish(
            outcome={
                "messages": messages,
                "leaders": tuple(leaders),
                "rounds": rnd,
            },
            replayer=replayer,
        )
    return RingResult(
        n=n, messages=messages, leaders=leaders, nonleaders=nonleaders,
        outputs=outputs, steps=rnd, rounds=rnd, trace=trace,
    )
