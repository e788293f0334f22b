"""FloodSet: crash-tolerant consensus in t+1 rounds.

The canonical positive result that the t+1-round lower bound (§2.2.2) is
tight for stopping faults: every process floods the set of values it has
seen for t+1 rounds; with at most t crashes, some round is crash-free, so
all nonfaulty processes end with the same set and decide the same way.

Run with fewer than t+1 rounds, the protocol is *incorrect* — and
:mod:`repro.consensus.lower_bounds` finds the crash schedule that breaks
it, mechanizing the lower bound.
"""

from __future__ import annotations

from typing import Hashable, Mapping, Optional

from .synchronous import Pid, Round, SyncProcess, SyncProtocol


class FloodSetProcess(SyncProcess):
    """Flood the set of seen values; decide by a deterministic rule."""

    def __init__(self, pid, n, t, input_value, total_rounds: int):
        super().__init__(pid, n, t, input_value)
        self.seen = frozenset([input_value])
        self.total_rounds = total_rounds
        self.rounds_received = 0

    def message_to(self, rnd: Round, dest: Pid) -> Hashable:
        return self.seen

    def receive(self, rnd: Round, received: Mapping[Pid, Hashable]) -> None:
        for values in received.values():
            self.seen = self.seen | values
        self.rounds_received = rnd

    def decision(self) -> Optional[Hashable]:
        if self.rounds_received < self.total_rounds:
            return None
        return min(self.seen)

    def state_key(self) -> Hashable:
        return self.seen


class FloodSet(SyncProtocol):
    """The full t+1-round FloodSet protocol.

    ``rounds_override`` truncates the protocol — deliberately breaking it —
    for the lower-bound experiments.  Its processes never read a pid, so
    the protocol is symmetric.
    """

    symmetric = True

    def __init__(self, rounds_override: Optional[int] = None):
        self.rounds_override = rounds_override
        self.name = (
            "floodset"
            if rounds_override is None
            else f"floodset-truncated-{rounds_override}"
        )

    def rounds(self, n: int, t: int) -> int:
        if self.rounds_override is not None:
            return self.rounds_override
        return t + 1

    def spawn(self, pid, n, t, input_value) -> FloodSetProcess:
        return FloodSetProcess(pid, n, t, input_value, self.rounds(n, t))
