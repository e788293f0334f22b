"""The rotating-coordinator engine as it was before it became the DLS
engine under a suspicion oracle — kept only as the differential
reference for ``tests/test_coordinator_differential.py``.

Each round rotates the coordinator ``c = r mod n``; every estimate
reaches it, it proposes the most recently locked one, and every process
acks unless it suspects the coordinator.  A strict-majority quorum of
acks decides for everyone at once.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

DECIDE = "decide"


class ReferenceRotatingConsensus:
    """Estimates, timestamps, the round cursor and the event log."""

    def __init__(self, atoms, inputs: Sequence[int], max_rounds: int = 64):
        self.n = len(inputs)
        self.quorum = self.n // 2 + 1
        self.max_rounds = max_rounds
        self.scripted = {atom[1:] for atom in atoms if atom[0] == "suspect"}
        self.relentless = {atom[1] for atom in atoms if atom[0] == "relentless"}
        self.rnd = 0
        self.estimate = list(inputs)
        self.timestamp = [-1] * self.n
        self.decided: Optional[int] = None
        #: (round, actor, kind, payload) per event
        self.events: List[Tuple[int, int, str, object]] = []

    def suspects(self, rnd: int, pid: int, coordinator: int) -> bool:
        if pid == coordinator:
            return False
        return pid in self.relentless or (rnd, pid) in self.scripted

    def step_round(self) -> None:
        r = self.rnd
        c = r % self.n
        for p in range(self.n):
            self.events.append((r, p, "send", "estimate"))
        best = max(range(self.n), key=lambda p: (self.timestamp[p], -p))
        proposal = self.estimate[best]
        self.events.append((r, c, "send", ("propose", proposal)))
        acks = 0
        for p in range(self.n):
            if self.suspects(r, p, c):
                self.events.append((r, p, "declare", "nack"))
            else:
                self.estimate[p] = proposal
                self.timestamp[p] = r
                self.events.append((r, p, "declare", "ack"))
                acks += 1
        if acks >= self.quorum:
            self.decided = proposal
            for p in range(self.n):
                self.events.append((r, p, DECIDE, proposal))
        self.rnd = r + 1

    @property
    def done(self) -> bool:
        return self.decided is not None or self.rnd >= self.max_rounds


def run_reference(atoms, inputs, max_rounds: int = 64, meter=None):
    """Run to completion, charging ``meter`` ``n`` steps per round."""
    sim = ReferenceRotatingConsensus(atoms, inputs, max_rounds)
    while not sim.done:
        if meter is not None:
            meter.charge_steps(sim.n)
        sim.step_round()
    return sim
