"""The firing squad problem: simultaneity under faults (§2.2.1, [31]).

Coan–Dolev–Dwork–Stockmeyer studied the *firing squad*: after some
process receives a start signal, all correct processes must "fire" in the
very same round — agreement not just on a value but on a *time*.  The
survey highlights their lower bounds (proved by scenario chains and by
reduction from weak Byzantine agreement).

We build the crash-fault positive side on the synchronous substrate and
verify simultaneity *exhaustively* over the crash-pattern space the E4
machinery already enumerates:

* :class:`FloodingFiringSquad` — flood the start signal; fire at a fixed
  round t + 2 after the origin.  With at most t crashes, flooding reaches
  every correct process within t + 1 rounds, so all correct processes
  fire together;
* :class:`HastyFiringSquad` — fires one round too early (as soon as the
  signal is heard), and :func:`find_simultaneity_violation` produces the
  crash pattern that splits its firing rounds — the t+1-relay floor, in
  simultaneity clothing.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Hashable, List, Mapping, Optional

from .lower_bounds import crash_search
from .synchronous import (
    SyncAdversary,
    Pid,
    Round,
    SyncProcess,
    SyncProtocol,
)

GO = "go"


class _FiringProcess(SyncProcess):
    """Relay the start signal; fire at a fixed offset from the origin.

    The input value 1 marks the initiator (it "receives the start signal
    before round 1").  Messages carry the age of the signal, so every
    hearer can compute the origin round and the common firing round.
    """

    def __init__(self, pid, n, t, input_value, fire_offset: int):
        super().__init__(pid, n, t, input_value)
        self.fire_offset = fire_offset
        self.heard_age: Optional[int] = 0 if input_value == 1 else None
        self.fired_at: Optional[Round] = None
        self.rounds_done = 0

    def message_to(self, rnd: Round, dest: Pid) -> Optional[Hashable]:
        if self.heard_age is None:
            return None
        return (GO, self.heard_age + (rnd - self.rounds_done - 1))

    def receive(self, rnd: Round, received: Mapping[Pid, Hashable]) -> None:
        if self.heard_age is not None:
            self.heard_age += rnd - self.rounds_done
        for msg in received.values():
            if isinstance(msg, tuple) and msg[0] == GO:
                age = msg[1] + 1
                if self.heard_age is None or age > self.heard_age:
                    self.heard_age = age
        self.rounds_done = rnd
        if (
            self.fired_at is None
            and self.heard_age is not None
            and self.heard_age >= self.fire_offset
        ):
            self.fired_at = rnd

    def decision(self) -> Optional[Round]:
        return self.fired_at

    def state_key(self) -> Hashable:
        return self.heard_age, self.fired_at


class FloodingFiringSquad(SyncProtocol):
    """Fire at signal-age t + 2: simultaneous under <= t crashes."""

    def __init__(self):
        self.name = "flooding-firing-squad"

    def rounds(self, n: int, t: int) -> int:
        return t + 3

    def spawn(self, pid, n, t, input_value):
        return _FiringProcess(pid, n, t, input_value, fire_offset=t + 2)


class HastyFiringSquad(SyncProtocol):
    """Fires as soon as the signal is one round old: splittable."""

    def __init__(self):
        self.name = "hasty-firing-squad"

    def rounds(self, n: int, t: int) -> int:
        return t + 3

    def spawn(self, pid, n, t, input_value):
        return _FiringProcess(pid, n, t, input_value, fire_offset=1)


@dataclass
class SimultaneityResult:
    """``runs_checked`` counts crash patterns up to and including the
    violation; ``rounds_simulated`` the rounds the crash tree simulated."""

    protocol_name: str
    runs_checked: int
    violation_adversary: Optional[SyncAdversary]
    firing_rounds: Optional[Dict[Pid, Optional[Round]]]
    rounds_simulated: int = 0


def _split_firing(_inputs, fired: List[Optional[Round]]) -> Optional[str]:
    """Two correct processes fire in different rounds, or one fires and
    another never does."""
    return "simultaneity" if len(set(fired)) > 1 else None


def find_simultaneity_violation(
    protocol: SyncProtocol, n: int, t: int, initiator: Pid = 0
) -> SimultaneityResult:
    """Exhaust the crash-pattern space looking for split firing rounds.

    A violation: two correct processes fire in different rounds, or one
    fires and another never does.  The patterns are walked as one crash
    tree (:func:`~repro.consensus.lower_bounds.crash_search`); the first
    violating pattern in :func:`enumerate_crash_adversaries` order is
    rebuilt by :func:`run_synchronous`.
    """
    inputs = tuple(1 if pid == initiator else 0 for pid in range(n))
    result = crash_search(protocol, n, t, None, [inputs], _split_firing)
    run = result.violation
    adversary = fired = None
    if run is not None:
        adversary = run.adversary
        fired = {pid: run.decisions[pid] for pid in run.honest_pids}
    return SimultaneityResult(
        protocol.name, result.runs_checked, adversary, fired,
        result.rounds_simulated,
    )
