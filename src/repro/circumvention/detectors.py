"""Heartbeat failure detectors: eventually-perfect suspicion and Omega.

Chandra–Toueg's answer to FLP: consensus is unsolvable in a pure
asynchronous system, but add an *unreliable failure detector* — local
suspicion lists that may be wrong for a while, as long as they are
eventually accurate — and rotating-coordinator consensus terminates.
This module is the runtime half of that circumvention: a discrete-time
heartbeat simulator over a :class:`~repro.circumvention.partitions.
PartitionAdversary`, producing for each process

* a **suspicion list** (the eventually-perfect / eventually-weak
  detector output): peer ``q`` is suspected once nothing has been heard
  from it for longer than the current per-link timeout;
* an **Omega leader**: the minimum pid the process does not suspect —
  the leader oracle rotating-coordinator consensus and leader leases
  consume.

Two properties the hypothesis suite checks on every seed:

* **completeness** — a crashed process stops heartbeating, so every
  live process eventually suspects it permanently;
* **eventual accuracy** — with ``adaptive=True`` a false suspicion
  doubles the offended link's timeout on recovery, so once the
  partition schedule goes quiet, suspicions of live peers die out and
  every live process settles on the same live leader.

The planted-bug configuration (``adaptive=False`` with a timeout below
the heartbeat interval) never stabilizes: every heartbeat arrival
re-trusts a peer the gap just re-suspected, the leader flaps forever,
and :class:`~repro.chaos.monitors.LeaderStabilityMonitor` fires on the
*empty* schedule — the detector itself is the counterexample.

Runs are deterministic functions of ``(atoms, seed)`` (the seed drives
per-heartbeat delivery jitter), replayable byte-identically, and
budget-threaded through :func:`~repro.core.runtime.drive`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from ..core.budget import Budget, BudgetMeter
from ..core.runtime import DECLARE, SEND, RunRecord, SimulationRuntime, drive
from .partitions import PartitionAdversary, Schedule

SUBSTRATE = "failure-detector"

#: Declaration payload tags (each rides in a DECLARE event's payload).
SUSPECT = "suspect"
TRUST = "trust"
LEADER = "leader"


@dataclass
class DetectorRun(RunRecord):
    """One heartbeat-detector run (possibly partial, see :func:`drive`)."""

    suspects: Dict[int, Tuple[int, ...]]
    leaders: Dict[int, int]
    leader_changes: int
    last_change: int


class _DetectorSim:
    """The mutable simulator: all state needed to take one more step."""

    context = "heartbeat-detector"

    def __init__(
        self,
        atoms: Schedule,
        seed: Optional[int],
        n: int,
        horizon: int,
        heartbeat_every: int,
        initial_timeout: int,
        adaptive: bool,
        jitter: int,
    ):
        self.runtime = SimulationRuntime(SUBSTRATE, "heartbeat-detector", seed)
        self.partition = PartitionAdversary(atoms, n)
        self.n = self.cost = n
        self.horizon = horizon
        self.heartbeat_every = heartbeat_every
        self.adaptive = adaptive
        self.jitter = jitter
        self.t = 0
        self.last_heard = [[0] * n for _ in range(n)]
        self.timeout = [[initial_timeout] * n for _ in range(n)]
        self.suspects: List[set] = [set() for _ in range(n)]
        self.leader: List[Optional[int]] = [None] * n
        self.leader_changes = 0
        self.last_change = 0
        #: in-flight heartbeats: (arrival step, src, dst), kept sorted
        self.inflight: List[Tuple[int, int, int]] = []

    def _emit(self, actor, kind, payload):
        self.runtime.emit(kind, actor, payload, time=self.t)

    @property
    def done(self) -> bool:
        return self.t >= self.horizon

    def step(self) -> None:
        t = self.t
        part = self.partition
        # 1. deliveries due this step, in (arrival, src, dst) order
        due = [m for m in self.inflight if m[0] == t]
        if due:
            self.inflight = [m for m in self.inflight if m[0] != t]
        for _, src, dst in sorted(due):
            if part.crashed(t, dst):
                continue
            self.last_heard[dst][src] = t
            if src in self.suspects[dst]:
                self.suspects[dst].discard(src)
                if self.adaptive:
                    self.timeout[dst][src] *= 2
                self._emit(dst, DECLARE, (TRUST, src))
                self.last_change = t
        # 2. heartbeat broadcast
        if t % self.heartbeat_every == 0:
            for p in range(self.n):
                if part.crashed(t, p):
                    continue
                self._emit(p, SEND, ("hb", t))
                for q in range(self.n):
                    if q == p or part.blocked(t, p, q):
                        continue
                    delay = 1 + (
                        self.runtime.rng.randrange(self.jitter + 1)
                        if self.jitter > 0
                        else 0
                    )
                    self.inflight.append((t + delay, p, q))
        # 3. timeout-driven suspicion, then leader recomputation
        for p in range(self.n):
            if part.crashed(t, p):
                continue
            for q in range(self.n):
                if q == p or q in self.suspects[p]:
                    continue
                if t - self.last_heard[p][q] > self.timeout[p][q]:
                    self.suspects[p].add(q)
                    self._emit(p, DECLARE, (SUSPECT, q))
                    self.last_change = t
            trusted = [
                q for q in range(self.n) if q not in self.suspects[p]
            ]
            new_leader = min(trusted) if trusted else p
            if new_leader != self.leader[p]:
                self.leader[p] = new_leader
                self._emit(p, DECLARE, (LEADER, new_leader))
                if t > 0:
                    self.leader_changes += 1
                self.last_change = t
        self.t = t + 1

    def outcome(self) -> Dict:
        live = [
            p for p in range(self.n) if not self.partition.crashed(self.t, p)
        ]
        return {
            "leaders": tuple((p, self.leader[p]) for p in live),
            "suspects": tuple(
                (p, tuple(sorted(self.suspects[p]))) for p in live
            ),
            "leader_changes": self.leader_changes,
            "last_change": self.last_change,
            "crashed": tuple(sorted(self.partition.ever_crashed())),
            "complete": self.done,
        }

    def record(self, **base) -> DetectorRun:
        return DetectorRun(
            suspects={
                p: tuple(sorted(self.suspects[p])) for p in range(self.n)
            },
            leaders={
                p: self.leader[p]
                for p in range(self.n)
                if self.leader[p] is not None
            },
            leader_changes=self.leader_changes,
            last_change=self.last_change,
            **base,
        )


def run_heartbeat_detector(
    atoms: Schedule,
    seed: Optional[int] = None,
    *,
    n: int = 4,
    horizon: int = 40,
    heartbeat_every: int = 3,
    initial_timeout: int = 4,
    adaptive: bool = True,
    jitter: int = 1,
    meter: Optional[BudgetMeter] = None,
    budget: Optional[Budget] = None,
    resume: Optional[DetectorRun] = None,
) -> DetectorRun:
    """Run (or resume) one heartbeat-detector simulation; ``meter``,
    ``budget`` and ``resume`` follow :func:`~repro.core.runtime.drive`."""
    atoms = tuple(atoms)
    return drive(
        lambda: _DetectorSim(
            atoms, seed, n, horizon, heartbeat_every,
            initial_timeout, adaptive, jitter,
        ),
        meter=meter,
        budget=budget,
        resume=resume,
    )
