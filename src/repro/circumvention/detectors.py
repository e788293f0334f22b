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
        #: in-flight heartbeats: arrival step -> [(src, dst), ...]
        self.arrivals: Dict[int, List[Tuple[int, int]]] = {}

    @property
    def done(self) -> bool:
        return self.t >= self.horizon

    def step(self) -> None:
        t = self.t
        n = self.n
        part = self.partition
        alive = part.alive_mask(t)
        emit = self.runtime.emit
        suspects = self.suspects
        # 1. deliveries due this step, in (src, dst) order
        due = self.arrivals.pop(t, None)
        if due:
            for src, dst in sorted(due):
                if not alive >> dst & 1:
                    continue
                self.last_heard[dst][src] = t
                if src in suspects[dst]:
                    suspects[dst].discard(src)
                    if self.adaptive:
                        self.timeout[dst][src] *= 2
                    emit(DECLARE, dst, (TRUST, src), time=t)
                    self.last_change = t
        # 2. heartbeat broadcast
        if t % self.heartbeat_every == 0:
            rows = part.reach(t)
            jitter = self.jitter
            rng = self.runtime.rng
            arrivals = self.arrivals
            for p in range(n):
                if not alive >> p & 1:
                    continue
                emit(SEND, p, ("hb", t), time=t)
                row = rows[p]
                for q in range(n):
                    if q == p or not row >> q & 1:
                        continue
                    delay = 1 + (rng.randrange(jitter + 1) if jitter > 0 else 0)
                    arrivals.setdefault(t + delay, []).append((p, q))
        # 3. timeout-driven suspicion, then leader recomputation
        leader = self.leader
        for p in range(n):
            if not alive >> p & 1:
                continue
            suspected = suspects[p]
            heard = self.last_heard[p]
            timeout = self.timeout[p]
            for q in range(n):
                if q != p and q not in suspected and (
                    t - heard[q] > timeout[q]
                ):
                    suspected.add(q)
                    emit(DECLARE, p, (SUSPECT, q), time=t)
                    self.last_change = t
            for new_leader in range(n):
                if new_leader not in suspected:
                    break
            else:
                new_leader = p
            if new_leader != leader[p]:
                leader[p] = new_leader
                emit(DECLARE, p, (LEADER, new_leader), time=t)
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
