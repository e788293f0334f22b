"""Quorum leases under partition adversaries, with explicit degraded modes.

The CAP negotiation, mechanized.  A cluster of ``n`` nodes elects a
leaseholder by quorum promise: a node with no valid lease in sight
requests one, every acceptor that hears it acks the lowest-pid requester
*iff* its standing promise allows, and a requester collecting a strict
majority of acks holds the lease until expiry.  Because promises persist
until the lease they backed expires and any two quorums intersect, **no
two leases from different holders ever overlap** — under every split,
asymmetric-cut and crash schedule the
:class:`~repro.circumvention.partitions.PartitionAdversary` can throw
(:class:`~repro.chaos.monitors.LeaseSafetyMonitor` checks exactly this).

Impossibility is negotiated, not defeated: what a partition takes away
is *availability*, surfaced as three explicit degraded modes instead of
silent wrongness —

* a leaseholder cut off from a majority drops to **read-only**: it
  declares ``("degraded", "read-only")`` and rejects writes with a
  structured ``("write-reject", "no-quorum")``;
* nodes that are not the leaseholder (minority partitions included)
  reject writes with ``("write-reject", "not-leader")``;
* reads are **bounded-staleness**: a replica serves a read only while
  its last-seen commit is at most ``staleness_bound`` steps old, and
  rejects with ``("read-reject", "stale")`` otherwise.

The planted bug (``buggy_no_quorum=True``) grants a lease on *any* ack
— a node isolated by one split (or one asymmetric cut) self-acks its
way to a second concurrent lease, and writes without re-checking quorum.
One partition atom suffices, which is what ddmin shrinks the fuzzer's
findings down to.

Deterministic (no RNG: delivery is same-step, masked by the partition),
replayable, and budget-threaded through :func:`~repro.core.runtime.drive`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from ..core.budget import Budget, BudgetMeter
from ..core.runtime import (
    DECLARE,
    OUTPUT,
    SEND,
    RunRecord,
    SimulationRuntime,
    drive,
)
from .partitions import PartitionAdversary, Schedule

SUBSTRATE = "quorum-lease"

LEASE = "lease"
DEGRADED = "degraded"
WRITE_ACK = "write-ack"
WRITE_REJECT = "write-reject"
READ = "read"
READ_REJECT = "read-reject"


@dataclass
class LeaseRun(RunRecord):
    """One quorum-lease run (possibly partial, see :func:`drive`)."""

    leases: Tuple[Tuple[int, int, int], ...]
    commits: int


class _LeaseSim:
    """Mutable state: promises, known leases, replica versions."""

    context = "quorum-lease"

    def __init__(
        self,
        atoms: Schedule,
        seed: Optional[int],
        n: int,
        horizon: int,
        lease_len: int,
        renew_margin: int,
        staleness_bound: int,
        write_every: int,
        read_every: int,
        buggy_no_quorum: bool,
    ):
        self.runtime = SimulationRuntime(
            SUBSTRATE,
            "quorum-lease-bug" if buggy_no_quorum else "quorum-lease",
            seed,
        )
        self.partition = PartitionAdversary(atoms, n)
        self.n = self.cost = n
        self.horizon = horizon
        self.lease_len = lease_len
        self.renew_margin = renew_margin
        self.staleness_bound = staleness_bound
        self.write_every = write_every
        self.read_every = read_every
        self.buggy_no_quorum = buggy_no_quorum
        self.quorum = n // 2 + 1
        self.t = 0
        #: acceptor promise: pid -> (holder, expiry) or None
        self.promise: List[Optional[Tuple[int, int]]] = [None] * n
        #: last lease each node knows: (holder, start, expiry) or None
        self.known: List[Optional[Tuple[int, int, int]]] = [None] * n
        self.version = [0] * n
        self.last_commit = [0] * n
        self.degraded = [False] * n
        self.leases: List[Tuple[int, int, int]] = []
        self.commits = 0

    def _emit(self, actor, kind, payload):
        self.runtime.emit(kind, actor, payload, time=self.t)

    @property
    def done(self) -> bool:
        return self.t >= self.horizon

    # -- helpers -----------------------------------------------------------

    def _holds_lease(self, p: int) -> bool:
        lease = self.known[p]
        return (
            lease is not None and lease[0] == p and self.t < lease[2]
        )

    def _wants_lease(self, p: int) -> bool:
        lease = self.known[p]
        if lease is None or self.t >= lease[2]:
            return True  # no valid lease in sight: run for it
        # The holder renews inside the margin; everyone else waits.
        return lease[0] == p and self.t >= lease[2] - self.renew_margin

    # -- one step ----------------------------------------------------------

    def step(self) -> None:
        t = self.t
        part = self.partition
        # Bit q of rows[p]: a message p->q sent this step arrives.  A
        # live process always reaches itself, a crashed one nothing.
        rows = part.reach(t)
        live = [p for p in range(self.n) if rows[p] >> p & 1]

        # 1. Lease requests and quorum promises (same-step RPC, masked
        #    by the partition in both directions).
        requesters = [p for p in live if self._wants_lease(p)]
        for p in requesters:
            self._emit(p, SEND, ("lease-request",))
        acks: Dict[int, int] = {p: 0 for p in requesters}
        for q in live:
            heard = [p for p in requesters if rows[p] >> q & 1]
            if not heard:
                continue
            grantee = min(heard)
            promise = self.promise[q]
            if (
                promise is not None
                and t < promise[1]
                and promise[0] != grantee
            ):
                continue  # a live promise bars conflicting acks
            self.promise[q] = (grantee, t + self.lease_len)
            if rows[q] >> grantee & 1:
                acks[grantee] += 1
        needed = 1 if self.buggy_no_quorum else self.quorum
        for p in requesters:
            if acks[p] < needed:
                continue
            lease = (p, t, t + self.lease_len)
            self.leases.append(lease)
            self.known[p] = lease
            self._emit(p, DECLARE, (LEASE,) + lease)
            for q in live:
                if q != p and rows[p] >> q & 1:
                    current = self.known[q]
                    if current is None or lease[2] > current[2]:
                        self.known[q] = lease

        # 2. Client writes: every node fields one attempt per write tick.
        if t % self.write_every == 0:
            for p in live:
                if not self._holds_lease(p):
                    self._emit(p, OUTPUT, (WRITE_REJECT, "not-leader"))
                    continue
                if not self.buggy_no_quorum and not part.majority_connected(
                    t, p
                ):
                    # Leader without a quorum: explicit read-only mode.
                    if not self.degraded[p]:
                        self.degraded[p] = True
                        self._emit(p, DECLARE, (DEGRADED, "read-only"))
                    self._emit(p, OUTPUT, (WRITE_REJECT, "no-quorum"))
                    continue
                if self.degraded[p]:
                    self.degraded[p] = False
                    self._emit(p, DECLARE, (DEGRADED, "restored"))
                value = self.version[p] + 1
                self.commits += 1
                for q in live:
                    if rows[p] >> q & 1:
                        self.version[q] = max(self.version[q], value)
                        self.last_commit[q] = t
                self._emit(p, OUTPUT, (WRITE_ACK, value))

        # 3. Bounded-staleness reads.
        if t % self.read_every == 0:
            for p in live:
                staleness = t - self.last_commit[p]
                if staleness <= self.staleness_bound:
                    self._emit(p, OUTPUT, (READ, self.version[p], staleness))
                else:
                    self._emit(p, OUTPUT, (READ_REJECT, "stale"))

        self.t = t + 1

    def outcome(self) -> Dict:
        return {
            "leases": tuple(self.leases),
            "commits": self.commits,
            "versions": tuple(self.version),
            "complete": self.done,
        }

    def record(self, **base) -> LeaseRun:
        return LeaseRun(leases=tuple(self.leases), commits=self.commits, **base)


def run_quorum_lease(
    atoms: Schedule,
    seed: Optional[int] = None,
    *,
    n: int = 4,
    horizon: int = 48,
    lease_len: int = 8,
    renew_margin: int = 2,
    staleness_bound: int = 8,
    write_every: int = 3,
    read_every: int = 5,
    buggy_no_quorum: bool = False,
    meter: Optional[BudgetMeter] = None,
    budget: Optional[Budget] = None,
    resume: Optional[LeaseRun] = None,
) -> LeaseRun:
    """Run (or resume) one quorum-lease simulation; ``meter``, ``budget``
    and ``resume`` follow :func:`~repro.core.runtime.drive`."""
    atoms = tuple(atoms)
    return drive(
        lambda: _LeaseSim(
            atoms, seed, n, horizon, lease_len, renew_margin,
            staleness_bound, write_every, read_every, buggy_no_quorum,
        ),
        meter=meter,
        budget=budget,
        resume=resume,
    )
