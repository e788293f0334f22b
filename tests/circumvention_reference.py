"""The heartbeat detector's and the quorum lease's steps and the
partition adversary's link queries as they were before per-step
bitmasks and arrival buckets — kept only as the differential reference
for ``tests/test_circumvention_differential.py``.

Here the detector scans the whole in-flight list twice per step (once
for the heartbeats due, once to drop them), and both simulators ask the
adversary about each process and link separately: ``crashed(t, pid)``
and ``blocked(t, src, dst)`` re-walk the step's splits and cuts on every
call.
"""

from __future__ import annotations

from repro.circumvention.detectors import (
    LEADER,
    SUSPECT,
    TRUST,
    _DetectorSim,
)
from repro.circumvention.leases import (
    DEGRADED,
    LEASE,
    READ,
    READ_REJECT,
    WRITE_ACK,
    WRITE_REJECT,
    _LeaseSim,
)
from repro.circumvention.partitions import CUT, DOWN, SPLIT
from repro.core.runtime import DECLARE, OUTPUT, SEND, drive


class ReferencePartition:
    """Per-query link and liveness logic over a partition schedule."""

    def __init__(self, atoms, n):
        self.n = n
        self.splits = {}
        self.cuts = {}
        self.crashed_at = {}
        for atom in atoms:
            tag = atom[0]
            if tag == SPLIT:
                _, t, mask = atom
                self.splits.setdefault(t, set()).add(mask & ((1 << n) - 1))
            elif tag == CUT:
                _, t, a, b = atom
                self.cuts.setdefault(t, set()).add((a, b))
            elif tag == DOWN:
                _, t, pid = atom
                prior = self.crashed_at.get(pid)
                if prior is None or t < prior:
                    self.crashed_at[pid] = t

    def crashed(self, t, pid):
        at = self.crashed_at.get(pid)
        return at is not None and t >= at

    def blocked(self, t, src, dst):
        if self.crashed(t, src) or self.crashed(t, dst):
            return True
        if src == dst:
            return False
        for mask in self.splits.get(t, ()):
            if bool(mask >> src & 1) != bool(mask >> dst & 1):
                return True
        cuts = self.cuts.get(t)
        return cuts is not None and (src, dst) in cuts

    def connected(self, t, a, b):
        return not self.blocked(t, a, b) and not self.blocked(t, b, a)

    def majority_connected(self, t, pid):
        if self.crashed(t, pid):
            return False
        reach = sum(1 for q in range(self.n) if self.connected(t, pid, q))
        return reach > self.n // 2


class ReferenceDetectorSim(_DetectorSim):
    def __init__(self, atoms, *args):
        super().__init__(atoms, *args)
        self.reference = ReferencePartition(atoms, self.n)
        #: in-flight heartbeats: (arrival step, src, dst)
        self.inflight = []

    def _emit(self, actor, kind, payload):
        self.runtime.emit(kind, actor, payload, time=self.t)

    def step(self):
        t = self.t
        part = self.reference
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


def run_reference_detector(
    atoms, seed, *, n, horizon, heartbeat_every, initial_timeout, adaptive,
    jitter,
):
    """One reference run, driven exactly as ``run_heartbeat_detector``
    drives the current simulator."""
    atoms = tuple(atoms)
    return drive(
        lambda: ReferenceDetectorSim(
            atoms, seed, n, horizon, heartbeat_every, initial_timeout,
            adaptive, jitter,
        )
    )


class ReferenceLeaseSim(_LeaseSim):
    def __init__(self, atoms, *args):
        super().__init__(atoms, *args)
        self.reference = ReferencePartition(atoms, self.n)

    def step(self):
        t = self.t
        part = self.reference
        live = [p for p in range(self.n) if not part.crashed(t, p)]
        requesters = [p for p in live if self._wants_lease(p)]
        for p in requesters:
            self._emit(p, SEND, ("lease-request",))
        acks = {p: 0 for p in requesters}
        for q in live:
            heard = [p for p in requesters if not part.blocked(t, p, q)]
            if not heard:
                continue
            grantee = min(heard)
            promise = self.promise[q]
            if (
                promise is not None
                and t < promise[1]
                and promise[0] != grantee
            ):
                continue
            self.promise[q] = (grantee, t + self.lease_len)
            if not part.blocked(t, q, grantee):
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
                if q != p and not part.blocked(t, p, q):
                    current = self.known[q]
                    if current is None or lease[2] > current[2]:
                        self.known[q] = lease
        if t % self.write_every == 0:
            for p in live:
                if not self._holds_lease(p):
                    self._emit(p, OUTPUT, (WRITE_REJECT, "not-leader"))
                    continue
                if not self.buggy_no_quorum and not part.majority_connected(
                    t, p
                ):
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
                    if not part.blocked(t, p, q):
                        self.version[q] = max(self.version[q], value)
                        self.last_commit[q] = t
                self._emit(p, OUTPUT, (WRITE_ACK, value))
        if t % self.read_every == 0:
            for p in live:
                staleness = t - self.last_commit[p]
                if staleness <= self.staleness_bound:
                    self._emit(p, OUTPUT, (READ, self.version[p], staleness))
                else:
                    self._emit(p, OUTPUT, (READ_REJECT, "stale"))
        self.t = t + 1


def run_reference_lease(
    atoms, seed, *, n, horizon, lease_len, renew_margin, staleness_bound,
    write_every, read_every, buggy_no_quorum,
):
    """One reference run, driven exactly as ``run_quorum_lease`` drives
    the current simulator."""
    atoms = tuple(atoms)
    return drive(
        lambda: ReferenceLeaseSim(
            atoms, seed, n, horizon, lease_len, renew_margin,
            staleness_bound, write_every, read_every, buggy_no_quorum,
        )
    )
