"""The Ben-Or simulator's delivery step as it was before the flight
list stopped holding messages to crashed processes — kept only as the
differential reference for ``tests/test_benor_differential.py``.

Here a crash removes only the crashed process's *outgoing* messages and
later sends still address it, so ``done`` and ``step`` rebuild the list
of deliverable indices (messages whose destination is alive) over the
whole flight list on every delivery.
"""

from __future__ import annotations

from repro.circumvention.randomized import _BenOrSim
from repro.core.runtime import CRASH, DECIDE, DELIVER, SEND, drive


class ReferenceBenOrSim(_BenOrSim):
    def _drain(self) -> None:
        for proc in self.processes:
            if proc.pid in self.crashed:
                proc.outbox.clear()
                continue
            for msg in proc.outbox:
                self._emit(proc.pid, SEND, msg, phase=msg[1])
                for dst in range(self.n):
                    if dst != proc.pid:
                        self.flight.append((proc.pid, dst, msg))
            proc.outbox.clear()

    def _crash_due(self) -> None:
        for pid, when in self.adversary.crash_at.items():
            if self.k >= when and pid not in self.crashed:
                self.crashed.add(pid)
                self._emit(pid, CRASH, ("at", self.k))
                self.flight = [
                    (s, d, m) for (s, d, m) in self.flight if s != pid
                ]

    @property
    def done(self) -> bool:
        live_undecided = [
            p
            for p in range(self.n)
            if p not in self.crashed and self.processes[p].decided is None
        ]
        if not live_undecided:
            return True
        deliverable = [
            i
            for i, (_s, d, _m) in enumerate(self.flight)
            if d not in self.crashed
        ]
        return not deliverable or self.k >= self.max_events

    def step(self) -> None:
        self._crash_due()
        deliverable = [
            i
            for i, (_s, d, _m) in enumerate(self.flight)
            if d not in self.crashed
        ]
        if not deliverable:
            return
        choice = self.adversary.schedule(self.k, len(deliverable), self.rng)
        src, dst, msg = self.flight.pop(deliverable[choice])
        self._emit(dst, DELIVER, (src, msg), phase=msg[1])
        before = self.processes[dst].decided
        self.processes[dst].handle(src, msg)
        after = self.processes[dst].decided
        if before is None and after is not None:
            self._emit(dst, DECIDE, after, phase=self._phase_of(dst))
        self.k += 1
        self._drain()


def run_reference(atoms, seed, *, n, t, inputs, biased_coin, max_events):
    """One reference run, driven exactly as ``run_ben_or_traced`` drives
    the current simulator."""
    atoms = tuple(atoms)
    return drive(
        lambda: ReferenceBenOrSim(
            atoms, seed, n, t, inputs, biased_coin, max_events
        )
    )
