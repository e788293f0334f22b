"""Mechanized Burns–Lynch register bound, n = 2 case (survey §2.1, E2).

"Mutual exclusion for n processes requires at least n read/write
registers."  Rather than enumerate protocols, we implement the proof
itself as an *adversary*: a procedure that takes an arbitrary 2-process
algorithm using a single read/write register and constructs a violating
execution, by the covering argument — (1) a process must write before
entering its critical region (or it is invisible), and (2) a write to
the only register obliterates all evidence that the other process ever
ran.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Hashable, List, Optional, Tuple

from ..core.errors import ModelError
from ..core.execution import Execution
from ..core.freeze import frozendict
from ..impossibility.certificate import CounterexampleCertificate
from .mutex.base import CRITICAL, MutexProcess, MutexSystem, REMAINDER
from .variables import Access, Read, Write, read, write


@dataclass
class SoloRun:
    """A process's solo behaviour: inputs + steps until critical entry.

    ``actions`` replays against the full system; ``first_write_index``
    locates the process's first write step within them (None if it enters
    its critical region without writing).  ``enters`` is False when the
    solo run cycles without entering (a progress violation on its own).
    """

    victim: str
    actions: Tuple
    first_write_index: Optional[int]
    enters: bool


def _classify_access(access: Access) -> str:
    if isinstance(access.op, Read):
        return "read"
    if isinstance(access.op, Write):
        return "write"
    raise ModelError(
        "the Burns–Lynch adversary applies to read/write algorithms only; "
        f"found operation {access.op!r}"
    )


def _solo_run(system: MutexSystem, victim: str, budget: int = 10_000) -> SoloRun:
    """Simulate ``victim`` running alone from the initial state."""
    state = next(iter(system.initial_states()))
    proc = system.process_named(victim)
    actions: List = [("try", victim)]
    state = next(iter(system.apply(state, ("try", victim))))
    first_write: Optional[int] = None
    seen = {state}
    for _ in range(budget):
        local = system.local_state(state, victim)
        output = proc.output_action(local)
        if output is not None:
            actions.append(output)
            state = next(iter(system.apply(state, output)))
            if output == ("crit", victim):
                return SoloRun(victim, tuple(actions), first_write, True)
            continue
        access = proc.pending_access(local)
        if access is None:
            break
        if _classify_access(access) == "write" and first_write is None:
            first_write = len(actions)
        actions.append(("step", victim))
        state = next(iter(system.apply(state, ("step", victim))))
        if state in seen and first_write is None:
            # Cycling on reads alone: never enters, never writes.
            return SoloRun(victim, tuple(actions), None, False)
        seen.add(state)
    return SoloRun(victim, tuple(actions), first_write, False)


def burns_lynch_attack(system: MutexSystem) -> CounterexampleCertificate:
    """Defeat any 2-process mutex algorithm over one read/write register.

    Implements the covering argument of [27] constructively: returns a
    certificate whose evidence is a concrete execution of ``system`` that
    either puts both processes in their critical regions simultaneously or
    exhibits a solo progress failure.  Raises :class:`ModelError` if the
    system does not match the theorem's hypotheses (two processes, one
    shared variable, read/write accesses only).
    """
    if len(system.processes) != 2:
        raise ModelError("the attack is stated for exactly two processes")
    if len(system.initial_memory) != 1:
        raise ModelError(
            "the attack applies to algorithms using a single shared register; "
            f"this system has {len(system.initial_memory)}"
        )
    p0, p1 = (p.name for p in system.processes)
    run0 = _solo_run(system, p0)
    run1 = _solo_run(system, p1)

    for run in (run0, run1):
        if not run.enters and run.first_write_index is None:
            execution = Execution.run(system, run.actions)
            return CounterexampleCertificate(
                claim=(
                    f"{system.name}: {run.victim} running alone never enters "
                    "its critical region — progress violation"
                ),
                technique="covering argument (solo run)",
                evidence=execution,
                details={"solo_steps": len(run.actions)},
            )

    # Interleave: p0 up to (but excluding) its first write — all reads, so
    # memory still looks initial to p1; p1's full solo run to its critical
    # region; then p0's continuation, whose first step *obliterates* the
    # register, hiding p1 entirely.
    if run0.first_write_index is None:
        prefix0 = list(run0.actions)  # p0 entered without ever writing
        suffix0: List = []
    else:
        prefix0 = list(run0.actions[: run0.first_write_index])
        suffix0 = list(run0.actions[run0.first_write_index:])
    actions = prefix0 + list(run1.actions) + suffix0
    execution = Execution.run(system, actions)
    final = execution.last_state
    both_critical = len(system.critical_processes(final)) == 2
    if not both_critical:
        raise ModelError(
            f"covering attack failed to violate mutual exclusion on "
            f"{system.name}; the system may not satisfy the theorem's "
            "hypotheses (e.g. nondeterministic or non-register operations)"
        )
    return CounterexampleCertificate(
        claim=(
            f"{system.name}: both processes simultaneously critical — "
            "mutual exclusion is impossible with a single read/write register"
        ),
        technique="covering argument (obliterated write)",
        evidence=execution,
        replay=lambda: len(
            system.critical_processes(Execution.run(system, actions).last_state)
        ) == 2,
        details={
            "p0_reads_before_first_write": len(prefix0) - 1,
            "schedule_length": len(actions),
        },
    )


# --------------------------------------------------------------------------
# A deliberately plausible single-register algorithm for the adversary to eat
# --------------------------------------------------------------------------


class NaiveSpinLockProcess(MutexProcess):
    """Read the register until it is 0, then write 1 and enter.

    The natural first attempt at a lock with one read/write register; the
    Burns–Lynch adversary finds its race in four moves.
    """

    VAR = "lock"

    def initial_fields(self):
        return {"pc": "read"}

    def trying_access(self, local: frozendict) -> Optional[Access]:
        if local["pc"] == "read":
            return read(self.VAR)
        return write(self.VAR, 1)

    def after_trying(self, local: frozendict, response: Hashable) -> frozendict:
        if local["pc"] == "read":
            if response == 0:
                return local.set("pc", "write")
            return local
        return local.set("region", CRITICAL).set("pc", "read")

    def start_exit(self, local: frozendict) -> frozendict:
        return local.set("pc", "release")

    def exit_access(self, local: frozendict) -> Optional[Access]:
        return write(self.VAR, 0)

    def after_exit(self, local: frozendict, response: Hashable) -> frozendict:
        return local.set("region", REMAINDER).set("pc", "read")


def naive_spin_lock_system() -> MutexSystem:
    processes = [NaiveSpinLockProcess("p0"), NaiveSpinLockProcess("p1")]
    return MutexSystem(
        processes,
        initial_memory={NaiveSpinLockProcess.VAR: 0},
        name="naive-spin-lock",
    )
