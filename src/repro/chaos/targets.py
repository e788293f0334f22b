"""Chaos targets: substrate + protocol + adversary generator + monitors.

A :class:`ChaosTarget` is everything a campaign needs to fuzz one
protocol on one substrate: a seeded :meth:`~ChaosTarget.generate` that
draws an adversary schedule (a tuple of atoms, see
:mod:`repro.chaos.generators`), a :meth:`~ChaosTarget.run` that compiles
the atoms into the substrate's adversary and executes one budgeted run,
and :meth:`~ChaosTarget.monitors` giving the correctness conditions the
resulting trace must satisfy.

The default roster pairs planted-bug protocols with the impossibility
theorems that predict their failure — FloodSet cut one round short of
t+1 (§2.2.2), EIG at n = 3t (§2.2.1), the alternating-bit protocol under
crashes (§2.5), a non-atomic test-then-set lock (§2.3), and an eager
quorum protocol under asynchronous scheduling (§2.2.4) — plus a healthy
LCR ring as the no-false-positives control.
"""

from __future__ import annotations

import random
from abc import ABC, abstractmethod
from typing import Dict, Iterable, Iterator, List, Optional, Tuple

from ..asynchronous.network import START, AsyncConsensusSystem, AsyncProtocol
from ..consensus.eig import EIGByzantine
from ..consensus.floodset import FloodSet
from ..consensus.synchronous import run_synchronous
from ..core.budget import BudgetMeter
from ..core.runtime import Trace
from ..core.scheduler import ScriptedIndexScheduler
from ..datalink.protocols import AlternatingBitReceiver, AlternatingBitSender
from ..datalink.simulate import ScriptedAdversary, run_datalink
from ..rings.lcr import LCRProcess
from ..rings.simulator import run_async_ring
from ..shared_memory.process import SharedMemoryProcess
from ..shared_memory.system import SharedMemorySystem, run_system
from ..shared_memory.variables import read, write
from . import generators
from .monitors import (
    AgreementMonitor,
    BoundedStalenessMonitor,
    FifoDeliveryMonitor,
    MutualExclusionMonitor,
    TerminationMonitor,
    TraceMonitor,
    UniqueLeaderMonitor,
    ValidityMonitor,
    Violation,
    check_all,
)

Atom = object
Schedule = Tuple[Atom, ...]


class ChaosTarget(ABC):
    """One fuzzable (substrate, protocol, property) triple."""

    name: str = "target"
    substrate: str = ""
    #: True for planted-bug targets (the campaign must find a violation);
    #: False for healthy controls (any violation or crash is a failure).
    expect_violation: bool = True
    #: True for adversarial-stall targets: some runs must exit via a
    #: structured budget overdraft (BUDGET_EXCEEDED) and none may
    #: violate — the liveness-sacrificed-never-safety contract.
    expect_stall: bool = False

    @abstractmethod
    def generate(self, rng: random.Random) -> Schedule:
        """Draw one adversary schedule (a tuple of atoms) from ``rng``."""

    @abstractmethod
    def run(
        self,
        atoms: Schedule,
        meter: Optional[BudgetMeter] = None,
    ) -> Trace:
        """Compile ``atoms`` into an adversary and execute one run.

        The run is a pure function of the target and ``atoms``: it takes
        no seed (a case's seed only *generates* its schedule), and
        ``meter`` can only raise, never change the trace.  A campaign
        relies on this to simulate each distinct schedule once.
        """

    @abstractmethod
    def monitors(self, atoms: Schedule) -> List[TraceMonitor]:
        """The properties a run under ``atoms`` must satisfy."""

    def simplify_atom(self, atom: Atom) -> Iterator[Atom]:
        """Strictly simpler variants of one atom, for the shrinker."""
        return iter(())

    def violations(self, trace: Trace, atoms: Schedule) -> List[Violation]:
        return check_all(trace, self.monitors(atoms))


# ---------------------------------------------------------------------------
# Synchronous rounds: FloodSet one round short of t+1
# ---------------------------------------------------------------------------


class FloodSetCrashTarget(ChaosTarget):
    """FloodSet truncated to t rounds, fuzzed with crash schedules.

    The t+1-round lower bound says t rounds cannot tolerate t crashes:
    a chain of one crash per round can always smuggle a value to some
    survivors and not others.  The fuzzer must rediscover such a chain —
    the minimal counterexample is two chained crash atoms.
    """

    name = "floodset-truncated-crash"
    substrate = "synchronous"
    expect_violation = True

    N = 4
    T = 2
    ROUNDS = 2  # one short of the t+1 = 3 the protocol needs
    INPUTS = (0, 1, 1, 1)

    def generate(self, rng: random.Random) -> Schedule:
        return generators.random_crash_atoms(
            rng, n=self.N, rounds=self.ROUNDS, max_crashes=self.T
        )

    def run(self, atoms, meter=None) -> Trace:
        return run_synchronous(
            FloodSet(rounds_override=self.ROUNDS),
            self.INPUTS,
            generators.crash_adversary(atoms),
            t=self.T,
            meter=meter,
        ).trace

    def monitors(self, atoms) -> List[TraceMonitor]:
        crashed = {pid for (_tag, pid, _rnd, _recv) in atoms}
        honest = set(range(self.N)) - crashed
        inputs = dict(enumerate(self.INPUTS))
        return [
            AgreementMonitor(honest),
            ValidityMonitor(inputs, honest, trusted=range(self.N)),
            TerminationMonitor(honest),
        ]

    def simplify_atom(self, atom) -> Iterator[Atom]:
        return generators.grow_receivers(atom, self.N)


# ---------------------------------------------------------------------------
# Synchronous rounds: FloodSet under mobile (transient) omissions
# ---------------------------------------------------------------------------


class MobileFloodSetTarget(ChaosTarget):
    """FloodSet at the full t+1 rounds, fuzzed with *mobile* omissions.

    Gafni–Losa's "Time Is Not a Healer": t+1 rounds tolerate t crashes
    because a crash is permanent — a process that got its value out once
    stays heard.  Under mobile faults the adversary re-picks its victim
    every round, so muting the same process in *every* round keeps its
    input invisible forever: here, relentlessly silencing the unique-0
    holder makes everyone else decide 1 while it decides 0.  No static
    crash schedule can do this at t+1 rounds, so the planted bug is the
    fault *model*, not the protocol.  The 1-minimal counterexample is
    one mute atom per round (three atoms), and the bounded-staleness
    monitor checks the flip side: schedules that leave every process one
    clean round must still agree.
    """

    name = "floodset-mobile-omission"
    substrate = "synchronous"
    expect_violation = True

    N = 4
    T = 2
    ROUNDS = 3  # the full t+1 the static-crash bound promises is enough
    INPUTS = (0, 1, 1, 1)

    def generate(self, rng: random.Random) -> Schedule:
        return generators.random_mobile_crash_atoms(
            rng, n=self.N, rounds=self.ROUNDS, max_per_round=1
        )

    def run(self, atoms, meter=None) -> Trace:
        return run_synchronous(
            FloodSet(),
            self.INPUTS,
            generators.mobile_omission_adversary(atoms, self.N),
            t=self.T,
            meter=meter,
        ).trace

    def monitors(self, atoms) -> List[TraceMonitor]:
        # Mobile faults silence messages, never processes: everyone is
        # honest, receives every round and must decide.
        honest = range(self.N)
        inputs = dict(enumerate(self.INPUTS))
        return [
            AgreementMonitor(honest),
            ValidityMonitor(inputs, honest, trusted=honest),
            TerminationMonitor(honest),
            BoundedStalenessMonitor(
                generators.muted_rounds(atoms), self.ROUNDS, honest
            ),
        ]


# ---------------------------------------------------------------------------
# Synchronous rounds: EIG at n = 3t
# ---------------------------------------------------------------------------


class EIGByzantineTarget(ChaosTarget):
    """EIG Byzantine agreement at n=3, t=1 — below the n > 3t threshold.

    Pease–Shostak–Lamport say three processes cannot survive one traitor;
    the fuzzer's Byzantine process tells per-recipient lies about the EIG
    tree until the two honest processes resolve different roots.  The
    minimal counterexample is two round-2 lies (one per honest recipient).
    """

    name = "eig-n3t1-byzantine"
    substrate = "synchronous"
    expect_violation = True

    N = 3
    T = 1
    FAULTY = 0
    INPUTS = (1, 1, 0)

    def generate(self, rng: random.Random) -> Schedule:
        return generators.random_lie_atoms(
            rng, faulty=self.FAULTY, n=self.N, rounds=self.T + 1, max_lies=4
        )

    def run(self, atoms, meter=None) -> Trace:
        return run_synchronous(
            EIGByzantine(),
            self.INPUTS,
            generators.lie_adversary(atoms, self.FAULTY),
            t=self.T,
            meter=meter,
        ).trace

    def monitors(self, atoms) -> List[TraceMonitor]:
        honest = set(range(self.N)) - {self.FAULTY}
        inputs = dict(enumerate(self.INPUTS))
        return [
            AgreementMonitor(honest),
            ValidityMonitor(inputs, honest, trusted=honest),
            TerminationMonitor(honest),
        ]


# ---------------------------------------------------------------------------
# Datalink: the alternating-bit protocol under crashes
# ---------------------------------------------------------------------------


class AlternatingBitTarget(ChaosTarget):
    """ABP over a hostile channel with endpoint crashes.

    ABP is correct over fair lossy FIFO channels — but a crash that
    resets an endpoint's volatile bit re-opens the window the bit was
    closing, so exactly-once delivery fails (the Lynch–Mansour–Fekete
    impossibility for crash-prone endpoints).  Channel programs also mix
    reordered deliveries and duplicates, which ABP must survive alone.
    """

    name = "alternating-bit-crash"
    substrate = "datalink"
    expect_violation = True

    MESSAGES = ("m0", "m1", "m2")

    def generate(self, rng: random.Random) -> Schedule:
        return generators.random_channel_atoms(rng)

    def run(self, atoms, meter=None) -> Trace:
        return run_datalink(
            AlternatingBitSender(),
            AlternatingBitReceiver(),
            self.MESSAGES,
            ScriptedAdversary(atoms),
            max_steps=500,
            sender_factory=AlternatingBitSender,
            receiver_factory=AlternatingBitReceiver,
            meter=meter,
        ).trace

    def monitors(self, atoms) -> List[TraceMonitor]:
        return [FifoDeliveryMonitor(self.MESSAGES)]

    def simplify_atom(self, atom) -> Iterator[Atom]:
        return generators.simplify_channel_atom(atom)


# ---------------------------------------------------------------------------
# Shared memory: a non-atomic test-then-set lock
# ---------------------------------------------------------------------------


class RacyLockProcess(SharedMemoryProcess):
    """A lock that reads the flag, then writes it — not atomically.

    The planted race: between one process's read of 0 and its write of 1,
    the other can read 0 too, and both enter the critical region.  This
    is precisely the gap the atomic test-and-set repertoire closes and
    separate reads/writes cannot (§2.3); entry and exit are announced via
    ``("crit", name)`` / ``("rem", name)`` output actions so the mutual
    exclusion monitor can read them off the trace.
    """

    def __init__(self, name: str, var: str = "lock"):
        super().__init__(name)
        self.var = var

    def initial_local(self):
        return "start"

    def pending_access(self, local):
        if local == "start":
            return read(self.var)
        if local == "set":
            return write(self.var, 1)
        if local == "incrit":
            return read(self.var)  # linger one step inside the region
        if local == "unset":
            return write(self.var, 0)
        return None

    def after_access(self, local, response):
        if local == "start":
            return "set" if response == 0 else "start"
        if local == "set":
            return "announce"
        if local == "incrit":
            return "unset"
        if local == "unset":
            return "exit"
        return local

    def output_action(self, local):
        if local == "announce":
            return ("crit", self.name)
        if local == "exit":
            return ("rem", self.name)
        return None

    def after_output(self, local):
        if local == "announce":
            return "incrit"
        if local == "exit":
            return "done"
        raise ValueError(f"{self.name} has no pending output in {local!r}")

    def output_actions(self):
        return frozenset({("crit", self.name), ("rem", self.name)})


class RacyLockTarget(ChaosTarget):
    """Two racy-lock processes under fuzzed interleavings."""

    name = "racy-lock"
    substrate = "shared-memory"
    expect_violation = True

    def generate(self, rng: random.Random) -> Schedule:
        return generators.random_index_atoms(
            rng, min_length=3, max_length=10, width=2
        )

    def run(self, atoms, meter=None) -> Trace:
        system = SharedMemorySystem(
            [RacyLockProcess("p0"), RacyLockProcess("p1")],
            {"lock": 0},
            name="racy-lock",
        )
        return run_system(
            system,
            ScriptedIndexScheduler(atoms),
            max_steps=40,
            meter=meter,
        ).trace

    def monitors(self, atoms) -> List[TraceMonitor]:
        return [MutualExclusionMonitor()]

    def simplify_atom(self, atom) -> Iterator[Atom]:
        return generators.simplify_index_atom(atom)


# ---------------------------------------------------------------------------
# Asynchronous network: a quorum protocol that decides too eagerly
# ---------------------------------------------------------------------------


class EagerMajorityProtocol(AsyncProtocol):
    """Decide the minimum of the first majority of values heard.

    The planted asynchrony bug: which majority a process hears *first* is
    the scheduler's choice, so two processes can decide from different
    quorums and disagree — the one-shot form of the FLP observation that
    decisions taken on partial information are scheduling-dependent.
    """

    name = "eager-majority"

    def __init__(self, n: int):
        self.n = n
        self.quorum = n // 2 + 1

    def initial_state(self, pid, n, input_value):
        return (input_value, (), None)

    def transition(self, pid, state, message):
        input_value, seen, decided = state
        sends: Tuple = ()
        if message == START:
            seen = tuple(sorted(set(seen) | {(pid, input_value)}))
            sends = tuple(
                (dest, ("val", pid, input_value))
                for dest in range(self.n)
                if dest != pid
            )
        elif isinstance(message, tuple) and message and message[0] == "val":
            seen = tuple(sorted(set(seen) | {(message[1], message[2])}))
        if decided is None and len(seen) >= self.quorum:
            decided = min(value for _pid, value in seen)
        return (input_value, seen, decided), sends

    def decision(self, state):
        return state[2]


class EagerMajorityTarget(ChaosTarget):
    """Eager-majority consensus under fuzzed delivery orders."""

    name = "eager-majority-async"
    substrate = "async-network"
    expect_violation = True

    N = 3
    INPUTS = (0, 1, 1)

    def generate(self, rng: random.Random) -> Schedule:
        return generators.random_index_atoms(
            rng, min_length=4, max_length=12, width=self.N
        )

    def run(self, atoms, meter=None) -> Trace:
        system = AsyncConsensusSystem(EagerMajorityProtocol(self.N), self.N)
        return system.run_fair_traced(
            self.INPUTS,
            max_steps=60,
            adversary=ScriptedIndexScheduler(atoms),
            meter=meter,
        ).trace

    def monitors(self, atoms) -> List[TraceMonitor]:
        return [AgreementMonitor(range(self.N))]

    def simplify_atom(self, atom) -> Iterator[Atom]:
        return generators.simplify_index_atom(atom)


# ---------------------------------------------------------------------------
# Rings: healthy LCR leader election (the control)
# ---------------------------------------------------------------------------


class LCRRingTarget(ChaosTarget):
    """LCR leader election under fuzzed delivery orders — a healthy target.

    LCR is correct under *any* asynchronous schedule, so every verdict
    must be PASS: a violation or crash here is a bug in the engine (or
    the simulator), not the protocol.  This is the campaign's
    no-false-positives control.
    """

    name = "lcr-ring"
    substrate = "async-ring"
    expect_violation = False

    IDENTS = (3, 1, 4, 2, 5)

    def generate(self, rng: random.Random) -> Schedule:
        return generators.random_index_atoms(
            rng, min_length=4, max_length=12, width=2 * len(self.IDENTS)
        )

    def run(self, atoms, meter=None) -> Trace:
        idents = self.IDENTS
        return run_async_ring(
            seed=0,
            max_steps=10_000,
            adversary=ScriptedIndexScheduler(atoms),
            process_factory=lambda: [LCRProcess(i) for i in idents],
            meter=meter,
        ).trace

    def monitors(self, atoms) -> List[TraceMonitor]:
        return [UniqueLeaderMonitor(expected=self.IDENTS.index(max(self.IDENTS)))]

    def simplify_atom(self, atom) -> Iterator[Atom]:
        return generators.simplify_index_atom(atom)


# ---------------------------------------------------------------------------
# Roster
# ---------------------------------------------------------------------------


def default_targets() -> List[ChaosTarget]:
    """The standard campaign roster: planted bugs, healthy controls and
    one adversarial-stall target, covering eight distinct substrates."""
    from .circumvention_targets import circumvention_targets

    return [
        FloodSetCrashTarget(),
        MobileFloodSetTarget(),
        EIGByzantineTarget(),
        AlternatingBitTarget(),
        RacyLockTarget(),
        EagerMajorityTarget(),
        LCRRingTarget(),
        *circumvention_targets(),
    ]


def target_registry(
    targets: Optional[Iterable[ChaosTarget]] = None,
) -> Dict[str, ChaosTarget]:
    """name -> target, for CLI selection and artifact reproduction."""
    roster = list(targets) if targets is not None else default_targets()
    return {target.name: target for target in roster}


def select_targets(names: Optional[Iterable[str]]) -> List[ChaosTarget]:
    """The roster named by ``names`` (``None``: the full roster).

    Raises :class:`ValueError` listing the known names if one is unknown.
    """
    registry = target_registry()
    if names is None:
        return list(registry.values())
    unknown = [name for name in names if name not in registry]
    if unknown:
        raise ValueError(
            f"unknown targets {unknown}; known: {sorted(registry)}"
        )
    return [registry[name] for name in names]
