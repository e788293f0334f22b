"""Ben-Or's randomized consensus on the unified runtime (§2.2.4).

The survey's first escape hatch from FLP: deterministic 1-resilient
asynchronous consensus is impossible, but flip coins and the adversary
loses — Ben-Or decides with probability 1 against any crash-and-schedule
adversary when ``n > 2t``, never violating safety.  This module is the
runtime-native engine: every run is a deterministic, replayable function
of ``(atoms, seed)``, with the message scheduler and every process's
coin derived from the seed through :func:`~repro.core.runtime.
derive_seed` (so ``PYTHONHASHSEED`` cannot touch it).

Adversary schedules follow the chaos engine's atoms-as-schedules
convention — a flat tuple of hashable atoms, ddmin-shrinkable and
JSONL-serializable:

* bare ints — a scheduling script: the k-th int indexes (mod the live
  count) the sorted deliverable-message list at delivery step k; when
  the script runs dry the seeded RNG schedules the rest;
* ``("crash", e, pid)`` — ``pid`` crashes at delivery step ``e``: its
  queued messages are destroyed and it takes no further steps.  At most
  ``t`` crash atoms are honoured (first ``t`` distinct pids in schedule
  order), so mutated or spliced schedules can never exceed the
  protocol's fault contract.

Phase machine (binary values): a *report* round (broadcast your value,
act on ``n - t``), a *propose* round (propose ``w`` on a strict
majority of reports, else ``?``), then decide on more than ``t`` real
proposals, adopt a single real proposal, or **flip a coin**.  The
``biased_coin=True`` configuration is the planted bug: the coin is
replaced by the process's parity (``pid % 2``), which is exactly the
anti-correlated "randomness" that lets a perfectly split input re-create
itself every phase — the run never terminates, on the *empty* schedule,
which is what the chaos shrinker reduces every finding to.  Safety is
coin-independent either way: agreement and validity hold on every seed
of every schedule, biased or honest.

The **expected-round harness** (:func:`expected_rounds`) turns "decides
with probability 1" into a measured, gated number: a streaming,
constant-memory fold of per-seed round counts into a mean with a
normal-approximation confidence interval, sharded bit-identically across
the PR-4 :class:`~repro.parallel.pool.WorkerPool` (workers compute
cases, the parent folds them in submission order — the
parent-is-authoritative rule), plus a statistical monitor: agreement and
validity are asserted on *every* seed, and the termination rate across
the sweep is gated against a probability bound.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from ..core.budget import Budget, BudgetMeter
from ..core.errors import ModelError
from ..core.runtime import (
    CRASH,
    DECIDE,
    DELIVER,
    SEND,
    RunRecord,
    SimulationRuntime,
    derive_seed,
    drive,
)
from ..parallel.pool import WorkerPool
from .partitions import Schedule

SUBSTRATE = "benor-consensus"

CRASH_ATOM = "crash"
QUESTION = "?"

_NEVER = float("inf")


class BenOrAdversary:
    """Compiled form of a Ben-Or schedule: script indices + crash plan.

    Scheduling ints are consumed in order; crash atoms are honoured for
    at most ``t`` distinct pids (schedule order), so the compiled
    adversary always sits inside the protocol's fault contract whatever
    ddmin or the mutation operators did to the raw atoms.
    """

    def __init__(self, atoms: Schedule, t: int):
        self.atoms: Schedule = tuple(atoms)
        self.script: Tuple[int, ...] = tuple(
            a for a in self.atoms if isinstance(a, int)
        )
        self.crash_at: Dict[int, int] = {}
        for atom in self.atoms:
            if isinstance(atom, tuple) and atom and atom[0] == CRASH_ATOM:
                _, when, pid = atom
                if pid in self.crash_at:
                    self.crash_at[pid] = min(self.crash_at[pid], when)
                elif len(self.crash_at) < t:
                    self.crash_at[pid] = when

    def schedule(self, k: int, options: int, rng: random.Random) -> int:
        """Index of the delivery chosen at step ``k`` among ``options``."""
        if k < len(self.script):
            return self.script[k] % options
        return rng.randrange(options)

    def reset(self) -> None:
        """Stateless — present for the FaultAdversary replay contract."""


class BenOrProcess:
    """One participant: the report/propose phase machine plus its coin."""

    def __init__(
        self, pid: int, n: int, t: int, value: int, seed, biased_coin: bool
    ):
        self.pid = pid
        self.n = n
        self.t = t
        self.value = 1 if value else 0
        self.phase = 1
        self.stage = "report"
        self.decided: Optional[int] = None
        self.decided_phase: Optional[int] = None
        self.biased_coin = biased_coin
        self.rng = random.Random(derive_seed(seed, "benor-coin", pid))
        self.inbox: Dict[Tuple[str, int], Dict[int, object]] = {}
        self.outbox: List[Tuple[str, int, object]] = []
        self._send(("report", self.phase, self.value))

    def _coin(self) -> int:
        if self.biased_coin:
            return self.pid % 2  # the planted anti-correlated "coin"
        return self.rng.randrange(2)

    def _send(self, msg) -> None:
        self.outbox.append(msg)
        self._store(self.pid, msg)

    def _store(self, src: int, msg) -> None:
        stage, phase, value = msg
        self.inbox.setdefault((stage, phase), {})[src] = value

    def handle(self, src: int, msg) -> None:
        self._store(src, msg)
        self._advance()

    def _advance(self) -> None:
        # A decided process keeps running the phase machine with its value
        # pinned (all later real proposals must equal it), so it can never
        # starve the undecided of their n - t messages per stage; the
        # simulator stops scheduling once every live process has decided.
        while True:
            arrived = self.inbox.get((self.stage, self.phase), {})
            if len(arrived) < self.n - self.t:
                return
            if self.stage == "report":
                ones = sum(1 for v in arrived.values() if v == 1)
                zeros = sum(1 for v in arrived.values() if v == 0)
                if ones * 2 > self.n:
                    proposal: object = 1
                elif zeros * 2 > self.n:
                    proposal = 0
                else:
                    proposal = QUESTION
                self.stage = "propose"
                self._send(("propose", self.phase, proposal))
            else:
                proposals = [v for v in arrived.values() if v != QUESTION]
                if proposals:
                    # Majority intersection: all real proposals of a
                    # phase are equal; adopt (or decide) that value.
                    w = proposals[0]
                    if len(proposals) > self.t and self.decided is None:
                        self.decided = w
                        self.decided_phase = self.phase
                    self.value = w
                elif self.decided is not None:
                    self.value = self.decided
                else:
                    self.value = self._coin()
                self.phase += 1
                self.stage = "report"
                self._send(("report", self.phase, self.value))


@dataclass
class BenOrRun(RunRecord):
    """One Ben-Or run (possibly partial, see :func:`drive`)."""

    decisions: Dict[int, Optional[int]]
    phases: Dict[int, int]
    crashed: Tuple[int, ...]
    events: int
    agreement: bool
    validity: bool


class _BenOrSim:
    """Mutable simulator state: processes, the flight list."""

    context = "benor-consensus"
    cost = 1

    def __init__(
        self,
        atoms: Schedule,
        seed,
        n: int,
        t: int,
        inputs: Optional[Tuple[int, ...]],
        biased_coin: bool,
        max_events: int,
    ):
        if inputs is None:
            inputs = tuple(i % 2 for i in range(n))
        self.inputs = tuple(1 if v else 0 for v in inputs)
        self.n = n = len(self.inputs)
        if 2 * t >= n:
            raise ModelError(
                f"Ben-Or consensus needs n > 2t, got n={n}, t={t}"
            )
        self.runtime = SimulationRuntime(
            SUBSTRATE, "ben-or" + ("-biased-coin" if biased_coin else ""), seed
        )
        self.adversary = BenOrAdversary(atoms, t)
        self.max_events = max_events
        self.rng = random.Random(derive_seed(seed, "benor-schedule"))
        self.processes = [
            BenOrProcess(pid, n, t, self.inputs[pid], seed, biased_coin)
            for pid in range(n)
        ]
        self.crashed: set = set()
        #: live processes that have not decided; the run is over at 0
        self.undecided = n
        #: the earliest step at which a planned crash is still to happen
        self.next_crash = min(self.adversary.crash_at.values(), default=_NEVER)
        #: in-flight messages (src, dst, msg), delivery order adversarial.
        #: Crashes are permanent, so a message to a crashed process never
        #: enters (or stays in) the list: every message in it is
        #: deliverable, and the adversary indexes it directly.
        self.flight: List[Tuple[int, int, object]] = []
        self.k = 0  # delivery-step counter (the adversary's clock)
        self._drain()

    def _emit(self, actor, kind, payload, phase=None):
        self.runtime.emit(kind, actor, payload, round=phase, time=self.k)

    def _drain(self) -> None:
        for proc in self.processes:
            if proc.pid in self.crashed:
                proc.outbox.clear()
                continue
            self._drain_one(proc)

    def _drain_one(self, proc: BenOrProcess) -> None:
        """Send a live process's queued messages to every live peer."""
        outbox = proc.outbox
        pid = proc.pid
        crashed = self.crashed
        peers = [d for d in range(self.n) if d != pid and d not in crashed]
        emit = self.runtime.emit
        flight = self.flight
        k = self.k
        for msg in outbox:
            emit(SEND, pid, msg, round=msg[1], time=k)
            flight.extend([(pid, dst, msg) for dst in peers])
        outbox.clear()

    def _phase_of(self, pid: int) -> int:
        """The phase a process decided in, or its current phase if undecided.

        Decided processes keep running the machine (see ``_advance``), so
        their live ``phase`` counter drifts past the decision point; the
        reported phase is pinned at decision time.
        """
        proc = self.processes[pid]
        if proc.decided_phase is not None:
            return proc.decided_phase
        return proc.phase

    def _crash_due(self) -> None:
        if self.k < self.next_crash:
            return
        pending = _NEVER
        for pid, when in self.adversary.crash_at.items():
            if pid in self.crashed:
                continue
            if self.k < when:
                pending = min(pending, when)
                continue
            self.crashed.add(pid)
            if self.processes[pid].decided is None:
                self.undecided -= 1
            self._emit(pid, CRASH, ("at", self.k))
            self.flight = [
                (s, d, m) for (s, d, m) in self.flight
                if s != pid and d != pid
            ]
        self.next_crash = pending

    @property
    def done(self) -> bool:
        if not self.undecided:
            return True
        return not self.flight or self.k >= self.max_events

    def step(self) -> None:
        """One delivery: crashes due now, then one adversarial delivery."""
        self._crash_due()
        flight = self.flight
        if not flight:
            return
        k = self.k
        src, dst, msg = flight.pop(
            self.adversary.schedule(k, len(flight), self.rng)
        )
        emit = self.runtime.emit
        emit(DELIVER, dst, (src, msg), round=msg[1], time=k)
        proc = self.processes[dst]
        before = proc.decided
        proc.handle(src, msg)
        if before is None and proc.decided is not None:
            self.undecided -= 1
            emit(DECIDE, dst, proc.decided, round=self._phase_of(dst), time=k)
        self.k = k + 1
        # Only the receiver acted, so only its outbox can be non-empty.
        if proc.outbox:
            self._drain_one(proc)

    def outcome(self) -> Dict:
        return {
            "decisions": tuple(
                (p, self.processes[p].decided) for p in range(self.n)
            ),
            "phases": tuple(
                (p, self._phase_of(p)) for p in range(self.n)
            ),
            "crashed": tuple(sorted(self.crashed)),
            "events": self.k,
            "complete": self.done,
        }

    def record(self, **base) -> BenOrRun:
        decisions = {p: self.processes[p].decided for p in range(self.n)}
        live = [p for p in range(self.n) if p not in self.crashed]
        decided_values = {
            decisions[p] for p in live if decisions[p] is not None
        }
        validity = True
        if len(set(self.inputs)) == 1:
            (v,) = set(self.inputs)
            validity = all(decisions[p] in (None, v) for p in live)
        return BenOrRun(
            decisions=decisions,
            phases={p: self._phase_of(p) for p in range(self.n)},
            crashed=tuple(sorted(self.crashed)),
            events=self.k,
            agreement=len(decided_values) <= 1,
            validity=validity,
            **base,
        )


def run_ben_or_traced(
    atoms: Schedule,
    seed=None,
    *,
    n: int = 4,
    t: int = 1,
    inputs: Optional[Sequence[int]] = None,
    biased_coin: bool = False,
    max_events: int = 4000,
    meter: Optional[BudgetMeter] = None,
    budget: Optional[Budget] = None,
    resume: Optional[BenOrRun] = None,
) -> BenOrRun:
    """Run (or resume) one Ben-Or consensus simulation; ``meter``,
    ``budget`` and ``resume`` follow :func:`~repro.core.runtime.drive`.

    ``inputs`` gives one input per process (``n`` counts the processes
    only when it is None); a system without ``n > 2t`` raises
    :class:`~repro.core.errors.ModelError`.
    """
    atoms = tuple(atoms)
    inputs = None if inputs is None else tuple(inputs)
    return drive(
        lambda: _BenOrSim(atoms, seed, n, t, inputs, biased_coin, max_events),
        meter=meter,
        budget=budget,
        resume=resume,
    )


# ---------------------------------------------------------------------------
# The expected-round analysis harness
# ---------------------------------------------------------------------------

#: two-sided normal quantiles for the supported confidence levels
_Z = {0.90: 1.6448536269514722, 0.95: 1.959963984540054,
      0.99: 2.5758293035489004}


@dataclass(frozen=True)
class RoundSweep:
    """The folded result of one expected-round sweep.

    Every field is a deterministic function of the sweep coordinates
    ``(trials, master_seed, n, t, ...)`` — the fold runs in submission
    order in the parent whatever the worker count, so two sweeps with
    the same coordinates are ``==`` bit-for-bit at workers=1 and
    workers=N (the hypothesis suite's anchor).
    """

    trials: int
    decided: int
    termination_rate: float
    mean_rounds: float
    ci_low: float
    ci_high: float
    worst_rounds: int
    confidence: float
    violations: Tuple[str, ...]

    def ok(self, min_termination: float = 0.9) -> bool:
        """The statistical monitor's verdict for this sweep."""
        return not self.violations and (
            self.termination_rate >= min_termination
        )


def _sweep_case(args) -> Dict:
    """One sweep trial — a pure, picklable function of its coordinates.

    The per-trial seed is re-derived from ``(master_seed, index)`` inside
    the worker (the campaign-engine idiom), so sharding cannot change
    what any trial computes, only where.
    """
    master_seed, index, n, t, inputs, biased_coin, max_events = args
    seed = derive_seed(master_seed, "benor-sweep", index)
    if inputs is None:
        # mixed inputs, rotated per trial so both values recur everywhere
        inputs = tuple((index + i) % 2 for i in range(n))
    run = run_ben_or_traced(
        (),
        seed,
        n=n,
        t=t,
        inputs=inputs,
        biased_coin=biased_coin,
        max_events=max_events,
    )
    violations = []
    if not run.agreement:
        violations.append(f"trial {index}: agreement violated")
    if not run.validity:
        violations.append(f"trial {index}: validity violated")
    live = [p for p in run.decisions if p not in run.crashed]
    decided = all(run.decisions[p] is not None for p in live)
    rounds = max(run.phases[p] for p in live) if decided else 0
    return {
        "index": index,
        "decided": decided,
        "rounds": rounds,
        "violations": tuple(violations),
    }


def expected_rounds(
    trials: int,
    master_seed: int = 0,
    *,
    n: int = 4,
    t: int = 1,
    inputs: Optional[Sequence[int]] = None,
    biased_coin: bool = False,
    max_events: int = 4000,
    confidence: float = 0.95,
    workers=1,
) -> RoundSweep:
    """Fold ``trials`` seeded Ben-Or runs into an expected-round estimate.

    Streaming and constant-memory: trials flow through
    :meth:`~repro.parallel.pool.WorkerPool.map_stream` and fold into
    running Welford moments — nothing per-trial is retained.  The
    parent-is-authoritative merge makes the result bit-identical at any
    worker count.  Agreement/validity violations (there must never be
    any) are collected per trial; the termination rate across the sweep
    is the probability-1 claim, measured.
    """
    if confidence not in _Z:
        raise ValueError(
            f"confidence must be one of {sorted(_Z)}, got {confidence}"
        )
    inputs = tuple(inputs) if inputs is not None else None
    if inputs is not None:
        n = len(inputs)
    coords = [
        (master_seed, index, n, t, inputs, biased_coin, max_events)
        for index in range(trials)
    ]
    decided = 0
    worst = 0
    mean = 0.0
    m2 = 0.0
    violations: List[str] = []
    with WorkerPool(workers) as pool:
        for _item, case in pool.map_stream(
            _sweep_case, coords, chunk=8
        ):
            violations.extend(case["violations"])
            if not case["decided"]:
                continue
            decided += 1
            rounds = case["rounds"]
            worst = max(worst, rounds)
            delta = rounds - mean
            mean += delta / decided
            m2 += delta * (rounds - mean)
    z = _Z[confidence]
    if decided > 1:
        half = z * math.sqrt(m2 / (decided - 1) / decided)
    else:
        half = 0.0
    return RoundSweep(
        trials=trials,
        decided=decided,
        termination_rate=decided / trials if trials else 0.0,
        mean_rounds=mean,
        ci_low=mean - half,
        ci_high=mean + half,
        worst_rounds=worst,
        confidence=confidence,
        violations=tuple(violations),
    )
