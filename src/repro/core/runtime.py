"""The unified simulation runtime: one trace schema, one adversary
interface, seeded determinism for every model.

The survey's power comes from moving one argument across many models —
chain arguments, scenario splicing and valency all *replay executions* of
different substrates.  Historically each substrate in this repository
(synchronous rounds, the FLP asynchronous network, rings, datalink
channels, shared memory, raw I/O-automaton executions) grew a private
adversary hierarchy, a private result type and a private notion of a
trace.  This module is the shared kernel they now all route through:

* :class:`TraceEvent` / :class:`Trace` — the uniform record schema
  ``(step, actor, kind, payload, round, time)`` every substrate emits.
  A :class:`Trace` carries the substrate name, protocol name, seed and
  outcome summary, and has a stable :meth:`~Trace.fingerprint` so
  "byte-identical run" is a checkable proposition.  Values are written
  down by the canonical codec (:mod:`repro.core.canonical`).

* :class:`FaultAdversary` — one adversary protocol subsuming the
  crash/omission/Byzantine adversaries of the synchronous model, the
  channel adversaries of the datalink layer, and the schedulers of the
  I/O-automaton and ring simulators.  An adversary owns three optional
  powers: *faults* (``is_faulty`` + ``transform`` over faulty senders'
  messages), *scheduling* (``schedule`` picks which enabled option
  happens next) and *reset* (return to the initial state so a run can be
  replayed).

* :class:`SimulationRuntime` — the per-run kernel: a seeded
  ``random.Random``, a step counter, and the trace recorder.  Every run
  is a deterministic function of ``(protocol, inputs, adversary, seed)``.

* :func:`drive` / :class:`RunRecord` — the one budgeted step loop of the
  circumvention engines: ``meter=`` raises on overdraft, ``budget=``
  returns a resumable partial, a completed run carries a replayer.

* :func:`replay` — the single replay entry point: re-execute the run
  that produced a trace and verify the fresh trace is byte-identical.
  Every impossibility certificate whose evidence is a :class:`Trace` is
  replayable through it.

* :func:`derive_seed` / :func:`spawn_rng` — stable seed derivation
  (independent of ``PYTHONHASHSEED``, through the canonical codec) for
  sub-processes and child RNGs.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from typing import (
    Any,
    Callable,
    Dict,
    Hashable,
    Iterable,
    List,
    Mapping,
    NamedTuple,
    Optional,
    Sequence,
    Tuple,
)

from .budget import Budget, BudgetExceeded
from . import canonical
from .errors import ReproError

# ---------------------------------------------------------------------------
# Canonical event vocabulary
# ---------------------------------------------------------------------------
#
# Substrates map their native happenings onto this shared vocabulary so a
# trace consumer (replayer, counter, indistinguishability check) never needs
# substrate-specific knowledge to read a run.

SEND = "send"          # a message/packet enters a channel or buffer
DELIVER = "deliver"    # a message/packet reaches its destination
DROP = "drop"          # the adversary destroys a buffered message
DUPLICATE = "dup"      # the adversary duplicates a buffered message
CRASH = "crash"        # an endpoint loses state / stops
STEP = "step"          # a process takes a local step
DECIDE = "decide"      # a process irrevocably decides a value
DECLARE = "declare"    # a status declaration (leader / nonleader)
OUTPUT = "output"      # a computed output value
HALT = "halt"          # the run ends

EVENT_KINDS = frozenset(
    {SEND, DELIVER, DROP, DUPLICATE, CRASH, STEP, DECIDE, DECLARE, OUTPUT, HALT}
)


class ReplayError(ReproError):
    """A trace could not be replayed, or the replay diverged."""


class FingerprintMismatch(ReplayError):
    """A recorded fingerprint does not match the recomputed one.

    Structured: ``expected`` is the fingerprint the artifact recorded,
    ``actual`` the one recomputed from its content, and ``context`` names
    the artifact being verified (a reloaded trace, a store entry).
    Raised by :meth:`Trace.from_jsonl` and reused by
    the certificate store (:mod:`repro.service.store`) — anywhere
    "re-verify on read" fails, the error carries both digests so the
    diagnosis never requires re-running the verifier by hand.
    """

    def __init__(
        self,
        expected: Optional[str],
        actual: Optional[str],
        context: str = "artifact",
    ):
        self.expected = expected
        self.actual = actual
        self.context = context
        super().__init__(
            f"fingerprint mismatch in {context}: recorded {expected!r}, "
            f"recomputed {actual!r} — the content was corrupted, "
            "hand-edited, or encoded unfaithfully"
        )


class ReplayDivergence(ReplayError):
    """A replay produced a different run than the original trace.

    Structured: ``index`` is the position of the first divergent event
    (``None`` when the events all match but the metadata or outcome
    differ), ``expected`` is the original's event at that position and
    ``actual`` the replay's (either may be ``None`` when one run is a
    strict prefix of the other).  Non-determinism escaping the seeded
    RNG is exactly the bug class this error exists to pinpoint.
    """

    def __init__(self, original: "Trace", fresh: "Trace"):
        self.original = original
        self.fresh = fresh
        self.index: Optional[int] = None
        self.expected: Optional[TraceEvent] = None
        self.actual: Optional[TraceEvent] = None
        for i, (a, b) in enumerate(zip(original.events, fresh.events)):
            if a != b:
                self.index, self.expected, self.actual = i, a, b
                break
        else:
            if len(original.events) != len(fresh.events):
                i = min(len(original.events), len(fresh.events))
                self.index = i
                self.expected = (
                    original.events[i] if i < len(original.events) else None
                )
                self.actual = fresh.events[i] if i < len(fresh.events) else None
        if self.index is not None:
            detail = (
                f"first divergence at event {self.index}: "
                f"expected {self.expected!r}, got {self.actual!r}"
            )
        else:
            detail = (
                f"events identical; outcome/metadata diverged: "
                f"expected {(original.substrate, original.protocol, original.seed, original.outcome)!r}, "
                f"got {(fresh.substrate, fresh.protocol, fresh.seed, fresh.outcome)!r}"
            )
        super().__init__(
            f"replay diverged for substrate {original.substrate!r} "
            f"(protocol {original.protocol!r}, seed {original.seed!r}): "
            f"{original.steps} events originally, {fresh.steps} on replay; "
            + detail
        )


class TraceEvent(NamedTuple):
    """One event of a simulation run, in the shared schema.

    ``step`` is the global 0-based sequence number within the run;
    ``actor`` identifies the process/node/endpoint the event belongs to
    (or a distinguished name like ``"channel"``); ``kind`` is one of the
    canonical vocabulary above; ``payload`` is substrate data (message
    contents, decided value, ...); ``round`` is set by round-based
    substrates and ``time`` by timed ones.

    A NamedTuple rather than a dataclass: event construction sits on the
    hot path of every simulator, and tuples are ~3x cheaper to build.
    """

    step: int
    actor: Hashable
    kind: str
    payload: Hashable = None
    round: Optional[int] = None
    time: Optional[float] = None

    def key(self) -> Tuple:
        return tuple(self)


@dataclass
class Trace:
    """A completed run of any substrate, in the uniform schema.

    Equality and :meth:`fingerprint` cover the identity fields only —
    the optional replayer closure is deliberately excluded, so a trace
    and its replay compare equal.
    """

    substrate: str
    protocol: str
    seed: Optional[int]
    events: Tuple[TraceEvent, ...]
    outcome: Tuple[Tuple[str, Hashable], ...] = ()
    replayer: Optional[Callable[[], "Trace"]] = field(
        default=None, compare=False, repr=False
    )

    # -- counters (free for every substrate) ------------------------------

    @property
    def steps(self) -> int:
        return len(self.events)

    @property
    def messages_sent(self) -> int:
        return sum(1 for e in self.events if e.kind == SEND)

    @property
    def messages_delivered(self) -> int:
        return sum(1 for e in self.events if e.kind == DELIVER)

    @property
    def rounds(self) -> int:
        return max((e.round for e in self.events if e.round is not None),
                   default=0)

    # -- projections ------------------------------------------------------

    def events_of(self, *kinds: str) -> Tuple[TraceEvent, ...]:
        wanted = frozenset(kinds)
        return tuple(e for e in self.events if e.kind in wanted)

    def view(self, actor: Hashable) -> Tuple[TraceEvent, ...]:
        """The projection onto one actor — the indistinguishability
        currency: two runs look the same to ``actor`` iff its views are
        equal."""
        return tuple(e for e in self.events if e.actor == actor)

    def outcome_dict(self) -> Dict[str, Hashable]:
        return dict(self.outcome)

    # -- identity ---------------------------------------------------------

    def canonical_bytes(self) -> bytes:
        """The identity fields as canonical text: one
        :func:`~repro.core.canonical.text` line for the header, one for
        the outcome and one per event."""
        return canonical.lines(
            [(self.substrate, self.protocol, self.seed), self.outcome,
             *map(tuple, self.events)]
        ).encode("utf-8")

    def fingerprint(self) -> str:
        """A stable digest: equal fingerprints <=> byte-identical runs.

        Holds because :meth:`canonical_bytes` is a function of the
        values alone (:mod:`repro.core.canonical`): equal traces get
        equal bytes whatever order their sets were built in.
        """
        import hashlib

        return hashlib.sha256(self.canonical_bytes()).hexdigest()

    @property
    def replayable(self) -> bool:
        return self.replayer is not None

    # -- serialization ----------------------------------------------------

    JSONL_SCHEMA = "repro-trace/v1"

    def to_jsonl(self) -> str:
        """Serialize to JSON Lines: one header line, then one line per event.

        Payloads in the canonical value domain (scalars, tuples,
        frozensets, frozendicts) round-trip exactly through
        :func:`~repro.core.canonical.encode`; the header records the
        fingerprint so :meth:`from_jsonl` can verify the reload is
        byte-identical.
        This is how shrunk chaos counterexamples are saved as CI
        artifacts and re-verified later.
        """
        header = {
            "schema": self.JSONL_SCHEMA,
            "substrate": self.substrate,
            "protocol": self.protocol,
            "seed": self.seed,
            "outcome": canonical.encode(self.outcome),
            "fingerprint": self.fingerprint(),
        }
        lines = [json.dumps(header, sort_keys=True)]
        for e in self.events:
            lines.append(
                json.dumps(
                    {
                        "step": e.step,
                        "actor": canonical.encode(e.actor),
                        "kind": e.kind,
                        "payload": canonical.encode(e.payload),
                        "round": e.round,
                        "time": e.time,
                    },
                    sort_keys=True,
                )
            )
        return "\n".join(lines) + "\n"

    @classmethod
    def from_jsonl(cls, text: str, verify: bool = True) -> "Trace":
        """Rebuild a trace from :meth:`to_jsonl` output.

        The result carries no replayer (the closure does not serialize);
        with ``verify`` (the default) the recomputed fingerprint is
        checked against the header's, raising :class:`ReplayError` on
        mismatch — a corrupted or hand-edited artifact never silently
        passes as the original run.
        """
        lines = [line for line in text.splitlines() if line.strip()]
        if not lines:
            raise ReplayError("empty trace serialization")
        header = json.loads(lines[0])
        if header.get("schema") != cls.JSONL_SCHEMA:
            raise ReplayError(
                f"unknown trace schema {header.get('schema')!r} "
                f"(expected {cls.JSONL_SCHEMA!r})"
            )
        events = []
        for line in lines[1:]:
            raw = json.loads(line)
            events.append(
                TraceEvent(
                    step=raw["step"],
                    actor=canonical.decode(raw["actor"]),
                    kind=raw["kind"],
                    payload=canonical.decode(raw["payload"]),
                    round=raw["round"],
                    time=raw["time"],
                )
            )
        trace = cls(
            substrate=header["substrate"],
            protocol=header["protocol"],
            seed=header["seed"],
            events=tuple(events),
            outcome=canonical.decode(header["outcome"]),
        )
        recorded = header.get("fingerprint")
        if verify and recorded != trace.fingerprint():
            raise FingerprintMismatch(
                recorded,
                trace.fingerprint(),
                context=(
                    f"reloaded trace (substrate {trace.substrate!r}, "
                    f"protocol {trace.protocol!r})"
                ),
            )
        return trace


# ---------------------------------------------------------------------------
# Seed plumbing
# ---------------------------------------------------------------------------


def derive_seed(*components: Hashable) -> int:
    """A stable 63-bit seed derived from the components.

    Unlike ``hash()``, this is independent of ``PYTHONHASHSEED`` and of
    the process, so per-process sub-seeds derived from a master seed are
    reproducible across runs and machines: the digest is taken over the
    components' canonical :func:`~repro.core.canonical.text`, which
    writes sets in a fixed member order.
    """
    import hashlib

    digest = hashlib.sha256(canonical.text(components).encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big") & 0x7FFFFFFFFFFFFFFF


def spawn_rng(rng: random.Random) -> random.Random:
    """A child RNG deterministically derived from (and advancing) ``rng``."""
    return random.Random(rng.getrandbits(63))


# ---------------------------------------------------------------------------
# The unified adversary interface
# ---------------------------------------------------------------------------


class FaultAdversary:
    """One adversary interface for every substrate.

    The base class is the benign adversary: no process is faulty, messages
    pass untouched, and scheduling defers to the runtime's seeded RNG.
    Substrates use the three powers selectively:

    * the synchronous model calls :meth:`transform` on faulty senders'
      messages (crash / omission / Byzantine subclasses live in
      :mod:`repro.consensus.synchronous`);
    * event-driven substrates (rings, I/O-automaton schedulers) call
      :meth:`schedule` to pick which enabled option happens next;
    * the datalink layer subclasses this with a full channel-action
      interface (:class:`repro.datalink.simulate.ChannelAdversary`).

    ``inputs_trustworthy`` says whether faulty processes' *inputs* count
    for validity: crash and omission failures are honest processes that
    die, so their inputs are real; Byzantine processes have no meaningful
    input.

    :meth:`reset` must return the adversary to its initial state; it is
    what makes runs with stateful adversaries (scripts, cursors, RNGs)
    replayable through :func:`replay`.
    """

    inputs_trustworthy = True
    faulty: frozenset = frozenset()  # overridden per instance in __init__

    def __init__(self, faulty: Iterable[Hashable] = ()):
        self.faulty = frozenset(faulty)

    # -- faults -----------------------------------------------------------

    def is_faulty(self, actor: Hashable) -> bool:
        return actor in self.faulty

    def transform(
        self,
        rnd: int,
        src: Hashable,
        dest: Hashable,
        honest_message: Hashable,
    ) -> Hashable:
        """The message actually delivered from a *faulty* ``src``.

        Called only for faulty senders; honest senders' messages are
        untouchable (that is the model).  Return None to suppress.
        """
        return honest_message

    # -- scheduling -------------------------------------------------------

    def schedule(
        self,
        options: Sequence[Hashable],
        rng: Optional[random.Random] = None,
    ) -> int:
        """Pick the index of the option that happens next.

        ``options`` is a deterministically ordered non-empty sequence of
        whatever the substrate offers (channel keys, enabled actions, live
        processes).  The default is the seeded-uniform choice — the benign
        scheduler — falling back to index 0 when no RNG is supplied.
        """
        if rng is None:
            return 0
        return rng.randrange(len(options))

    # -- replay -----------------------------------------------------------

    def reset(self) -> None:
        """Return to the initial state (cursors, RNGs) for replay."""


# ---------------------------------------------------------------------------
# The per-run kernel
# ---------------------------------------------------------------------------

# The benign adversary is stateless, so every runtime without an explicit
# adversary shares this instance instead of constructing one per run.
_BENIGN = FaultAdversary()


class SimulationRuntime:
    """A single run's kernel: seeded RNG + step counter + trace recorder.

    Substrate runners create one per run, ``emit`` events as they happen,
    and ``finish`` to obtain the :class:`Trace`.  The RNG is the *only*
    source of randomness a substrate may use, which is what makes every
    run a deterministic function of ``(protocol, inputs, adversary,
    seed)``.
    """

    def __init__(
        self,
        substrate: str,
        protocol: str = "",
        seed: Optional[int] = None,
        adversary: Optional[FaultAdversary] = None,
        record: bool = True,
    ):
        self.substrate = substrate
        self.protocol = protocol
        self.seed = seed
        self._rng: Optional[random.Random] = None
        self.adversary = adversary if adversary is not None else _BENIGN
        self.record = record
        self._events: List[TraceEvent] = []
        self._step = 0

    @property
    def rng(self) -> random.Random:
        # Built on first use: bulk searches (record=False, deterministic
        # adversaries) never touch the RNG, and seeding one per run is
        # measurable across tens of thousands of runs.
        rng = self._rng
        if rng is None:
            rng = self._rng = random.Random(self.seed)
        return rng

    # -- events -----------------------------------------------------------

    def emit(
        self,
        kind: str,
        actor: Hashable,
        payload: Hashable = None,
        *,
        round: Optional[int] = None,
        time: Optional[float] = None,
    ) -> Optional[TraceEvent]:
        """Record one event (and allocate its global step number)."""
        if not self.record:
            self._step += 1
            return None
        event = TraceEvent(self._step, actor, kind, payload, round, time)
        self._step += 1
        self._events.append(event)
        return event

    # -- scheduling -------------------------------------------------------

    def choose(self, options: Sequence[Hashable]) -> Hashable:
        """Let the adversary (default: seeded-uniform) pick one option."""
        index = self.adversary.schedule(options, self.rng)
        return options[index]

    def choose_index(self, options: Sequence[Hashable]) -> int:
        return self.adversary.schedule(options, self.rng)

    # -- completion -------------------------------------------------------

    def finish(
        self,
        outcome: Optional[Mapping[str, Hashable]] = None,
        replayer: Optional[Callable[[], Trace]] = None,
    ) -> Trace:
        """Seal the run into a :class:`Trace`.

        ``replayer`` is a zero-argument closure re-running the simulation
        from scratch (fresh processes, reset adversary, same seed); it is
        what :func:`replay` invokes.
        """
        packed = tuple(sorted((str(k), v) for k, v in (outcome or {}).items()))
        return Trace(
            substrate=self.substrate,
            protocol=self.protocol,
            seed=self.seed,
            events=tuple(self._events),
            outcome=packed,
            replayer=replayer,
        )


# ---------------------------------------------------------------------------
# The budgeted step loop
# ---------------------------------------------------------------------------


@dataclass
class RunRecord:
    """One :func:`drive`-n run (possibly partial); engines subclass it
    with their own result fields.

    ``complete`` is False when a ``budget=`` overdraft interrupted the
    run: ``interrupted`` holds the structured :class:`BudgetExceeded`
    and ``resume`` the live state — pass the record back via ``resume=``
    to continue, and the finished trace is byte-identical to an
    uninterrupted run's.
    """

    trace: Trace
    complete: bool
    resume: Optional[Tuple[Callable[[], Any], Any]] = field(repr=False)
    interrupted: Optional[BudgetExceeded]


def drive(
    make_sim: Callable[[], Any],
    *,
    meter=None,
    budget: Optional[Budget] = None,
    resume: Optional[RunRecord] = None,
) -> RunRecord:
    """Run (or resume) one simulation under the budget convention.

    ``make_sim`` builds the fresh simulator, which provides ``runtime``
    (a :class:`SimulationRuntime` its events are emitted through),
    ``cost`` (steps charged per :meth:`step`), ``context`` (the name of
    its own budget account), ``step()``, ``done``, ``outcome()`` (the
    trace outcome) and ``record(**base)`` (its :class:`RunRecord`).

    ``meter`` is an externally owned account (a chaos campaign's per-run
    meter): its overdraft *raises*.  ``budget`` opens the run's own
    account: its overdraft returns a partial record with a ``resume``
    handle instead.  A completed run's trace replays by calling
    ``make_sim`` again.
    """
    if resume is not None:
        if resume.resume is None:
            raise ValueError("run is not resumable (it completed)")
        make_sim, sim = resume.resume
    else:
        sim = make_sim()
    own = budget.meter(sim.context) if budget is not None else None
    interrupted: Optional[BudgetExceeded] = None
    while not sim.done:
        if meter is not None:
            meter.charge_steps(sim.cost)
        if own is not None:
            try:
                own.charge_steps(sim.cost)
            except BudgetExceeded as exc:
                interrupted = exc
                break
        sim.step()
    complete = sim.done

    def replayer() -> Trace:
        return drive(make_sim).trace

    trace = sim.runtime.finish(
        sim.outcome(), replayer=replayer if complete else None
    )
    return sim.record(
        trace=trace,
        complete=complete,
        resume=None if complete else (make_sim, sim),
        interrupted=interrupted,
    )


# ---------------------------------------------------------------------------
# Replay
# ---------------------------------------------------------------------------


def replay(trace: Trace) -> Trace:
    """Re-execute the run that produced ``trace`` and verify it.

    Returns the freshly produced trace; raises :class:`ReplayError` if the
    trace carries no replayer, and :class:`ReplayDivergence` — carrying
    the index and both versions of the first divergent event — if the
    replay differs from the original (non-determinism escaping the seeded
    RNG — exactly the bug class this kernel exists to eliminate).
    """
    if trace.replayer is None:
        raise ReplayError(
            f"trace of substrate {trace.substrate!r} carries no replayer; "
            "run it through the unified runtime to get a replayable trace"
        )
    fresh = trace.replayer()
    if fresh.fingerprint() != trace.fingerprint():
        raise ReplayDivergence(trace, fresh)
    return fresh
