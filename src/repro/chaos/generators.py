"""Seeded adversary generators: random atoms, and atoms back to adversaries.

The fuzzing side of the chaos engine.  Every adversary a campaign throws
at a substrate is generated as a flat tuple of *atoms* — plain hashable
data — and only then compiled into the substrate's concrete adversary
object.  The split is what makes counterexamples shrinkable
(:mod:`repro.chaos.shrink` deletes atoms) and serializable (atoms are
tuples of scalars, so they ride in the JSONL artifact next to the trace).

Atom vocabularies:

* ``("crash", pid, round, receivers)`` — a crash-with-partial-send for
  the synchronous model's :class:`~repro.consensus.synchronous.
  CrashAdversary`;
* ``("lie", round, dest, label, value)`` — a Byzantine claim "EIG node
  ``label`` holds ``value``", told to ``dest`` in ``round``, layered over
  the honest message;
* datalink channel actions, verbatim from the
  :class:`~repro.datalink.simulate.ChannelAdversary` vocabulary
  (``("transmit",)``, ``("deliver", side, i)``, ``("drop", side, i)``,
  ``("dup", side, i)``, ``("crash", endpoint)``);
* bare ints — a script for :class:`~repro.core.scheduler.
  ScriptedIndexScheduler`, indexing the repr-sorted enabled set of any
  scheduling-shaped substrate.
"""

from __future__ import annotations

import random
from typing import Hashable, Iterator, Sequence, Tuple

from ..circumvention.gst import (
    DELAY_ATOM,
    GST_ATOM,
    RELENTLESS_ATOM,
    SUSPECT_ATOM,
    GSTAdversary,
    simplify_gst_atom,
)
from ..circumvention.partitions import (
    PartitionAdversary,
    simplify_partition_atom,
)
from ..circumvention.randomized import CRASH_ATOM as BENOR_CRASH_ATOM
from ..circumvention.randomized import BenOrAdversary
from ..consensus.synchronous import (
    ByzantineAdversary,
    CrashAdversary,
    ScriptedOmission,
)

Atom = Tuple
Schedule = Tuple[Atom, ...]


# ---------------------------------------------------------------------------
# Crash schedules (synchronous rounds)
# ---------------------------------------------------------------------------


def random_crash_atoms(
    rng: random.Random, n: int, rounds: int, max_crashes: int
) -> Schedule:
    """Up to ``max_crashes`` crash atoms with distinct pids.

    The sampler is biased toward the shape the round-by-round chain
    argument (§2.2.2) predicts is lethal: usually one crash per round
    (distinct, increasing rounds), with receiver sets kept small — the
    interesting crashes are the ones that reach almost nobody.
    """
    if max_crashes <= rounds and rng.random() < 0.75:
        count = max_crashes  # a full chain: one crash per round
    else:
        count = rng.randint(1, max_crashes)
    pids = rng.sample(range(n), count)
    if count <= rounds:
        crash_rounds = sorted(rng.sample(range(1, rounds + 1), count))
    else:
        crash_rounds = sorted(rng.randint(1, rounds) for _ in range(count))
    chained = count >= 2 and rng.random() < 0.6
    crashed = set(pids)
    atoms = []
    for i, (pid, rnd) in enumerate(zip(pids, crash_rounds)):
        others = [p for p in range(n) if p != pid]
        if chained and i + 1 < count:
            # Hand the poison down the chain: the dying process's last
            # message reaches exactly the next process scheduled to die.
            reach = [pids[i + 1]]
        elif chained:
            # The chain's end decides the split: leak to exactly one
            # survivor, so some live process learns what the rest missed.
            live = [p for p in others if p not in crashed]
            reach = rng.sample(live, 1) if live else []
        else:
            reach = rng.sample(others, rng.choice((0, 1, 1, 2)))
        atoms.append(("crash", pid, rnd, tuple(sorted(reach))))
    return tuple(sorted(atoms))


def crash_adversary(atoms: Schedule) -> CrashAdversary:
    """Compile crash atoms into a :class:`CrashAdversary`.

    Duplicate pids (possible after shrinking mangles a schedule) resolve
    to the last atom, matching dict-comprehension semantics.
    """
    return CrashAdversary(
        {pid: (rnd, receivers) for (_tag, pid, rnd, receivers) in atoms}
    )


def grow_receivers(atom: Atom, n: int) -> Iterator[Atom]:
    """Simplification for a crash atom: reach one more recipient.

    A crash whose final messages reach more processes is *milder* — closer
    to honest behaviour — so the shrinker prefers it.
    """
    _tag, pid, rnd, receivers = atom
    present = set(receivers)
    for p in range(n):
        if p != pid and p not in present:
            yield ("crash", pid, rnd, tuple(sorted(present | {p})))


# ---------------------------------------------------------------------------
# Mobile / transient crash schedules (Gafni–Losa rounds)
# ---------------------------------------------------------------------------


def random_mobile_crash_atoms(
    rng: random.Random, n: int, rounds: int, max_per_round: int = 1
) -> Schedule:
    """A mobile-fault schedule: the crashed set is re-sampled every round.

    Gafni–Losa (*Time is not a Healer*) reinterpret the t+1 bound for
    transient faults: a process silenced this round is healthy again the
    next, so the *same* total fault budget spread mobile-ly defeats
    protocols that survive it statically.  Each atom ``("mute", round,
    pid)`` silences one process's outgoing messages for one round only.

    The sampler is biased toward the lethal shape: with probability 0.5
    one victim is muted in *every* round (the relentless chain that keeps
    a value hidden for the whole run); otherwise each round independently
    mutes up to ``max_per_round`` random processes — mostly-healed
    schedules that exercise the possible side of the boundary.
    """
    atoms = set()
    if rng.random() < 0.5:
        victim = rng.randrange(n)
        for rnd in range(1, rounds + 1):
            atoms.add(("mute", rnd, victim))
    else:
        for rnd in range(1, rounds + 1):
            for _ in range(rng.randint(0, max_per_round)):
                atoms.add(("mute", rnd, rng.randrange(n)))
    return tuple(sorted(atoms))


def mobile_omission_adversary(atoms: Schedule, n: int) -> ScriptedOmission:
    """Compile mute atoms into a :class:`ScriptedOmission` adversary.

    A muted process drops every outgoing message of that round and runs
    honestly otherwise — a crash that round, healed the next.
    """
    return ScriptedOmission(
        {
            (rnd, pid, dest)
            for (_tag, rnd, pid) in atoms
            for dest in range(n)
            if dest != pid
        }
    )


def muted_rounds(atoms: Schedule) -> dict:
    """pid -> set of rounds in which that pid is muted."""
    silenced: dict = {}
    for (_tag, rnd, pid) in atoms:
        silenced.setdefault(pid, set()).add(rnd)
    return silenced


# ---------------------------------------------------------------------------
# Partition schedules (circumvention layer: detectors, leases)
# ---------------------------------------------------------------------------


def random_partition_atoms(
    rng: random.Random,
    n: int,
    horizon: int,
    max_down: int = 1,
    p_sustained: float = 0.6,
) -> Schedule:
    """A seeded partition schedule over the first ``horizon`` steps.

    Biased toward the shapes that matter for quorum protocols: usually
    one *sustained* split (the same side-mask over a contiguous window,
    half the time starting at step 0, when elections happen), plus a
    scatter of single-step splits and asymmetric cuts, plus at most
    ``max_down`` permanent crashes.  Every atom acts before ``horizon``,
    so a caller that simulates past it is guaranteed a quiet suffix —
    the stabilization window eventual-accuracy monitors key on.
    """
    atoms = set()
    if rng.random() < p_sustained:
        mask = rng.randint(1, (1 << n) - 2)  # nonempty proper subset
        start = 0 if rng.random() < 0.5 else rng.randrange(horizon)
        length = rng.randint(1, horizon - start)
        for t in range(start, start + length):
            atoms.add(("split", t, mask))
    for _ in range(rng.randint(0, 4)):
        t = rng.randrange(horizon)
        if rng.random() < 0.5:
            a, b = rng.sample(range(n), 2)
            atoms.add(("cut", t, a, b))
        else:
            atoms.add(("split", t, rng.randint(1, (1 << n) - 2)))
    if max_down > 0 and rng.random() < 0.25:
        atoms.add(("down", rng.randrange(horizon), rng.randrange(n)))
    return tuple(sorted(atoms))


def partition_adversary(atoms: Schedule, n: int) -> PartitionAdversary:
    """Compile partition atoms into a :class:`PartitionAdversary`."""
    return PartitionAdversary(atoms, n)


# re-exported for ChaosTarget.simplify_atom hooks
simplify_partition_atom = simplify_partition_atom


# ---------------------------------------------------------------------------
# Suspicion schedules (rotating-coordinator consensus)
# ---------------------------------------------------------------------------


def random_suspicion_atoms(
    rng: random.Random, n: int, accurate_after: int
) -> Schedule:
    """An *eventually accurate* suspicion schedule.

    Scripted ``("suspect", round, pid)`` atoms confined to rounds below
    ``accurate_after`` — after that every detector output is correct, so
    rotating-coordinator consensus must decide.  This is the possible
    side of the FLP circumvention: wrong early, right eventually.
    """
    atoms = set()
    for rnd in range(accurate_after):
        for pid in range(n):
            if rng.random() < 0.4:
                atoms.add((SUSPECT_ATOM, rnd, pid))
    return tuple(sorted(atoms))


def random_relentless_atoms(
    rng: random.Random, n: int, p_full: float = 0.7
) -> Schedule:
    """An adversarial suspicion schedule: a relentless coalition.

    With probability ``p_full`` *every* process suspects every
    coordinator forever — the schedule under which no round ever
    collects a quorum and the run must stall (budget-exceeded, never
    unsafe).  Otherwise a strict sub-coalition, which rotation defeats:
    the first round whose coordinator sits outside the coalition decides.
    """
    if rng.random() < p_full:
        coalition = range(n)
    else:
        coalition = rng.sample(range(n), rng.randint(1, n - 1))
    return tuple(sorted((RELENTLESS_ATOM, pid) for pid in coalition))


# ---------------------------------------------------------------------------
# Ben-Or schedules (randomized consensus)
# ---------------------------------------------------------------------------


def random_benor_atoms(
    rng: random.Random,
    n: int,
    t: int,
    max_script: int = 24,
    crash_window: int = 60,
    p_crash: float = 0.4,
) -> Schedule:
    """A seeded Ben-Or adversary: a delivery script plus optional crashes.

    Bare ints index the deliverable-message list for the first
    ``max_script`` deliveries (the adversary's strongest lever — which
    report lands where decides who sees a majority); once the script
    runs dry the engine's seeded scheduler takes over, so every schedule
    is finite yet every run can still terminate.  With probability
    ``p_crash`` up to ``t`` distinct processes crash at scripted event
    counts — the full strength of Ben-Or's fault contract.
    """
    atoms: list = [
        rng.randrange(n * n) for _ in range(rng.randint(0, max_script))
    ]
    if t > 0 and rng.random() < p_crash:
        for pid in rng.sample(range(n), rng.randint(1, t)):
            atoms.append((BENOR_CRASH_ATOM, rng.randrange(crash_window), pid))
    return tuple(atoms)


def benor_adversary(atoms: Schedule, t: int) -> BenOrAdversary:
    """Compile Ben-Or atoms into a :class:`BenOrAdversary` (the compiled
    crash plan is what target monitors use to learn who died)."""
    return BenOrAdversary(atoms, t)


# ---------------------------------------------------------------------------
# Partial-synchrony schedules (GST consensus)
# ---------------------------------------------------------------------------


def random_gst_atoms(
    rng: random.Random,
    n: int,
    max_gst: int = 40,
    p_blackout: float = 0.5,
    loss: float = 0.5,
) -> Schedule:
    """A seeded partial-synchrony schedule: delays until GST, then calm.

    Stabilization lands at a uniform ``("gst", g)``; before it, with
    probability ``p_blackout`` every link is dark every round (the
    canonical worst case — a late-enough GST under a capped budget is
    the provable stall), otherwise each directed link's message is
    independently delayed with probability ``loss`` (the lossy regime
    where lucky pre-GST decisions exercise the safety argument).
    """
    gst = rng.randint(1, max_gst)
    atoms: list = [(GST_ATOM, gst)]
    blackout = rng.random() < p_blackout
    for r in range(gst):
        for src in range(n):
            for dst in range(n):
                if src != dst and (blackout or rng.random() < loss):
                    atoms.append((DELAY_ATOM, r, (src, dst), 1))
    return tuple(atoms)


def gst_adversary(
    atoms: Schedule, n: int, t: int = 0
) -> GSTAdversary:
    """Compile gst atoms into a :class:`GSTAdversary`."""
    return GSTAdversary(atoms, n, t)


# re-exported for ChaosTarget.simplify_atom hooks
simplify_gst_atom = simplify_gst_atom


# ---------------------------------------------------------------------------
# Corpus mutation (coverage-guided re-expansion)
# ---------------------------------------------------------------------------


def mutate_schedule(
    rng: random.Random, atoms: Schedule, generate
) -> Schedule:
    """One seeded mutation of a corpus schedule.

    The coverage-guided loop's re-expansion step: a schedule that reached
    a novel trace fingerprint is perturbed — atoms deleted, duplicated,
    swapped, truncated, or spliced with a fresh draw from the target's
    own generator (``generate(rng)``) — in the hope of reaching a
    neighbouring behaviour.  Every operator preserves the target's atom
    vocabulary, so mutants compile into adversaries exactly like fresh
    schedules, and the whole mutation is a deterministic function of
    ``(rng state, atoms)``.
    """
    atoms = tuple(atoms)
    if not atoms:
        return tuple(generate(rng))
    op = rng.choice(("delete", "duplicate", "swap", "truncate", "splice"))
    if op == "delete":
        i = rng.randrange(len(atoms))
        return atoms[:i] + atoms[i + 1:]
    if op == "duplicate":
        i = rng.randrange(len(atoms))
        return atoms[:i] + (atoms[i],) + atoms[i:]
    if op == "swap":
        if len(atoms) < 2:
            return tuple(generate(rng))
        i, j = rng.sample(range(len(atoms)), 2)
        swapped = list(atoms)
        swapped[i], swapped[j] = swapped[j], swapped[i]
        return tuple(swapped)
    if op == "truncate":
        return atoms[: rng.randint(1, len(atoms))]
    # splice: keep a prefix, continue with a fresh generator draw
    fresh = tuple(generate(rng))
    cut = rng.randint(0, len(atoms))
    return atoms[:cut] + fresh[min(cut, len(fresh)):]


# ---------------------------------------------------------------------------
# Byzantine lies (EIG)
# ---------------------------------------------------------------------------


def random_lie_atoms(
    rng: random.Random,
    faulty: int,
    n: int,
    rounds: int,
    max_lies: int,
    values: Sequence[Hashable] = (0, 1),
) -> Schedule:
    """Up to ``max_lies`` per-label Byzantine claims.

    A round-``r`` EIG message carries level-``r-1`` labels excluding the
    sender; each lie overrides one label's value for one recipient — the
    per-edge equivocation the n > 3t bound is about.
    """
    honest = [p for p in range(n) if p != faulty]
    atoms = set()
    for _ in range(rng.randint(1, max_lies)):
        rnd = rng.randint(1, rounds)
        dest = rng.choice(honest)
        if rnd == 1:
            label: Tuple[int, ...] = ()
        else:
            label = tuple(
                rng.sample([p for p in range(n) if p != faulty], rnd - 1)
            )
        atoms.add(("lie", rnd, dest, label, rng.choice(list(values))))
    return tuple(sorted(atoms))


def lie_adversary(atoms: Schedule, faulty: int) -> ByzantineAdversary:
    """Compile lie atoms into a :class:`ByzantineAdversary`.

    The faulty process sends its honest message with the scripted labels
    overridden — minimal deviation, so deleting a lie atom really does
    mean "one claim fewer".
    """
    script = {}
    for (_tag, rnd, dest, label, value) in atoms:
        script.setdefault((rnd, dest), {})[label] = value

    def behaviour(rnd, src, dest, honest_message):
        lies = script.get((rnd, dest))
        if not lies:
            return honest_message
        try:
            entries = dict(honest_message)
        except (TypeError, ValueError):
            entries = {}
        for label, value in lies.items():
            if len(label) == rnd - 1 and src not in label:
                entries[label] = value
        return tuple(sorted(entries.items()))

    return ByzantineAdversary([faulty], behaviour)


# ---------------------------------------------------------------------------
# Channel programs (datalink)
# ---------------------------------------------------------------------------

_SIDES = ("fwd", "bwd")
_ENDPOINTS = ("sender", "receiver")


def random_channel_atoms(
    rng: random.Random,
    min_length: int = 6,
    max_length: int = 16,
    drain_cycles: int = 12,
) -> Schedule:
    """A random channel program plus a cooperative drain suffix.

    The random prefix mixes transmissions, (possibly reordered)
    deliveries, drops, duplicates and endpoint crashes; the drain suffix
    then runs the channel honestly long enough for a correct protocol to
    finish.  The suffix makes liveness-flavoured failures observable —
    "the sender believes it is done but a message was lost" only shows
    once the sender has been allowed to finish — and the shrinker deletes
    whatever part of the drain the counterexample does not need.
    """
    atoms = []
    for _ in range(rng.randint(min_length, max_length)):
        roll = rng.random()
        if roll < 0.30:
            atoms.append(("transmit",))
        elif roll < 0.55:
            atoms.append(("deliver", "fwd", rng.randint(0, 2)))
        elif roll < 0.75:
            atoms.append(("deliver", "bwd", rng.randint(0, 2)))
        elif roll < 0.80:
            atoms.append(("drop", rng.choice(_SIDES), rng.randint(0, 2)))
        elif roll < 0.85:
            atoms.append(("dup", rng.choice(_SIDES), rng.randint(0, 2)))
        else:
            atoms.append(("crash", rng.choice(_ENDPOINTS)))
    for _ in range(drain_cycles):
        atoms.extend(
            [("transmit",), ("deliver", "fwd", 0), ("deliver", "bwd", 0)]
        )
    return tuple(atoms)


def simplify_channel_atom(atom: Atom) -> Iterator[Atom]:
    """Simplification: pull buffer indices to 0 (FIFO is the tame case)."""
    if atom[0] in ("deliver", "drop", "dup") and atom[2] > 0:
        yield (atom[0], atom[1], 0)


# ---------------------------------------------------------------------------
# Interleaving scripts (shared memory, rings, asynchronous network)
# ---------------------------------------------------------------------------


def random_index_atoms(
    rng: random.Random, min_length: int, max_length: int, width: int
) -> Schedule:
    """A random :class:`~repro.core.scheduler.ScriptedIndexScheduler`
    script: ints in ``[0, width)``; the scheduler wraps them mod the live
    option count and falls back to 0 when the script runs dry."""
    return tuple(
        rng.randrange(width) for _ in range(rng.randint(min_length, max_length))
    )


def simplify_index_atom(atom: int) -> Iterator[int]:
    """Simplification: smaller indices are simpler; 0 is the fair default."""
    if isinstance(atom, int) and atom > 0:
        yield 0
        if atom > 1:
            yield atom - 1
