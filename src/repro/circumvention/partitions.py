"""The partition adversary: seeded split / heal / asymmetric-link schedules.

CAP-style scenarios need an adversary that owns the *network*, not the
processes: it may split the cluster into sides, cut single directions of
single links (asymmetric reachability — the nastiest real-world case),
heal everything the next step, and crash nodes outright.  Following the
chaos engine's atoms-as-schedules convention
(:mod:`repro.chaos.generators`), a partition schedule is a flat tuple of
per-step atoms, so ddmin deletion has clean semantics (removing an atom
strictly heals the network) and schedules serialize into JSONL artifacts
unchanged:

* ``("split", t, mask)`` — during step ``t`` the nodes whose bit is set
  in ``mask`` are one side, the rest the other; every link crossing the
  boundary is cut in both directions for that step only;
* ``("cut", t, a, b)`` — during step ``t`` the directed link a->b is
  cut (b->a stays up: asymmetric);
* ``("down", t, pid)`` — ``pid`` crashes at step ``t`` and stays down.

Sustained partitions are spelled as one split atom per step, which is
exactly what makes shrinking informative: the 1-minimal counterexample
names the precise steps (often just one) the failure needs.
"""

from __future__ import annotations

import json
from typing import Dict, FrozenSet, Iterable, Set, Tuple

Atom = Tuple
Schedule = Tuple[Atom, ...]


def parse_atoms(text: str) -> Schedule:
    """A JSON schedule (list of ``[tag, ...]`` atoms) as a tuple of tuples
    — the ``--atoms`` argument of the command-line entry points."""
    return tuple(
        tuple(atom) if isinstance(atom, list) else atom
        for atom in json.loads(text)
    )

SPLIT = "split"
CUT = "cut"
DOWN = "down"


class PartitionAdversary:
    """Compiled form of a partition schedule: O(1) per-step link queries.

    Immutable and stateless across queries, so one instance serves both
    the simulator (deciding deliveries as it runs) and the post-hoc
    monitors (re-deciding majority membership from the trace) — the two
    can never disagree about what the network did.
    """

    def __init__(self, atoms: Iterable[Atom], n: int):
        self.n = n
        self.atoms: Schedule = tuple(atoms)
        # step -> frozenset of side-masks active that step
        self._splits: Dict[int, Set[int]] = {}
        # step -> set of directed (src, dst) cuts
        self._cuts: Dict[int, Set[Tuple[int, int]]] = {}
        # pid -> earliest crash step
        self.crashed_at: Dict[int, int] = {}
        for atom in self.atoms:
            tag = atom[0]
            if tag == SPLIT:
                _, t, mask = atom
                self._splits.setdefault(t, set()).add(mask & ((1 << n) - 1))
            elif tag == CUT:
                _, t, a, b = atom
                self._cuts.setdefault(t, set()).add((a, b))
            elif tag == DOWN:
                _, t, pid = atom
                prior = self.crashed_at.get(pid)
                if prior is None or t < prior:
                    self.crashed_at[pid] = t
            else:
                raise ValueError(f"unknown partition atom {atom!r}")

    # -- process liveness --------------------------------------------------

    def crashed(self, t: int, pid: int) -> bool:
        """True once ``pid``'s crash step has arrived."""
        at = self.crashed_at.get(pid)
        return at is not None and t >= at

    def live(self, t: int) -> Tuple[int, ...]:
        return tuple(p for p in range(self.n) if not self.crashed(t, p))

    def ever_crashed(self) -> FrozenSet[int]:
        return frozenset(self.crashed_at)

    # -- link state --------------------------------------------------------

    def blocked(self, t: int, src: int, dst: int) -> bool:
        """Is a message sent src->dst during step ``t`` destroyed?

        Self-delivery is never blocked by the network (a node always
        hears itself); crashes block everything at either endpoint.
        """
        if self.crashed(t, src) or self.crashed(t, dst):
            return True
        if src == dst:
            return False
        for mask in self._splits.get(t, ()):
            if bool(mask >> src & 1) != bool(mask >> dst & 1):
                return True
        cuts = self._cuts.get(t)
        return cuts is not None and (src, dst) in cuts

    def connected(self, t: int, a: int, b: int) -> bool:
        """Bidirectionally reachable during step ``t`` (both alive)."""
        return not self.blocked(t, a, b) and not self.blocked(t, b, a)

    def majority_connected(self, t: int, pid: int) -> bool:
        """Can ``pid`` currently exchange messages with a strict majority
        of the *full* cluster (itself included)?

        The quorum test degraded modes key on: a leader that fails it
        must stop acking writes, whatever lease it still holds.
        """
        if self.crashed(t, pid):
            return False
        reach = sum(
            1 for q in range(self.n) if self.connected(t, pid, q)
        )
        return reach > self.n // 2

    def quiet_after(self) -> int:
        """The first step from which the schedule does nothing new.

        Crashes are permanent, so a ``down`` atom keeps acting forever;
        splits and cuts act only at their own step.
        """
        horizon = 0
        for atom in self.atoms:
            if atom[0] in (SPLIT, CUT):
                horizon = max(horizon, atom[1] + 1)
        return horizon

    def reset(self) -> None:
        """Stateless — present for the FaultAdversary replay contract."""


def simplify_partition_atom(atom: Atom):
    """Strictly simpler variants of one partition atom, for the shrinker.

    A split with fewer nodes on the minority side is milder (fewer links
    cut); popcount strictly decreases, so per-atom simplification
    terminates.  Cuts and crashes have no internal structure — ddmin
    deletes them whole.
    """
    if atom[0] != SPLIT:
        return
    _, t, mask = atom
    if mask.bit_count() <= 1:
        return
    bit = 1
    while bit <= mask:
        if mask & bit:
            yield (SPLIT, t, mask & ~bit)
        bit <<= 1
