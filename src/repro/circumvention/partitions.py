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

    Stateless across queries (its row caches only memoize), so one
    instance serves both the simulator (deciding deliveries as it runs)
    and the post-hoc monitors (re-deciding majority membership from the
    trace) — the two can never disagree about what the network did.
    Every link query reads one step's :meth:`reach` rows.
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
        self._full = (1 << n) - 1
        # alive mask -> reach rows of a step with no split or cut
        self._quiet_rows: Dict[int, Tuple[int, ...]] = {}
        # step -> reach rows of a step with a split or cut
        self._link_rows: Dict[int, Tuple[int, ...]] = {}
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
        # steps whose links a split or cut atom touches
        self._links = set(self._splits) | set(self._cuts)

    # -- process liveness --------------------------------------------------

    def crashed(self, t: int, pid: int) -> bool:
        """True once ``pid``'s crash step has arrived."""
        at = self.crashed_at.get(pid)
        return at is not None and t >= at

    def live(self, t: int) -> Tuple[int, ...]:
        return tuple(p for p in range(self.n) if not self.crashed(t, p))

    def ever_crashed(self) -> FrozenSet[int]:
        return frozenset(self.crashed_at)

    def alive_mask(self, t: int) -> int:
        """Bit ``p`` set iff ``pid`` p has not crashed by step ``t``."""
        mask = self._full
        for pid, at in self.crashed_at.items():
            if t >= at:
                mask &= ~(1 << pid)
        return mask

    # -- link state --------------------------------------------------------

    def reach(self, t: int) -> Tuple[int, ...]:
        """Per source, the mask of destinations a message sent during
        step ``t`` reaches: bit ``dst`` of row ``src`` is set iff the
        network delivers src->dst.

        Self-delivery is never blocked by the network (a node always
        hears itself); crashes block everything at either endpoint.
        Rows are built once per step that carries a split or cut atom;
        every other step shares one cached row set per alive mask.
        """
        alive = self.alive_mask(t)
        if t not in self._links:
            rows = self._quiet_rows.get(alive)
            if rows is None:
                rows = self._quiet_rows[alive] = tuple(
                    alive if alive >> src & 1 else 0 for src in range(self.n)
                )
            return rows
        rows = self._link_rows.get(t)
        if rows is None:
            splits = self._splits.get(t, ())
            cuts = self._cuts.get(t, ())
            full = self._full
            built = []
            for src in range(self.n):
                row = alive if alive >> src & 1 else 0
                for mask in splits:
                    row &= mask if mask >> src & 1 else full & ~mask
                for a, b in cuts:
                    if a == src and b != src:
                        row &= ~(1 << b)
                built.append(row)
            rows = self._link_rows[t] = tuple(built)
        return rows

    def blocked(self, t: int, src: int, dst: int) -> bool:
        """Is a message sent src->dst during step ``t`` destroyed?"""
        return not self.reach(t)[src] >> dst & 1

    def majority_connected(self, t: int, pid: int) -> bool:
        """Can ``pid`` currently exchange messages with a strict majority
        of the *full* cluster (itself included)?

        The quorum test degraded modes key on: a leader that fails it
        must stop acking writes, whatever lease it still holds.
        """
        rows = self.reach(t)
        row = rows[pid]
        reach = sum(
            1 for q in range(self.n) if row >> q & 1 and rows[q] >> pid & 1
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
