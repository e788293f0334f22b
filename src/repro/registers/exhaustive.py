"""Exhaustive search over small read/write consensus protocols (§2.3).

The hierarchy results in :mod:`repro.registers.herlihy` defeat *given*
protocols; this module quantifies over a whole bounded class, the same
methodology as the Cremers–Hibbard search (E1): enumerate every symmetric
2-process protocol in which each process owns one binary register and
runs a depth-bounded decision-tree program —

* non-branching step: write 0 / 1 / own input to the own register;
* branching step: read the other's register (branch on 0 / 1, with the
  initial value also readable);
* leaf: decide 0 / 1 / own input / last value read.

Every candidate is model-checked exhaustively for agreement, validity and
wait-freedom over all interleavings; the certificate records that **no
candidate solves 2-process wait-free consensus**, which is the
Loui–Abu-Amara / Herlihy impossibility restricted to the stated class —
with the class bound honest in the certificate, and deep enough to
contain the natural write-then-read-then-decide protocols.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Tuple

from ..core.budget import Budget, BudgetExceeded
from ..impossibility.certificate import ImpossibilityCertificate
from ..shared_memory.variables import Access, read, write
from .herlihy import (
    ObjectConsensusProtocol,
    ObjectConsensusSystem,
    wait_free_verdict,
)

# A program tree, as nested tuples (registers start at 0):
#   ("decide", leaf)                 leaf in {"zero", "one", "own", "seen"}
#   ("write", value, subtree)        value in {"zero", "one", "own"}
#   ("read", subtree_if_0, subtree_if_1)
Program = Tuple

LEAVES = ("zero", "one", "own", "seen")
WRITE_VALUES = ("zero", "one", "own")


def enumerate_programs(depth: int) -> Iterator[Program]:
    """Every program of the class with at most ``depth`` accesses."""
    if depth == 0:
        for leaf in LEAVES:
            yield ("decide", leaf)
        return
    for program in enumerate_programs(0):
        yield program
    subprograms = list(enumerate_programs(depth - 1))
    for value in WRITE_VALUES:
        for sub in subprograms:
            yield ("write", value, sub)
    for if0 in subprograms:
        for if1 in subprograms:
            yield ("read", if0, if1)


def count_programs(depth: int) -> int:
    if depth == 0:
        return len(LEAVES)
    inner = count_programs(depth - 1)
    return len(LEAVES) + len(WRITE_VALUES) * inner + inner ** 2


class ProgramConsensus(ObjectConsensusProtocol):
    """A symmetric 2-process protocol defined by one program tree."""

    def __init__(self, program: Program):
        self.program = program
        self.name = f"program-consensus-{hash(program) & 0xFFFF:04x}"

    def initial_memory(self, n):
        return {f"r{i}": 0 for i in range(n)}

    def initial_local(self, pid, n, input_value):
        # (pid, own input, last read value, current subtree)
        return (pid, input_value, None, self.program)

    def _resolve(self, tag, input_value, seen):
        if tag == "zero":
            return 0
        if tag == "one":
            return 1
        if tag == "own":
            return input_value
        # "seen": the last value read; before any read, fall back to own.
        if seen is None:
            return input_value
        return seen

    def pending_access(self, local) -> Optional[Access]:
        pid, input_value, seen, tree = local
        if tree[0] == "decide":
            return None
        if tree[0] == "write":
            return write(f"r{pid}", self._resolve(tree[1], input_value, seen))
        return read(f"r{1 - pid}")

    def after_access(self, local, response):
        pid, input_value, seen, tree = local
        if tree[0] == "write":
            return (pid, input_value, seen, tree[2])
        return (pid, input_value, response, tree[1 + int(bool(response))])

    def decision(self, local):
        pid, input_value, seen, tree = local
        if tree[0] != "decide":
            return None
        return self._resolve(tree[1], input_value, seen)


# The value of each leaf/write tag per (own input, last read) slot,
# slot = input * 3 + (seen + 1) with seen = -1 for "nothing read yet"
# (which falls back to the own input, exactly ProgramConsensus._resolve).
_RESOLVED = {
    "zero": (0, 0, 0, 0, 0, 0),
    "one": (1, 1, 1, 1, 1, 1),
    "own": (0, 0, 0, 1, 1, 1),
    "seen": (0, 0, 1, 1, 0, 1),
}
_ZEROS = (0,) * 6
_NONE = (-1,) * 6
_NO_READ = ((-1, -1),) * 6
_UNBOUNDED = float("inf")
#: What a search with no violation returns: no level, no failure.
_CLEAN = (_UNBOUNDED, "solution")


class SubtreeTable:
    """Every program of the class as one hash-consed table of subtrees.

    A node is a subtree: ``("decide", leaf)``, ``("write", value,
    sub_node)`` or ``("read", if0_node, if1_node)``, interned once per
    search, so the 1124 depth-2 candidates share 1124 nodes instead of
    flattening a tree each.  A local state of :class:`ProgramConsensus`
    is ``(pid, input, seen, subtree)``; ``pid`` is positional and
    ``input`` never changes, so it packs into a local id ``lid = node * 6
    + input * 3 + (seen + 1)``, and each node owns six rows of the
    decide/write/read tables below.  A configuration of a candidate is
    one int ``(lid0 * L + lid1) * 4 + mem0 * 2 + mem1`` over the table's
    lid space ``L``, so a candidate check is just a BFS over ints.

    Wait-freedom is discharged structurally: a solo run from node ``v``
    decides after at most ``height(v)`` accesses (programs are trees, so
    solo runs neither halt undecided nor cycle), hence it can only fail
    when the tree is deeper than the solo bound — and then
    :meth:`verdict` defers to the generic :func:`wait_free_verdict`
    rather than replicate its failure order.

    Lids are also sorted into behaviour classes, bottom-up: two lids
    with equal signatures (:meth:`_signature`: input bit, decided and
    written value, classes of the successors) are bisimilar, as are
    ``("decide", "own")`` and ``("decide", "zero")`` under input 0.  A
    BFS first reaches the configurations of bisimilar candidates in the
    same order of their class vectors, and its checks read only what a
    class fixes, so a candidate's verdict is a function of the
    signatures of its two root lids: :meth:`verdict` searches once per
    such pair, and the search from one input vector with both processes
    at one root lid once per signature (:meth:`_search`).  Only the lids
    of subtrees need a class; a root's signature is taken when its
    candidate is checked.
    """

    def __init__(self, depth: int):
        self._ids: Dict[Tuple, int] = {}
        self._programs: List[Optional[Program]] = []
        self._keys: List[Tuple] = []
        self.heights: List[int] = []
        # Per lid: decided value (-1 while running), written value and
        # successor of a write (-1 if not a write), successors of a read
        # per response.
        self.decide: List[int] = []
        self.write_value: List[int] = []
        self.write_next: List[int] = []
        self.read_next: List[Tuple[int, int]] = []
        #: Per lid of a subtree of some candidate: its behaviour class.
        self.behaviour: List[int] = []
        self._verdicts: Dict[Tuple[Tuple, Tuple], str] = {}
        #: Per root-lid signature: the first violation from that lid on
        #: both processes (the input vector 00 or 11).
        self._diagonals: Dict[Tuple, Tuple[float, str]] = {}
        level: List[int] = []
        for d in range(depth + 1):
            if d == depth:  # every subtree of a candidate is interned
                classes: Dict[Tuple, int] = {}
                for lid in range(len(self.decide)):
                    self.behaviour.append(
                        classes.setdefault(self._signature(lid), len(classes))
                    )
            leaves = [self._node(("decide", leaf)) for leaf in LEAVES]
            subs = level
            level = leaves
            if d:
                level += [
                    self._node(("write", value, sub))
                    for value in WRITE_VALUES for sub in subs
                ]
                level += [
                    self._node(("read", if0, if1))
                    for if0 in subs for if1 in subs
                ]
        #: The class's candidates, as node ids in enumerate_programs order.
        self.candidates = level

    def _node(self, key: Tuple) -> int:
        nid = self._ids.get(key)
        if nid is not None:
            return nid
        nid = len(self._keys)
        self._ids[key] = nid
        self._keys.append(key)
        self._programs.append(None)
        op = key[0]
        if op == "decide":
            self.heights.append(0)
            self.decide.extend(_RESOLVED[key[1]])
            self.write_value.extend(_ZEROS)
            self.write_next.extend(_NONE)
            self.read_next.extend(_NO_READ)
        elif op == "write":
            sub = key[2] * 6
            self.heights.append(1 + self.heights[key[2]])
            self.decide.extend(_NONE)
            self.write_value.extend(_RESOLVED[key[1]])
            self.write_next.extend(range(sub, sub + 6))  # slot unchanged
            self.read_next.extend(_NO_READ)
        else:
            if0, if1 = key[1] * 6, key[2] * 6
            self.heights.append(
                1 + max(self.heights[key[1]], self.heights[key[2]])
            )
            self.decide.extend(_NONE)
            self.write_value.extend(_ZEROS)
            self.write_next.extend(_NONE)
            # A read keeps the input and sets seen to the response.
            self.read_next.extend((
                (if0 + 1, if1 + 2), (if0 + 1, if1 + 2), (if0 + 1, if1 + 2),
                (if0 + 4, if1 + 5), (if0 + 4, if1 + 5), (if0 + 4, if1 + 5),
            ))
        return nid

    def _signature(self, lid: int) -> Tuple:
        """``(input bit, decided value, written value, class of the write
        successor, classes of the read successors)``, -1 where absent."""
        behaviour = self.behaviour
        nxt = self.write_next[lid]
        if0, if1 = self.read_next[lid]
        return (
            lid % 6 // 3, self.decide[lid], self.write_value[lid],
            behaviour[nxt] if nxt >= 0 else -1,
            behaviour[if0] if if0 >= 0 else -1,
            behaviour[if1] if if1 >= 0 else -1,
        )

    def program_of(self, nid: int) -> Program:
        """The program tree of node ``nid`` (built once per node)."""
        program = self._programs[nid]
        if program is None:
            key = self._keys[nid]
            if key[0] == "decide":
                program = key
            elif key[0] == "write":
                program = ("write", key[1], self.program_of(key[2]))
            else:
                program = (
                    "read", self.program_of(key[1]), self.program_of(key[2])
                )
            self._programs[nid] = program
        return program

    def verdict(self, nid: int, solo_bound: int) -> str:
        """Classify candidate ``nid``: ``"solution"``, ``"agreement"``,
        ``"validity"`` or ``"wait_freedom"``, as the generic verdict
        would over the same program."""
        if self.heights[nid] > solo_bound:
            program = self.program_of(nid)
            system = ObjectConsensusSystem(ProgramConsensus(program), 2)
            verdict = wait_free_verdict(system, solo_bound=solo_bound)
            if verdict.solves_consensus:
                return "solution"
            return verdict.failure_kind or "wait_freedom"
        start = nid * 6  # lid of (nid, input 0, nothing seen)
        behaviour = (self._signature(start), self._signature(start + 3))
        kind = self._verdicts.get(behaviour)
        if kind is None:
            kind = self._verdicts[behaviour] = self._search(start, behaviour)
        return kind

    def _search(self, start: int, behaviour: Tuple[Tuple, Tuple]) -> str:
        """The verdict of the candidate whose root lid is ``start``: the
        kind of the first violating configuration of a FIFO BFS over all
        interleavings from the input vectors 00, 01, 10 and 11, or
        ``"solution"``.

        Inputs are positional and immutable, so the four vectors reach
        disjoint configuration sets, and that BFS dequeues by level, then
        by vector, then in each vector's own BFS order.  Its first
        violation is the one at the least ``(level, vector index)`` over
        the vectors' own first violations, which come from one search
        per vector.  01 and 10 can only break agreement, and 10 is the
        pid-mirror of 01 level by level, so it never comes first.  The
        diagonal searches are shared by every candidate whose root lid
        has that signature, and the 01 search only looks for a violation
        that would come first: below 00's level, at most at 11's.
        """
        level00, kind00 = self._diagonal(start, behaviour[0])
        level11, kind11 = self._diagonal(start + 3, behaviour[1])
        bound = min(level00 - 1, level11)
        level01, kind01 = _CLEAN
        if bound >= 0:
            level01, kind01 = self._first_violation(start, start + 3, bound)
        return min(
            (level00, 0, kind00), (level01, 1, kind01), (level11, 3, kind11)
        )[2]

    def _diagonal(self, lid: int, signature: Tuple) -> Tuple[float, str]:
        """The first violation from both processes at ``lid``, memoized
        by the lid's signature."""
        found = self._diagonals.get(signature)
        if found is None:
            found = self._diagonals[signature] = self._first_violation(
                lid, lid, _UNBOUNDED
            )
        return found

    def _first_violation(
        self, lid0: int, lid1: int, bound: float
    ) -> Tuple[float, str]:
        """``(level, kind)`` of the first violating configuration of a BFS
        over all interleavings from the local ids ``lid0`` and ``lid1``
        with both registers 0, looking no deeper than level ``bound``;
        ``(inf, "solution")`` when there is none."""
        decide = self.decide
        write_value = self.write_value
        write_next = self.write_next
        read_next = self.read_next
        L = len(decide)
        queue = [(lid0 * L + lid1) * 4]
        # Marking on enqueue visits configurations in the same order as
        # a mark-on-dequeue BFS would.
        seen = set(queue)
        level = 0
        level_end = 1
        for index, cfg in enumerate(queue):
            if index == level_end:
                level += 1
                if level > bound:
                    break
                level_end = len(queue)
            mem = cfg & 3
            lid0, lid1 = divmod(cfg >> 2, L)
            d0 = decide[lid0]
            d1 = decide[lid1]
            if d0 >= 0 or d1 >= 0:
                if d0 >= 0 and d1 >= 0 and d0 != d1:
                    return level, "agreement"
                # Inputs are positional and immutable, so the originating
                # input vector is recoverable from the lids.
                in0 = lid0 % 6 // 3
                in1 = lid1 % 6 // 3
                if d0 >= 0 and d0 != in0 and d0 != in1:
                    return level, "validity"
                if d1 >= 0 and d1 != in0 and d1 != in1:
                    return level, "validity"
            # Wait-freedom cannot fail: height(program) <= solo_bound.
            if d0 < 0:
                nxt = write_next[lid0]
                if nxt >= 0:
                    child = (((nxt * L + lid1) * 4)
                             | (write_value[lid0] << 1) | (mem & 1))
                else:
                    nxt = read_next[lid0][mem & 1]  # read r1
                    child = ((nxt * L + lid1) * 4) | mem
                if child not in seen:
                    seen.add(child)
                    queue.append(child)
            if d1 < 0:
                nxt = write_next[lid1]
                if nxt >= 0:
                    child = ((lid0 * L + nxt) * 4) | (mem & 2) | write_value[lid1]
                else:
                    nxt = read_next[lid1][mem >> 1]  # read r0
                    child = ((lid0 * L + nxt) * 4) | mem
                if child not in seen:
                    seen.add(child)
                    queue.append(child)
        return _CLEAN


@dataclass
class RegisterSearchOutcome:
    depth: int
    candidates: int
    solutions: List[Program]
    agreement_failures: int
    validity_failures: int
    wait_freedom_failures: int
    complete: bool = True
    resume_at: int = 0


def search_register_consensus(
    depth: int = 2,
    budget: Optional[Budget] = None,
    resume: Optional[RegisterSearchOutcome] = None,
) -> RegisterSearchOutcome:
    """Model-check every program in the class; collect the failure census.

    A :class:`~repro.core.budget.Budget` (one step charged per candidate)
    turns the search into a resumable anytime computation: on overdraft
    it returns the census so far with ``complete=False`` and
    ``resume_at`` set to the first unchecked candidate; pass that outcome
    back as ``resume`` to continue where it stopped, accumulating counts.
    """
    start = resume.resume_at if resume is not None else 0
    solutions: List[Program] = list(resume.solutions) if resume else []
    agreement = resume.agreement_failures if resume else 0
    validity = resume.validity_failures if resume else 0
    wait_freedom = resume.wait_freedom_failures if resume else 0
    total = resume.candidates if resume else 0
    meter = budget.meter("register-consensus-search") if budget else None
    table = SubtreeTable(depth)
    solo_bound = depth + 2
    for index in range(start, len(table.candidates)):
        nid = table.candidates[index]
        if meter is not None:
            try:
                meter.charge_steps()
            except BudgetExceeded:
                return RegisterSearchOutcome(
                    depth=depth,
                    candidates=total,
                    solutions=solutions,
                    agreement_failures=agreement,
                    validity_failures=validity,
                    wait_freedom_failures=wait_freedom,
                    complete=False,
                    resume_at=index,
                )
        total += 1
        kind = table.verdict(nid, solo_bound)
        if kind == "solution":
            solutions.append(table.program_of(nid))
        elif kind == "agreement":
            agreement += 1
        elif kind == "validity":
            validity += 1
        else:
            wait_freedom += 1
    return RegisterSearchOutcome(
        depth=depth,
        candidates=total,
        solutions=solutions,
        agreement_failures=agreement,
        validity_failures=validity,
        wait_freedom_failures=wait_freedom,
    )


def register_consensus_certificate(
    depth: int = 2, store=None
) -> ImpossibilityCertificate:
    """Certify: no program in the class solves wait-free 2-consensus.

    ``store=`` (a :class:`~repro.service.store.CertificateStore`) skips
    the exhaustive sweep entirely when a verified census for this depth
    is already stored, and persists a fresh (complete) census otherwise.
    The certificate is built from the payload on both paths, so a store
    hit and a live search certify identically.
    """
    from ..service.service import (
        certificate_from_register_payload,
        register_outcome_payload,
        register_search_key,
    )

    key = payload = None
    if store is not None:
        key = register_search_key(depth)
        payload = store.get(key)
    if payload is None:
        outcome = search_register_consensus(depth)
        payload = register_outcome_payload(outcome)
        if store is not None:
            store.put(key, payload)
    return certificate_from_register_payload(payload)
