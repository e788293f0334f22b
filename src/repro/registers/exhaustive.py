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

Every candidate is model-checked exhaustively for agreement and validity
over all interleavings (wait-freedom holds by construction: a solo run
decides within the height of its tree); the certificate records that
**no candidate solves 2-process wait-free consensus**, which is the
Loui–Abu-Amara / Herlihy impossibility restricted to the stated class —
with the class bound honest in the certificate, and deep enough to
contain the natural write-then-read-then-decide protocols.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import islice
from typing import Dict, Iterator, List, Optional, Tuple

from ..core.budget import Budget, BudgetExceeded
from ..impossibility.certificate import ImpossibilityCertificate

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


# The value of each leaf/write tag per (own input, last read) slot,
# slot = input * 3 + (seen + 1) with seen = -1 for "nothing read yet"
# (which falls back to the own input, exactly
# repro.registers.herlihy.ProgramConsensus._resolve).
_RESOLVED = {
    "zero": (0, 0, 0, 0, 0, 0),
    "one": (1, 1, 1, 1, 1, 1),
    "own": (0, 0, 0, 1, 1, 1),
    "seen": (0, 0, 1, 1, 0, 1),
}
#: The root slots: input 0 and input 1, nothing read yet.
_ROOTS = (0, 3)
#: What a search with no violation returns: no distance, no failure.
_CLEAN = (float("inf"), "solution")


class BehaviourClasses:
    """The candidates of the class as an automaton over behaviour classes.

    A local state of :class:`~repro.registers.herlihy.ProgramConsensus`
    is ``(pid, input, seen, subtree)``; ``pid`` is positional and
    ``input`` never changes.  A state here is a signature ``(input bit,
    decided value, written value, write successor, read successor on 0,
    read successor on 1)``, -1 where absent, whose successors are states
    again.  Programs are trees, so signatures built bottom-up are
    canonical: two local states get one state exactly when they are
    bisimilar, as are ``("decide", "own")`` and ``("decide", "zero")``
    under input 0.

    Only the subtrees of the candidates get states, at all six slots
    ``input * 3 + seen + 1``.  A candidate's root pair (its states under
    input 0 and 1, nothing read) is read off its op and its children's
    slot states; a read's depends only on the states of its ``if0``
    child at slots 1 and 4 and of its ``if1`` child at slots 2 and 5, so
    the read candidates' pairs come from one table over those groups.
    A verdict is a function of the root pair (:meth:`verdict`), and the
    searches share one memo of first violations over configurations
    ``(state0, state1, mem)`` (:meth:`_first`).
    """

    def __init__(self, depth: int):
        self._ids: Dict[Tuple, int] = {}
        #: Per state id: its signature.
        self.states: List[Tuple[int, int, int, int, int, int]] = []
        #: Per configuration ``(a << 32 | b) << 2 | mem``: its first
        #: violation ``(distance, kind)``.
        self._memo: Dict[int, Tuple[float, str]] = {}
        #: Per root pair: its candidates' verdict.
        self._verdicts: Dict[Tuple[int, ...], str] = {}
        slots: List[Tuple[int, ...]] = []
        every = range(6)
        for _ in range(depth):
            reads = [self._read(if0[1::3], if1[2::3]) for if0 in slots for if1 in slots]
            slots = (
                [self._leaf(tag, every) for tag in LEAVES]
                + [self._write(tag, sub, every)
                   for tag in WRITE_VALUES for sub in slots]
                + [(root0,) * 3 + (root1,) * 3 for root0, root1 in reads]
            )
        #: The candidates' subtrees in enumerate_programs order, and each
        #: one's states at the six slots.
        self.subtrees = list(enumerate_programs(depth - 1)) if depth else []
        self.slots = slots
        # Root pairs of the leaf and write candidates, by index.
        self._roots = [self._leaf(tag, _ROOTS) for tag in LEAVES] + [
            self._write(tag, sub, _ROOTS)
            for tag in WRITE_VALUES for sub in slots
        ]
        # A read's root pair, per group of its if0 child and of its if1
        # child (their states at the slots the read moves to).
        groups0: Dict[Tuple[int, ...], int] = {}
        groups1: Dict[Tuple[int, ...], int] = {}
        self._if0 = [groups0.setdefault(sub[1::3], len(groups0)) for sub in slots]
        self._if1 = [groups1.setdefault(sub[2::3], len(groups1)) for sub in slots]
        self._read_roots = [[self._read(g0, g1) for g1 in groups1] for g0 in groups0]
        #: Per state id: the fewest steps it takes before it decides (a
        #: state's successors have smaller ids, so one pass suffices).
        steps: List[int] = []
        for _bit, decided, _written, after_write, if0, if1 in self.states:
            if decided >= 0:
                steps.append(0)
            elif after_write >= 0:
                steps.append(1 + steps[after_write])
            else:
                steps.append(1 + min(steps[if0], steps[if1]))
        self._to_decide = steps

    def _state(self, signature: Tuple[int, int, int, int, int, int]) -> int:
        sid = self._ids.get(signature)
        if sid is None:
            sid = self._ids[signature] = len(self.states)
            self.states.append(signature)
        return sid

    def _leaf(self, tag: str, slots) -> Tuple[int, ...]:
        decided = _RESOLVED[tag]
        return tuple(
            self._state((slot // 3, decided[slot], -1, -1, -1, -1))
            for slot in slots
        )

    def _write(self, tag: str, sub: Tuple[int, ...], slots) -> Tuple[int, ...]:
        written = _RESOLVED[tag]
        return tuple(  # a write keeps the slot
            self._state((slot // 3, -1, written[slot], sub[slot], -1, -1))
            for slot in slots
        )

    def _read(self, if0: Tuple[int, ...], if1: Tuple[int, ...]) -> Tuple[int, int]:
        """A read's states under input 0 and 1, from its ``if0`` child's
        states at slots 1 and 4 and its ``if1`` child's at slots 2 and 5:
        a read keeps the input and sets seen to the response, so its own
        seen does not matter."""
        return (self._state((0, -1, -1, -1, if0[0], if1[0])),
                self._state((1, -1, -1, -1, if0[1], if1[1])))

    def program_of(self, index: int) -> Program:
        """The program tree of candidate ``index`` (enumerate_programs
        order)."""
        if index < len(LEAVES):
            return ("decide", LEAVES[index])
        index -= len(LEAVES)
        subs = self.subtrees
        if index < len(WRITE_VALUES) * len(subs):
            tag, sub = divmod(index, len(subs))
            return ("write", WRITE_VALUES[tag], subs[sub])
        if0, if1 = divmod(index - len(WRITE_VALUES) * len(subs), len(subs))
        return ("read", subs[if0], subs[if1])

    def root_pairs(self) -> Iterator[Tuple[int, int]]:
        """Every candidate's root states under input 0 and 1, in
        enumerate_programs order."""
        yield from self._roots
        if1 = self._if1
        for g0 in self._if0:
            row = self._read_roots[g0]
            for g1 in if1:
                yield row[g1]

    def verdict(self, pair: Tuple[int, int]) -> str:
        """The verdict of the candidates with root pair ``pair``:
        ``"solution"``, ``"agreement"`` or ``"validity"``, as the generic
        verdict would say; searched once per pair."""
        kind = self._verdicts.get(pair)
        if kind is None:
            kind = self._verdicts[pair] = self.first_violation(*pair)[2]
        return kind

    def first_violation(self, root0: int, root1: int) -> Tuple[float, int, str]:
        """``(level, vector index, kind)`` of the first violating
        configuration of a FIFO BFS over all interleavings from the input
        vectors 00, 01, 10 and 11 (vector index ``2 * in0 + in1``) with
        the root states ``root0`` and ``root1``, or ``(inf, 0,
        "solution")``.

        Inputs are positional and immutable, so the four vectors reach
        disjoint configuration sets, and that BFS dequeues by level, then
        by vector, then in each vector's own BFS order: the least ``(level,
        vector index)`` over the vectors' own first violations.  10 is the
        pid-mirror of 01 level by level, so it never comes first.  Under
        inputs 01 both values are inputs, so only agreement can fail, and
        only once both processes have decided, at a level of at least the
        two roots' fewest steps to a decision; 01 is not searched when
        that bound shows it cannot come first.
        """
        first = self._first
        level00, kind00 = first(root0, root0, 0)
        level11, kind11 = first(root1, root1, 0)
        found = min((level00, 0, kind00), (level11, 3, kind11))
        bound = self._to_decide[root0] + self._to_decide[root1]
        if (bound, 1) < found[:2]:  # ties go 00 < 01 < 11
            level01, kind01 = first(root0, root1, 0)
            found = min(found, (level01, 1, kind01))
        return found

    def _first(self, a: int, b: int, mem: int) -> Tuple[float, str]:
        """``(distance, kind)`` of the first violation a mark-on-enqueue
        BFS from configuration ``(a, b, mem)`` dequeues, or ``(inf,
        "solution")``; memoized.

        That BFS dequeues configurations in shortlex order of their least
        path words (p0's step before p1's), and configurations form a DAG
        (every step descends a tree), so its first violation is the one
        at the least distance, ties going to the child of p0's step.
        """
        key = (a << 32 | b) << 2 | mem
        found = self._memo.get(key)
        if found is not None:
            return found
        in0, d0, w0, next0, read00, read01 = self.states[a]
        in1, d1, w1, next1, read10, read11 = self.states[b]
        if d0 >= 0 and d1 >= 0 and d0 != d1:
            found = (0, "agreement")
        elif (d0 >= 0 and d0 != in0 and d0 != in1
              or d1 >= 0 and d1 != in0 and d1 != in1):
            found = (0, "validity")
        else:
            found = _CLEAN
            if d0 < 0:  # p0 writes r0 or reads r1
                if next0 >= 0:
                    found = self._first(next0, b, w0 << 1 | mem & 1)
                else:
                    found = self._first(read01 if mem & 1 else read00, b, mem)
            # p1 writes r1 or reads r0, unless p0's step already violates.
            if d1 < 0 and found[0]:
                if next1 >= 0:
                    child = self._first(a, next1, mem & 2 | w1)
                else:
                    child = self._first(a, read11 if mem & 2 else read10, mem)
                if child[0] < found[0]:
                    found = child
            found = (found[0] + 1, found[1])
        self._memo[key] = found
        return found


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
    classes = BehaviourClasses(depth)
    pairs = islice(classes.root_pairs(), start, None)
    for index, pair in enumerate(pairs, start):
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
        kind = classes.verdict(pair)
        if kind == "agreement":
            agreement += 1
        elif kind == "validity":
            validity += 1
        else:
            solutions.append(classes.program_of(index))
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
