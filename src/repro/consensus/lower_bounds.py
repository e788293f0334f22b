"""The t+1-round lower bound, mechanized by exhaustive crash-pattern search.

Survey §2.2.2: any agreement protocol tolerating t stopping faults needs
t+1 rounds [56, and the Dwork–Moses folklore version for crashes].  The
proof is a chain argument; its mechanized counterpart here is *exhaustive
adversary enumeration on bounded instances*:

* :func:`enumerate_crash_adversaries` generates every crash pattern with
  at most t faults over r rounds — each fault a (process, crash round,
  subset of recipients reached) triple, exactly the granularity the chain
  argument manipulates;

* :func:`find_round_bound_violation` runs a protocol under every pattern
  and every binary input vector, looking for a run that breaks agreement,
  validity or termination, walking the patterns as a round-by-round
  prefix tree (one input vector per permutation orbit when the protocol
  is symmetric, one view per process state when its processes declare a
  :meth:`~repro.consensus.synchronous.SyncProcess.state_key`).  For a
  t-round truncation of FloodSet it finds the violating pattern (the
  lower bound's content); for the full t+1-round FloodSet it exhausts
  the space without a violation (the matching upper bound).  The tree
  itself, :func:`crash_search`, takes the per-run check as a parameter;
  the firing squad (E24) runs on it too;

* :func:`find_fooling_pair` exhibits the chain argument's engine: two runs
  indistinguishable to some common nonfaulty process whose *other*
  processes decide differently.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter
from dataclasses import dataclass
from typing import (
    Callable,
    Dict,
    Hashable,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
)

from ..core.errors import ModelError
from ..impossibility.certificate import (
    ImpossibilityCertificate,
)
from .synchronous import (
    SyncAdversary,
    CrashAdversary,
    Message,
    NoFaults,
    Pid,
    SyncProtocol,
    SyncRun,
    run_synchronous,
)


#: A crash pattern: ``(victim, crash_round, receivers)`` per faulty
#: process, by ascending victim; ``()`` is the no-fault pattern.
CrashPattern = Tuple[Tuple[Pid, int, Tuple[Pid, ...]], ...]


def _crash_patterns(n: int, t: int, rounds: int) -> Iterator[CrashPattern]:
    """Every crash pattern with at most t faults, in search order: no
    faults first, then by fault count, victim set, and per victim crash
    round and receiver subset."""
    yield ()
    pids = list(range(n))
    for k in range(1, t + 1):
        for victims in itertools.combinations(pids, k):
            per_victim_options = []
            for victim in victims:
                others = [p for p in pids if p != victim]
                per_victim_options.append([
                    (victim, rnd, subset)
                    for rnd in range(1, rounds + 1)
                    for size in range(len(others) + 1)
                    for subset in itertools.combinations(others, size)
                ])
            yield from itertools.product(*per_victim_options)


def _pattern_count(n: int, t: int, rounds: int) -> int:
    """How many patterns :func:`_crash_patterns` yields."""
    per_victim = rounds * 2 ** (n - 1)
    return sum(math.comb(n, k) * per_victim ** k for k in range(t + 1))


def _adversary(pattern: CrashPattern) -> SyncAdversary:
    if not pattern:
        return NoFaults()
    return CrashAdversary(
        {victim: (rnd, receivers) for victim, rnd, receivers in pattern}
    )


def enumerate_crash_adversaries(
    n: int, t: int, rounds: int
) -> Iterator[SyncAdversary]:
    """Every crash adversary with at most t faults.

    Each faulty process gets a crash round in 1..rounds and a subset of the
    other processes that still receive its final-round messages.  The
    no-fault adversary is yielded first.
    """
    for pattern in _crash_patterns(n, t, rounds):
        yield _adversary(pattern)


@dataclass
class RoundBoundResult:
    """Outcome of the exhaustive search over crash patterns.

    ``runs_checked`` counts logical runs — (input vector, crash pattern)
    pairs — up to and including the violation; ``rounds_simulated``
    counts the rounds actually simulated, each shared prefix once.
    """

    protocol_name: str
    n: int
    t: int
    rounds: int
    runs_checked: int
    violation: Optional[SyncRun]
    violated_property: Optional[str]
    rounds_simulated: int = 0


#: A leaf check: a run's input vector and its correct processes'
#: decisions (by ascending pid) -> the violated property, or None.
LeafCheck = Callable[[Sequence[Hashable], List[Optional[Hashable]]], Optional[str]]


def _check_leaf(inputs: Sequence[Hashable],
                decisions: List[Optional[Hashable]]) -> Optional[str]:
    """Consensus: termination, agreement and (weak) validity, the inputs
    of crashed processes counting."""
    if any(d is None for d in decisions):
        return "termination"
    if len(set(decisions)) > 1:
        return "agreement"
    values = set(inputs)
    if len(values) == 1 and any(d not in values for d in decisions):
        return "validity"
    return None


#: One round's crash decision: ``(victim, receivers)`` per process
#: crashing in that round, by ascending victim.
_Decision = Tuple[Tuple[Pid, Tuple[Pid, ...]], ...]


class _CrashTree:
    """The crash patterns of a search as round-by-round prefix trees.

    A node is the vector of its processes' view ids after some rounds
    (-1 for a crashed process, whose view no longer matters) plus the
    crashed set; it forks only at crash decisions.  A view is ``(pid,
    input, messages received so far)`` and is interned once: its process
    is built by spawning it and replaying ``receive``, which is sound
    because a :class:`SyncProcess`'s messages and decision are a function
    of its view.  A process with a :meth:`~SyncProcess.state_key` gets
    one view id per ``(pid, round, state key)``, so nodes whose
    processes are in equal states share one memoized subtree.  Views are
    shared by every input vector of the search; subtrees are memoized
    per input vector.  ``check`` judges each complete run.
    """

    def __init__(self, protocol: SyncProtocol, n: int, t: int, rounds: int,
                 check: LeafCheck):
        self.protocol = protocol
        self.n = n
        self.t = t
        self.rounds = rounds
        self.check = check
        self.simulated = 0
        self._ids: Dict[Tuple, int] = {}
        self._states: Dict[Tuple, int] = {}  # (pid, round, state key) -> id
        self._views: List[Tuple[Pid, Hashable, Tuple[Dict[Pid, Message], ...]]] = []
        self._outbox: List[Tuple[Message, ...]] = []
        self._decision: List[Optional[Hashable]] = []
        self._reaches: Dict[Tuple[Pid, int], List[Tuple[int, List]]] = {}
        self._memo: Dict[Tuple, Tuple] = {}  # per input vector
        self._inputs: Sequence[Hashable] = ()

    # -- views -------------------------------------------------------------

    def _intern(self, key: Tuple, pid: Pid, value: Hashable,
                history: Tuple[Dict[Pid, Message], ...]) -> int:
        vid = self._ids.get(key)
        if vid is not None:
            return vid
        n = self.n
        process = self.protocol.spawn(pid, n, self.t, value)
        for rnd, received in enumerate(history, 1):
            for dest in range(n):
                if dest != pid:
                    process.message_to(rnd, dest)
            process.receive(rnd, dict(received))
        depth = len(history)
        if depth < self.rounds:
            outbox = tuple(
                None if dest == pid else process.message_to(depth + 1, dest)
                for dest in range(n)
            )
            decision = None
        else:
            outbox = ()
            decision = process.decision()
        state = process.state_key()
        if state is not None:
            vid = self._states.setdefault((pid, depth, state), len(self._views))
            if vid < len(self._views):
                if outbox != self._outbox[vid] or decision != self._decision[vid]:
                    raise ModelError(
                        f"{self.protocol.name}: process {pid} has state key "
                        f"{state!r} after round {depth} in two views that "
                        "send or decide differently; its state_key does not "
                        "fix its behaviour"
                    )
                self._ids[key] = vid
                return vid
        vid = len(self._views)
        self._ids[key] = vid
        self._views.append((pid, value, history))
        self._outbox.append(outbox)
        self._decision.append(decision)
        return vid

    def _child_view(self, views: Tuple[int, ...], dest: Pid, senders: int) -> int:
        """``dest``'s view after receiving this round from the ``senders``
        bitmask (None messages are not delivered)."""
        outbox = self._outbox
        inbox = tuple(
            (src, message)
            for src in range(self.n)
            if senders >> src & 1
            for message in (outbox[views[src]][dest],)
            if message is not None
        )
        parent = views[dest]
        pid, value, history = self._views[parent]
        return self._intern((parent, inbox), pid, value, history + (dict(inbox),))

    # -- the tree ----------------------------------------------------------

    def violations(self, inputs: Sequence[Hashable]
                   ) -> List[Tuple[CrashPattern, str]]:
        """Every crash pattern under which the run of ``inputs`` fails
        the check, with the violated property."""
        self._memo = {}
        self._inputs = inputs
        roots = tuple(
            self._intern(("root", pid, value), pid, value, ())
            for pid, value in enumerate(inputs)
        )
        found = []
        for suffix, violated in self._subtree(0, roots, 0):
            pattern = sorted(
                (victim, rnd, receivers)
                for rnd, decision in enumerate(suffix, 1)
                for victim, receivers in decision
            )
            found.append((tuple(pattern), violated))
        return found

    def _subtree(self, r: int, views: Tuple[int, ...], crashed: int
                 ) -> Tuple[Tuple[Tuple[_Decision, ...], str], ...]:
        """The violating leaves below a node after ``r`` rounds, as
        (crash decisions of rounds r+1.., property) pairs."""
        key = (r, views, crashed)
        found = self._memo.get(key)
        if found is None:
            if r == self.rounds:
                violated = self.check(self._inputs, [
                    self._decision[views[p]]
                    for p in range(self.n)
                    if not crashed >> p & 1
                ])
                found = (((), violated),) if violated else ()
            else:
                found = self._expand(r, views, crashed)
            self._memo[key] = found
        return found

    def _reach(self, victim: Pid, survivors: int) -> List[Tuple[int, List]]:
        """``victim``'s receiver subsets grouped by the survivors they
        reach: ``(reached bitmask, [receivers, ...])``.  Subsets differing
        only in processes that crash give the same child node."""
        groups = self._reaches.get((victim, survivors))
        if groups is None:
            by_mask: Dict[int, List[Tuple[Pid, ...]]] = {}
            others = [p for p in range(self.n) if p != victim]
            for size in range(len(others) + 1):
                for subset in itertools.combinations(others, size):
                    reached = survivors & sum(1 << p for p in subset)
                    by_mask.setdefault(reached, []).append(subset)
            groups = self._reaches[(victim, survivors)] = list(by_mask.items())
        return groups

    def _expand(self, r: int, views: Tuple[int, ...], crashed: int
                ) -> Tuple[Tuple[Tuple[_Decision, ...], str], ...]:
        n = self.n
        alive = [p for p in range(n) if not crashed >> p & 1]
        spare = self.t - (n - len(alive))
        child_of: Dict[Tuple[Pid, int], int] = {}  # (dest, senders) -> view
        found = []
        for k in range(min(spare, len(alive)) + 1):
            for victims in itertools.combinations(alive, k):
                now_crashed = crashed | sum(1 << v for v in victims)
                survivors = [p for p in alive if p not in victims]
                survivor_mask = sum(1 << p for p in survivors)
                for reach in itertools.product(
                    *(self._reach(v, survivor_mask) for v in victims)
                ):
                    children = [-1] * n
                    for dest in survivors:
                        senders = survivor_mask & ~(1 << dest)
                        for victim, (reached, _subsets) in zip(victims, reach):
                            if reached >> dest & 1:
                                senders |= 1 << victim
                        child = child_of.get((dest, senders))
                        if child is None:
                            child = self._child_view(views, dest, senders)
                            child_of[(dest, senders)] = child
                        children[dest] = child
                    self.simulated += 1
                    below = self._subtree(r + 1, tuple(children), now_crashed)
                    if not below:
                        continue
                    for receivers in itertools.product(
                        *(subsets for _reached, subsets in reach)
                    ):
                        decision = tuple(zip(victims, receivers))
                        found.extend(
                            ((decision,) + suffix, violated)
                            for suffix, violated in below
                        )
        return tuple(found)


def find_round_bound_violation(
    protocol: SyncProtocol,
    n: int,
    t: int,
    rounds: Optional[int] = None,
    input_vectors: Optional[Iterable[Sequence[Hashable]]] = None,
) -> RoundBoundResult:
    """Search every (input vector, crash pattern) pair for a run that
    breaks termination, agreement or validity; see :func:`crash_search`."""
    if input_vectors is None:
        input_vectors = list(itertools.product((0, 1), repeat=n))
    return crash_search(protocol, n, t, rounds, input_vectors, _check_leaf)


def crash_search(
    protocol: SyncProtocol,
    n: int,
    t: int,
    rounds: Optional[int],
    input_vectors: Iterable[Sequence[Hashable]],
    check: LeafCheck,
) -> RoundBoundResult:
    """The first (input vector, crash pattern) pair whose run ``check``
    rejects.

    The first violation in search order (input vectors in order, crash
    patterns in :func:`enumerate_crash_adversaries` order) is returned;
    each input vector's patterns are walked as a prefix tree of rounds
    (:class:`_CrashTree`), and the witness run is rebuilt by
    :func:`run_synchronous` and checked again.

    For a :attr:`~SyncProtocol.symmetric` protocol the tree is walked
    once per orbit of input vectors under pid permutations, keyed by the
    vector's multiset: a later vector of the orbit has the violations of
    the first one relabeled by a permutation, and the first one had none
    (else the search would have stopped there), so it has none either.
    ``check`` must not depend on pids for this.  ``runs_checked`` still
    counts every logical run.
    """
    rounds = rounds if rounds is not None else protocol.rounds(n, t)
    patterns = _pattern_count(n, t, rounds)
    tree = _CrashTree(protocol, n, t, rounds, check)
    walked = set()  # input multisets of a symmetric protocol
    runs_checked = 0
    for inputs in input_vectors:
        if len(inputs) != n:
            raise ValueError(
                f"input vector {tuple(inputs)!r} has {len(inputs)} values, "
                f"expected n={n}"
            )
        if protocol.symmetric:
            orbit = frozenset(Counter(inputs).items())
            if orbit in walked:
                runs_checked += patterns
                continue
            walked.add(orbit)
        found = dict(tree.violations(inputs))
        if not found:
            runs_checked += patterns
            continue
        for rank, first in enumerate(_crash_patterns(n, t, rounds)):
            if first in found:
                break
        expected = found[first]
        runs_checked += rank + 1
        run = run_synchronous(
            protocol, list(inputs), adversary=_adversary(first), t=t,
            rounds=rounds, record_trace=False,
        )
        violated = check(
            run.inputs, [run.decisions[p] for p in run.honest_pids]
        )
        if violated != expected:
            raise ModelError(
                f"{protocol.name}: rebuilt run violates {violated!r}, the "
                f"search found {expected!r}; its processes are not a "
                "function of their views"
            )
        return RoundBoundResult(
            protocol.name, n, t, rounds, runs_checked, run, violated,
            tree.simulated + rounds,
        )
    return RoundBoundResult(
        protocol.name, n, t, rounds, runs_checked, None, None, tree.simulated
    )


def round_lower_bound_certificate(
    protocol_factory, n: int, t: int
) -> ImpossibilityCertificate:
    """Certify the t+1-round bound for a protocol family.

    ``protocol_factory(rounds)`` must build the protocol truncated to the
    given number of rounds.  The certificate records, for every r <= t, a
    concrete crash pattern defeating the r-round version, and that the
    (t+1)-round version survives the full pattern space.
    """
    witnesses = []
    for r in range(1, t + 1):
        result = find_round_bound_violation(protocol_factory(r), n, t, rounds=r)
        if result.violation is None:
            raise AssertionError(
                f"{r}-round truncation unexpectedly survived all crash "
                f"patterns (n={n}, t={t}) — lower bound refuted for this family"
            )
        from ..impossibility.certificate import FailureWitness

        witnesses.append(
            FailureWitness(
                candidate=f"{result.protocol_name} ({r} rounds)",
                property_violated=result.violated_property,
                evidence=result.violation,
            )
        )
    full = find_round_bound_violation(protocol_factory(None), n, t)
    if full.violation is not None:
        raise AssertionError(
            f"t+1-round protocol violated {full.violated_property} — "
            "upper bound broken"
        )
    return ImpossibilityCertificate(
        claim=(
            f"no truncation below t+1={t + 1} rounds solves consensus with "
            f"t={t} stopping faults (n={n})"
        ),
        scope=(
            f"the FloodSet family; exhaustive over all crash patterns with "
            f"<= {t} faults and all binary inputs; {full.runs_checked} runs "
            f"checked at t+1 rounds"
        ),
        technique="chain (exhaustive crash-pattern search)",
        candidates_checked=t,
        witnesses=witnesses,
        details={
            "full_protocol_runs_checked": full.runs_checked,
            "full_protocol_rounds_simulated": full.rounds_simulated,
        },
    )


@dataclass
class FoolingPair:
    """Two runs a common nonfaulty process cannot distinguish, with
    incompatible obligations — the atom of every chain argument."""

    run_a: SyncRun
    run_b: SyncRun
    fooled_process: Pid
    reason: str


def find_fooling_pair(
    protocol: SyncProtocol,
    n: int,
    t: int,
    rounds: int,
    max_runs: int = 20_000,
) -> Optional[FoolingPair]:
    """Search pairs of runs for the chain argument's fooling configuration.

    Looks for runs R_a, R_b and a process p, nonfaulty in both, with equal
    views, where the *full honest decision sets* of the two runs differ —
    p must decide identically in both, so one run's other processes
    disagree with p or with validity.  At most ``max_runs`` runs, the
    first in search order, are simulated.
    """
    pairs = (
        (inputs, adversary)
        for inputs in itertools.product((0, 1), repeat=n)
        for adversary in enumerate_crash_adversaries(n, t, rounds)
    )
    runs: List[SyncRun] = [
        run_synchronous(
            protocol, list(inputs), adversary=adversary, t=t,
            rounds=rounds, record_trace=False,
        )
        for inputs, adversary in itertools.islice(pairs, max_runs)
    ]
    # Index runs by each honest process's view.
    by_view: Dict[Tuple, List[Tuple[SyncRun, Pid]]] = {}
    for run in runs:
        for pid in run.honest_pids:
            by_view.setdefault(run.views[pid].key(), []).append((run, pid))
    for matches in by_view.values():
        for (run_a, pid), (run_b, _pid2) in itertools.combinations(matches, 2):
            decisions_a = frozenset(
                v for v in run_a.honest_decisions().values() if v is not None
            )
            decisions_b = frozenset(
                v for v in run_b.honest_decisions().values() if v is not None
            )
            if decisions_a != decisions_b:
                return FoolingPair(
                    run_a,
                    run_b,
                    pid,
                    reason=(
                        f"process {pid} sees identical views but the runs' "
                        f"honest decision sets are {set(decisions_a)} vs "
                        f"{set(decisions_b)}"
                    ),
                )
    return None
