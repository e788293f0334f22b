"""The wait-free consensus hierarchy (§2.3, Herlihy [65], Loui–Abu-Amara [76]).

Which shared objects can implement wait-free consensus for how many
processes?  The survey's §2.3 highlights Herlihy's connection: read/write
registers cannot solve even 2-process wait-free consensus; test-and-set
and FIFO queues solve exactly 2; compare-and-swap solves any number.
Since wait-free implementation preserves consensus power, these
separations yield the non-implementability results.

This module instantiates the generic bivalence machinery on shared-object
consensus protocols:

* :class:`ObjectConsensusSystem` — a :class:`DecisionSystem` whose events
  are process steps on typed shared variables;
* :func:`wait_free_verdict` — exhaustive verification of agreement,
  validity and wait-freedom over *all* schedules (bounded state space);
* the protocol zoo: a doomed register protocol, the TAS and queue
  2-consensus protocols (verified correct), their natural 3-process
  extensions (defeated), CAS consensus for any n (verified), and
  :class:`ProgramConsensus`, any one program of the exhaustive E11 class
  (:mod:`repro.registers.exhaustive`).

:func:`hierarchy_table` assembles the measured consensus-number table the
E11 bench reports.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from collections import deque
from dataclasses import dataclass
from typing import (
    Dict,
    Hashable,
    Iterator,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
)

from ..core.errors import ModelError, SearchBudgetExceeded
from ..core.freeze import frozendict
from ..core.packed import IdToValue
from ..core.runtime import derive_seed
from ..impossibility.bivalence import (
    DecisionSystem,
    TransitionCache,
)
from ..shared_memory.variables import Access, binary_tas, cas, read, tas, write

BOTTOM = "_|_"


class ObjectConsensusProtocol(ABC):
    """A wait-free consensus protocol over typed shared variables."""

    name = "object-consensus"

    @abstractmethod
    def initial_memory(self, n: int) -> Dict[str, Hashable]:
        """Initial contents of the shared variables."""

    @abstractmethod
    def initial_local(self, pid: int, n: int, input_value: Hashable) -> Hashable:
        """The process's initial local state."""

    @abstractmethod
    def pending_access(self, local: Hashable) -> Optional[Access]:
        """The next atomic access, or None once decided/halted."""

    @abstractmethod
    def after_access(self, local: Hashable, response: Hashable) -> Hashable:
        """Local state after the access's response."""

    @abstractmethod
    def decision(self, local: Hashable) -> Optional[Hashable]:
        """The decided value, or None."""


Configuration = Tuple[Tuple[Hashable, ...], frozendict]
Event = Tuple[str, int]


class ObjectConsensusSystem(DecisionSystem):
    """Shared-object consensus under adversarial scheduling."""

    def __init__(
        self,
        protocol: ObjectConsensusProtocol,
        n: int,
        input_vectors: Optional[Sequence[Sequence[Hashable]]] = None,
        values: Sequence[Hashable] = (0, 1),
    ):
        self.protocol = protocol
        self.n = n
        self._values = tuple(values)
        if input_vectors is None:
            import itertools

            input_vectors = list(itertools.product(self._values, repeat=n))
        self.input_vectors = [tuple(v) for v in input_vectors]
        # Per-local-state memos: protocols are deterministic, so
        # pending_access(local) and decision(local) are pure functions of
        # the (frozen, hashable) local state, and the decisions mapping is
        # a pure function of the locals tuple.
        self._pending: Dict[Hashable, Optional[Access]] = {}
        self._decisions_by_locals: Dict[
            Tuple[Hashable, ...], Dict[int, Hashable]
        ] = {}

    def _pending_of(self, local: Hashable) -> Optional[Access]:
        try:
            return self._pending[local]
        except KeyError:
            access = self.protocol.pending_access(local)
            self._pending[local] = access
            return access

    @property
    def processes(self) -> Sequence[int]:
        return list(range(self.n))

    @property
    def values(self) -> Sequence[Hashable]:
        return self._values

    def configuration_for(self, inputs: Sequence[Hashable]) -> Configuration:
        locals_ = tuple(
            self.protocol.initial_local(pid, self.n, inputs[pid])
            for pid in range(self.n)
        )
        return (locals_, frozendict(self.protocol.initial_memory(self.n)))

    def initial_configurations(self) -> Iterator[Configuration]:
        for inputs in self.input_vectors:
            yield self.configuration_for(inputs)

    def events(self, config: Configuration) -> Iterator[Event]:
        locals_, _memory = config
        pending_of = self._pending_of
        for pid in range(self.n):
            if pending_of(locals_[pid]) is not None:
                yield ("step", pid)

    def owner(self, event: Event) -> int:
        return event[1]

    def apply(self, config: Configuration, event: Event) -> Configuration:
        locals_, memory = config
        pid = event[1]
        access = self._pending_of(locals_[pid])
        if access is None:
            raise ModelError(f"process {pid} has no pending access")
        if access.var not in memory:
            raise ModelError(f"unknown variable {access.var!r}")
        new_value, response = access.perform(memory[access.var])
        new_local = self.protocol.after_access(locals_[pid], response)
        new_locals = locals_[:pid] + (new_local,) + locals_[pid + 1:]
        return (new_locals, memory.set(access.var, new_value))

    def sweep_transitions(
        self, config: Configuration
    ) -> List[Tuple[Event, Configuration]]:
        """Every ``(event, successor)`` pair out of ``config`` in one call
        (same event order as :meth:`events`); used by the packed
        transition cache to expand a whole CSR row at once."""
        locals_, memory = config
        pending_of = self._pending_of
        after_access = self.protocol.after_access
        out: List[Tuple[Event, Configuration]] = []
        for pid in range(self.n):
            access = pending_of(locals_[pid])
            if access is None:
                continue
            if access.var not in memory:
                raise ModelError(f"unknown variable {access.var!r}")
            new_value, response = access.perform(memory[access.var])
            new_local = after_access(locals_[pid], response)
            new_locals = locals_[:pid] + (new_local,) + locals_[pid + 1:]
            out.append(
                (("step", pid), (new_locals, memory.set(access.var, new_value)))
            )
        return out

    def decisions(self, config: Configuration) -> Mapping[int, Hashable]:
        locals_, _memory = config
        try:
            return self._decisions_by_locals[locals_]
        except KeyError:
            pass
        out: Dict[int, Hashable] = {}
        decision = self.protocol.decision
        for pid, local in enumerate(locals_):
            value = decision(local)
            if value is not None:
                out[pid] = value
        self._decisions_by_locals[locals_] = out
        return out


@dataclass
class WaitFreeVerdict:
    """Exhaustive verification outcome for one protocol at one n."""

    protocol_name: str
    n: int
    configurations: int
    agreement: bool
    validity: bool
    wait_free: bool
    failure_witness: Optional[Configuration] = None
    failure_kind: Optional[str] = None

    @property
    def solves_consensus(self) -> bool:
        return self.agreement and self.validity and self.wait_free


def wait_free_verdict(
    system: ObjectConsensusSystem,
    solo_bound: int = 64,
    max_configurations: int = 300_000,
    cache: Optional[TransitionCache] = None,
) -> WaitFreeVerdict:
    """Exhaustively verify agreement, validity and wait-freedom.

    Wait-freedom is checked in its strong per-configuration form: from
    every reachable configuration, every undecided process that still has
    steps must decide within ``solo_bound`` of its *own* steps, with every
    other process suspended.

    Expansion goes through a :class:`TransitionCache` (pass one in to
    share it with other analyses of the same system) and runs over dense
    state ids end to end.  Wait-freedom is decided through a per-process
    *solo-distance* memo: ``dist[pid][sid]`` is the number of pid-only
    steps from sid to the first pid-decided configuration (infinite on
    halt or cycle).  Each solo chain is walked once and back-filled, so
    overlapping solo runs from every BFS node cost amortized O(1) per
    configuration instead of O(solo_bound) — the same verdicts as the
    original per-node walks, in a fraction of the applies.
    """
    protocol = system.protocol
    if cache is None:
        cache = TransitionCache(system)
    graph = cache.graph
    ensure_expanded = cache.ensure_expanded
    config_of = cache.config_of
    n = system.n
    INF = 1 << 60

    # decisions(config), memoized per state id.
    decisions_memo: List[Optional[Mapping[int, Hashable]]] = []

    def decisions_of(sid: int) -> Mapping[int, Hashable]:
        if sid >= len(decisions_memo):
            decisions_memo.extend([None] * (sid + 1 - len(decisions_memo)))
        out = decisions_memo[sid]
        if out is None:
            out = system.decisions(config_of(sid))
            decisions_memo[sid] = out
        return out

    # dist[pid][sid] = solo steps to pid's first decision (INF = never:
    # the pid-only chain halts undecided or cycles).  -1 = unknown.
    dist: List[IdToValue] = [IdToValue() for _ in range(n)]
    step_events: List[Event] = [("step", pid) for pid in range(n)]

    def solo_distance(sid: int, pid: int) -> int:
        dv = dist[pid]
        known = dv.get(sid)
        if known >= 0:
            return known
        step_event = step_events[pid]
        labels = graph._labels
        succ = graph._succ
        gstart = graph._start
        gend = graph._end
        path: List[int] = []
        on_path: Dict[int, int] = {}
        cur = sid
        base = -1
        while True:
            known = dv.get(cur)
            if known >= 0:
                base = known
                break
            if cur in on_path:
                base = INF  # solo cycle: never decides
                break
            if pid in decisions_of(cur):
                base = 0
                break
            on_path[cur] = len(path)
            path.append(cur)
            ensure_expanded(cur)
            nxt = -1
            for i in range(gstart[cur], gend[cur]):
                if labels[i] == step_event:
                    nxt = succ[i]
                    break
            if nxt < 0:
                base = INF  # halted without deciding
                break
            cur = nxt
        if base >= INF:
            for node in path:
                dv.set(node, INF)
            return INF
        d = base
        for node in reversed(path):
            d += 1
            dv.set(node, d)
        return base if not path else dv.get(sid)

    seen = bytearray()
    seen_count = 0
    succ = graph._succ
    gstart = graph._start
    gend = graph._end
    queue: deque = deque()
    inputs_of: Dict[int, Tuple[Hashable, ...]] = {}
    for inputs in system.input_vectors:
        sid = cache.intern(system.configuration_for(inputs))
        queue.append(sid)
        inputs_of[sid] = inputs

    # BFS over the reachable space, carrying the originating input vector
    # for validity checking.
    while queue:
        sid = queue.popleft()
        if sid < len(seen) and seen[sid]:
            continue
        if sid >= len(seen):
            seen.extend(b"\x00" * (sid + 1 - len(seen)))
        seen[sid] = 1
        seen_count += 1
        if seen_count > max_configurations:
            raise SearchBudgetExceeded(
                f"wait-free verification exceeded {max_configurations} configs"
            )
        inputs = inputs_of[sid]
        decisions = decisions_of(sid)
        if len(set(decisions.values())) > 1:
            return WaitFreeVerdict(
                protocol.name, system.n, seen_count, False, True, True,
                config_of(sid), "agreement",
            )
        for value in decisions.values():
            if value not in inputs:
                return WaitFreeVerdict(
                    protocol.name, system.n, seen_count, True, False, True,
                    config_of(sid), "validity",
                )
        ensure_expanded(sid)
        # Wait-freedom from this configuration.
        for pid in range(n):
            if pid not in decisions and solo_distance(sid, pid) > solo_bound:
                return WaitFreeVerdict(
                    protocol.name, system.n, seen_count, True, True, False,
                    config_of(sid), "wait-freedom",
                )
        for i in range(gstart[sid], gend[sid]):
            child = succ[i]
            if child >= len(seen) or not seen[child]:
                inputs_of[child] = inputs
                queue.append(child)
    return WaitFreeVerdict(protocol.name, system.n, seen_count, True, True, True)


# ---------------------------------------------------------------------------
# The protocol zoo
# ---------------------------------------------------------------------------


class RegisterConsensus(ObjectConsensusProtocol):
    """Write your input, read the others, decide the minimum value seen.

    The natural read/write protocol — and exactly the kind every
    read/write protocol must resemble, all of which fail: the bivalence
    argument of [76, 65] says registers have consensus number 1.
    """

    name = "register-consensus"

    def initial_memory(self, n):
        return {f"r{i}": BOTTOM for i in range(n)}

    def initial_local(self, pid, n, input_value):
        # (pid, n, value, phase, scan index, seen values, decided)
        return (pid, n, input_value, "write", 0, (), None)

    def pending_access(self, local):
        pid, n, value, phase, index, seen, decided = local
        if decided is not None:
            return None
        if phase == "write":
            return write(f"r{pid}", value)
        return read(f"r{index}")

    def after_access(self, local, response):
        pid, n, value, phase, index, seen, decided = local
        if phase == "write":
            return (pid, n, value, "scan", 0, (), None)
        if response != BOTTOM:
            seen = seen + (response,)
        index += 1
        if index == n:
            return (pid, n, value, "done", index, seen, min(seen + (value,)))
        return (pid, n, value, "scan", index, seen, None)

    def decision(self, local):
        return local[6]


class TasConsensus2(ObjectConsensusProtocol):
    """Herlihy's 2-process consensus from one binary test-and-set.

    Write your input; TAS the winner flag; the winner decides its own
    value, the loser adopts the winner's registered value.
    """

    name = "tas-consensus-2"

    def initial_memory(self, n):
        memory = {f"r{i}": BOTTOM for i in range(n)}
        memory["winner"] = 0
        return memory

    def initial_local(self, pid, n, input_value):
        return (pid, n, input_value, "write", None)

    def pending_access(self, local):
        pid, n, value, phase, decided = local
        if decided is not None:
            return None
        if phase == "write":
            return write(f"r{pid}", value)
        if phase == "tas":
            return binary_tas("winner")
        return read(f"r{1 - pid}")

    def after_access(self, local, response):
        pid, n, value, phase, decided = local
        if phase == "write":
            return (pid, n, value, "tas", None)
        if phase == "tas":
            if response == 0:
                return (pid, n, value, "done", value)
            return (pid, n, value, "read-other", None)
        return (pid, n, value, "done", response)

    def decision(self, local):
        return local[4]


class TasConsensus3(ObjectConsensusProtocol):
    """The natural 3-process extension of the TAS protocol: losers decide
    the minimum registered value.  Doomed — the TAS response cannot name
    the winner, so losers guess, and the exhaustive checker finds the
    schedule where the guess disagrees with the winner: test-and-set has
    consensus number exactly 2.
    """

    name = "tas-consensus-3"

    def initial_memory(self, n):
        memory = {f"r{i}": BOTTOM for i in range(n)}
        memory["winner"] = 0
        return memory

    def initial_local(self, pid, n, input_value):
        return (pid, n, input_value, "write", 0, (), None)

    def pending_access(self, local):
        pid, n, value, phase, index, seen, decided = local
        if decided is not None:
            return None
        if phase == "write":
            return write(f"r{pid}", value)
        if phase == "tas":
            return binary_tas("winner")
        return read(f"r{index}")

    def after_access(self, local, response):
        pid, n, value, phase, index, seen, decided = local
        if phase == "write":
            return (pid, n, value, "tas", 0, (), None)
        if phase == "tas":
            if response == 0:
                return (pid, n, value, "done", 0, (), value)
            return (pid, n, value, "scan", 0, (), None)
        if response != BOTTOM:
            seen = seen + (response,)
        index += 1
        if index == n:
            return (pid, n, value, "done", index, seen, min(seen))
        return (pid, n, value, "scan", index, seen, None)

    def decision(self, local):
        return local[6]


class QueueConsensus2(ObjectConsensusProtocol):
    """Herlihy's 2-process consensus from a two-element FIFO queue.

    The queue starts as (WIN, LOSE); each process registers its input and
    dequeues once: WIN decides its own value, LOSE the other's.
    """

    name = "queue-consensus-2"

    def initial_memory(self, n):
        memory = {f"r{i}": BOTTOM for i in range(n)}
        memory["q"] = ("WIN", "LOSE")
        return memory

    @staticmethod
    def _dequeue(queue_value, _arg):
        if not queue_value:
            return queue_value, None
        return queue_value[1:], queue_value[0]

    def initial_local(self, pid, n, input_value):
        return (pid, n, input_value, "write", None)

    def pending_access(self, local):
        pid, n, value, phase, decided = local
        if decided is not None:
            return None
        if phase == "write":
            return write(f"r{pid}", value)
        if phase == "dequeue":
            return tas("q", self._dequeue, name="dequeue")
        return read(f"r{1 - pid}")

    def after_access(self, local, response):
        pid, n, value, phase, decided = local
        if phase == "write":
            return (pid, n, value, "dequeue", None)
        if phase == "dequeue":
            if response == "WIN":
                return (pid, n, value, "done", value)
            return (pid, n, value, "read-other", None)
        return (pid, n, value, "done", response)

    def decision(self, local):
        return local[4]


class CasConsensus(ObjectConsensusProtocol):
    """Consensus for any n from one compare-and-swap: Herlihy's universal
    object.  One access: CAS(bottom -> own input); the response names the
    winner's value for everyone."""

    name = "cas-consensus"

    def initial_memory(self, n):
        return {"d": BOTTOM}

    def initial_local(self, pid, n, input_value):
        return (pid, input_value, "cas", None)

    def pending_access(self, local):
        pid, value, phase, decided = local
        if decided is not None:
            return None
        return cas("d", BOTTOM, value)

    def after_access(self, local, response):
        pid, value, phase, decided = local
        if response == BOTTOM:
            return (pid, value, "done", value)  # our CAS installed the value
        return (pid, value, "done", response)

    def decision(self, local):
        return local[3]


class ProgramConsensus(ObjectConsensusProtocol):
    """A symmetric 2-process protocol defined by one program tree of
    :mod:`repro.registers.exhaustive`'s class, each process owning one
    register ``r<pid>``."""

    def __init__(self, program: Tuple):
        self.program = program
        # From the program's canonical text, so the name is the same in
        # every interpreter (``hash`` of a tuple follows PYTHONHASHSEED).
        self.name = f"program-consensus-{derive_seed(program) & 0xFFFF:04x}"

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


def hierarchy_table() -> List[WaitFreeVerdict]:
    """The measured consensus-hierarchy table:

    ==================  ====  =================
    object / protocol    n    solves consensus?
    ==================  ====  =================
    registers            2    no  (agreement)
    test-and-set         2    yes
    test-and-set         3    no  (agreement)
    FIFO queue           2    yes
    compare-and-swap     2    yes
    compare-and-swap     3    yes
    ==================  ====  =================
    """
    cases = [
        (RegisterConsensus(), 2),
        (TasConsensus2(), 2),
        (TasConsensus3(), 3),
        (QueueConsensus2(), 2),
        (CasConsensus(), 2),
        (CasConsensus(), 3),
    ]
    return [
        wait_free_verdict(ObjectConsensusSystem(protocol, n))
        for protocol, n in cases
    ]
