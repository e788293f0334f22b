"""FLP mechanized: every async consensus attempt fails (§2.2.4).

Fischer–Lynch–Paterson: no deterministic asynchronous consensus protocol
tolerates even one stopping fault.  The proof machinery — valency,
bivalent initial configurations, deciders, bivalence-preserving schedules
— lives generically in :mod:`repro.impossibility.bivalence`; this module
instantiates it on the asynchronous network model and runs the complete
analysis against concrete candidate protocols.

FLP partitions every candidate's fate: a protocol either

* ``agreement-violation`` — some schedule makes two processes decide
  differently (unsafe); or
* ``blocks-under-crash`` — excluding one process from the schedule leaves
  a nonfaulty process undecided forever (safe, not 1-resilient).

There is no third option — that *is* the theorem — and
:func:`flp_certificate` verifies the dichotomy by exhaustive valency
analysis over all schedules.  Additionally, wherever a bivalent initial
configuration exists (Lemma 2's hypothesis for would-be-correct
protocols), :func:`flp_analysis` runs the :class:`StallingAdversary` to
demonstrate Lemma 3's machinery: a fair, bivalence-preserving schedule
extended stage by stage.

Every process's opening broadcast happens as a step (triggered by a
self-addressed START delivery), so "crash at time zero" genuinely keeps a
process's input out of the system.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import FrozenSet, Hashable, List, Optional, Tuple

from ..core.errors import ModelError
from ..impossibility.bivalence import (
    StallResult,
    StallingAdversary,
    ValencyAnalyzer,
)
from ..impossibility.certificate import ImpossibilityCertificate
from .network import START, AsyncConsensusSystem, AsyncProtocol, Pid

# ---------------------------------------------------------------------------
# Candidate protocols (all finite-state, all doomed — per FLP, necessarily)
# ---------------------------------------------------------------------------


class WaitForAll(AsyncProtocol):
    """Broadcast your input; decide min once you hold all n values.

    Safe and live when nobody crashes — and hopelessly blocking when
    anybody does: the textbook non-resilient protocol.
    """

    name = "wait-for-all"
    symmetric = True

    def initial_state(self, pid, n, input_value):
        return (pid, n, input_value, frozenset(), None)

    def transition(self, pid, state, message):
        own_pid, n, value, seen, decided = state
        sends: Tuple = ()
        if message == START:
            seen = seen | {(own_pid, value)}
            sends = tuple(
                (dest, ("val", own_pid, value)) for dest in range(n) if dest != own_pid
            )
        elif isinstance(message, tuple) and message[0] == "val":
            seen = seen | {(message[1], message[2])}
        if decided is None and len(seen) == n:
            decided = min(v for (_p, v) in seen)
        return (own_pid, n, value, seen, decided), sends

    def decision(self, state):
        return state[4]


class FirstMessageWins(AsyncProtocol):
    """Broadcast your input; decide on the first value you hear.

    Fast, nonblocking — and unsafe: an easy agreement violation.
    """

    name = "first-message-wins"
    symmetric = True

    def initial_state(self, pid, n, input_value):
        return (pid, n, input_value, None)

    def transition(self, pid, state, message):
        own_pid, n, value, decided = state
        sends: Tuple = ()
        if message == START:
            sends = tuple(
                (dest, ("val", value)) for dest in range(n) if dest != own_pid
            )
        elif isinstance(message, tuple) and message[0] == "val":
            if decided is None:
                decided = message[1]
        return (own_pid, n, value, decided), sends

    def decision(self, state):
        return state[3]


class QuorumVote(AsyncProtocol):
    """Broadcast your input; decide the min of the first n-1 values you
    hold (your own included).

    The natural "don't wait for the possibly-dead process" fix — which
    restores liveness and sacrifices agreement: two processes can assemble
    different quorums.
    """

    name = "quorum-vote"
    symmetric = True

    def initial_state(self, pid, n, input_value):
        return (pid, n, input_value, frozenset(), None)

    def transition(self, pid, state, message):
        own_pid, n, value, seen, decided = state
        sends: Tuple = ()
        if message == START:
            seen = seen | {(own_pid, value)}
            sends = tuple(
                (dest, ("val", own_pid, value)) for dest in range(n) if dest != own_pid
            )
        elif isinstance(message, tuple) and message[0] == "val":
            seen = seen | {(message[1], message[2])}
        if decided is None and len(seen) >= n - 1:
            decided = min(v for (_p, v) in seen)
        return (own_pid, n, value, seen, decided), sends

    def decision(self, state):
        return state[4]


ALL_CANDIDATES = (WaitForAll, FirstMessageWins, QuorumVote)


# ---------------------------------------------------------------------------
# Analysis
# ---------------------------------------------------------------------------


@dataclass
class FLPReport:
    """Full FLP analysis of one candidate protocol."""

    protocol_name: str
    n: int
    initial_valencies: List[Tuple[Tuple[Hashable, ...], FrozenSet[Hashable]]]
    bivalent_initial_inputs: Optional[Tuple[Hashable, ...]]
    agreement_violation: Optional[object]
    blocking_crash: Optional[Pid]
    stall: Optional[StallResult]
    failure_mode: str

    def summary(self) -> str:
        lines = [
            f"FLP analysis of {self.protocol_name} (n={self.n}):",
            f"  failure mode: {self.failure_mode}",
        ]
        for inputs, valency in self.initial_valencies:
            lines.append(f"  inputs {inputs}: valency {sorted(valency)}")
        if self.stall is not None:
            lines.append(
                f"  stalling adversary: {self.stall.stages} fairness stages, "
                f"{len(self.stall.schedule)} events, still bivalent: "
                f"{self.stall.stayed_bivalent}"
            )
        return "\n".join(lines)


def flp_analysis(
    protocol: AsyncProtocol,
    n: int = 2,
    stall_stages: int = 24,
    max_configurations: int = 400_000,
) -> FLPReport:
    """Run the complete FLP analysis against one protocol.

    ``max_configurations`` caps both the valency labelling, which counts
    only the configurations it labels (for a symmetric protocol, the
    cones of one input vector per orbit, plus whatever the stalling
    adversary labels later), and the disagreement search, which visits
    the same labelled cones: one input vector per orbit for a symmetric
    protocol, not the whole reachable space.
    """
    system = AsyncConsensusSystem(protocol, n)
    analyzer = ValencyAnalyzer(system, max_configurations=max_configurations)

    # Valency of every initial configuration (Lemma 2 territory).  One
    # batched labelling pass covers the union of the initial cones; for
    # a symmetric protocol only the first vector of each input multiset
    # is labelled, and the later vectors of its orbit take its valency.
    # The first bivalent vector is then always the first of its orbit.
    vectors = system.input_vectors
    orbits = [
        frozenset(Counter(inputs).items()) if protocol.symmetric else inputs
        for inputs in vectors
    ]
    first = {}
    for orbit, inputs in zip(orbits, vectors):
        first.setdefault(orbit, inputs)
    roots = [system.configuration_for(inputs) for inputs in first.values()]
    labelled = analyzer.classify_initial(roots)
    valency_of = {
        orbit: valency for orbit, (_config, valency) in zip(first, labelled)
    }
    initial_valencies = [
        (inputs, valency_of[orbit]) for orbit, inputs in zip(orbits, vectors)
    ]
    bivalent_inputs = next(
        (inputs for inputs, valency in initial_valencies if len(valency) >= 2),
        None,
    )

    # Lemma 3 demonstration: from a bivalent configuration, bivalence can
    # be preserved while honouring fairness obligations.
    stall = None
    if bivalent_inputs is not None:
        adversary = StallingAdversary(analyzer)
        stall = adversary.run(
            system.configuration_for(bivalent_inputs), stall_stages
        )

    # Safety: reachable agreement violation anywhere?  Vectors reach
    # disjoint configurations (a local state keeps its input), and a
    # violation under a later vector of an orbit has a symmetric image at
    # the same BFS level under the orbit's first vector, which the BFS
    # queues earlier.  So walking the roots finds the same first
    # violation as walking every vector.  A violation's own decisions
    # make it bivalent, and so every configuration on a path to it: no
    # univalent root reaches one, nor shifts the bivalent configurations'
    # BFS order among themselves.  So only the bivalent roots are walked.
    bivalent = [config for config, valency in labelled if len(valency) >= 2]
    violation = analyzer.find_disagreement(roots=bivalent) if bivalent else None
    if violation is not None:
        return FLPReport(
            protocol.name, n, initial_valencies, bivalent_inputs,
            violation, None, stall, "agreement-violation",
        )

    # Resilience: does excluding one process block the rest?
    for crashed in range(n):
        for inputs in system.input_vectors:
            config, _steps = system.run_fair(inputs, exclude={crashed})
            decided = system.decisions(config)
            undecided = [
                p for p in range(n) if p != crashed and p not in decided
            ]
            if undecided:
                return FLPReport(
                    protocol.name, n, initial_valencies, bivalent_inputs,
                    None, crashed, stall, "blocks-under-crash",
                )

    # Safe and 1-resilient would contradict the theorem.
    raise ModelError(
        f"{protocol.name}: exhaustive analysis found neither an agreement "
        "violation nor crash-blocking — this contradicts FLP; check the model"
    )


def flp_certificate(
    protocol: AsyncProtocol,
    n: int = 2,
    stall_stages: int = 24,
    store=None,
) -> ImpossibilityCertificate:
    """Certify that this protocol is not a 1-resilient consensus protocol.

    ``store=`` (a :class:`~repro.service.store.CertificateStore`) answers
    from a previously stored analysis when a verified entry exists and
    persists a fresh analysis otherwise; the certificate is built from
    the payload either way, so hit and miss produce identical
    certificates.  The analysis is a pure function of ``(protocol, n,
    stall_stages)``, which is what makes the cached answer *the* answer.
    """
    # Lazy import: the service package imports this module's engines for
    # its live handlers; the store-backed path here is the other half of
    # that handshake.
    from ..service.service import (
        certificate_from_flp_payload,
        flp_key,
        flp_report_payload,
    )

    key = payload = None
    if store is not None:
        key = flp_key(protocol.name, n=n, stall_stages=stall_stages)
        payload = store.get(key)
    if payload is None:
        payload = flp_report_payload(flp_analysis(protocol, n, stall_stages))
        if store is not None:
            store.put(key, payload)
    return certificate_from_flp_payload(payload)
