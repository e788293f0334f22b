"""Impossibility-as-a-service: the query layer over the certificate store.

A :class:`QueryService` answers the repository's standing questions —

* ``flp-analysis`` — which way does this protocol fail FLP (the E6
  dichotomy: agreement violation or crash-blocking)?
* ``valency`` — the valency of the initial configuration for one input
  vector of one protocol;
* ``register-search`` — the exhaustive failure census over the bounded
  register-consensus program class at a given depth;
* ``chaos-campaign`` — a full seeded chaos campaign, counterexamples and
  all;
* ``detector-run``, ``lease-run``, ``benor-run``, ``gst-run`` — one run
  of a circumvention engine, one table row each (:data:`_RUNS`)

— from the :class:`~repro.service.store.CertificateStore` when a
verified entry exists, and by running the live engine on a miss.  The
justification is the repository's determinism invariant: every one of
these results is a pure function of its canonicalized request, so a
stored answer *is* the answer, provided its integrity verifies (the
store's job).  Incomplete results (budget overdrafts) are returned to
the caller but never stored — the store only holds answers, not
progress.

One path answers a query: :meth:`QueryService.resolve` checks the
store, runs the kind's handler on a miss and stores the answer if it is
complete; :meth:`~QueryService.resolve_many` is an ordered loop over it
that answers a repeated key once.  ``workers`` is threaded into the
engine itself, so one big campaign shards internally, and the service's
:class:`~repro.core.budget.Budget` into every live fallback that
accepts one.
"""

from __future__ import annotations

import functools
import inspect
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from ..circumvention.detectors import run_heartbeat_detector
from ..circumvention.gst import run_gst_consensus
from ..circumvention.leases import run_quorum_lease
from ..circumvention.randomized import run_ben_or_traced
from ..core.budget import Budget
from ..core.canonical import decode, encode, text
from .keys import QueryKey
from .store import CertificateStore


# ---------------------------------------------------------------------------
# Key constructors (one per query kind, defaults pinned for stable keys)
# ---------------------------------------------------------------------------


def flp_key(protocol: str, n: int = 2, stall_stages: int = 24) -> QueryKey:
    """Key for the full FLP analysis of one candidate protocol."""
    return QueryKey.make(
        "flp-analysis", protocol=protocol, n=n, stall_stages=stall_stages
    )


def valency_key(protocol: str, n: int, inputs: Tuple) -> QueryKey:
    """Key for the valency of one initial configuration."""
    return QueryKey.make("valency", protocol=protocol, n=n, inputs=inputs)


def register_search_key(depth: int = 2) -> QueryKey:
    """Key for the exhaustive register-consensus census at ``depth``."""
    return QueryKey.make("register-search", depth=depth)


def campaign_key(
    targets: Optional[Tuple[str, ...]] = None,
    runs: int = 40,
    master_seed: int = 0,
    shrink: bool = True,
    shrink_checks: int = 256,
) -> QueryKey:
    """Key for one seeded chaos campaign (``targets=None`` = full roster)."""
    return QueryKey.make(
        "chaos-campaign",
        targets=targets,
        runs=runs,
        master_seed=master_seed,
        shrink=shrink,
        shrink_checks=shrink_checks,
    )


def _items(mapping: Dict) -> Any:
    return encode(tuple(sorted(mapping.items())))


#: One row per circumvention run kind: the engine, and the store payload
#: of its run record (besides the trace fingerprint every row carries).
_RUNS: Dict[str, Tuple[Callable, Callable[[Any], Dict[str, Any]]]] = {
    "detector-run": (run_heartbeat_detector, lambda run: {
        "leaders": _items(run.leaders),
        "suspects": _items(run.suspects),
        "leader_changes": run.leader_changes,
        "last_change": run.last_change,
    }),
    "lease-run": (run_quorum_lease, lambda run: {
        "leases": encode(run.leases),
        "commits": run.commits,
    }),
    "benor-run": (run_ben_or_traced, lambda run: {
        "decisions": _items(run.decisions),
        "phases": _items(run.phases),
        "crashed": encode(run.crashed),
        "events": run.events,
        "agreement": run.agreement,
        "validity": run.validity,
    }),
    "gst-run": (run_gst_consensus, lambda run: {
        "decisions": _items(run.decisions),
        "rounds": run.rounds,
        "gst": run.gst,
        "crashed": encode(run.crashed),
    }),
}

#: Where a run key's defaults differ from its engine's: no schedule, seed 0.
_RUN_KEY_DEFAULTS = {"atoms": (), "seed": 0}


def _run_key(kind: str) -> Callable[..., QueryKey]:
    """The key constructor of one run kind, with the engine's signature.

    Every engine parameter but the budget convention's becomes a key
    parameter, positional in the engine's order, defaulting to the
    engine's default (or :data:`_RUN_KEY_DEFAULTS`), so a default is
    written once — in the engine.
    """
    engine = _RUNS[kind][0]
    signature = inspect.Signature([
        p.replace(
            kind=inspect.Parameter.POSITIONAL_OR_KEYWORD,
            default=_RUN_KEY_DEFAULTS.get(p.name, p.default),
        )
        for p in inspect.signature(engine).parameters.values()
        if p.name not in ("meter", "budget", "resume")
    ])

    def make_key(*args, **kwargs) -> QueryKey:
        bound = signature.bind(*args, **kwargs)
        bound.apply_defaults()
        return QueryKey.make(kind, **bound.arguments)

    make_key.__signature__ = signature
    make_key.__name__ = make_key.__qualname__ = kind.replace("-", "_") + "_key"
    make_key.__doc__ = f"Key for one {engine.__name__} run ({kind!r})."
    return make_key


detector_run_key = _run_key("detector-run")
lease_run_key = _run_key("lease-run")
benor_run_key = _run_key("benor-run")
gst_run_key = _run_key("gst-run")


# ---------------------------------------------------------------------------
# Live handlers (import-lazy: free of import cycles with the engines
# they call)
# ---------------------------------------------------------------------------


def _protocol_instance(name: str):
    from ..asynchronous.flp import ALL_CANDIDATES

    registry = {cls.name: cls for cls in ALL_CANDIDATES}
    if name not in registry:
        raise ValueError(
            f"unknown async protocol {name!r}; known: {sorted(registry)}"
        )
    return registry[name]()


def flp_report_payload(report) -> Dict[str, Any]:
    """The JSON-native store payload of an :class:`FLPReport`."""
    return {
        "protocol": report.protocol_name,
        "n": report.n,
        "failure_mode": report.failure_mode,
        "bivalent_initial_inputs": encode(
            report.bivalent_initial_inputs
        ),
        "blocking_crash": report.blocking_crash,
        "initial_valencies": [
            [
                encode(inputs),
                [encode(v) for v in sorted(valency, key=text)],
            ]
            for inputs, valency in report.initial_valencies
        ],
        "stall_stages": (
            report.stall.stages if report.stall is not None else None
        ),
        "stall_stayed_bivalent": (
            report.stall.stayed_bivalent if report.stall is not None else None
        ),
    }


def _handle_flp_analysis(
    params: Dict[str, Any], budget: Optional[Budget], workers
) -> Tuple[Dict[str, Any], bool]:
    from ..asynchronous.flp import flp_analysis

    report = flp_analysis(
        _protocol_instance(params["protocol"]),
        n=params["n"],
        stall_stages=params["stall_stages"],
    )
    return flp_report_payload(report), True


def _handle_valency(
    params: Dict[str, Any], budget: Optional[Budget], workers
) -> Tuple[Dict[str, Any], bool]:
    from ..asynchronous.network import AsyncConsensusSystem
    from ..impossibility.bivalence import ValencyAnalyzer

    protocol = _protocol_instance(params["protocol"])
    n = params["n"]
    inputs = params["inputs"]
    system = AsyncConsensusSystem(protocol, n)
    analyzer = ValencyAnalyzer(system)
    valency = analyzer.valency(system.configuration_for(inputs))
    payload = {
        "protocol": protocol.name,
        "n": n,
        "inputs": encode(inputs),
        "valency": [encode(v) for v in sorted(valency, key=text)],
        "bivalent": len(valency) >= 2,
    }
    return payload, True


def register_outcome_payload(outcome) -> Dict[str, Any]:
    """The JSON-native store payload of a :class:`RegisterSearchOutcome`."""
    return {
        "depth": outcome.depth,
        "candidates": outcome.candidates,
        "solutions": [encode(p) for p in outcome.solutions],
        "agreement_failures": outcome.agreement_failures,
        "validity_failures": outcome.validity_failures,
        "wait_freedom_failures": outcome.wait_freedom_failures,
    }


def _handle_register_search(
    params: Dict[str, Any], budget: Optional[Budget], workers
) -> Tuple[Dict[str, Any], bool]:
    from ..registers.exhaustive import search_register_consensus

    outcome = search_register_consensus(depth=params["depth"], budget=budget)
    return register_outcome_payload(outcome), outcome.complete


def _handle_chaos_campaign(
    params: Dict[str, Any], budget: Optional[Budget], workers
) -> Tuple[Dict[str, Any], bool]:
    from ..chaos.campaign import report_to_payload, run_campaign
    from ..chaos.targets import select_targets

    report = run_campaign(
        **{**params, "targets": select_targets(params["targets"])},
        budget=budget,
        workers=workers,
    )
    return report_to_payload(report), report.complete


def _handle_run(
    kind: str, params: Dict[str, Any], budget: Optional[Budget], workers
) -> Tuple[Dict[str, Any], bool]:
    engine, payload = _RUNS[kind]
    run = engine(**params, budget=budget)
    result = {"trace_fingerprint": run.trace.fingerprint(), **payload(run)}
    return result, run.complete


_HANDLERS = {
    "flp-analysis": _handle_flp_analysis,
    "valency": _handle_valency,
    "register-search": _handle_register_search,
    "chaos-campaign": _handle_chaos_campaign,
    **{kind: functools.partial(_handle_run, kind) for kind in _RUNS},
}

QUERY_KINDS = tuple(_HANDLERS)


# ---------------------------------------------------------------------------
# The service
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Answer:
    """One resolved query: the payload plus where it came from."""

    key: QueryKey
    result: Any
    source: str  # "store" | "live"
    complete: bool = True


class QueryService:
    """Answer queries from the store; fall back to live engines on miss.

    One service wraps one :class:`CertificateStore` plus a resolution
    policy: an optional :class:`~repro.core.budget.Budget` threaded into
    budget-aware engines, and a ``workers`` count passed into the
    engine's own sharding.  Counters: ``live`` live computations,
    ``deduped`` repeated keys in one :meth:`resolve_many` batch answered
    once; store hits/misses live on ``store.stats``.
    """

    def __init__(
        self,
        store: CertificateStore,
        budget: Optional[Budget] = None,
        workers=1,
    ):
        self.store = store
        self.budget = budget
        self.workers = workers
        self.live = 0
        self.deduped = 0

    def resolve(self, key: QueryKey) -> Answer:
        """Resolve one query: a verified store entry, else the live engine."""
        if key.kind not in _HANDLERS:
            raise ValueError(
                f"unknown query kind {key.kind!r}; known: {sorted(_HANDLERS)}"
            )
        cached = self.store.get(key)
        if cached is not None:
            return Answer(key, cached, "store")
        payload, complete = _HANDLERS[key.kind](
            key.params_dict(), self.budget, self.workers
        )
        self.live += 1
        if complete:
            self.store.put(key, payload)
        return Answer(key, payload, "live", complete)

    def resolve_many(self, keys: Sequence[QueryKey]) -> List[Answer]:
        """Resolve a batch in input order; a repeated key is answered once."""
        answers: Dict[str, Answer] = {}
        for key in keys:
            fingerprint = key.fingerprint()
            if fingerprint in answers:
                self.deduped += 1
            else:
                answers[fingerprint] = self.resolve(key)
        return [answers[key.fingerprint()] for key in keys]

    # -- accounting -------------------------------------------------------

    @property
    def stats(self) -> Dict[str, Any]:
        return {
            "store": self.store.stats,
            "live": self.live,
            "deduped": self.deduped,
        }


# ---------------------------------------------------------------------------
# Payload -> domain-object rebuilders (used by the store-backed
# certificate constructors and the chaos CLI)
# ---------------------------------------------------------------------------


def certificate_from_flp_payload(payload: Dict[str, Any]):
    """An :class:`ImpossibilityCertificate` from a stored FLP payload.

    Both the hit and the miss path of a store-backed
    :func:`~repro.asynchronous.flp.flp_certificate` build their
    certificate through this function, so the two are field-identical.
    """
    from ..impossibility.certificate import ImpossibilityCertificate

    protocol = payload["protocol"]
    n = payload["n"]
    return ImpossibilityCertificate(
        claim=(
            f"{protocol} is not a 1-resilient asynchronous consensus "
            f"protocol for n={n}"
        ),
        scope=(
            "deterministic finite-state protocol; exhaustive valency over "
            "all schedules from all binary inputs"
        ),
        technique="bivalence",
        details={
            "failure_mode": payload["failure_mode"],
            "bivalent_initial_inputs": decode(
                payload["bivalent_initial_inputs"]
            ),
            "initial_valencies": [
                (
                    list(decode(inputs)),
                    [decode(v) for v in valency],
                )
                for inputs, valency in payload["initial_valencies"]
            ],
            "stall_stages": payload["stall_stages"],
            "stall_stayed_bivalent": payload["stall_stayed_bivalent"],
        },
    )


def certificate_from_register_payload(payload: Dict[str, Any]):
    """An :class:`ImpossibilityCertificate` from a register-search payload."""
    from ..core.errors import ModelError
    from ..impossibility.certificate import ImpossibilityCertificate

    solutions = payload["solutions"]
    if solutions:
        raise ModelError(
            f"found {len(solutions)} register consensus programs — "
            "the impossibility claim fails for this class"
        )
    depth = payload["depth"]
    return ImpossibilityCertificate(
        claim=(
            "no symmetric 2-process wait-free consensus protocol exists "
            "over one binary single-writer register per process with at "
            f"most {depth} accesses"
        ),
        scope=(
            f"decision-tree programs, depth <= {depth}, exhaustive over "
            f"{payload['candidates']} candidates"
        ),
        technique="bivalence / exhaustive model checking",
        candidates_checked=payload["candidates"],
        details={
            "agreement_failures": payload["agreement_failures"],
            "validity_failures": payload["validity_failures"],
            "wait_freedom_failures": payload["wait_freedom_failures"],
        },
    )


def run_campaign_cached(
    store: CertificateStore,
    targets=None,
    runs: int = 40,
    master_seed: int = 0,
    shrink: bool = True,
    shrink_checks: int = 256,
    budget: Optional[Budget] = None,
    workers=1,
):
    """A chaos campaign answered from ``store`` when possible.

    Returns ``(report, source)`` with ``source`` ``"store"`` or
    ``"live"``.  The report reconstructed from a store hit is
    field-identical to the one the original campaign returned — same
    verdicts, same counterexamples, same trace fingerprints — so
    downstream artifact writing produces byte-identical files.
    Incomplete (budget-interrupted) campaigns are returned but not
    cached.
    """
    from ..chaos.campaign import report_from_payload

    names = (
        tuple(target.name for target in targets)
        if targets is not None
        else None
    )
    key = campaign_key(names, runs, master_seed, shrink, shrink_checks)
    service = QueryService(store, budget=budget, workers=workers)
    answer = service.resolve(key)
    return report_from_payload(answer.result), answer.source
