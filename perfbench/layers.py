"""Which public functions of ``repro`` the traced run wraps, and the
per-layer metrics derived from the spans and counters they record.

Layer names follow the package's modules.  Every traced run installs
the full set, so a layer a workload never enters reports zero calls,
which is itself the prediction the benchmark records ("flat elsewhere").
"""

from __future__ import annotations

import importlib
from typing import Dict, List, Tuple

from tracer import Patches, Tracer

SERVICE_KINDS = (
    "flp-analysis",
    "valency",
    "register-search",
    "chaos-campaign",
    "detector-run",
    "lease-run",
    "benor-run",
    "gst-run",
)

#: Span names reported as ``<name>.calls`` and ``<name>.s`` (self time).
SPANS = (
    "bench.pass",
    "shared_memory.cremers_hibbard_certificate",
    "shared_memory.check_candidate",
    "shared_memory.explorations",
    "consensus.round_lower_bound_certificate",
    "consensus.find_round_bound_violation",
    "consensus.run_synchronous",
    "asynchronous.flp_analysis",
    "registers.search_register_consensus",
    "chaos.generate",
    "chaos.target_run.classic",
    "chaos.target_run.circumvention",
    "chaos.monitors",
    "chaos.shrink_schedule",
    "chaos.corpus.add",
    "chaos.fold",
    "core.runtime.fingerprint",
    "core.runtime.replay",
    "service.resolve",
    "service.store.get",
    "service.store.put",
    "service.keys.payload_fingerprint",
    "core.artifacts.atomic_write",
) + tuple(f"service.live.{kind}" for kind in SERVICE_KINDS)

#: Metrics that are not a span's calls/self time: (name, unit).
DERIVED = (
    ("core.stategraph.states_expanded", "count"),
    ("consensus.runs_checked", "count"),
    ("chaos.shrink.checks", "count"),
    ("chaos.shrink.useful_ratio", "ratio"),
    ("chaos.corpus.novel_ratio", "ratio"),
    ("service.store.hits", "count"),
    ("service.store.misses", "count"),
    ("service.store.corrupt", "count"),
    ("service.store.puts", "count"),
    ("service.hit_ratio", "ratio"),
    ("trace.pass_s", "s"),
    ("trace.untraced_pass_s", "s"),
    ("trace.overhead_ratio", "ratio"),
    ("trace.self_s_sum", "s"),
)


def per_layer_metrics() -> List[Tuple[str, str]]:
    """Every per-layer metric the traced run emits, with its unit."""
    names: List[Tuple[str, str]] = []
    for span in SPANS:
        names.append((f"{span}.calls", "count"))
        names.append((f"{span}.s", "s"))
    names.extend(DERIVED)
    return names


def _module(name: str):
    return importlib.import_module(name)


def install(tracer: Tracer, patches: Patches) -> None:
    """Wrap the layer boundaries of the currently imported ``repro``."""
    wrap = tracer.wrap
    count = tracer.counters

    # shared_memory: the E1 search and its per-candidate model checks.
    lower = _module("repro.shared_memory.lower_bounds")
    stategraph = _module("repro.core.stategraph")
    built: list = []

    def remember_system(_args, _kwargs, system):
        built.append(system)

    def count_states(_args, _kwargs, _verdict):
        if built:
            system = built.pop()
            stats = stategraph.state_graph(system).stats
            count["core.stategraph.states_expanded"] += stats["states_expanded"]

    patches.function(lower, "build_synthetic_system",
                     wrap(None, lower.build_synthetic_system, remember_system))
    patches.function(lower, "check_candidate",
                     wrap("shared_memory.check_candidate",
                          lower.check_candidate, count_states))
    patches.function(lower, "cremers_hibbard_certificate",
                     wrap("shared_memory.cremers_hibbard_certificate",
                          lower.cremers_hibbard_certificate))
    mutex = _module("repro.shared_memory.mutex.base").MutexSystem
    for attr in ("check_mutual_exclusion", "check_deadlock_freedom",
                 "check_lockout_freedom"):
        patches.method(mutex, attr, wrap("shared_memory.explorations",
                                         mutex.__dict__[attr]))

    # consensus: the E4 crash-pattern search and the round simulator.
    rounds = _module("repro.consensus.lower_bounds")
    synchronous = _module("repro.consensus.synchronous")

    def runs_checked(_args, _kwargs, result):
        count["consensus.runs_checked"] += result.runs_checked

    patches.function(synchronous, "run_synchronous",
                     wrap("consensus.run_synchronous",
                          synchronous.run_synchronous))
    patches.function(rounds, "find_round_bound_violation",
                     wrap("consensus.find_round_bound_violation",
                          rounds.find_round_bound_violation, runs_checked))
    patches.function(rounds, "round_lower_bound_certificate",
                     wrap("consensus.round_lower_bound_certificate",
                          rounds.round_lower_bound_certificate))

    # asynchronous / registers: E6 and E11 (also the service's cold path).
    flp = _module("repro.asynchronous.flp")
    patches.function(flp, "flp_analysis",
                     wrap("asynchronous.flp_analysis", flp.flp_analysis))
    registers = _module("repro.registers.exhaustive")
    patches.function(registers, "search_register_consensus",
                     wrap("registers.search_register_consensus",
                          registers.search_register_consensus))

    # chaos: target runtimes, monitors, shrinking, corpus, the fold.
    campaign = _module("repro.chaos.campaign")
    targets = _module("repro.chaos.targets")
    corpus = _module("repro.chaos.corpus")

    def shrink_checks(_args, _kwargs, result):
        count["chaos.shrink.checks"] += result[1]

    def corpus_write(_args, _kwargs, added):
        count["chaos.corpus.writes"] += bool(added)

    def campaign_done(_args, _kwargs, report):
        count["chaos.cases"] += report.cases
        count["chaos.counterexamples"] += len(report.counterexamples)

    patches.function(campaign, "run_campaign",
                     wrap("chaos.fold", campaign.run_campaign, campaign_done))
    patches.function(campaign, "shrink_schedule",
                     wrap("chaos.shrink_schedule", campaign.shrink_schedule,
                          shrink_checks))
    patches.function(campaign, "replay",
                     wrap("core.runtime.replay", campaign.replay))
    patches.method(corpus.ScheduleCorpus, "add",
                   wrap("chaos.corpus.add", corpus.ScheduleCorpus.add,
                        corpus_write))
    circumvention = _module("repro.chaos.circumvention_targets")
    classes = set()
    for target in targets.default_targets():
        classes.update(type(target).__mro__)
    for cls in sorted(classes, key=lambda c: (c.__module__, c.__qualname__)):
        if not issubclass(cls, targets.ChaosTarget):
            continue
        side = ("circumvention" if cls.__module__ == circumvention.__name__
                else "classic")
        for attr, span in (("run", f"chaos.target_run.{side}"),
                           ("generate", "chaos.generate"),
                           ("violations", "chaos.monitors")):
            if attr in cls.__dict__:
                patches.method(cls, attr, wrap(span, cls.__dict__[attr]))

    # core.runtime: trace fingerprints (coverage, dedup, service payloads).
    runtime = _module("repro.core.runtime")
    patches.method(runtime.Trace, "fingerprint",
                   wrap("core.runtime.fingerprint",
                        runtime.Trace.__dict__["fingerprint"]))

    # service: query resolution, the store and its write path.
    service = _module("repro.service.service")
    store = _module("repro.service.store")
    patches.method(service.QueryService, "resolve",
                   wrap("service.resolve", service.QueryService.resolve))
    patches.method(store.CertificateStore, "get",
                   wrap("service.store.get", store.CertificateStore.get))
    patches.method(store.CertificateStore, "put",
                   wrap("service.store.put", store.CertificateStore.put))
    keys = _module("repro.service.keys")
    patches.function(keys, "payload_fingerprint",
                     wrap("service.keys.payload_fingerprint",
                          keys.payload_fingerprint))
    artifacts = _module("repro.core.artifacts")
    for attr in ("atomic_write_text", "atomic_write_bytes"):
        patches.function(artifacts, attr,
                         wrap("core.artifacts.atomic_write",
                              getattr(artifacts, attr)))
    for kind in SERVICE_KINDS:
        patches.item(service._HANDLERS, kind,
                     wrap(f"service.live.{kind}", service._HANDLERS[kind]))


def derive(
    tracer: Tracer, store_stats: Dict[str, int]
) -> Dict[str, float]:
    """Per-layer metrics of one traced pass (spans, counters, store)."""
    totals = tracer.layer_totals()
    metrics: Dict[str, float] = {}
    for span in SPANS:
        entry = totals.get(span, {"calls": 0, "s": 0.0})
        metrics[f"{span}.calls"] = entry["calls"]
        metrics[f"{span}.s"] = entry["s"]
    count = tracer.counters
    for name in ("core.stategraph.states_expanded", "consensus.runs_checked",
                 "chaos.shrink.checks"):
        metrics[name] = count.get(name, 0)
    shrinks = metrics["chaos.shrink_schedule.calls"]
    metrics["chaos.shrink.useful_ratio"] = (
        count.get("chaos.counterexamples", 0) / shrinks if shrinks else 0.0
    )
    cases = count.get("chaos.cases", 0)
    metrics["chaos.corpus.novel_ratio"] = (
        count.get("chaos.corpus.writes", 0) / cases if cases else 0.0
    )
    for stat in ("hits", "misses", "corrupt", "puts"):
        metrics[f"service.store.{stat}"] = store_stats.get(stat, 0)
    lookups = store_stats.get("hits", 0) + store_stats.get("misses", 0)
    metrics["service.hit_ratio"] = (
        store_stats.get("hits", 0) / lookups if lookups else 0.0
    )
    metrics["trace.self_s_sum"] = sum(
        entry["s"] for name, entry in totals.items() if name != "bench.pass"
    )
    return metrics
