"""Dead-export audit: every public name in ``src/repro`` has a caller.

A module's public names are its ``__all__`` entries, or, for a module
without ``__all__``, its top-level functions and classes whose names do
not start with ``_``.  A package ``__init__`` re-exports names defined
elsewhere, so only the names it defines itself are its own.

A caller is a reference to the name (a bare name, an attribute, an
import, or an identifier-shaped string such as a ``getattr`` argument)
in ``src/repro`` outside the defining module and outside the package
``__init__`` files, or anywhere in ``benchmarks/``, ``examples/`` or
``perfbench/`` except their ``test_*.py`` files.  References are
matched by identifier, so the audit can miss a dead name that shares
its identifier with a live one, never the other way round.

A public name without a caller fails the audit unless it is on
``ALLOWLIST`` with a reason.  The reasons are checked where a machine
can check them: an ``INTERNAL`` name must be used by its own module
outside its own definition, and every other allowlisted name must be
exercised by some test.  Allowlist entries that gained a caller, or
whose name is gone, fail too, so the list cannot rot.
"""

import ast
import os

import pytest

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PACKAGE = os.path.join(REPO, "src", "repro")
CALLER_DIRS = ("benchmarks", "examples", "perfbench")

INTERNAL = (
    "used only inside its defining module (a record type its engine "
    "returns, a process class its system factory builds, or a helper)"
)
TECHNIQUE = "proof-technique primitive listed in TECHNIQUES.md; tests cover it"
CONSTRUCTION = (
    "construction, adversary or checker from the survey that only tests "
    "exercise"
)
CORE_API = "core modelling / query API exported from repro.core; tests cover it"
PACKAGE_INIT = (
    "called only by the package __init__ files, which the audit does not "
    "count as callers; tests cover it"
)

ALLOWLIST = {
    "_lazy:lazy_exports": PACKAGE_INIT,
    "asynchronous.flp:FLPReport": INTERNAL,
    "asynchronous.global_snapshot:SnapshotOutcome": INTERNAL,
    "asynchronous.global_snapshot:run_token_snapshot": INTERNAL,
    "asynchronous.network:ConfigurationCodec": INTERNAL,
    "asynchronous.network:FairRun": INTERNAL,
    "asynchronous.sessions:SessionsOutcome": INTERNAL,
    "asynchronous.sessions:ring_diameter": INTERNAL,
    "asynchronous.synchronizer:SynchronizerOutcome": INTERNAL,
    "asynchronous.synchronizer:run_alpha_synchronizer": INTERNAL,
    "asynchronous.synchronizer:run_beta_synchronizer": INTERNAL,
    "asynchronous.tasks:DecisionTask": INTERNAL,
    "asynchronous.tasks:SolvabilityVerdict": INTERNAL,
    "asynchronous.tasks:decision_graph": INTERNAL,
    "asynchronous.tasks:input_graph": INTERNAL,
    "asynchronous.tasks:moran_wolfstahl_certificate": CONSTRUCTION,
    "asynchronous.termination:TerminationResult": INTERNAL,
    "asynchronous.two_generals:TwoGeneralsRun": INTERNAL,
    "asynchronous.two_generals:sender_of": INTERNAL,
    "chaos.campaign:CampaignReport": INTERNAL,
    "chaos.campaign:CaseResult": INTERNAL,
    "chaos.campaign:Counterexample": INTERNAL,
    "chaos.campaign:write_counterexample": INTERNAL,
    "chaos.circumvention_targets:BenOrTarget": INTERNAL,
    "chaos.circumvention_targets:BiasedCoinBenOrTarget": INTERNAL,
    "chaos.circumvention_targets:GSTConsensusTarget": INTERNAL,
    "chaos.circumvention_targets:HeartbeatDetectorTarget": INTERNAL,
    "chaos.circumvention_targets:OmegaConsensusTarget": INTERNAL,
    "chaos.circumvention_targets:UnstableDetectorTarget": INTERNAL,
    "chaos.targets:AlternatingBitTarget": INTERNAL,
    "chaos.targets:EagerMajorityProtocol": INTERNAL,
    "chaos.targets:EagerMajorityTarget": INTERNAL,
    "chaos.targets:MobileFloodSetTarget": INTERNAL,
    "chaos.targets:RacyLockProcess": INTERNAL,
    "circumvention.detectors:DetectorRun": INTERNAL,
    "circumvention.gst:ConsensusRun": INTERNAL,
    "circumvention.gst:GSTRun": INTERNAL,
    "circumvention.gst:SuspicionOracle": INTERNAL,
    "circumvention.leases:LeaseRun": INTERNAL,
    "circumvention.randomized:BenOrProcess": INTERNAL,
    "circumvention.randomized:BenOrRun": INTERNAL,
    "circumvention.randomized:RoundSweep": INTERNAL,
    "clocks.logical:Computation": INTERNAL,
    "clocks.logical:check_clock_condition": CONSTRUCTION,
    "clocks.logical:check_vector_condition": CONSTRUCTION,
    "clocks.logical:vector_less": INTERNAL,
    "clocks.sync:ClockSyncRun": INTERNAL,
    "clocks.sync:corner_delay_assignments": INTERNAL,
    "clocks.sync:run_clock_sync": INTERNAL,
    "communication.complexity:constant_matrix": CONSTRUCTION,
    "communication.complexity:exact_complexity": INTERNAL,
    "communication.complexity:fooling_set_bound": INTERNAL,
    "communication.complexity:function_matrix": INTERNAL,
    "communication.complexity:largest_fooling_set": INTERNAL,
    "communication.complexity:log_rank_bound": INTERNAL,
    "communication.complexity:trivial_upper_bound": INTERNAL,
    "consensus.approximate:ApproximateAgreement": INTERNAL,
    "consensus.approximate:ApproximateAgreementProcess": INTERNAL,
    "consensus.approximate:honest_range": INTERNAL,
    "consensus.approximate:reduce_values": INTERNAL,
    "consensus.approximate:stretching_adversary": INTERNAL,
    "consensus.authenticated:DolevStrongProcess": INTERNAL,
    "consensus.authenticated:LateRevealRelay": CONSTRUCTION,
    "consensus.authenticated:chain_valid": INTERNAL,
    "consensus.commit:BrokenCommitProcess": INTERNAL,
    "consensus.commit:DecentralizedCommitProcess": INTERNAL,
    "consensus.commit:TwoPhaseCommitProcess": INTERNAL,
    "consensus.commit:message_count": INTERNAL,
    "consensus.connectivity:CycleProcess": INTERNAL,
    "consensus.connectivity:CycleProtocol": INTERNAL,
    "consensus.connectivity:CycleRun": INTERNAL,
    "consensus.connectivity:CycleScenario": INTERNAL,
    "consensus.connectivity:SplicedCycleRun": INTERNAL,
    "consensus.connectivity:run_spliced_cycle": INTERNAL,
    "consensus.eig:EIGProcess": INTERNAL,
    "consensus.firing_squad:SimultaneityResult": INTERNAL,
    "consensus.floodset:FloodSetProcess": INTERNAL,
    "consensus.lower_bounds:FoolingPair": INTERNAL,
    "consensus.lower_bounds:RoundBoundResult": INTERNAL,
    "consensus.lower_bounds:enumerate_crash_adversaries": CONSTRUCTION,
    "consensus.phase_king:PhaseKingProcess": INTERNAL,
    "consensus.probabilistic:CoinFlipAgreement": INTERNAL,
    "consensus.probabilistic:CoinFlipProcess": INTERNAL,
    "consensus.probabilistic:KarlinYaoResult": INTERNAL,
    "consensus.probabilistic:karlin_yao_certificate": CONSTRUCTION,
    "consensus.scenarios:Scenario": INTERNAL,
    "consensus.scenarios:SplicedRun": INTERNAL,
    "consensus.scenarios:balanced_three_partition": INTERNAL,
    "consensus.synchronous:OmissionAdversary": CONSTRUCTION,
    "core.automaton:FunctionAutomaton": CORE_API,
    "core.composition:Composition": INTERNAL,
    "core.composition:compose": CORE_API,
    "core.execution:check_execution": INTERNAL,
    "core.exploration:ReachabilityResult": INTERNAL,
    "core.exploration:assert_invariant": CORE_API,
    "core.exploration:can_reach_from": CORE_API,
    "core.exploration:find_state": CORE_API,
    "core.exploration:reachable_states_satisfying": CORE_API,
    "core.freeze:is_frozen": CORE_API,
    "core.freeze:thaw": CORE_API,
    "core.indistinguishability:IndistinguishabilityChain": INTERNAL,
    "core.indistinguishability:View": INTERNAL,
    "core.indistinguishability:ViewExtractor": INTERNAL,
    "core.indistinguishability:decisions_constant_along_chain": CONSTRUCTION,
    "core.runtime:ReplayDivergence": INTERNAL,
    "core.runtime:TraceEvent": INTERNAL,
    "core.runtime:spawn_rng": CORE_API,
    "core.scheduler:FixedScheduler": CORE_API,
    "core.scheduler:GreedyScheduler": CORE_API,
    "core.scheduler:RandomScheduler": CORE_API,
    "core.scheduler:Scheduler": INTERNAL,
    "core.scheduler:TracedExecution": INTERNAL,
    "core.stategraph:StateGraph": INTERNAL,
    "core.stategraph:forget_state_graph": CORE_API,
    "datalink.simulate:ChannelAdversary": INTERNAL,
    "datalink.simulate:DataLinkResult": INTERNAL,
    "impossibility.bivalence:DeciderWitness": INTERNAL,
    "impossibility.bivalence:find_herlihy_decider": TECHNIQUE,
    "impossibility.chains:chain_link_indices": INTERNAL,
    "impossibility.chains:find_changing_link": TECHNIQUE,
    "impossibility.chains:input_vector_chain": TECHNIQUE,
    "impossibility.chains:matrix_flip_chain": TECHNIQUE,
    "impossibility.chains:verify_chain": TECHNIQUE,
    "impossibility.pigeonhole:collisions": INTERNAL,
    "impossibility.pigeonhole:first_collision": TECHNIQUE,
    "impossibility.pigeonhole:guaranteed_collision_count": TECHNIQUE,
    "impossibility.pigeonhole:incompatible_collision": TECHNIQUE,
    "knowledge.analysis:two_generals_point_system": INTERNAL,
    "parallel.pool:pool_context": INTERNAL,
    "registers.exhaustive:RegisterSearchOutcome": INTERNAL,
    "registers.exhaustive:BehaviourClasses": INTERNAL,
    "registers.exhaustive:count_programs": CONSTRUCTION,
    "registers.exhaustive:enumerate_programs": CONSTRUCTION,
    "registers.herlihy:CasConsensus": INTERNAL,
    "registers.herlihy:ObjectConsensusProtocol": INTERNAL,
    "registers.herlihy:ObjectConsensusSystem": INTERNAL,
    "registers.herlihy:ProgramConsensus": CONSTRUCTION,
    "registers.herlihy:QueueConsensus2": INTERNAL,
    "registers.herlihy:RegisterConsensus": INTERNAL,
    "registers.herlihy:TasConsensus2": INTERNAL,
    "registers.herlihy:TasConsensus3": INTERNAL,
    "registers.herlihy:WaitFreeVerdict": INTERNAL,
    "registers.herlihy:wait_free_verdict": INTERNAL,
    "registers.history:QueueSpec": CONSTRUCTION,
    "registers.history:SequentialSpec": INTERNAL,
    "registers.regular:SingleReaderMonotonic": INTERNAL,
    "registers.regular:TwoReaderMonotonic": INTERNAL,
    "registers.regular:raw_read": INTERNAL,
    "registers.regular:raw_write": INTERNAL,
    "registers.renaming:RenamingOutcome": INTERNAL,
    "registers.renaming:RenamingProtocol": INTERNAL,
    "registers.snapshot:check_snapshot_history": CONSTRUCTION,
    "registers.snapshot:segment_name": INTERNAL,
    "rings.anonymous:AnonymousProtocol": INTERNAL,
    "rings.anonymous:ItaiRodehProcess": INTERNAL,
    "rings.anonymous:SymmetryTrace": INTERNAL,
    "rings.anonymous:run_lockstep": INTERNAL,
    "rings.general_graphs:GraphElectionResult": INTERNAL,
    "rings.hs:HSProcess": INTERNAL,
    "rings.lcr:best_case_ring": CONSTRUCTION,
    "rings.lower_bounds:message_series": INTERNAL,
    "rings.lower_bounds:n_log_n": INTERNAL,
    "rings.lower_bounds:order_equivalent_rotations": CONSTRUCTION,
    "rings.timeslice:TimeSliceProcess": INTERNAL,
    "service.service:Answer": INTERNAL,
    "shared_memory.choice_coordination:RabinChoiceCoordination": CONSTRUCTION,
    "shared_memory.choice_coordination:SymmetricRun": INTERNAL,
    "shared_memory.choice_coordination:symmetric_deterministic_failure": TECHNIQUE,
    "shared_memory.burns_lynch:NaiveSpinLockProcess": INTERNAL,
    "shared_memory.burns_lynch:SoloRun": INTERNAL,
    "shared_memory.kexclusion:CasSemaphoreProcess": INTERNAL,
    "shared_memory.kexclusion:CountingSemaphoreProcess": INTERNAL,
    "shared_memory.kexclusion:KExclusionSystem": INTERNAL,
    "shared_memory.kexclusion:cas_semaphore_system": CONSTRUCTION,
    "shared_memory.kexclusion:counting_semaphore_system": CONSTRUCTION,
    "shared_memory.lower_bounds:CandidateVerdict": INTERNAL,
    "shared_memory.lower_bounds:enumerate_protocol_tables": INTERNAL,
    "shared_memory.mutex.bakery:BakeryProcess": INTERNAL,
    "shared_memory.mutex.bakery:bakery_system": CONSTRUCTION,
    "shared_memory.mutex.base:region_of": INTERNAL,
    "shared_memory.mutex.dijkstra:DijkstraProcess": INTERNAL,
    "shared_memory.mutex.handoff_lock:HandoffLockProcess": INTERNAL,
    "shared_memory.mutex.peterson:PetersonProcess": INTERNAL,
    "shared_memory.mutex.tas_semaphore:TasSemaphoreProcess": INTERNAL,
    "shared_memory.mutex.tournament:TournamentProcess": INTERNAL,
    "shared_memory.variables:BinaryTestAndSet": INTERNAL,
    "shared_memory.variables:CompareAndSwap": INTERNAL,
    "shared_memory.variables:FetchAndAdd": INTERNAL,
    "shared_memory.variables:Swap": INTERNAL,
    "shared_memory.variables:TestAndSet": INTERNAL,
}


def _python_files(base):
    for directory, _dirs, files in os.walk(base):
        for name in sorted(files):
            if name.endswith(".py"):
                yield os.path.join(directory, name)


def _parse(path):
    with open(path, encoding="utf-8") as handle:
        return ast.parse(handle.read(), filename=path)


def _module_name(path):
    rel = os.path.relpath(path, PACKAGE)[: -len(".py")]
    return rel.replace(os.sep, ".")


def _is_init(path):
    return os.path.basename(path) == "__init__.py"


def _references(nodes):
    """Every identifier the given AST nodes mention."""
    found = set()
    for root in nodes:
        for node in ast.walk(root):
            if isinstance(node, ast.Name):
                found.add(node.id)
            elif isinstance(node, ast.Attribute):
                found.add(node.attr)
            elif isinstance(node, ast.alias):
                found.add(node.name.split(".")[-1])
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                if node.value.isidentifier():
                    found.add(node.value)
    return found


def _defined_names(tree):
    """Top-level function and class definitions, by name."""
    return {
        node.name: node
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
    }


def _public_names(path, tree):
    exported = None
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "__all__"
            for target in node.targets
        ):
            exported = [element.value for element in node.value.elts]
    defined = _defined_names(tree)
    if exported is None:
        return sorted(name for name in defined if not name.startswith("_"))
    if _is_init(path):
        return sorted(name for name in exported if name in defined)
    return exported


def _audit():
    """``(public, callers, trees)`` for the package as it stands."""
    trees = {path: _parse(path) for path in _python_files(PACKAGE)}
    callers = {
        path: _references([tree])
        for path, tree in trees.items()
        if not _is_init(path)
    }
    for directory in CALLER_DIRS:
        for path in _python_files(os.path.join(REPO, directory)):
            if not os.path.basename(path).startswith("test_"):
                callers[path] = _references([_parse(path)])
    public = {}
    for path, tree in trees.items():
        for name in _public_names(path, tree):
            public[f"{_module_name(path)}:{name}"] = path
    return public, callers, trees


PUBLIC, CALLERS, TREES = _audit()


def _has_caller(entry):
    path = PUBLIC[entry]
    name = entry.split(":")[1]
    return any(
        name in found for where, found in CALLERS.items() if where != path
    )


def test_every_public_name_has_a_caller_or_a_reason():
    dead = sorted(
        entry for entry in PUBLIC
        if entry not in ALLOWLIST and not _has_caller(entry)
    )
    assert not dead, (
        "public names with no non-test caller; delete them, or add them "
        f"to ALLOWLIST with a reason: {dead}"
    )


def test_allowlist_has_no_stale_entries():
    gone = sorted(entry for entry in ALLOWLIST if entry not in PUBLIC)
    assert not gone, f"allowlisted names that no longer exist: {gone}"
    alive = sorted(entry for entry in ALLOWLIST if _has_caller(entry))
    assert not alive, f"allowlisted names that now have a caller: {alive}"


def test_internal_names_are_used_by_their_own_module():
    unused = []
    for entry, reason in sorted(ALLOWLIST.items()):
        if reason is not INTERNAL or entry not in PUBLIC:
            continue
        name = entry.split(":")[1]
        tree = TREES[PUBLIC[entry]]
        rest = [
            node for node in tree.body
            if getattr(node, "name", None) != name
        ]
        if name not in _references(rest):
            unused.append(entry)
    assert not unused, f"INTERNAL names their own module never uses: {unused}"


@pytest.fixture(scope="module")
def tested_names():
    tests_dir = os.path.dirname(os.path.abspath(__file__))
    found = set()
    for path in _python_files(tests_dir):
        if os.path.abspath(path) != os.path.abspath(__file__):
            found |= _references([_parse(path)])
    return found


def test_allowlisted_api_is_exercised_by_tests(tested_names):
    untested = sorted(
        entry for entry, reason in ALLOWLIST.items()
        if reason is not INTERNAL and entry.split(":")[1] not in tested_names
    )
    assert not untested, f"allowlisted names no test exercises: {untested}"
