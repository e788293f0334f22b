"""The fused integer valency pass checked against the frozen path it
replaced (``tests/valency_reference.py``).

State id by state id, the kernel must produce the reference's decoded
configurations, rows, edge labels and valency masks; the stall schedule,
the first disagreement and the whole ``FLPReport`` must be equal.  The
check covers the three FLP candidates, random small deterministic
protocol tables (self-sends, duplicate messages, null steps, non-binary
values, custom input vectors) and shared-object systems, which go
through the same fused pass without a codec.

Every protocol under ``src/`` that declares itself symmetric (and so
has one input vector per orbit labelled) must give the report of its
undeclared twin, which labels every vector.
"""

import itertools
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.asynchronous import flp
from repro.asynchronous.flp import ALL_CANDIDATES
from repro.asynchronous.network import (
    COUNT_BITS,
    NULL,
    START,
    AsyncConsensusSystem,
    AsyncProtocol,
)
from repro.core.errors import EncodingOverflow, SearchBudgetExceeded
from repro.impossibility.bivalence import StallingAdversary, ValencyAnalyzer
from repro.registers.herlihy import (
    ObjectConsensusSystem,
    QueueConsensus2,
    RegisterConsensus,
    TasConsensus2,
    TasConsensus3,
)

from .src_classes import subclasses_under_src
from .valency_reference import (
    HiddenCodec,
    ReferenceValencyAnalyzer,
    reference_path,
)


def snapshot(analyzer):
    """Every id's (configuration, successor ids, labels, mask, owed
    events)."""
    cache = analyzer.cache
    graph = cache.graph
    return [
        (
            cache.config_of(sid),
            list(graph.successors_ids(sid)),
            graph.labels_of(sid),
            analyzer._masks.get(sid),
            cache.fair_events_of(sid),
        )
        for sid in range(len(cache.interner))
    ]


def label(analyzer):
    """Label the initial cones; the budget error, if any, as a value."""
    try:
        analyzer.classify_initial()
    except SearchBudgetExceeded as exc:
        return str(exc)
    return None


def disagreement(analyzer):
    try:
        return analyzer.find_disagreement()
    except SearchBudgetExceeded as exc:
        return str(exc)


def stall(analyzer, stages):
    system = analyzer.system
    for config in system.initial_configurations():
        if analyzer.is_bivalent(config):
            return StallingAdversary(analyzer).run(config, stages)
    return None


def assert_same_analysis(kernel, reference, stages=6):
    assert label(kernel) == label(reference)
    assert snapshot(kernel) == snapshot(reference)
    assert disagreement(kernel) == disagreement(reference)
    if len(kernel._masks) == len(kernel.cache.interner):
        assert stall(kernel, stages) == stall(reference, stages)
        assert snapshot(kernel) == snapshot(reference)


# ---------------------------------------------------------------------------
# The FLP candidates


@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("candidate", ALL_CANDIDATES, ids=lambda c: c.name)
def test_candidates_match_reference(candidate, n):
    kernel = ValencyAnalyzer(AsyncConsensusSystem(candidate(), n))
    reference = ReferenceValencyAnalyzer(
        HiddenCodec(AsyncConsensusSystem(candidate(), n))
    )
    assert kernel.cache.codec is not None
    assert reference.cache.codec is None
    assert_same_analysis(kernel, reference, stages=24)


@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("candidate", ALL_CANDIDATES, ids=lambda c: c.name)
def test_flp_reports_match_reference(candidate, n):
    kernel = flp.flp_analysis(candidate(), n)
    with reference_path():
        reference = flp.flp_analysis(candidate(), n)
    assert kernel == reference


def test_store_payloads_match_reference():
    from repro.service.keys import canonical_json
    from repro.service.service import flp_report_payload

    for candidate, n in ((flp.FirstMessageWins, 2), (flp.QuorumVote, 3),
                         (flp.WaitForAll, 2)):
        kernel = flp_report_payload(flp.flp_analysis(candidate(), n))
        with reference_path():
            reference = flp_report_payload(flp.flp_analysis(candidate(), n))
        assert canonical_json(kernel) == canonical_json(reference)


# ---------------------------------------------------------------------------
# The input-orbit quotient of symmetric protocols


def _undeclared(cls):
    """``cls`` without its symmetry declaration: every vector labelled."""
    return type(cls.__name__, (cls,), {"symmetric": False})


def test_every_symmetric_protocol_matches_the_full_labelling():
    found = subclasses_under_src(AsyncProtocol, lambda cls: cls.symmetric)
    assert set(ALL_CANDIDATES) <= found
    for cls in sorted(found, key=lambda cls: cls.__qualname__):
        for n in (2, 3):
            quotiented = flp.flp_analysis(cls(), n)
            assert quotiented == flp.flp_analysis(_undeclared(cls)(), n), (
                cls, n,
            )


def test_quorum_vote_n4_payload_matches_the_full_labelling():
    from repro.service.keys import canonical_json
    from repro.service.service import flp_report_payload

    payloads = [
        canonical_json(flp_report_payload(flp.flp_analysis(cls(), 4)))
        for cls in (flp.QuorumVote, _undeclared(flp.QuorumVote))
    ]
    assert payloads[0] == payloads[1]


def test_symmetric_analysis_labels_one_vector_per_orbit():
    labelled = []

    class Spy(ValencyAnalyzer):
        def classify_initial(self, configurations=None):
            labelled.append(len(configurations))
            return super().classify_initial(configurations)

    with mock.patch.object(flp, "ValencyAnalyzer", Spy):
        flp.flp_analysis(flp.QuorumVote(), 3)
        flp.flp_analysis(_undeclared(flp.QuorumVote)(), 3)
    # The multisets {0,0,0}, {0,0,1}, {0,1,1}, {1,1,1}; then all 8.
    assert labelled == [4, 8]


@pytest.mark.parametrize(
    "candidate, rows", [(flp.QuorumVote, 561), (flp.FirstMessageWins, 432)],
    ids=lambda c: getattr(c, "name", c),
)
def test_disagreement_walk_expands_only_labelled_rows(candidate, rows):
    made = []

    class Spy(ValencyAnalyzer):
        def __post_init__(self):
            super().__post_init__()
            made.append(self)

    with mock.patch.object(flp, "ValencyAnalyzer", Spy):
        flp.flp_analysis(candidate(), 3)
    (analyzer,) = made
    assert analyzer.cache.graph.rows == len(analyzer._masks) == rows


# ---------------------------------------------------------------------------
# Random protocol tables


class TableProtocol(AsyncProtocol):
    """A protocol given by finite tables over small-int local states."""

    name = "table-protocol"

    def __init__(self, initial, opening, steps, decide, uses_null_steps):
        self.initial = initial
        self.opening = opening
        self.steps = steps
        self.decide = decide
        self.uses_null_steps = uses_null_steps

    def initial_state(self, pid, n, input_value):
        return self.initial[(pid, input_value)]

    def initial_messages(self, pid, n, input_value):
        return self.opening[pid]

    def transition(self, pid, state, message):
        return self.steps[(pid, state, message)]

    def decision(self, state):
        return self.decide[state]


MESSAGES = (START, "a", ("b", 1))


@st.composite
def table_systems(draw):
    n = draw(st.integers(2, 3))
    values = draw(st.sampled_from([(0, 1), (0, 1, 2), ("x", "y")]))
    states = draw(st.integers(1, 4))
    local = st.integers(0, states - 1)

    def sends(message):
        # START may send "a" or "b", "a" only "b", the rest nothing: the
        # buffer stays finite, self-sends and duplicates included.
        later = MESSAGES[MESSAGES.index(message) + 1:] if message in MESSAGES else ()
        if not later:
            return st.just(())
        return st.lists(
            st.tuples(st.integers(0, n - 1), st.sampled_from(later)),
            max_size=2,
        ).map(tuple)

    uses_null_steps = draw(st.booleans())
    received = MESSAGES + ((NULL,) if uses_null_steps else ())
    initial = {
        (pid, value): draw(local) for pid in range(n) for value in values
    }
    opening = [
        draw(st.lists(
            st.tuples(st.integers(0, n - 1), st.sampled_from(MESSAGES)),
            min_size=1, max_size=3,
        ))
        for _ in range(n)
    ]
    steps = {
        (pid, state, message): (draw(local), draw(sends(message)))
        for pid in range(n)
        for state in range(states)
        for message in received
    }
    decide = [draw(st.sampled_from((None,) + values)) for _ in range(states)]
    protocol = TableProtocol(initial, opening, steps, decide, uses_null_steps)
    vectors = list(itertools.product(values, repeat=n))
    if draw(st.booleans()):
        chosen = draw(st.lists(
            st.sampled_from(vectors), min_size=1, max_size=4, unique=True,
        ))
    else:
        chosen = None

    def build():
        return AsyncConsensusSystem(
            protocol, n, input_vectors=chosen, values=values
        )

    return build


@settings(max_examples=80, deadline=None)
@given(table_systems())
def test_random_tables_match_reference(build):
    kernel = ValencyAnalyzer(build(), max_configurations=1500)
    reference = ReferenceValencyAnalyzer(
        HiddenCodec(build()), max_configurations=1500
    )
    assert_same_analysis(kernel, reference)


# ---------------------------------------------------------------------------
# Shared-object systems: no codec, same fused pass


@pytest.mark.parametrize("protocol, n", [
    (RegisterConsensus, 2), (TasConsensus2, 2), (TasConsensus3, 3),
    (QueueConsensus2, 2),
])
def test_object_systems_match_reference(protocol, n):
    kernel = ValencyAnalyzer(ObjectConsensusSystem(protocol(), n))
    reference = ReferenceValencyAnalyzer(ObjectConsensusSystem(protocol(), n))
    assert kernel.cache.codec is None
    assert_same_analysis(kernel, reference)


# ---------------------------------------------------------------------------
# Budgets and code-field overflow


@pytest.mark.parametrize("candidate, n", [
    (flp.QuorumVote, 3), (flp.FirstMessageWins, 2),
])
def test_budget_raises_at_the_reference_count(candidate, n):
    reachable = len(_labelled(ValencyAnalyzer, candidate, n)._masks)
    for cap in (reachable - 1, reachable):
        outcomes = []
        for make, wrap in ((ValencyAnalyzer, lambda s: s),
                           (ReferenceValencyAnalyzer, HiddenCodec)):
            analyzer = make(
                wrap(AsyncConsensusSystem(candidate(), n)),
                max_configurations=cap,
            )
            outcomes.append((label(analyzer), len(analyzer._masks),
                             len(analyzer.cache.interner)))
        assert outcomes[0] == outcomes[1]
        raised = outcomes[0][0] is not None
        assert raised == (cap < reachable)


def _labelled(make, candidate, n):
    analyzer = make(AsyncConsensusSystem(candidate(), n))
    analyzer.classify_initial()
    return analyzer


def test_agreement_cap_of_zero_raises_at_once():
    analyzer = ValencyAnalyzer(AsyncConsensusSystem(flp.FirstMessageWins(), 2))
    with pytest.raises(SearchBudgetExceeded):
        analyzer.find_agreement_violation(max_configurations=0)
    assert analyzer.find_agreement_violation() is not None


class Flood(AsyncProtocol):
    """Sends ``copies`` of one message per step: a buffer flood."""

    name = "flood"

    def __init__(self, copies):
        self.copies = copies

    def initial_state(self, pid, n, input_value):
        return input_value

    def transition(self, pid, state, message):
        return state, ((pid, "m"),) * self.copies

    def decision(self, state):
        return state


@pytest.mark.parametrize("copies", [
    1 << (COUNT_BITS - 1),  # one delta alone reaches the limit
    (1 << (COUNT_BITS - 2)) + 1,  # the count outgrows it in two steps
])
def test_buffer_flood_is_a_structured_error(copies):
    analyzer = ValencyAnalyzer(
        AsyncConsensusSystem(Flood(copies), 2, input_vectors=[(0, 1)])
    )
    with pytest.raises(EncodingOverflow) as info:
        analyzer.classify_initial()
    assert info.value.field == (0, "m") or info.value.field == (1, "m")
    assert info.value.limit == (1 << (COUNT_BITS - 1)) - 1
    # Below the limit the flood is just a (budget-bounded) search.
    small = ValencyAnalyzer(
        AsyncConsensusSystem(Flood(3), 2, input_vectors=[(0, 1)]),
        max_configurations=50,
    )
    with pytest.raises(SearchBudgetExceeded) as info:
        small.classify_initial()
    assert not isinstance(info.value, EncodingOverflow)
