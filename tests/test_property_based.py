"""Property-based tests (hypothesis) over the library's core invariants."""

import itertools

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.consensus import ByzantineAdversary, EIGByzantine, run_synchronous
from repro.impossibility import (
    find_changing_link,
    first_collision,
    guaranteed_collision_count,
    incompatible_collision,
    input_vector_chain,
    matrix_flip_chain,
    verify_chain,
)
from repro.registers import Operation, RegisterSpec, is_linearizable
from repro.rings import hs_election, lcr_election


# ---------------------------------------------------------------------------
# The linearizability checker vs. a brute-force oracle
# ---------------------------------------------------------------------------

def brute_force_linearizable(history, initial=0):
    """Oracle: try every permutation respecting real-time order."""
    n = len(history)
    for perm in itertools.permutations(range(n)):
        ok = True
        for i in range(n):
            for j in range(i + 1, n):
                if history[perm[j]].precedes(history[perm[i]]):
                    ok = False
                    break
            if not ok:
                break
        if not ok:
            continue
        spec = RegisterSpec(initial)
        legal = True
        for index in perm:
            op = history[index]
            result = spec.apply(op.kind, op.argument)
            if op.kind == "read" and result != op.result:
                legal = False
                break
        if legal:
            return True
    return False


@st.composite
def small_register_histories(draw):
    """Random histories of <= 4 operations over values {0, 1}."""
    count = draw(st.integers(min_value=1, max_value=4))
    ops = []
    for i in range(count):
        start = draw(st.floats(min_value=0, max_value=10))
        length = draw(st.floats(min_value=0.1, max_value=5))
        kind = draw(st.sampled_from(["read", "write"]))
        if kind == "write":
            ops.append(Operation(f"p{i}", "write",
                                 draw(st.integers(0, 1)), None,
                                 start, start + length))
        else:
            ops.append(Operation(f"p{i}", "read", None,
                                 draw(st.integers(0, 1)),
                                 start, start + length))
    return ops


class TestLinearizabilityOracle:
    @settings(max_examples=120, deadline=None)
    @given(small_register_histories())
    def test_checker_agrees_with_brute_force(self, history):
        fast = is_linearizable(history, lambda: RegisterSpec(0)) is not None
        slow = brute_force_linearizable(history, initial=0)
        assert fast == slow


# ---------------------------------------------------------------------------
# Ring elections on arbitrary ID arrangements
# ---------------------------------------------------------------------------

class TestElectionProperties:
    @settings(max_examples=30, deadline=None)
    @given(st.permutations(list(range(1, 9))))
    def test_lcr_always_elects_the_maximum(self, idents):
        result = lcr_election(list(idents))
        assert result.election_complete
        assert idents[result.leaders[0]] == max(idents)

    @settings(max_examples=30, deadline=None)
    @given(st.permutations(list(range(1, 9))))
    def test_hs_always_elects_the_maximum(self, idents):
        result = hs_election(list(idents))
        assert result.elected_exactly_one
        assert idents[result.leaders[0]] == max(idents)

    @settings(max_examples=30, deadline=None)
    @given(st.permutations(list(range(1, 9))))
    def test_lcr_message_bounds(self, idents):
        n = len(idents)
        result = lcr_election(list(idents))
        # Probes alone lie between n and n(n+1)/2; announcements add n-ish.
        assert n <= result.messages <= n * (n + 1) // 2 + n


# ---------------------------------------------------------------------------
# Chain builders
# ---------------------------------------------------------------------------

class TestChainProperties:
    @settings(max_examples=30, deadline=None)
    @given(st.integers(min_value=1, max_value=8))
    def test_input_chain_shape(self, n):
        chain = input_vector_chain(n)
        assert len(chain) == n + 1
        assert chain[0] == tuple([0] * n)
        assert chain[-1] == tuple([1] * n)
        assert verify_chain(
            chain,
            linked=lambda a, b: sum(x != y for x, y in zip(a, b)) == 1,
        ) is None

    @settings(max_examples=20, deadline=None)
    @given(st.integers(min_value=1, max_value=4),
           st.integers(min_value=1, max_value=4))
    def test_matrix_chain_shape(self, rows, cols):
        chain = matrix_flip_chain(rows, cols)
        assert len(chain) == rows * cols + 1
        assert verify_chain(
            chain,
            linked=lambda a, b: sum(
                x != y for ra, rb in zip(a, b) for x, y in zip(ra, rb)
            ) == 1,
        ) is None

    @settings(max_examples=50, deadline=None)
    @given(st.integers(min_value=1, max_value=100),
           st.integers(min_value=1, max_value=10))
    def test_pigeonhole_count(self, items, holes):
        count = guaranteed_collision_count(items, holes)
        assert (count - 1) * holes < items <= count * holes

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.integers(0, 9), max_size=12),
           st.integers(min_value=1, max_value=6))
    def test_first_collision_matches_brute_force(self, items, holes):
        def key(x):
            return x % holes

        # Oracle: the earliest second arrival, paired with the first item
        # that landed in its hole.
        expected = None
        for j in range(len(items)):
            earlier = [i for i in range(j) if key(items[i]) == key(items[j])]
            if earlier:
                expected = (items[earlier[0]], items[j])
                break
        assert first_collision(items, key) == expected

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.tuples(st.integers(0, 3), st.integers(0, 2)),
                    max_size=10))
    def test_incompatible_collision_matches_brute_force(self, items):
        def key(item):
            return item[0]

        def incompatible(a, b):
            return a[1] != b[1]

        exists = any(
            key(a) == key(b) and incompatible(a, b)
            for a, b in itertools.combinations(items, 2)
        )
        found = incompatible_collision(items, key, incompatible)
        if not exists:
            assert found is None
        else:
            a, b = found
            assert a in items and b in items
            assert key(a) == key(b) and incompatible(a, b)

    @settings(max_examples=30, deadline=None)
    @given(st.integers(min_value=1, max_value=8))
    def test_majority_changes_along_the_input_chain(self, n):
        chain = input_vector_chain(n)

        def majority(vector):
            return int(2 * sum(vector) > n)

        index, left, right = find_changing_link(chain, majority)
        assert left != right
        assert (left, right) == (majority(chain[index]),
                                 majority(chain[index + 1]))
        assert all(majority(v) == left for v in chain[:index + 1])
        assert find_changing_link(chain, lambda vector: "same") is None

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.integers(0, 2), max_size=10))
    def test_changing_link_matches_brute_force(self, labels):
        expected = next(
            ((i, labels[i], labels[i + 1])
             for i in range(len(labels) - 1) if labels[i] != labels[i + 1]),
            None,
        )
        assert find_changing_link(list(range(len(labels))),
                                  labels.__getitem__) == expected


# ---------------------------------------------------------------------------
# Byzantine agreement under arbitrary first-round lies
# ---------------------------------------------------------------------------

class TestEIGRobustness:
    @settings(max_examples=25, deadline=None)
    @given(
        st.tuples(*[st.integers(0, 1) for _ in range(4)]),
        st.lists(st.integers(0, 1), min_size=3, max_size=3),
    )
    def test_agreement_under_arbitrary_lies(self, inputs, lies):
        """Whatever the Byzantine process tells each honest peer in round
        one, the honest processes agree (n = 4 > 3t = 3)."""
        lie_table = {dest: lies[i] for i, dest in enumerate(range(3))}

        def behaviour(rnd, src, dest, honest):
            if rnd == 1:
                return (((), lie_table[dest]),)
            return honest

        adversary = ByzantineAdversary([3], behaviour)
        run = run_synchronous(EIGByzantine(), list(inputs),
                              adversary=adversary, t=1)
        assert run.agreement_holds()
        assert run.validity_holds()
