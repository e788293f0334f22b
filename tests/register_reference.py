"""The E11 candidate check as it was before the shared subtree table —
kept only as the differential reference for
``tests/test_e11_kernel_differential.py``.

Each candidate program is flattened on its own (DFS-numbered subtrees),
gets its own per-local-id tables, and is model-checked by a BFS over a
bytearray visited set sized to that program.
"""

from __future__ import annotations

from collections import deque
from typing import List, Tuple

from repro.registers.exhaustive import (
    Program,
    ProgramConsensus,
    enumerate_programs,
)
from repro.registers.herlihy import ObjectConsensusSystem, wait_free_verdict


def _flatten_program(
    program: Program,
) -> Tuple[List[int], List, List[int]]:
    """DFS-number the subtrees of ``program``.

    Returns ``(kinds, args, heights)`` indexed by node id: kind 0 is a
    decide leaf (arg = leaf tag), 1 a write (arg = ``(value_tag,
    sub_nid)``), 2 a read (arg = ``(if0_nid, if1_nid)``).  ``heights``
    is the max accesses remaining below each node, used to discharge
    wait-freedom structurally.
    """
    kinds: List[int] = []
    args: List = []
    heights: List[int] = []

    def visit(tree: Program) -> int:
        nid = len(kinds)
        kinds.append(0)
        args.append(None)
        heights.append(0)
        op = tree[0]
        if op == "write":
            sub = visit(tree[2])
            kinds[nid] = 1
            args[nid] = (tree[1], sub)
            heights[nid] = 1 + heights[sub]
        elif op == "read":
            if0 = visit(tree[1])
            if1 = visit(tree[2])
            kinds[nid] = 2
            args[nid] = (if0, if1)
            heights[nid] = 1 + max(heights[if0], heights[if1])
        else:
            args[nid] = tree[1]
        return nid

    visit(program)
    return kinds, args, heights


def _packed_verdict_kind(program: Program, solo_bound: int) -> str:
    """Classify one candidate over a dense integer state encoding.

    A configuration of :class:`ProgramConsensus` is two local states
    ``(pid, input, seen, subtree)`` plus two binary registers.  ``pid``
    is positional and ``input`` never changes, so a local state packs
    into a small id ``(node, input, seen)`` and a whole configuration
    into one int — the BFS of :func:`wait_free_verdict` then runs as
    integer arithmetic over a bytearray visited-set, with no frozen
    containers, hashing, or per-event object allocation.  Equivalence
    with the generic verdict on the full class is pinned by test.

    Wait-freedom is discharged structurally: a solo run from node ``v``
    decides after at most ``height(v)`` accesses (programs are trees, so
    solo runs neither halt undecided nor cycle), hence it can only fail
    when the tree is deeper than the solo bound — in which case we defer
    to the generic verdict rather than replicate its failure order.
    """
    kinds, node_args, heights = _flatten_program(program)
    if heights[0] > solo_bound:
        system = ObjectConsensusSystem(ProgramConsensus(program), 2)
        verdict = wait_free_verdict(system, solo_bound=solo_bound)
        if verdict.solves_consensus:
            return "solution"
        return verdict.failure_kind or "wait_freedom"

    # Local-state id: lid = (node * 2 + input) * 3 + (seen + 1), with
    # seen = -1 encoding "nothing read yet" (decides fall back to own
    # input, exactly ProgramConsensus._resolve).
    nnodes = len(kinds)
    L = nnodes * 6

    def resolve(tag: str, input_value: int, seen: int) -> int:
        if tag == "zero":
            return 0
        if tag == "one":
            return 1
        if tag == "own":
            return input_value
        return input_value if seen < 0 else seen

    # Per-lid tables: decided value (-1 if still running), written value
    # and successor for writes, successors per read response for reads.
    dec = [-1] * L
    wval = [0] * L
    wnext = [-1] * L
    rnext = [(-1, -1)] * L
    for nid in range(nnodes):
        kind = kinds[nid]
        arg = node_args[nid]
        for input_value in (0, 1):
            for seen in (-1, 0, 1):
                lid = (nid * 2 + input_value) * 3 + (seen + 1)
                if kind == 0:
                    dec[lid] = resolve(arg, input_value, seen)
                elif kind == 1:
                    wval[lid] = resolve(arg[0], input_value, seen)
                    wnext[lid] = (arg[1] * 2 + input_value) * 3 + (seen + 1)
                else:
                    rnext[lid] = (
                        (arg[0] * 2 + input_value) * 3 + 1,  # seen := 0
                        (arg[1] * 2 + input_value) * 3 + 2,  # seen := 1
                    )

    # cfg = ((lid0 * L) + lid1) * 4 + mem0 * 2 + mem1
    seen_configs = bytearray(L * L * 4)
    queue = deque()
    for in0 in (0, 1):
        for in1 in (0, 1):
            lid0 = in0 * 3  # node 0, seen = -1
            lid1 = in1 * 3
            queue.append((lid0 * L + lid1) * 4)
    while queue:
        cfg = queue.popleft()
        if seen_configs[cfg]:
            continue
        seen_configs[cfg] = 1
        mem = cfg & 3
        rest = cfg >> 2
        lid1 = rest % L
        lid0 = rest // L
        d0 = dec[lid0]
        d1 = dec[lid1]
        if d0 >= 0 or d1 >= 0:
            if d0 >= 0 and d1 >= 0 and d0 != d1:
                return "agreement"
            # inputs are positionally encoded and immutable, so the
            # originating input vector is recoverable from the config.
            in0 = (lid0 // 3) & 1
            in1 = (lid1 // 3) & 1
            if d0 >= 0 and d0 != in0 and d0 != in1:
                return "validity"
            if d1 >= 0 and d1 != in0 and d1 != in1:
                return "validity"
        # Wait-freedom cannot fail: height(program) <= solo_bound.
        if d0 < 0:
            nxt = wnext[lid0]
            if nxt >= 0:
                child = ((nxt * L + lid1) * 4) | (wval[lid0] << 1) | (mem & 1)
            else:
                nxt = rnext[lid0][mem & 1]  # read the other's register r1
                child = ((nxt * L + lid1) * 4) | mem
            if not seen_configs[child]:
                queue.append(child)
        if d1 < 0:
            nxt = wnext[lid1]
            if nxt >= 0:
                child = ((lid0 * L + nxt) * 4) | (mem & 2) | wval[lid1]
            else:
                nxt = rnext[lid1][mem >> 1]  # read the other's register r0
                child = ((lid0 * L + nxt) * 4) | mem
            if not seen_configs[child]:
                queue.append(child)
    return "solution"


def reference_verdicts(depth: int) -> List[str]:
    """Every candidate of the class classified by the reference, in
    enumeration order, at the search's solo bound."""
    return [
        _packed_verdict_kind(program, solo_bound=depth + 2)
        for program in enumerate_programs(depth)
    ]
