"""The E6 valency labelling as it was before the fused integer pass —
kept only as the differential reference for
``tests/test_e6_kernel_differential.py``.

:class:`HiddenCodec` wraps a decision system so the transition cache
sees no configuration codec: configurations are interned frozen, and
rows are built through ``events``/``apply``.  :class:`ReferenceValencyAnalyzer`
labels with the visit-by-visit Tarjan pass (one ``ensure_expanded``,
``decided_values_of`` and ``masks.set`` call per node).
:func:`reference_path` runs :func:`repro.asynchronous.flp.flp_analysis`
unchanged on both.
"""

from __future__ import annotations

import contextlib
from typing import List, Sequence
from unittest import mock

from repro.asynchronous import flp
from repro.asynchronous.network import AsyncConsensusSystem
from repro.core.errors import SearchBudgetExceeded
from repro.impossibility.bivalence import DecisionSystem, ValencyAnalyzer


class HiddenCodec(DecisionSystem):
    """``system`` with its configuration codec hidden."""

    def __init__(self, system):
        self.inner = system

    def __getattr__(self, name):
        return getattr(self.inner, name)

    @property
    def processes(self):
        return self.inner.processes

    @property
    def values(self):
        return self.inner.values

    def initial_configurations(self):
        return self.inner.initial_configurations()

    def events(self, config):
        return self.inner.events(config)

    def owner(self, event):
        return self.inner.owner(event)

    def apply(self, config, event):
        return self.inner.apply(config, event)

    def decisions(self, config):
        return self.inner.decisions(config)

    def decided_values(self, config):
        return self.inner.decided_values(config)

    def fair_events(self, config):
        return self.inner.fair_events(config)


class ReferenceValencyAnalyzer(ValencyAnalyzer):
    """:class:`ValencyAnalyzer` with the visit-by-visit labelling pass."""

    def _label_ids(self, roots: Sequence[int]) -> None:
        """Label every configuration in the cones of the ``roots`` ids.

        One forward expansion discovers the not-yet-labelled subgraph
        (already-labelled ids act as boundary: their valencies are
        final).  Tarjan's algorithm then emits its strongly connected
        components sinks-first, so a single reverse-topological sweep —
        union of own decided-value masks and all successor masks —
        computes the exact fixpoint without iteration.
        """
        cache = self.cache
        masks = self._masks
        roots = [sid for sid in roots if masks.get(sid) < 0]
        if not roots:
            return
        # One fused pass: iterative Tarjan SCC over the unlabelled cone,
        # expanding rows lazily the first time a node is visited.
        # Components pop off in reverse topological order of the
        # condensation, so every cross-edge target is already labelled
        # when its source's component is processed.  All bookkeeping is
        # raw and id-indexed — index/lowlink are flat lists, the
        # recursion stack holds [id, cursor, row_end] frames over the
        # CSR row offsets, and valencies union as int masks.  A child is
        # *boundary* (valency final, do not recurse) exactly when its
        # mask is already set and it is not part of this pass.
        graph = cache.graph
        ensure_expanded = cache.ensure_expanded
        mvals = masks._vals
        succ = graph._succ
        gstart = graph._start
        gend = graph._end
        total = len(cache.interner)
        index: List[int] = [-1] * total
        low: List[int] = [0] * total
        on_stack = bytearray(total)
        scc_stack: List[int] = []
        counter = 0
        new_count = 0
        already = len(masks)
        max_configurations = self.max_configurations
        value_table = self._value_table
        decided_values_of = cache.decided_values_of

        def visit(sid: int) -> None:
            # First touch of ``sid`` in this pass: budget, expand, index.
            nonlocal counter, new_count, total
            new_count += 1
            if new_count + already > max_configurations:
                raise SearchBudgetExceeded(
                    f"valency analysis exceeded {max_configurations} configurations"
                )
            ensure_expanded(sid)
            grown = len(cache.interner)
            if grown > total:
                index.extend([-1] * (grown - total))
                low.extend([0] * (grown - total))
                on_stack.extend(b"\x00" * (grown - total))
                total = grown
            index[sid] = low[sid] = counter
            counter += 1
            scc_stack.append(sid)
            on_stack[sid] = 1

        for root in roots:
            if index[root] >= 0 or (root < len(mvals) and mvals[root] >= 0):
                continue
            visit(root)
            work: List[List[int]] = [[root, gstart[root], gend[root]]]
            while work:
                frame = work[-1]
                node, cursor, row_end = frame
                advanced = False
                while cursor < row_end:
                    child = succ[cursor]
                    cursor += 1
                    if index[child] < 0:
                        if child < len(mvals) and mvals[child] >= 0:
                            continue  # boundary: labelled before this pass
                        frame[1] = cursor
                        visit(child)
                        work.append([child, gstart[child], gend[child]])
                        advanced = True
                        break
                    if on_stack[child] and index[child] < low[node]:
                        low[node] = index[child]
                if advanced:
                    continue
                work.pop()
                if work:
                    parent = work[-1][0]
                    if low[node] < low[parent]:
                        low[parent] = low[node]
                if low[node] == index[node]:
                    # Pop one SCC and label it: union of member decision
                    # masks and of every outgoing mask (final by now).
                    component: List[int] = []
                    while True:
                        member = scc_stack.pop()
                        on_stack[member] = 0
                        component.append(member)
                        if member == node:
                            break
                    valency = 0
                    for member in component:
                        vals = decided_values_of(member)
                        if vals:
                            valency |= value_table.mask_of(vals)
                    if len(component) == 1:
                        sole = component[0]
                        for i in range(gstart[sole], gend[sole]):
                            child = succ[i]
                            if child != sole:
                                valency |= mvals[child]
                    else:
                        in_component = set(component)
                        for member in component:
                            for i in range(gstart[member], gend[member]):
                                child = succ[i]
                                if child in in_component:
                                    continue
                                valency |= mvals[child]
                    for member in component:
                        masks.set(member, valency)
                    mvals = masks._vals


@contextlib.contextmanager
def reference_path():
    """Run ``flp_analysis`` on frozen configurations and the reference
    labelling pass."""
    def system(protocol, n):
        return HiddenCodec(AsyncConsensusSystem(protocol, n))

    with mock.patch.object(flp, "AsyncConsensusSystem", system), \
            mock.patch.object(flp, "ValencyAnalyzer", ReferenceValencyAnalyzer):
        yield
