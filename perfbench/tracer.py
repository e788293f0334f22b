"""In-memory span recorder for the traced benchmark run.

Spans are ``[name, start_ns, end_ns, parent]`` lists kept in one flat
list while a pass runs; nothing is written until the pass has ended.
The program under test is never edited: :class:`Patches` swaps public
functions and methods of ``repro`` for recording wrappers for the
duration of one traced pass and puts the originals back afterwards.

A layer's self time is its span's duration minus the time its direct
child spans cover.  The run is serial, so children nest strictly inside
their parent and the covered time is the sum of their durations.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import defaultdict
from typing import Any, Callable, Dict, List, Optional


class Tracer:
    """Spans plus named counters for one traced pass."""

    def __init__(self) -> None:
        self.spans: List[list] = []
        self.counters: Dict[str, float] = defaultdict(float)
        self._stack: List[int] = []

    def open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter_ns(), 0, parent])
        index = len(self.spans) - 1
        self._stack.append(index)
        return index

    def close(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter_ns()
        self._stack.pop()

    def innermost(self) -> Optional[str]:
        return self.spans[self._stack[-1]][0] if self._stack else None

    def call(self, name: str, fn: Callable, *args, **kwargs):
        """Run ``fn`` inside a span called ``name``."""
        index = self.open(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self.close(index)

    def wrap(
        self,
        name: Optional[str],
        fn: Callable,
        on_result: Optional[Callable[[tuple, dict, Any], None]] = None,
    ) -> Callable:
        """A recording wrapper around ``fn``.

        ``name=None`` records no span, only ``on_result``.  A call made
        while the innermost open span already has this name (a subclass
        method calling ``super()``) is passed through, so each logical
        call is counted once.
        """
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if name is None or tracer.innermost() == name:
                result = fn(*args, **kwargs)
            else:
                result = tracer.call(name, fn, *args, **kwargs)
            if on_result is not None:
                on_result(args, kwargs, result)
            return result

        return traced

    def layer_totals(self) -> Dict[str, Dict[str, float]]:
        """name -> calls and self seconds."""
        covered = [0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        totals: Dict[str, Dict[str, float]] = {}
        for (name, start, end, _parent), child_ns in zip(self.spans, covered):
            entry = totals.setdefault(name, {"calls": 0, "s": 0.0})
            entry["calls"] += 1
            entry["s"] += (end - start - child_ns) / 1e9
        return totals

    def write_spans(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for name, start, end, parent in self.spans:
                handle.write(json.dumps([name, start, end, parent]) + "\n")


class Patches:
    """Install recording wrappers into ``repro`` and undo them."""

    def __init__(self) -> None:
        self._undo: List[tuple] = []

    def _set(self, owner: Any, attr: str, value: Any) -> None:
        if isinstance(owner, dict):
            self._undo.append((owner, attr, owner[attr]))
            owner[attr] = value
        else:
            self._undo.append((owner, attr, owner.__dict__[attr]))
            setattr(owner, attr, value)

    def function(self, module: Any, attr: str, wrapper: Callable) -> None:
        """Replace ``module.attr`` everywhere ``repro`` imported it by name."""
        original = getattr(module, attr)
        for name, loaded in list(sys.modules.items()):
            if (name == "repro" or name.startswith("repro.")) and (
                loaded is not None and loaded.__dict__.get(attr) is original
            ):
                self._set(loaded, attr, wrapper)

    def method(self, cls: type, attr: str, wrapper: Callable) -> None:
        self._set(cls, attr, wrapper)

    def item(self, mapping: dict, key: str, wrapper: Callable) -> None:
        self._set(mapping, key, wrapper)

    def restore(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            if isinstance(owner, dict):
                owner[attr] = original
            else:
                setattr(owner, attr, original)
