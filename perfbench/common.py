"""Shared pieces of the workloads: pass results and engine imports."""

from __future__ import annotations

import importlib
import statistics
import sys
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Sequence

from tracer import Tracer


@dataclass
class PassResult:
    """One timed pass of a workload.

    ``heavy_ms``/``light_ms`` are per-operation latencies split by the
    workload's own heavy/light rule; ``failures`` holds one line per
    operation the correctness oracle rejected.
    """

    wall_s: float
    heavy_ms: List[float]
    light_ms: List[float]
    attempted: int
    failures: List[str] = field(default_factory=list)
    store_stats: Dict[str, int] = field(default_factory=dict)


def forget_repro() -> None:
    """Drop every loaded ``repro`` module, so the next import loads it anew.

    The runner calls this before each set-up: set-up time then includes
    importing the engines, as it does for a user starting the program,
    and repeating it gives several set-up samples in one process.
    """
    for name in [m for m in sys.modules if m == "repro" or m.startswith("repro.")]:
        del sys.modules[name]


def import_engines(names: Sequence[str]) -> list:
    """The modules ``names``, imported now rather than on first use."""
    return [importlib.import_module(name) for name in names]


def percentile(values: Sequence[float], pct: int) -> float:
    """The ``pct``-th percentile (inclusive interpolation)."""
    if len(values) == 1:
        return float(values[0])
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1]


@contextmanager
def timed_section(tracer: Optional[Tracer]) -> Iterator[None]:
    """The ``bench.pass`` root span around a pass's timed section."""
    if tracer is None:
        yield
        return
    index = tracer.open("bench.pass")
    try:
        yield
    finally:
        tracer.close(index)
