"""The parallel fabric's headline guarantee: workers never change answers.

Every consumer of :mod:`repro.parallel` — sharded chaos campaigns —
must produce results *bit-identical* to its serial twin, including under budget overdrafts and across resume
boundaries.  Hypothesis drives the equivalence over seeds, shard widths
and roster subsets; fixed-seed tests pin the budget and resume paths; a
subprocess test proves the whole pipeline is independent of
``PYTHONHASHSEED``.
"""

import os
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.chaos.campaign import run_campaign
from repro.chaos.targets import (
    AlternatingBitTarget,
    FloodSetCrashTarget,
    LCRRingTarget,
    default_targets,
)
from repro.core.budget import Budget
from repro.parallel import WorkerPool, resolve_workers
from repro.registers.exhaustive import search_register_consensus


def _campaign_summary(report):
    return (
        report.results,
        [cx.fingerprint for cx in report.counterexamples],
        [cx.trace.fingerprint() for cx in report.counterexamples],
        report.complete,
        report.resume_at,
    )


# ---------------------------------------------------------------------------
# Primitives


def test_resolve_workers():
    assert resolve_workers(None) == 1
    assert resolve_workers(0) == 1
    assert resolve_workers(1) == 1
    assert resolve_workers(3) == 3
    assert resolve_workers("auto") >= 1
    with pytest.raises(ValueError):
        resolve_workers(-2)


def test_worker_pool_serial_fallback_runs_in_process():
    pids = []

    def length(item):
        pids.append(os.getpid())
        return len(item)

    items = [(1, 2), (3,), ()]
    with WorkerPool(1) as pool:
        assert list(pool.map_stream(length, items)) == list(
            zip(items, [2, 1, 0])
        )
    assert pids == [os.getpid()] * 3  # workers=1 never leaves the parent


# ---------------------------------------------------------------------------
# Sharded campaigns == serial campaigns


@settings(max_examples=6, deadline=None)
@given(
    master_seed=st.integers(0, 2**16),
    runs=st.integers(1, 5),
    workers=st.integers(2, 4),
    roster=st.sampled_from(
        [
            (FloodSetCrashTarget,),
            (AlternatingBitTarget, LCRRingTarget),
            (FloodSetCrashTarget, AlternatingBitTarget),
        ]
    ),
)
def test_campaign_equivalence(master_seed, runs, workers, roster):
    targets = [cls() for cls in roster]
    serial = run_campaign(
        targets=targets, runs=runs, master_seed=master_seed, shrink_checks=8
    )
    sharded = run_campaign(
        targets=[cls() for cls in roster],
        runs=runs,
        master_seed=master_seed,
        shrink_checks=8,
        workers=workers,
    )
    assert _campaign_summary(sharded) == _campaign_summary(serial)


def test_campaign_budget_fanin_and_resume_match_serial():
    """Overdraft mid-campaign, then resume — both legs identical."""
    roster = lambda: default_targets()[:3]  # noqa: E731
    budget = Budget(max_steps=7)
    serial = run_campaign(targets=roster(), runs=4, master_seed=1, budget=budget)
    sharded = run_campaign(
        targets=roster(), runs=4, master_seed=1, budget=budget, workers=3
    )
    assert not serial.complete and serial.resume_at
    assert _campaign_summary(sharded) == _campaign_summary(serial)

    serial_rest = run_campaign(
        targets=roster(), runs=4, master_seed=1, resume=serial
    )
    sharded_rest = run_campaign(
        targets=roster(), runs=4, master_seed=1, resume=sharded, workers=2
    )
    assert serial_rest.complete
    assert _campaign_summary(sharded_rest) == _campaign_summary(serial_rest)


# ---------------------------------------------------------------------------
# Budgeted and resumed register search == full register search


def test_register_search_equivalence_full_and_budgeted():
    serial = search_register_consensus(depth=1)

    budget = Budget(max_steps=20)
    part_serial = search_register_consensus(depth=1, budget=budget)
    assert not part_serial.complete and part_serial.resume_at == 20

    rest_serial = search_register_consensus(depth=1, resume=part_serial)
    assert rest_serial == serial


# ---------------------------------------------------------------------------
# PYTHONHASHSEED hardening

_HASHSEED_PROBE = """\
import json
from repro.chaos.campaign import run_campaign
from repro.chaos.targets import FloodSetCrashTarget, LCRRingTarget
from repro.core.runtime import Trace, TraceEvent, derive_seed
from repro.service.keys import QueryKey

report = run_campaign(
    targets=[FloodSetCrashTarget(), LCRRingTarget()],
    runs=6, master_seed=0, shrink_checks=16, workers=2,
)
letters = frozenset("abcdefgh")
nested = frozenset({frozenset({"x", "y"}), frozenset("z"), ("w", letters)})
trace = Trace("probe", "string-set", 0, (TraceEvent(0, "p", "send", letters),))
print(json.dumps({
    "verdicts": [r.verdict for r in report.results],
    "seeds": [r.seed for r in report.results],
    "counterexamples": [cx.trace.fingerprint() for cx in report.counterexamples],
    "string_set_trace": trace.fingerprint(),
    "string_set_seed": derive_seed(letters, "probe"),
    "nested_set_key": QueryKey.make("probe", value=nested).fingerprint(),
}, sort_keys=True))
print("".join(letters))
"""


def test_campaign_independent_of_pythonhashseed(tmp_path):
    """The same sharded campaign under four hash seeds, four processes.

    ``derive_seed`` is sha256-based and every ordering the fabric relies
    on is explicit, so set-iteration scrambling from a different
    ``PYTHONHASHSEED`` must not leak into verdicts, seeds or artifacts.
    The canonical codec writes sets in a fixed member order, so a trace
    carrying a set of strings, a seed derived from one and a store key
    holding nested sets do not move either — while the probe's last
    line, the raw iteration order of that string set, shows the hash
    seeds did scramble it.
    """
    outputs = set()
    orders = set()
    for hashseed in ("0", "1", "2", "31337"):
        env = dict(os.environ)
        env["PYTHONHASHSEED"] = hashseed
        proc = subprocess.run(
            [sys.executable, "-c", _HASHSEED_PROBE],
            capture_output=True,
            text=True,
            env=env,
            timeout=300,
        )
        assert proc.returncode == 0, proc.stderr
        result, order = proc.stdout.splitlines()
        outputs.add(result)
        orders.add(order)
    assert len(outputs) == 1, "campaign output varies with PYTHONHASHSEED"
    assert len(orders) > 1, "the hash seeds never reordered the string set"
