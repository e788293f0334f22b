"""End-to-end benchmark of the repro library.

Usage, from the repository root::

    python3 perfbench/run.py --workload proofs --seed 1 --seconds 48 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 48 --trace 0

One workload runs per process, serially (one worker, no threads).  The
run sets the workload up several times (fresh engine imports, seeded
inputs, ``gc.collect()``), in batches spread over the run, and reports
the median as ``setup_s``; it runs whole passes, each on the newest
set-up, for about ``--seconds`` (it stops at the pass boundary nearest
to that time), checks every output with the workload's oracle and
prints each metric by name with its unit.  The
last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``; the exit code is
1 when the oracle rejected an operation.

``--trace 0`` reports the end-to-end metrics from untraced passes.
``--trace 1`` alternates untraced and traced passes and reports the
per-layer metrics of the traced ones plus the tracing overhead; the
spans of the last traced pass are written to ``<out>/spans-*.jsonl``.

``--workload all`` runs every workload, each in its own process, and
with ``--record FILE`` writes their results to one JSON file.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Dict, List

import layers
from common import forget_repro, percentile
from tracer import Patches, Tracer

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"

WORKLOADS = {
    "proofs": ("proofs_workload", "ProofsJob"),
    "campaign_service": ("campaign_service_workload", "CampaignServiceJob"),
}
#: Set-ups per run, in batches at the start, a third and two thirds of
#: the way through it.
SETUP_REPEATS = 15
SETUP_BATCHES = 3

END_TO_END = (
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("ops_per_s", "1/s"),
    ("light_mean_ms", "ms"),
)


def _measure(job_class, seed: int, size: str, workdir: str, seconds: float,
             one_pass) -> List[float]:
    """Set the workload up ``SETUP_REPEATS`` times in ``SETUP_BATCHES``
    batches, and call ``one_pass(job)`` on the newest job until the
    pass boundary nearest to ``seconds``; the set-up times.

    On a shared VM the CPU's speed drifts in phases of seconds to
    minutes, so set-ups made at one moment all land in one phase; spread
    over the run, their median less often does.  The count is fixed,
    because every set-up re-imports the engines and the process keeps
    part of each import (peak RSS).
    """
    setups = []

    def set_up():
        gc.collect()  # the last pass's garbage is not set-up work
        began = time.perf_counter()
        forget_repro()
        job = job_class(seed, size, workdir)
        gc.collect()
        setups.append(time.perf_counter() - began)
        return job

    def batch():
        for _ in range(SETUP_REPEATS // SETUP_BATCHES):
            job = set_up()
        return job

    job = batch()
    elapsed = 0.0  # in passes; the set-ups between them do not count
    batches = 1
    while True:
        began = time.perf_counter()
        one_pass(job)
        last = time.perf_counter() - began
        elapsed += last
        # Stop where the total lands nearest to ``seconds``: before the
        # next pass if, at this pass's length, it would overshoot by more
        # than it now falls short.
        if elapsed + last / 2 >= seconds:
            return setups
        if (batches < SETUP_BATCHES
                and elapsed >= seconds * batches / SETUP_BATCHES):
            job = batch()
            batches += 1


def _end_to_end(job_class, seed, size, workdir, seconds):
    passes = []
    setups = _measure(job_class, seed, size, workdir, seconds,
                      lambda job: passes.append(job.run_pass()))

    def pooled(attr: str, pct: int) -> float:
        """The percentile over every operation of the class in the run."""
        return percentile([ms for p in passes for ms in getattr(p, attr)], pct)

    wall_s = sum(p.wall_s for p in passes)
    # Printed for readers, not bounded: see perfbench/RATIONALE.md.
    print(f"passes = {len(passes)}, pass_s = {wall_s / len(passes):.6g} s "
          f"(mean), heavy_p50 = {pooled('heavy_ms', 50):.6g} ms, "
          f"light_p90 = {pooled('light_ms', 90):.6g} ms")
    values = {
        "setup_s": statistics.median(setups),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "ops_per_s": sum(p.attempted for p in passes) / wall_s,
        "light_mean_ms": statistics.fmean(
            ms for p in passes for ms in p.light_ms
        ),
    }
    return passes, {name: (values[name], unit) for name, unit in END_TO_END}


def _per_layer(job_class, seed, size, workdir, seconds, spans_path: Path):
    untraced, traced, samples = [], [], []

    def pair(job):
        untraced.append(job.run_pass())
        tracer = Tracer()
        patches = Patches()
        layers.install(tracer, patches)
        try:
            result = job.run_pass(tracer)
        finally:
            patches.restore()
        traced.append(result)
        samples.append(layers.derive(tracer, result.store_stats))
        # Written here rather than kept: spans left on the heap would slow
        # the garbage collector during the next untraced pass.
        tracer.write_spans(str(spans_path))

    _measure(job_class, seed, size, workdir, seconds, pair)
    # Means throughout, so the layer self times (means over the traced
    # passes) sum to no more than trace.pass_s.
    values = {name: statistics.fmean(s[name] for s in samples)
              for name in samples[0]}
    values["trace.pass_s"] = statistics.fmean(p.wall_s for p in traced)
    values["trace.untraced_pass_s"] = statistics.fmean(
        p.wall_s for p in untraced
    )
    # Per adjacent pair, so a cold first pass or a drift in machine speed
    # does not land on one side only.
    values["trace.overhead_ratio"] = statistics.median(
        t.wall_s / u.wall_s for t, u in zip(traced, untraced)
    )
    return untraced + traced, {
        name: (values[name], unit) for name, unit in layers.per_layer_metrics()
    }


def run_workload(
    workload: str, seed: int, seconds: float, trace: bool, size: str, out: Path
) -> Dict:
    """Set up, measure and check one workload; the result object."""
    (out / "work").mkdir(parents=True, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{workload}-", dir=out / "work")
    module_name, class_name = WORKLOADS[workload]
    job_class = getattr(importlib.import_module(module_name), class_name)
    try:
        if trace:
            spans = out / f"spans-{workload}-seed{seed}.jsonl"
            passes, metrics = _per_layer(job_class, seed, size, workdir,
                                         seconds, spans)
        else:
            passes, metrics = _end_to_end(job_class, seed, size, workdir,
                                          seconds)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    failures = [line for p in passes for line in p.failures]
    for line in failures[:20]:
        print(f"FAILED: {line}", file=sys.stderr)
    return {
        "correct": not failures,
        "attempted": sum(p.attempted for p in passes),
        "failed": len(failures),
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in metrics.items()
        },
    }


def _run_all(args) -> int:
    """Each workload in its own process; print and optionally record."""
    results = {}
    for workload in WORKLOADS:
        command = [sys.executable, str(HERE / "run.py"), "--workload", workload,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(args.trace), "--out", str(args.out)]
        done = subprocess.run(command, capture_output=True, text=True,
                              check=False)
        sys.stderr.write(done.stderr)
        lines = done.stdout.splitlines()
        # Exit 1 with a result line means the oracle rejected operations.
        if done.returncode not in (0, 1) or not lines:
            print(f"perfbench: {workload} exited {done.returncode}",
                  file=sys.stderr)
            return done.returncode or 1
        print(f"[{workload}]")
        print("\n".join(lines[:-1]))
        results[workload] = json.loads(lines[-1])
    if args.record:
        Path(args.record).write_text(json.dumps(results, indent=2) + "\n")
    return 0 if all(r["correct"] for r in results.values()) else 1


def main(argv: List[str] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, default=Path(".perfbench-out"),
                        help="scratch stores and span files")
    parser.add_argument("--record", help="with --workload all: results file")
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no repro sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.workload == "all":
        return _run_all(args)
    result = run_workload(args.workload, args.seed, args.seconds,
                          bool(args.trace), "full", args.out)
    for name, metric in result["metrics"].items():
        print(f"{name} = {metric['value']:.6g} {metric['unit']}")
    print(f"error_rate = {result['failed'] / result['attempted']:.6g} "
          f"({result['failed']} of {result['attempted']} operations)")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
