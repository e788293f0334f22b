"""Unified runtime — trace recording and replay stay cheap.

Guards the tentpole refactor: routing every substrate through the
``repro.core.runtime`` trace schema must not slow the simulators down.
Two representative workloads, each exercised end to end (run, record the
unified trace, verify by replay):

* ring election (asynchronous LCR under the seeded scheduler);
* synchronous consensus (FloodSet under a crash adversary).

A third line times what a user starting one proof pays first: a cold
import of the ``proofs`` engines, compiled from source.
"""

import json
import os
import subprocess
import sys
import tempfile

from conftest import record

from repro.consensus.floodset import FloodSet
from repro.consensus.synchronous import CrashAdversary, run_synchronous
from repro.core.runtime import replay
from repro.rings import lcr_election, worst_case_ring


def test_runtime_ring_election_traced(benchmark):
    ring = worst_case_ring(64)

    def run():
        return lcr_election(ring, seed=0)

    result = benchmark(run)
    record(benchmark, messages=result.messages,
           trace_events=len(result.trace.events))
    assert result.election_complete
    assert result.trace.fingerprint() == replay(result.trace).fingerprint()


def test_runtime_sync_consensus_traced(benchmark):
    adversary_spec = {0: (1, (2, 3))}

    def run():
        return run_synchronous(
            FloodSet(), [0, 1, 1, 0, 1, 0], adversary=CrashAdversary(dict(adversary_spec)),
            t=1,
        )

    result = benchmark(run)
    record(benchmark, decisions={str(p): d for p, d in result.decisions.items()},
           trace_events=len(result.trace.events))
    assert result.agreement_holds()
    assert result.trace.fingerprint() == replay(result.trace).fingerprint()


REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

#: Imports perfbench's ``proofs`` engines, then, per line read, drops
#: every ``repro`` module and imports the engines again, as perfbench's
#: set-up does; prints the number of ``repro`` modules loaded each time.
#: After the first import it also prints the other modules the engines
#: added (a JSON list) and the summed size of the ``repro`` source files
#: it loads (set-up compiles them, so that is what a set-up change
#: moves), and at end of input its own peak RSS in MB.  That
#: is ``VmHWM``, not ``ru_maxrss``: Linux carries the parent's high-water
#: mark into a child's ``ru_maxrss`` across exec, so under pytest it
#: would read pytest's peak.
_RELOADER = """
import importlib, json, os, sys
from common import forget_repro
from proofs_workload import ENGINES

def load():
    for name in ENGINES:
        importlib.import_module(name)
    print(sum(m.split('.')[0] == 'repro' for m in sys.modules), flush=True)

before = set(sys.modules)
load()
print(json.dumps(sorted(m for m in set(sys.modules) - before
                        if m.split('.')[0] != 'repro')), flush=True)
print(sum(os.path.getsize(m.__file__) for name, m in sys.modules.items()
          if name.split('.')[0] == 'repro'), flush=True)
for _line in sys.stdin:
    forget_repro()
    load()
with open('/proc/self/status') as status:
    kb = next(line.split()[1] for line in status if line.startswith('VmHWM:'))
print(int(kb) / 1024, flush=True)
"""


def test_proofs_engines_cold_import(benchmark):
    with tempfile.TemporaryDirectory(prefix="pycache-") as cache:
        env = dict(
            os.environ,
            PYTHONDONTWRITEBYTECODE="1",
            PYTHONPYCACHEPREFIX=cache,  # empty: no cached bytecode to read
            PYTHONPATH=os.pathsep.join(
                os.path.join(REPO, part) for part in ("src", "perfbench")
            ),
        )
        with subprocess.Popen(
            [sys.executable, "-c", _RELOADER], env=env, text=True,
            stdin=subprocess.PIPE, stdout=subprocess.PIPE,
        ) as reloader:
            first = int(reloader.stdout.readline())
            added = json.loads(reloader.stdout.readline())
            source_bytes = int(reloader.stdout.readline())

            def reimport():
                reloader.stdin.write("\n")
                reloader.stdin.flush()
                return int(reloader.stdout.readline())

            modules = benchmark.pedantic(reimport, rounds=10, iterations=1)
            reloader.stdin.close()
            peak_rss_mb = float(reloader.stdout.readline())
    record(benchmark, repro_modules=modules, repro_source_bytes=source_bytes,
           reloader_peak_rss_mb=round(peak_rss_mb, 2),
           other_modules_added=added)
    assert modules == first  # every re-import loads the same set
