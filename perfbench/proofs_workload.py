"""``proofs``: one cold pass over the certificate searches.

Operations, in order: E1 ``cremers_hibbard_certificate`` and E4
``round_lower_bound_certificate`` (the heavy class: exhaustive searches
over a whole protocol class), then the three E6 ``flp_analysis`` runs of
the dichotomy and the E11 ``search_register_consensus`` census (the
light class, repeated ``LIGHT_REPEATS`` times).  Every search is
deterministic, so the seed is unused.
The oracle compares each certificate with numbers pinned from the
current code; a mismatch or an exception fails that operation.
"""

from __future__ import annotations

import gc
import time
from typing import Callable, List, Optional, Tuple

from common import PassResult, import_engines, timed_section
from tracer import Tracer

SIZES = {
    "full": {
        "mutex": {"values": 2, "modes": 1, "symmetric": False},
        "rounds": {"n": 4, "t": 2},
        "register_depth": 2,
    },
    "tiny": {
        "mutex": {"values": 2, "modes": 1, "symmetric": True},
        "rounds": {"n": 3, "t": 1},
        "register_depth": 1,
    },
}

#: Certificate numbers of the current code, per size.
PINS = {
    "full": {
        "mutex": {"candidates": 4096, "mutual_exclusion_holders": 2016,
                  "unfair_solutions": 4, "fair_solutions": 0},
        "rounds": {"runs_checked": 56848, "witnesses": [
            ("floodset-truncated-1 (1 rounds)", "agreement"),
            ("floodset-truncated-2 (2 rounds)", "agreement"),
        ]},
        "register": {"candidates": 1124, "solutions": 0,
                     "agreement_failures": 290, "validity_failures": 834,
                     "wait_freedom_failures": 0},
    },
    "tiny": {
        "mutex": {"candidates": 64, "mutual_exclusion_holders": 28,
                  "unfair_solutions": 2, "fair_solutions": 0},
        "rounds": {"runs_checked": 200, "witnesses": [
            ("floodset-truncated-1 (1 rounds)", "agreement"),
        ]},
        "register": {"candidates": 32, "solutions": 0,
                     "agreement_failures": 12, "validity_failures": 20,
                     "wait_freedom_failures": 0},
    },
}

#: The E6 dichotomy: (candidate, n, failure mode).
FLP_CASES = (
    ("first-message-wins", 2, "agreement-violation"),
    ("quorum-vote", 3, "agreement-violation"),
    ("wait-for-all", 2, "blocks-under-crash"),
)

#: The small searches run this many times per pass, so the light-class
#: percentiles rest on enough samples; each run is cold (fresh systems).
LIGHT_REPEATS = 15

ENGINES = (
    "repro.shared_memory.lower_bounds",
    "repro.consensus.lower_bounds",
    "repro.consensus.floodset",
    "repro.asynchronous.flp",
    "repro.registers.exhaustive",
)


def _mismatch(label: str, got, want) -> Optional[str]:
    return None if got == want else f"{label}: got {got!r}, pinned {want!r}"


class ProofsJob:
    def __init__(self, seed: int, size: str, workdir: str):
        del seed, workdir  # deterministic searches, no files
        self.size = SIZES[size]
        self.pins = PINS[size]
        mutex, rounds, floodset, flp, registers = import_engines(ENGINES)
        self.mutex = mutex
        self.rounds = rounds
        self.flp = flp
        self.registers = registers
        self.floodset = floodset.FloodSet
        self.candidates = {cls.name: cls for cls in flp.ALL_CANDIDATES}

    # -- operations: (heavy?, call, check) ---------------------------------

    def _mutex_cert(self):
        return self.mutex.cremers_hibbard_certificate(**self.size["mutex"])

    def _check_mutex(self, cert) -> Optional[str]:
        got = {"candidates": cert.candidates_checked, **cert.details}
        return _mismatch("E1 certificate", got, self.pins["mutex"])

    def _round_cert(self):
        floodset = self.floodset
        return self.rounds.round_lower_bound_certificate(
            lambda r: floodset(rounds_override=r), **self.size["rounds"]
        )

    def _check_rounds(self, cert) -> Optional[str]:
        got = {
            "runs_checked": cert.details["full_protocol_runs_checked"],
            "witnesses": [(w.candidate, w.property_violated)
                          for w in cert.witnesses],
        }
        return _mismatch("E4 certificate", got, self.pins["rounds"])

    def _flp_op(self, name: str, n: int, mode: str):
        def call():
            return self.flp.flp_analysis(self.candidates[name](), n)

        def check(report) -> Optional[str]:
            return _mismatch(f"E6 {name} n={n}", report.failure_mode, mode)

        return call, check

    def _register_search(self):
        return self.registers.search_register_consensus(
            depth=self.size["register_depth"]
        )

    def _check_register(self, outcome) -> Optional[str]:
        got = {
            "candidates": outcome.candidates,
            "solutions": len(outcome.solutions),
            "agreement_failures": outcome.agreement_failures,
            "validity_failures": outcome.validity_failures,
            "wait_freedom_failures": outcome.wait_freedom_failures,
        }
        return _mismatch("E11 census", got, self.pins["register"])

    def operations(self) -> List[Tuple[bool, Callable, Callable]]:
        ops = [
            (True, self._mutex_cert, self._check_mutex),
            (True, self._round_cert, self._check_rounds),
        ]
        for _ in range(LIGHT_REPEATS):
            for case in FLP_CASES:
                ops.append((False, *self._flp_op(*case)))
            ops.append((False, self._register_search, self._check_register))
        return ops

    def run_pass(self, tracer: Optional[Tracer] = None) -> PassResult:
        ops = self.operations()
        outcomes = []
        heavy: List[float] = []
        light: List[float] = []
        gc.collect()
        with timed_section(tracer):
            start = time.perf_counter()
            for is_heavy, call, _check in ops:
                began = time.perf_counter()
                try:
                    outcomes.append((call(), None))
                except Exception as exc:  # an engine error fails the op
                    outcomes.append((None, f"raised {exc!r}"))
                (heavy if is_heavy else light).append(
                    (time.perf_counter() - began) * 1e3
                )
            wall = time.perf_counter() - start
        failures = []
        for (_heavy, _call, check), (result, error) in zip(ops, outcomes):
            problem = error if error is not None else check(result)
            if problem is not None:
                failures.append(problem)
        return PassResult(wall, heavy, light, len(ops), failures)
