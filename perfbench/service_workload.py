"""``service``: one closed-loop caller querying a fresh certificate store.

The caller sends its next ``QueryService.resolve`` only after the last
one returned.  Keys cover all eight query kinds; the stream draws them
with Zipf-skewed popularity, so most keys are asked cold once (a live
engine run plus a persisted put) and then answered warm from the store
(verify plus decode).  Before a few seeded queries, one byte inside a
stored result is flipped; the store must count it corrupt and the
service must answer live again, never wrongly.

A query answered live is heavy, one answered from the store is light.
The oracle: every answer equals, under ``canonical_json``, the first
live answer for its key in the pass, and the store's
``corrupt`` count equals the number of flips.
"""

from __future__ import annotations

import gc
import itertools
import os
import random
import shutil
import tempfile
import time
from typing import Dict, List, Optional

from common import PassResult, import_engines, timed_section
from tracer import Tracer

SIZES = {
    "full": {"queries": 4000, "flp_n": (2, 3), "valency_bits": 3,
             "register_depths": (1, 2), "run_seeds": 80, "campaigns": 10},
    "tiny": {"queries": 150, "flp_n": (2,), "valency_bits": 2,
             "register_depths": (1,), "run_seeds": 3, "campaigns": 1},
}
ZIPF_EXPONENT = 0.8
FLIP_SHARE = 0.01
CAMPAIGN_RUNS = 3

#: Modules the service's handlers import lazily; imported in set-up so
#: no timed query pays for an import.
ENGINES = (
    "repro.service.service",
    "repro.service.keys",
    "repro.service.store",
    "repro.chaos.targets",
    "repro.asynchronous.flp",
    "repro.asynchronous.network",
    "repro.impossibility.bivalence",
    "repro.registers.exhaustive",
    "repro.chaos.campaign",
    "repro.circumvention.detectors",
    "repro.circumvention.leases",
    "repro.circumvention.randomized",
    "repro.circumvention.gst",
)


class ServiceJob:
    def __init__(self, seed: int, size: str, workdir: str):
        service, keys, store, targets = import_engines(ENGINES)[:4]
        self.service = service
        self.store = store
        self.canonical_json = keys.canonical_json
        self.workdir = workdir
        rng = random.Random(seed)
        ranked = self._rank(self._universe(service, targets, SIZES[size], rng),
                            rng)
        weights = [1.0 / (rank + 1) ** ZIPF_EXPONENT
                   for rank in range(len(ranked))]
        self.stream = rng.choices(ranked, weights=weights,
                                  k=SIZES[size]["queries"])
        self.flips = self._plan_flips(rng)

    @staticmethod
    def _universe(service, targets, size, rng) -> list:
        protocols = ("first-message-wins", "quorum-vote", "wait-for-all")
        bits = size["valency_bits"]
        keys = [service.flp_key(p, n=n) for p in protocols
                for n in size["flp_n"]]
        keys += [service.valency_key(p, bits, inputs)
                 for p in protocols
                 for inputs in itertools.product((0, 1), repeat=bits)]
        keys += [service.register_search_key(depth)
                 for depth in size["register_depths"]]
        for seed in rng.sample(range(1_000_000), size["run_seeds"]):
            keys += [service.detector_run_key(seed=seed),
                     service.lease_run_key(seed=seed),
                     service.benor_run_key(seed=seed),
                     service.gst_run_key(seed=seed)]
        names = [target.name for target in targets.default_targets()]
        for i in range(size["campaigns"]):
            pair = (names[2 * i % len(names)], names[(2 * i + 1) % len(names)])
            keys.append(service.campaign_key(
                pair, runs=CAMPAIGN_RUNS, master_seed=rng.getrandbits(32)
            ))
        return keys

    @staticmethod
    def _rank(universe: list, rng) -> list:
        """Keys in popularity order: kinds interleaved in a fixed pattern,
        keys within a kind shuffled by the seed.

        Every seed then asks each kind equally often and only changes
        which key of the kind is popular, so the cost mix of the stream
        does not depend on the seed.
        """
        by_kind: Dict[str, list] = {}
        for key in universe:
            by_kind.setdefault(key.kind, []).append(key)
        slots = []
        for kind, keys in by_kind.items():
            rng.shuffle(keys)
            slots += [((i + 0.5) / len(keys), kind, key)
                      for i, key in enumerate(keys)]
        slots.sort(key=lambda slot: slot[:2])
        return [key for _share, _kind, key in slots]

    def _plan_flips(self, rng) -> Dict[int, tuple]:
        """query index -> (key, position share) for the seeded flips.

        Each flipped key is asked again at the flipped query and was
        asked (hence stored) before it, so every flip is read back once.
        """
        positions: Dict[str, List[int]] = {}
        for index, key in enumerate(self.stream):
            positions.setdefault(key.fingerprint(), []).append(index)
        repeated = sorted(fp for fp, seen in positions.items() if len(seen) > 1)
        count = max(1, round(FLIP_SHARE * len(positions)))
        flips = {}
        for fp in rng.sample(repeated, count):
            index = rng.choice(positions[fp][1:])
            flips[index] = (self.stream[index], rng.random())
        return flips

    def _flip(self, root: str, key, share: float) -> None:
        """Flip one bit of one byte inside the stored result payload."""
        fp = key.fingerprint()
        path = os.path.join(root, "objects", fp[:2], fp + ".json")
        with open(path, "rb") as handle:
            data = bytearray(handle.read())
        start = data.index(b'"result":') + len(b'"result":')
        end = data.index(b',"result_fingerprint":')
        data[start + int(share * (end - start))] ^= 0x01
        with open(path, "wb") as handle:
            handle.write(data)

    def run_pass(self, tracer: Optional[Tracer] = None) -> PassResult:
        root = tempfile.mkdtemp(prefix="store-", dir=self.workdir)
        store = self.store.CertificateStore(root)
        service = self.service.QueryService(store)
        answers = []
        heavy: List[float] = []
        light: List[float] = []
        failures: List[str] = []
        gc.collect()
        with timed_section(tracer):
            start = time.perf_counter()
            for index, key in enumerate(self.stream):
                if index in self.flips:
                    try:
                        self._flip(root, *self.flips[index])
                    except (OSError, ValueError) as exc:
                        failures.append(f"flip before query {index}: {exc!r}")
                began = time.perf_counter()
                answer = service.resolve(key)
                elapsed = (time.perf_counter() - began) * 1e3
                (heavy if answer.source == "live" else light).append(elapsed)
                answers.append(answer)
            wall = time.perf_counter() - start
        first: Dict[str, str] = {}
        for index, answer in enumerate(answers):
            text = self.canonical_json(answer.result)
            fp = answer.key.fingerprint()
            if answer.source == "live":
                first.setdefault(fp, text)
            if first.get(fp) != text:
                failures.append(
                    f"query {index} ({answer.key.kind}, {answer.source}) "
                    "differs from the first live answer"
                )
        if store.corrupt != len(self.flips):
            failures.append(
                f"store counted {store.corrupt} corrupt entries for "
                f"{len(self.flips)} flips"
            )
        result = PassResult(wall, heavy, light, len(self.stream), failures,
                            dict(store.stats))
        shutil.rmtree(root, ignore_errors=True)
        return result
