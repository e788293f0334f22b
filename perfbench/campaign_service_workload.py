"""``campaign_service``: a ``campaign`` pass, then a ``service`` pass.

Both parts are set up together (one import of the engines) and run back
to back as one pass; their operations add up.  Cases and queries count
alike in the throughput; novel cases and cold queries are heavy, repeat
cases and warm queries light.  The store counters are the sums over the
campaign's corpus store and the service's store.  Each part keeps its
own oracle; a pass fails where either part does.
"""

from __future__ import annotations

from collections import Counter
from typing import Optional

from campaign_workload import CampaignJob
from common import PassResult
from service_workload import ServiceJob
from tracer import Tracer


class CampaignServiceJob:
    def __init__(self, seed: int, size: str, workdir: str):
        self.parts = (CampaignJob(seed, size, workdir),
                      ServiceJob(seed, size, workdir))

    def run_pass(self, tracer: Optional[Tracer] = None) -> PassResult:
        results = [part.run_pass(tracer) for part in self.parts]
        stats = Counter()
        for result in results:
            stats.update(result.store_stats)
        return PassResult(
            sum(r.wall_s for r in results),
            [ms for r in results for ms in r.heavy_ms],
            [ms for r in results for ms in r.light_ms],
            sum(r.attempted for r in results),
            [line for r in results for line in r.failures],
            dict(stats),
        )
