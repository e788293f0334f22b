"""The parallel execution fabric: multiprocess campaigns and sweeps.

Every CPU-bound search in this repository that splits into independent
cases — chaos campaigns and the Ben-Or termination sweep — is a
deterministic function of ``(protocol, inputs, adversary, seed)``
thanks to the unified runtime's seed plumbing
(:func:`repro.core.runtime.derive_seed`).  That makes the workloads
embarrassingly parallel *and* checkable: the work partitions into
independent shards whose results merge order-independently.

The fabric has two layers:

* :mod:`repro.parallel.pool` — process-pool plumbing on the stdlib only
  (:class:`WorkerPool` over :class:`concurrent.futures.ProcessPoolExecutor`,
  :func:`resolve_workers`);
* consumers — :func:`repro.chaos.campaign.run_campaign` and
  :func:`repro.circumvention.randomized.expected_rounds` take
  ``workers=N`` (and :class:`repro.service.service.QueryService` passes
  it on to a campaign).

The headline guarantee, enforced by ``tests/test_parallel_fabric.py``
and the golden-trace suite: **every result is bit-identical for
``workers=1`` and ``workers=N``**.  Parallelism is a pure wall-clock
optimization; it never changes an answer.
"""

from .._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(__name__, {
    ".pool": ("WorkerPool", "resolve_workers"),
})

__all__ = [
    "WorkerPool",
    "resolve_workers",
]
