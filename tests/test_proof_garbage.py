"""The proof searches leave no cyclic garbage.

Every object a certificate search builds must be freed by reference
counting when the search returns.  A reference cycle (a view that points
back at its analyzer, closures that call each other) keeps a search's
garbage alive until the cyclic collector runs, and the collector's
passes then cost every later search.  These are the six calls of a
``perfbench`` ``proofs`` pass: E1, E4, the three E6 analyses of the
dichotomy and the E11 census.
"""

import gc

import pytest

from repro.asynchronous import flp
from repro.consensus.floodset import FloodSet
from repro.consensus.lower_bounds import round_lower_bound_certificate
from repro.registers.exhaustive import search_register_consensus
from repro.shared_memory.lower_bounds import cremers_hibbard_certificate

CALLS = {
    "E1": lambda: cremers_hibbard_certificate(values=2, modes=1, symmetric=False),
    "E4": lambda: round_lower_bound_certificate(
        lambda r: FloodSet(rounds_override=r), n=4, t=2
    ),
    "E6-first-message-wins": lambda: flp.flp_analysis(flp.FirstMessageWins(), 2),
    "E6-quorum-vote": lambda: flp.flp_analysis(flp.QuorumVote(), 3),
    "E6-wait-for-all": lambda: flp.flp_analysis(flp.WaitForAll(), 2),
    "E11": lambda: search_register_consensus(depth=2),
}


@pytest.mark.parametrize("name", CALLS)
def test_search_leaves_no_cyclic_garbage(name):
    call = CALLS[name]
    call()  # module-level caches fill on the first call; they stay reachable
    gc.collect()
    gc.disable()
    try:
        call()
        assert gc.collect() == 0
    finally:
        gc.enable()
