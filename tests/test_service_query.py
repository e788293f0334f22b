"""The query service: store hits, live fallbacks, dedup, and identity.

The acceptance-grade properties live here: a warm store answers with
zero live computation and counters to prove it; a corrupted entry falls
back to live search *and lands on the same final answer*; store-backed
certificate constructors are field-identical across the live, hit, and
store-free paths; a campaign reconstructed from a store hit writes
byte-identical counterexample artifacts; budget-interrupted results are
returned but never cached.
"""

import os

import pytest

from repro.asynchronous.flp import QuorumVote, WaitForAll, flp_certificate
from repro.chaos.campaign import report_to_payload, write_artifacts
from repro.chaos.targets import target_registry
from repro.core.budget import Budget
from repro.registers.exhaustive import register_consensus_certificate
from repro.service import (
    CertificateStore,
    QueryKey,
    QueryService,
    flp_key,
    register_search_key,
    run_campaign_cached,
    valency_key,
)


@pytest.fixture
def store(tmp_path):
    return CertificateStore(str(tmp_path / "certs"))


class TestResolution:
    def test_miss_then_hit(self, store):
        service = QueryService(store)
        key = flp_key("first-message-wins", n=2)
        cold = service.resolve(key)
        assert cold.source == "live" and cold.complete
        assert service.live == 1

        warm = service.resolve(key)
        assert warm.source == "store"
        assert warm.result == cold.result
        assert service.live == 1  # no second computation
        assert store.stats["hits"] == 1

    def test_fresh_service_same_store_all_hits(self, store):
        key = flp_key("first-message-wins", n=2)
        QueryService(store).resolve(key)
        # A new process, in effect: new service, same directory.
        reread = CertificateStore(store.root)
        second = QueryService(reread)
        answer = second.resolve(key)
        assert answer.source == "store"
        assert second.live == 0
        assert reread.stats == {
            "hits": 1, "misses": 0, "corrupt": 0, "puts": 0,
        }

    def test_resolve_many_dedups_repeated_keys(self, store):
        service = QueryService(store)
        key = flp_key("first-message-wins", n=2)
        first, second = service.resolve_many(
            [key, flp_key("first-message-wins", n=2)]
        )
        assert service.deduped == 1
        assert service.live == 1  # one computation served both
        assert first.source == "live"
        assert first == second

    def test_resolve_many_preserves_input_order(self, store):
        service = QueryService(store)
        keys = [
            valency_key("quorum-vote", 2, (0, 1)),
            flp_key("first-message-wins", n=2),
            valency_key("quorum-vote", 2, (1, 1)),
        ]
        answers = service.resolve_many(keys)
        assert [a.key for a in answers] == keys
        assert answers[0].result["bivalent"] is True
        assert answers[2].result["bivalent"] is False

    def test_unknown_kind_rejected_at_resolve(self, store):
        service = QueryService(store)
        with pytest.raises(ValueError, match="tarot-reading"):
            service.resolve(QueryKey.make("tarot-reading", question="why"))
        assert store.stats["misses"] == 0  # rejected before the store

    def test_incomplete_result_returned_but_never_stored(self, store):
        service = QueryService(store, budget=Budget(max_steps=5))
        answer = service.resolve(register_search_key(depth=2))
        assert answer.source == "live"
        assert not answer.complete
        assert answer.result["candidates"] == 5  # the budgeted prefix
        assert store.stats["puts"] == 0
        # The store still has no answer: the next query recomputes.
        again = QueryService(store, budget=Budget(max_steps=5))
        assert again.resolve(register_search_key(depth=2)).source == "live"


class TestCorruptionFallback:
    def test_corrupted_entry_falls_back_to_live_with_same_answer(
        self, store
    ):
        key = flp_key("quorum-vote", n=2)
        service = QueryService(store)
        original = service.resolve(key)

        # Flip one character inside the stored entry body.
        path = store._object_path(key.fingerprint())
        with open(path, "rb") as handle:
            raw = bytearray(handle.read())
        target = raw.index(b"agreement")
        raw[target] ^= 0x01
        with open(path, "wb") as handle:
            handle.write(bytes(raw))

        recovered = QueryService(store)
        answer = recovered.resolve(key)
        assert answer.source == "live"  # verify failed -> recomputed
        assert store.stats["corrupt"] == 1
        assert answer.result == original.result  # same final answer
        # The recomputation repaired the entry on disk.
        healed = QueryService(CertificateStore(store.root))
        assert healed.resolve(key).source == "store"


class TestStoreBackedCertificates:
    def test_flp_certificate_identical_across_paths(self, store):
        live = flp_certificate(QuorumVote())          # no store
        cold = flp_certificate(QuorumVote(), store=store)   # miss + put
        warm = flp_certificate(QuorumVote(), store=store)   # hit
        assert store.stats["puts"] == 1
        assert store.stats["hits"] == 1
        for cert in (cold, warm):
            assert cert.claim == live.claim
            assert cert.technique == live.technique
            assert cert.details == live.details

    def test_flp_certificate_failure_modes_survive_the_store(self, store):
        cert = flp_certificate(WaitForAll(), store=store)
        assert cert.details["failure_mode"] == "blocks-under-crash"
        warm = flp_certificate(WaitForAll(), store=store)
        assert warm.details == cert.details

    def test_register_certificate_identical_across_paths(self, store):
        live = register_consensus_certificate(depth=1)
        cold = register_consensus_certificate(depth=1, store=store)
        warm = register_consensus_certificate(depth=1, store=store)
        assert store.stats["puts"] == 1 and store.stats["hits"] == 1
        for cert in (cold, warm):
            assert cert.claim == live.claim
            assert cert.candidates_checked == live.candidates_checked
            assert cert.details == live.details


class TestCampaignCaching:
    TARGETS = ("floodset-truncated-crash",)

    def _roster(self):
        registry = target_registry()
        return [registry[name] for name in self.TARGETS]

    def test_warm_campaign_is_byte_identical(self, store, tmp_path):
        roster = self._roster()
        cold, cold_source = run_campaign_cached(
            store, targets=roster, runs=4
        )
        warm, warm_source = run_campaign_cached(
            store, targets=roster, runs=4
        )
        assert (cold_source, warm_source) == ("live", "store")
        assert warm.complete and warm.runs == cold.runs
        assert warm.summary(roster) == cold.summary(roster)
        assert report_to_payload(warm) == report_to_payload(cold)

        # The acceptance criterion: artifacts written from the
        # store-reconstructed report are byte-identical to the live ones.
        assert cold.counterexamples  # the planted bug was found
        cold_dir = str(tmp_path / "cold")
        warm_dir = str(tmp_path / "warm")
        cold_paths = write_artifacts(cold, cold_dir)
        warm_paths = write_artifacts(warm, warm_dir)
        assert [os.path.basename(p) for p in cold_paths] == [
            os.path.basename(p) for p in warm_paths
        ]
        for cold_path, warm_path in zip(cold_paths, warm_paths):
            with open(cold_path, "rb") as handle:
                cold_bytes = handle.read()
            with open(warm_path, "rb") as handle:
                warm_bytes = handle.read()
            assert cold_bytes == warm_bytes

    def test_different_parameters_are_different_entries(self, store):
        roster = self._roster()
        run_campaign_cached(store, targets=roster, runs=4)
        _report, source = run_campaign_cached(
            store, targets=roster, runs=4, master_seed=7
        )
        assert source == "live"  # a different seed is a different question
        assert store.stats["puts"] == 2
