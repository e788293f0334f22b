"""The certificate store's integrity contract: verify or miss.

Three layers under test.  :mod:`repro.service.keys`: canonical request
fingerprints are stable across construction order and container flavor,
and the tagged value encoding (:mod:`repro.core.canonical`) round-trips
the frozen vocabulary exactly.
:mod:`repro.service.store`: every flavor of damage — truncation, garbage,
a bit-flipped result, an entry filed under the wrong key — degrades to a
counted miss, never a wrong answer, and concurrent/interrupted writers
converge through atomic replace.
"""

import json
import os

import pytest

from repro.core.canonical import canonical_json, decode, encode
from repro.core.freeze import frozendict
from repro.core.packed import StateInterner
from repro.core.runtime import FingerprintMismatch
from repro.service.keys import QueryKey, payload_fingerprint
from repro.service.store import CertificateStore, _read_entry


# ---------------------------------------------------------------------------
# Canonical keys
# ---------------------------------------------------------------------------


class TestQueryKeys:
    def test_kwarg_order_does_not_change_the_fingerprint(self):
        a = QueryKey.make("flp-analysis", protocol="quorum-vote", n=3)
        b = QueryKey.make("flp-analysis", n=3, protocol="quorum-vote")
        assert a == b
        assert a.fingerprint() == b.fingerprint()

    def test_container_flavor_does_not_change_the_fingerprint(self):
        a = QueryKey.make("q", inputs=(0, 1, 1), opts={"x": 1})
        b = QueryKey.make("q", inputs=[0, 1, 1], opts=frozendict({"x": 1}))
        assert a.fingerprint() == b.fingerprint()

    def test_different_params_different_fingerprints(self):
        a = QueryKey.make("register-search", depth=1)
        b = QueryKey.make("register-search", depth=2)
        c = QueryKey.make("valency", depth=1)
        assert len({a.fingerprint(), b.fingerprint(), c.fingerprint()}) == 3

    def test_describe_round_trip(self):
        key = QueryKey.make(
            "q", inputs=(0, 1), tags=frozenset({"a", "b"}), n=3, label=None
        )
        rebuilt = QueryKey.from_description(key.describe())
        assert rebuilt == key
        assert rebuilt.fingerprint() == key.fingerprint()
        # The description itself is JSON-native.
        json.dumps(key.describe())

    def test_params_decode_back_to_frozen_values(self):
        key = QueryKey.make("q", inputs=(0, (1, 2)), tags=frozenset({7}))
        assert key.param("inputs") == (0, (1, 2))
        assert key.param("tags") == frozenset({7})
        assert key.param("absent", default="d") == "d"
        assert key.params_dict() == {
            "inputs": (0, (1, 2)),
            "tags": frozenset({7}),
        }

    def test_unencodable_param_fails_loudly(self):
        with pytest.raises(TypeError):
            QueryKey.make("q", bad=object())

    def test_canonical_round_trip_interns(self):
        value = (frozendict({"a": (1, 2), "b": frozenset({3})}), "tail")
        decoded = decode(json.loads(canonical_json(encode(value))))
        assert decoded == value
        # A decoded state takes the id its live twin has in a graph.
        interner = StateInterner()
        assert interner.intern(value) == interner.intern(decoded)

    def test_payload_fingerprint_is_order_insensitive(self):
        assert payload_fingerprint({"a": 1, "b": 2}) == payload_fingerprint(
            {"b": 2, "a": 1}
        )


# ---------------------------------------------------------------------------
# Store entries: verify or miss
# ---------------------------------------------------------------------------


@pytest.fixture
def store(tmp_path):
    return CertificateStore(str(tmp_path / "certs"))


KEY = QueryKey.make("register-search", depth=1)
RESULT = {"candidates": 32, "solutions": [], "agreement_failures": 5}


class TestStoreIntegrity:
    def test_put_get_round_trip(self, store):
        path = store.put(KEY, RESULT)
        assert os.path.exists(path)
        assert store.get(KEY) == RESULT
        assert store.stats == {"hits": 1, "misses": 0, "corrupt": 0, "puts": 1}

    def test_absent_entry_is_a_clean_miss(self, store):
        assert store.get(KEY) is None
        assert store.stats["misses"] == 1
        assert store.stats["corrupt"] == 0

    def test_truncated_entry_is_a_corrupt_miss(self, store):
        path = store.put(KEY, RESULT)
        with open(path, encoding="utf-8") as handle:
            text = handle.read()
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text[: len(text) // 2])
        assert store.get(KEY) is None
        assert store.stats["corrupt"] == 1

    def test_garbage_entry_is_a_corrupt_miss(self, store):
        path = store.put(KEY, RESULT)
        with open(path, "wb") as handle:
            handle.write(b"\x00\xffnot json at all")
        assert store.get(KEY) is None
        assert store.stats["corrupt"] == 1

    def test_tampered_result_is_a_corrupt_miss(self, store):
        path = store.put(KEY, RESULT)
        with open(path, encoding="utf-8") as handle:
            entry = json.load(handle)
        entry["result"]["candidates"] = 9999  # digest now stale
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(entry, handle)
        assert store.get(KEY) is None
        assert store.stats["corrupt"] == 1

    def test_entry_filed_under_the_wrong_key_is_a_miss(self, store):
        other = QueryKey.make("register-search", depth=2)
        source = store.put(other, RESULT)
        # Simulate a stale/renamed file: other's entry under KEY's name.
        target = store._object_path(KEY.fingerprint())
        os.makedirs(os.path.dirname(target), exist_ok=True)
        os.replace(source, target)
        assert store.get(KEY) is None
        assert store.stats["corrupt"] == 1

    def test_wrong_schema_is_a_corrupt_miss(self, store):
        path = store.put(KEY, RESULT)
        with open(path, encoding="utf-8") as handle:
            entry = json.load(handle)
        entry["schema"] = "someone-elses-format/v9"
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(entry, handle)
        assert store.get(KEY) is None
        assert store.stats["corrupt"] == 1

    def test_concurrent_writers_converge_byte_identically(self, tmp_path):
        # Two independent store handles (two processes, in effect)
        # writing the same deterministic result land the same bytes:
        # whichever atomic replace happens last changes nothing.
        root = str(tmp_path / "shared")
        first = CertificateStore(root)
        second = CertificateStore(root)
        path_a = first.put(KEY, RESULT)
        with open(path_a, "rb") as handle:
            bytes_a = handle.read()
        path_b = second.put(KEY, RESULT)
        with open(path_b, "rb") as handle:
            bytes_b = handle.read()
        assert path_a == path_b
        assert bytes_a == bytes_b
        assert first.get(KEY) == RESULT
        assert second.get(KEY) == RESULT

    def test_interrupted_writer_preserves_the_previous_entry(
        self, store, monkeypatch
    ):
        from tests.test_atomic_artifacts import _Boom, _interrupt_write

        store.put(KEY, RESULT)
        _interrupt_write(monkeypatch)
        with pytest.raises(_Boom):
            store.put(KEY, {"candidates": 1})
        monkeypatch.undo()
        assert store.get(KEY) == RESULT

    def test_entries_lists_every_object(self, store):
        other = QueryKey.make("register-search", depth=2)
        store.put(KEY, RESULT)
        store.put(other, RESULT)
        assert sorted(store.entries()) == sorted(
            [KEY.fingerprint(), other.fingerprint()]
        )

    def test_mismatch_error_reused_for_store_verification(self, store):
        # The structured FingerprintMismatch from Trace.from_jsonl is the
        # same error type the store's verifier raises internally.
        path = store.put(KEY, RESULT)
        with open(path, "rb") as handle:
            data = handle.read()
        tampered = data.replace(b'"candidates":32', b'"candidates":31')
        assert tampered != data
        with pytest.raises(FingerprintMismatch) as info:
            _read_entry(tampered, KEY)
        assert "store entry result" in info.value.context
        assert info.value.expected != info.value.actual
