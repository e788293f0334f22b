"""The store entry codec as it was before the byte-level one — kept only
as the differential reference for ``tests/test_store_bytes.py``.

:func:`reference_encode_entry` builds the entry as a dict and serializes
it with ``canonical_json``; :func:`reference_verify_entry` decodes an
entry and re-derives every identity in it: the key description is
rebuilt and re-hashed, and the result re-encoded and re-hashed.
"""

from __future__ import annotations

from typing import Any, Optional, Tuple

from repro.core.runtime import FingerprintMismatch
from repro.service.keys import QueryKey, canonical_json, payload_fingerprint
from repro.service.store import ENTRY_SCHEMA


def reference_encode_entry(key: QueryKey, result: Any) -> bytes:
    """The canonical JSON of the whole entry record, plus a newline."""
    entry = {
        "schema": ENTRY_SCHEMA,
        "key": key.describe(),
        "key_fingerprint": key.fingerprint(),
        "result": result,
        "result_fingerprint": payload_fingerprint(result),
    }
    return (canonical_json(entry) + "\n").encode("utf-8")


def reference_verify_entry(
    entry: Any, fingerprint: Optional[str] = None
) -> Tuple[QueryKey, Any]:
    """Re-derive every identity in a decoded entry; return (key, result).

    ``fingerprint`` is the key fingerprint the entry is read under; by
    default the entry's own ``key_fingerprint``.
    """
    if not isinstance(entry, dict) or entry.get("schema") != ENTRY_SCHEMA:
        raise ValueError(f"unknown store entry schema in {entry!r}")
    key = QueryKey.from_description(entry["key"])
    if fingerprint is None:
        fingerprint = entry.get("key_fingerprint")
    if key.fingerprint() != fingerprint:
        raise FingerprintMismatch(
            fingerprint,
            key.fingerprint(),
            context=f"store entry key for kind {key.kind!r}",
        )
    recorded = entry.get("result_fingerprint")
    result = entry["result"]
    actual = payload_fingerprint(result)
    if recorded != actual:
        raise FingerprintMismatch(
            recorded,
            actual,
            context=f"store entry result for kind {key.kind!r}",
        )
    return key, result
