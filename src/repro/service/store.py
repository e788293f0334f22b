"""The content-addressed, disk-persistent certificate store.

Every entry is keyed by a canonical request fingerprint
(:class:`~repro.service.keys.QueryKey`) and stored as a self-describing
JSON blob that embeds both its own key description and the sha256 of its
result payload.  The contract on read is *verify or miss*:

* a file that does not parse, carries the wrong schema, describes a
  different key than its filename claims, or whose result digest does
  not match the recomputed one is treated as a **miss** (and counted in
  ``corrupt``) — a damaged store can cost recomputation, never a wrong
  answer;
* writes go through the atomic writer in :mod:`repro.core.artifacts`
  (stage + fsync + ``os.replace``), so concurrent writers of the same
  key converge on one complete entry and a killed writer leaves either
  the old complete entry or none.

Entries live at ``objects/<fp[:2]>/<fp>.json``.  Layout and discipline
follow the content-addressing idea of iroh-blobs:
the name *is* the hash, so a reader never needs to trust the writer —
only the digest check.
"""

from __future__ import annotations

import json
import os
from typing import Any, Dict, Iterator, Optional, Tuple

from ..core.artifacts import atomic_write_text
from ..core.runtime import FingerprintMismatch
from .keys import QueryKey, canonical_json, payload_fingerprint

ENTRY_SCHEMA = "repro-store-entry/v1"


class CertificateStore:
    """Disk-persistent map from request fingerprints to verified results.

    ``get``/``put`` move JSON payloads.  All verification failures
    degrade to misses; counters (``hits``, ``misses``, ``corrupt``,
    ``puts``) make hit rates and store health observable — "the warm
    run was all hits" is an assertable proposition, which is what the
    store-smoke CI job and the acceptance tests check.
    """

    def __init__(self, root: str):
        self.root = os.path.abspath(root)
        self.hits = 0
        self.misses = 0
        self.corrupt = 0
        self.puts = 0

    # -- paths -------------------------------------------------------------

    def _object_path(self, fingerprint: str) -> str:
        return os.path.join(
            self.root, "objects", fingerprint[:2], fingerprint + ".json"
        )

    # -- JSON entries --------------------------------------------------------

    def get(self, key: QueryKey) -> Optional[Any]:
        """The verified result for ``key``, or None (miss).

        Verification re-derives every identity in the entry: the schema,
        the key description against the requested key's fingerprint, and
        the result payload against its embedded sha256.  Any failure is
        a miss — recorded in ``corrupt`` when a file was present but
        unusable — so a truncated, hand-edited or stale entry falls back
        to live search instead of serving a wrong answer.
        """
        fingerprint = key.fingerprint()
        path = self._object_path(fingerprint)
        try:
            with open(path, encoding="utf-8") as handle:
                entry = json.load(handle)
        except FileNotFoundError:
            self.misses += 1
            return None
        except (OSError, json.JSONDecodeError, UnicodeDecodeError):
            self.corrupt += 1
            self.misses += 1
            return None
        try:
            result = self._verify_entry(entry, key)
        except (FingerprintMismatch, KeyError, TypeError, ValueError):
            self.corrupt += 1
            self.misses += 1
            return None
        self.hits += 1
        return result

    def _verify_entry(self, entry: Any, key: QueryKey) -> Any:
        if not isinstance(entry, dict) or entry.get("schema") != ENTRY_SCHEMA:
            raise ValueError(f"unknown store entry schema in {entry!r}")
        described = QueryKey.from_description(entry["key"])
        if described.fingerprint() != key.fingerprint():
            raise FingerprintMismatch(
                key.fingerprint(),
                described.fingerprint(),
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
        return result

    def put(self, key: QueryKey, result: Any) -> str:
        """Persist ``result`` (JSON-native) under ``key``; return the path.

        The entry is serialized before any file is touched and promoted
        atomically, so racing writers of the same key each install a
        complete entry and the survivor is whichever replace landed last
        — with deterministic engines both bodies are byte-identical
        anyway.
        """
        entry = {
            "schema": ENTRY_SCHEMA,
            "key": key.describe(),
            "key_fingerprint": key.fingerprint(),
            "result": result,
            "result_fingerprint": payload_fingerprint(result),
        }
        path = self._object_path(key.fingerprint())
        atomic_write_text(path, canonical_json(entry) + "\n")
        self.puts += 1
        return path

    def contains(self, key: QueryKey) -> bool:
        """Is an entry file present for ``key``?  (No verification, no
        counter traffic — presence only; ``get`` still decides trust.)"""
        return os.path.exists(self._object_path(key.fingerprint()))

    def load_object(self, fingerprint: str) -> Optional[Tuple[QueryKey, Any]]:
        """Load the entry *named* ``fingerprint``, reconstructing its key.

        The enumeration-side read: :meth:`get` answers "what is the
        result for this request?", this answers "what request and result
        does this stored file hold?" — which is how a schedule corpus
        walks :meth:`entries` and replays everything it finds.  The same
        verify-or-miss discipline applies, with the extra check that the
        embedded key's fingerprint matches the filename (a renamed file
        is corrupt, not a different entry).
        """
        path = self._object_path(fingerprint)
        try:
            with open(path, encoding="utf-8") as handle:
                entry = json.load(handle)
        except FileNotFoundError:
            self.misses += 1
            return None
        except (OSError, json.JSONDecodeError, UnicodeDecodeError):
            self.corrupt += 1
            self.misses += 1
            return None
        try:
            if not isinstance(entry, dict) or entry.get("schema") != ENTRY_SCHEMA:
                raise ValueError(f"unknown store entry schema in {entry!r}")
            key = QueryKey.from_description(entry["key"])
            if key.fingerprint() != fingerprint:
                raise FingerprintMismatch(
                    fingerprint,
                    key.fingerprint(),
                    context="store entry filename",
                )
            result = self._verify_entry(entry, key)
        except (FingerprintMismatch, KeyError, TypeError, ValueError):
            self.corrupt += 1
            self.misses += 1
            return None
        self.hits += 1
        return key, result

    # -- accounting ----------------------------------------------------------

    def entries(self) -> Iterator[str]:
        """Yield the fingerprint of every stored object."""
        base = os.path.join(self.root, "objects")
        if not os.path.isdir(base):
            return
        for bucket in sorted(os.listdir(base)):
            bucket_dir = os.path.join(base, bucket)
            if not os.path.isdir(bucket_dir):
                continue
            for name in sorted(os.listdir(bucket_dir)):
                if name.endswith(".json"):
                    yield name[: -len(".json")]

    @property
    def stats(self) -> Dict[str, int]:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "corrupt": self.corrupt,
            "puts": self.puts,
        }

    def stats_line(self) -> str:
        """One human-readable accounting line for CLIs and CI logs."""
        s = self.stats
        return (
            f"store {self.root}: hits={s['hits']} misses={s['misses']} "
            f"corrupt={s['corrupt']} puts={s['puts']}"
        )
