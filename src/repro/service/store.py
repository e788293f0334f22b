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

:class:`SegmentLog` holds the same entries, byte for byte, as lines of
append-only segment files: the layout for writers that add many small
entries and can group their fsyncs (the chaos schedule corpus).  Both
layouts encode entries with one encoder and trust them only after one
verifier (``_verify_entry``).
"""

from __future__ import annotations

import json
import os
from typing import Any, Dict, Iterator, Optional, Set, Tuple

from ..core.artifacts import atomic_write_bytes
from ..core.runtime import FingerprintMismatch
from .keys import QueryKey, canonical_json, payload_fingerprint

ENTRY_SCHEMA = "repro-store-entry/v1"

#: every way a decoded entry can fail :func:`_verify_entry`
_UNVERIFIED = (
    AttributeError, FingerprintMismatch, KeyError, TypeError, ValueError,
)


def _encode_entry(key: QueryKey, result: Any) -> bytes:
    """The stored bytes of one entry, identical in both layouts: the
    canonical JSON of a record embedding the key description and the
    sha256 of the result, plus a newline."""
    entry = {
        "schema": ENTRY_SCHEMA,
        "key": key.describe(),
        "key_fingerprint": key.fingerprint(),
        "result": result,
        "result_fingerprint": payload_fingerprint(result),
    }
    return (canonical_json(entry) + "\n").encode("utf-8")


def _verify_entry(
    entry: Any, fingerprint: Optional[str] = None
) -> Tuple[QueryKey, Any]:
    """Re-derive every identity in a decoded entry; return (key, result).

    ``fingerprint`` is the key fingerprint the entry is read under (the
    requested key's, which names its object file); by default it is the
    entry's own ``key_fingerprint``, which is all a segment line has.
    The embedded key description must hash to it and the result to the
    embedded ``result_fingerprint``; a mismatch raises
    :class:`FingerprintMismatch` carrying both digests, any other
    malformation one of the other ``_UNVERIFIED`` errors.
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


class _Counters:
    """Verify-or-miss accounting shared by both layouts."""

    def __init__(self, root: str):
        self.root = os.path.abspath(root)
        self.hits = 0
        self.misses = 0
        self.corrupt = 0
        self.puts = 0

    def _unusable(self) -> None:
        """Count an entry that was present but failed verification."""
        self.corrupt += 1
        self.misses += 1

    @property
    def stats(self) -> Dict[str, int]:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "corrupt": self.corrupt,
            "puts": self.puts,
        }


class CertificateStore(_Counters):
    """Disk-persistent map from request fingerprints to verified results.

    ``get``/``put`` move JSON payloads.  All verification failures
    degrade to misses; counters (``hits``, ``misses``, ``corrupt``,
    ``puts``) make hit rates and store health observable — "the warm
    run was all hits" is an assertable proposition, which is what the
    store-smoke CI job and the acceptance tests check.
    """

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
            self._unusable()
            return None
        try:
            _key, result = _verify_entry(entry, fingerprint)
        except _UNVERIFIED:
            self._unusable()
            return None
        self.hits += 1
        return result

    def put(self, key: QueryKey, result: Any) -> str:
        """Persist ``result`` (JSON-native) under ``key``; return the path.

        The entry is serialized before any file is touched and promoted
        atomically, so racing writers of the same key each install a
        complete entry and the survivor is whichever replace landed last
        — with deterministic engines both bodies are byte-identical
        anyway.
        """
        path = self._object_path(key.fingerprint())
        atomic_write_bytes(path, _encode_entry(key, result))
        self.puts += 1
        return path

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

    def stats_line(self) -> str:
        """One human-readable accounting line for CLIs and CI logs."""
        s = self.stats
        return (
            f"store {self.root}: hits={s['hits']} misses={s['misses']} "
            f"corrupt={s['corrupt']} puts={s['puts']}"
        )


class SegmentLog(_Counters):
    """Store entries as lines of append-only segment files, fsynced in groups.

    Each writer appends to its own segment, ``<root>/segments/<random>.jsonl``,
    created with ``O_EXCL`` on its first :meth:`add`, so concurrent
    writers never interleave bytes and merging two logs is copying
    segments.  A line holds exactly the bytes :meth:`CertificateStore.put`
    would write for the entry.

    :meth:`add` hands each line to the OS unbuffered — a reader in the
    same process sees it at once — but does not fsync: durability is per
    :meth:`sync` point, which fsyncs the segment (and, once, the
    directory that names it).  Reads re-verify every line: a torn tail or
    a flipped byte is a counted miss, never a wrong entry.
    """

    def __init__(self, root: str):
        super().__init__(root)
        self.directory = os.path.join(self.root, "segments")
        self._segment = None
        self._unsynced = False
        self._directory_synced = False
        self._keys: Set[str] = {key.fingerprint() for key, _ in self.items()}

    def add(self, key: QueryKey, result: Any) -> bool:
        """Append the entry unless its key is already in the log; True
        iff a line was written."""
        fingerprint = key.fingerprint()
        if fingerprint in self._keys:
            return False
        data = memoryview(_encode_entry(key, result))
        if self._segment is None:
            os.makedirs(self.directory, exist_ok=True)
            name = os.urandom(16).hex() + ".jsonl"
            self._segment = open(
                os.path.join(self.directory, name), "xb", buffering=0
            )
        while data:
            data = data[self._segment.write(data):]
        self._keys.add(fingerprint)
        self._unsynced = True
        self.puts += 1
        return True

    def sync(self) -> None:
        """Make every entry added so far durable (a no-op when nothing
        was added since the last sync)."""
        if not self._unsynced:
            return
        os.fsync(self._segment.fileno())
        if not self._directory_synced:
            fd = os.open(self.directory, os.O_RDONLY)
            try:
                os.fsync(fd)
            finally:
                os.close(fd)
            self._directory_synced = True
        self._unsynced = False

    def close(self) -> None:
        """Sync, then release this writer's segment."""
        if self._segment is not None:
            self.sync()
            self._segment.close()
            self._segment = None

    def items(self) -> Iterator[Tuple[QueryKey, Any]]:
        """Yield ``(key, result)`` for every verified line, each key once
        (the first segment in name order wins a duplicate)."""
        if not os.path.isdir(self.directory):
            return
        seen: Set[str] = set()
        for name in sorted(os.listdir(self.directory)):
            if not name.endswith(".jsonl"):
                continue
            with open(os.path.join(self.directory, name), "rb") as handle:
                for line in handle:
                    try:
                        key, result = _verify_entry(json.loads(line))
                    except _UNVERIFIED:
                        self._unusable()
                        continue
                    fingerprint = key.fingerprint()
                    if fingerprint in seen:
                        continue
                    seen.add(fingerprint)
                    self.hits += 1
                    yield key, result
