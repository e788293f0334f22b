"""The content-addressed, disk-persistent certificate store.

Every entry is keyed by a canonical request fingerprint
(:class:`~repro.service.keys.QueryKey`) and stored as a self-describing
JSON blob that embeds both its own key description and the sha256 of its
result payload.  Its bytes are the key's memoized prefix, the result's
canonical JSON and a fixed tail recording that JSON's sha256 — together
the canonical JSON of the whole record.  The contract on read is
*verify or miss*, checked on those bytes:

* an entry that does not start with the requested key's exact prefix,
  does not end with the fixed tail, or whose result bytes do not hash
  to the recorded digest is a **miss** (counted in ``corrupt``) — a
  damaged store can cost recomputation, never a wrong answer.  Only
  exactly what ``put`` writes verifies: an entry re-serialized with
  other whitespace is a counted miss too;
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
layouts encode entries with one encoder (``_encode_entry``) and trust
them only after one verifier (``_read_entry``); a segment line, read
without a requested key, is checked against the key its own
description rebuilds.
"""

from __future__ import annotations

import hashlib
import json
import os
from typing import Any, Dict, Iterator, Optional, Set, Tuple

from ..core.artifacts import atomic_write_bytes
from ..core.runtime import FingerprintMismatch
from .keys import QueryKey, canonical_json

ENTRY_SCHEMA = "repro-store-entry/v1"

# An entry is the canonical JSON of {key, key_fingerprint, result,
# result_fingerprint, schema} plus a newline.  Sorted keys lay it out as
# QueryKey.entry_prefix(), the result's canonical JSON, then this tail
# around the result's 64-hex-digit sha256.
_TAIL_HEAD = b',"result_fingerprint":"'
_TAIL_END = b'","schema":"' + ENTRY_SCHEMA.encode("ascii") + b'"}\n'
_TAIL_LEN = len(_TAIL_HEAD) + 64 + len(_TAIL_END)
_KEY_HEAD = b'{"key":'
_KEY_END = b',"key_fingerprint":"'

#: every way an entry can fail :func:`_read_entry`
_UNVERIFIED = (
    AttributeError, FingerprintMismatch, KeyError, TypeError, ValueError,
)


def _encode_entry(key: QueryKey, result: Any) -> bytes:
    """The stored bytes of one entry, identical in both layouts.

    The result is encoded once; the entry is the key's memoized prefix,
    those bytes and the tail carrying their sha256 — byte for byte the
    canonical JSON of the whole record, plus a newline.
    """
    body = canonical_json(result).encode("utf-8")
    digest = hashlib.sha256(body).hexdigest().encode("ascii")
    return b"".join((key.entry_prefix(), body, _TAIL_HEAD, digest, _TAIL_END))


def _read_entry(
    data: bytes, key: Optional[QueryKey] = None
) -> Tuple[QueryKey, Any]:
    """Verify one entry by its bytes; return ``(key, result)``.

    ``key`` is the requested key (its fingerprint names the object
    file).  A segment line has none, so its key is rebuilt from the
    description before ``,"key_fingerprint":"``.  The entry must be that
    key's prefix, result bytes hashing to the digest in the tail, and
    the tail; only then is the result parsed.  A digest mismatch raises
    :class:`FingerprintMismatch` carrying both digests, any other
    failure one of the other ``_UNVERIFIED`` errors.
    """
    if key is None:
        description = data[len(_KEY_HEAD):data.index(_KEY_END)]
        key = QueryKey.from_description(json.loads(description))
    prefix = key.entry_prefix()
    body_end = len(data) - _TAIL_LEN
    if (
        not data.startswith(prefix)
        or not data.startswith(_TAIL_HEAD, body_end)
        or not data.endswith(_TAIL_END)
    ):
        raise ValueError(f"not a store entry for kind {key.kind!r}")
    body = data[len(prefix):body_end]
    recorded = data[body_end + len(_TAIL_HEAD):-len(_TAIL_END)]
    actual = hashlib.sha256(body).hexdigest()
    if recorded != actual.encode("ascii"):
        raise FingerprintMismatch(
            recorded.decode("ascii", "replace"),
            actual,
            context=f"store entry result for kind {key.kind!r}",
        )
    return key, json.loads(body.decode("utf-8"))


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

        Verification is on the stored bytes: they must start with the
        requested key's prefix (its description and fingerprint), end
        with the schema tail, and the result bytes must hash to the
        recorded sha256 before they are parsed.  Any failure is a miss
        — recorded in ``corrupt`` when a file was present but unusable
        — so a truncated, hand-edited or stale entry falls back to live
        search instead of serving a wrong answer.
        """
        path = self._object_path(key.fingerprint())
        try:
            with open(path, "rb") as handle:
                data = handle.read()
        except FileNotFoundError:
            self.misses += 1
            return None
        except OSError:
            self._unusable()
            return None
        try:
            _key, result = _read_entry(data, key)
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
                        key, result = _read_entry(line)
                    except _UNVERIFIED:
                        self._unusable()
                        continue
                    fingerprint = key.fingerprint()
                    if fingerprint in seen:
                        continue
                    seen.add(fingerprint)
                    self.hits += 1
                    yield key, result
