"""Canonical request fingerprints: the certificate store's key schema.

Everything the engines produce is a deterministic function of
``(protocol, inputs, adversary, seed)`` — so a *request* for a result is
fully described by a query kind plus its canonicalized parameters, and
the sha256 of that canonical form is a content address for the answer.
Values are written down by the canonical codec
(:mod:`repro.core.canonical`: tagged JSON, set members and mapping keys
in canonical order); this module builds the store's identities on it:

* :class:`QueryKey` — ``(kind, params)`` in canonical form with a stable
  :meth:`~QueryKey.fingerprint`, the same sha256-of-canonical-bytes idiom
  as :meth:`repro.core.runtime.Trace.fingerprint`.  Two requests that
  mean the same thing (same kind, same params, any construction order)
  produce the same fingerprint; that fingerprint is the store filename.

* :func:`payload_fingerprint` — sha256 of a canonical JSON payload, used
  to make store entries self-verifying: the entry embeds the digest of
  its own result, and a reader recomputes it before trusting the bytes.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from typing import Any, Dict, Mapping, Tuple

from ..core.canonical import canonical_json, decode, encode

KEY_SCHEMA = "repro-query-key/v1"


def payload_fingerprint(payload: Any) -> str:
    """sha256 of the canonical JSON form of ``payload``."""
    return hashlib.sha256(canonical_json(payload).encode("utf-8")).hexdigest()


@dataclass(frozen=True)
class QueryKey:
    """A canonical request identity: kind + canonically-encoded params.

    Construct through :meth:`make`, which canonicalizes each parameter;
    ``params`` is a sorted tuple of ``(name, canonical_json_text)``
    pairs, so equal requests compare equal and hash equal regardless of
    keyword order or container flavor (list vs tuple, dict vs
    frozendict).
    """

    kind: str
    params: Tuple[Tuple[str, str], ...] = ()
    _fingerprint: str = field(default="", compare=False, repr=False)
    _entry_prefix: bytes = field(default=b"", compare=False, repr=False)

    @classmethod
    def make(cls, kind: str, **params: Any) -> "QueryKey":
        encoded = tuple(
            sorted(
                (name, canonical_json(encode(value)))
                for name, value in params.items()
            )
        )
        return cls(kind=kind, params=encoded)

    def param(self, name: str, default: Any = None) -> Any:
        """Decode one parameter back to its frozen value."""
        for key, text in self.params:
            if key == name:
                return decode(json.loads(text))
        return default

    def params_dict(self) -> Dict[str, Any]:
        """Every parameter, decoded (frozen values)."""
        return {name: decode(json.loads(text))
                for name, text in self.params}

    def describe(self) -> Mapping[str, Any]:
        """The JSON-native identity record embedded in store entries."""
        return {
            "schema": KEY_SCHEMA,
            "kind": self.kind,
            "params": [[name, json.loads(text)] for name, text in self.params],
        }

    def fingerprint(self) -> str:
        """Stable sha256 of the canonical identity (memoized)."""
        if not self._fingerprint:
            self._memoize_identity()
        return self._fingerprint

    def entry_prefix(self) -> bytes:
        """The bytes every store entry for this key starts with (memoized).

        ``{"key":<canonical describe()>,"key_fingerprint":"<fp>","result":``
        — the canonical JSON of a store entry up to its result, since
        sorted keys put ``key`` and ``key_fingerprint`` first.
        """
        if not self._entry_prefix:
            self._memoize_identity()
        return self._entry_prefix

    def _memoize_identity(self) -> None:
        text = canonical_json(self.describe())
        digest = hashlib.sha256(text.encode("utf-8")).hexdigest()
        prefix = f'{{"key":{text},"key_fingerprint":"{digest}","result":'
        object.__setattr__(self, "_fingerprint", digest)
        object.__setattr__(self, "_entry_prefix", prefix.encode("utf-8"))

    @classmethod
    def from_description(cls, description: Mapping[str, Any]) -> "QueryKey":
        """Rebuild a key from :meth:`describe` output (store entries)."""
        if description.get("schema") != KEY_SCHEMA:
            raise ValueError(
                f"unknown key schema {description.get('schema')!r} "
                f"(expected {KEY_SCHEMA!r})"
            )
        return cls(
            kind=description["kind"],
            params=tuple(
                (name, canonical_json(value))
                for name, value in description["params"]
            ),
        )
