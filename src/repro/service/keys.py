"""Canonical request fingerprints: the certificate store's key schema.

Everything the engines produce is a deterministic function of
``(protocol, inputs, adversary, seed)`` — so a *request* for a result is
fully described by a query kind plus its canonicalized parameters, and
the sha256 of that canonical form is a content address for the answer.
This module owns both halves:

* :func:`encode_canonical` / :func:`decode_canonical` — a JSON-safe,
  bijective encoding of the frozen-value vocabulary the engines speak
  (scalars, tuples, frozensets, :class:`~repro.core.freeze.frozendict`).
  It extends the tagged encoding :meth:`Trace.to_jsonl` uses (``{"t":
  ...}`` for tuples, ``{"fs": ...}`` for frozensets) with ``{"fd": ...}``
  for frozendicts, so any interned automaton state or configuration
  round-trips exactly.

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

from ..core.freeze import frozendict, intern_frozen

KEY_SCHEMA = "repro-query-key/v1"


def encode_canonical(value: Any) -> Any:
    """Encode a frozen value into JSON-native, canonically ordered form.

    Scalars pass through; tuples and lists become ``{"t": [...]}``,
    frozensets and sets ``{"fs": [...]}`` (sorted by repr — the same
    canonical order :mod:`repro.core.runtime` uses), frozendicts and
    dicts ``{"fd": [[k, v], ...]}`` sorted by key repr.  Anything else
    is a :class:`TypeError` — an unencodable request parameter should
    fail loudly at key construction, never produce an unstable key.
    """
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    if isinstance(value, (tuple, list)):
        return {"t": [encode_canonical(v) for v in value]}
    if isinstance(value, (frozenset, set)):
        return {"fs": [encode_canonical(v) for v in sorted(value, key=repr)]}
    if isinstance(value, (frozendict, dict)):
        return {
            "fd": [
                [encode_canonical(k), encode_canonical(value[k])]
                for k in sorted(value, key=repr)
            ]
        }
    raise TypeError(
        f"cannot canonicalize value of type {type(value).__name__}: {value!r}"
    )


#: JSON scalar types, which :func:`decode_canonical` returns unchanged
_SCALARS = frozenset({str, int, float, bool, type(None)})


#: Scalar types whose equal values of one type encode alike
_FLAT = frozenset({str, int, bool, type(None)})


def _encodes_alike(canonical: Any, value: Any) -> bool:
    """Whether two equal frozen values also encode alike.  Equality
    conflates ``1``, ``True`` and ``1.0`` (and ``0.0`` with ``-0.0``), so
    the interned instance equal to a decoded value may not be it."""
    if canonical is value:
        return True
    kind = type(value)
    if type(canonical) is not kind:
        return False
    if kind is tuple:
        for x, y in zip(canonical, value):
            if x is not y and (
                type(x) is not type(y)
                or type(y) not in _FLAT and not _encodes_alike(x, y)
            ):
                return False
        return True
    if kind is frozenset:
        types = set(map(type, value))
        if _FLAT.issuperset(types):
            # Of two equal flat scalars only a bool and an int differ.
            return types == set(map(type, canonical)) and (
                bool not in types
                or {x for x in value if type(x) is bool}
                == {x for x in canonical if type(x) is bool}
            )
        match = {item: item for item in canonical}
        return all(_encodes_alike(match[item], item) for item in value)
    if kind is frozendict:
        match = {k: k for k in canonical}
        return all(
            _encodes_alike(match[k], k) and _encodes_alike(canonical[k], v)
            for k, v in value.items()
        )
    if kind is float:
        return repr(canonical) == repr(value)
    return kind in _FLAT


def decode_canonical(value: Any) -> Any:
    """Invert :func:`encode_canonical`, producing interned frozen values.

    Tuples, frozensets and frozendicts come back as the canonical
    (hash-consed) instances via :func:`~repro.core.freeze.intern_frozen`,
    so a decoded state table shares identity with live exploration — a
    reloaded graph probes sets exactly as a freshly built one does.  The
    decoding is type-exact: where the canonical instance is equal but
    not alike (``(0, True)`` for ``(0, 1)``), the decoded value comes
    back un-interned, so it always re-encodes to the same bytes.
    """
    if type(value) in _SCALARS:
        return value
    if isinstance(value, dict):
        if len(value) == 1:
            ((tag, items),) = value.items()
            if tag == "t" or tag == "fs":
                # Scalar items (most of them) skip the recursive call.
                decoded = [
                    v if type(v) in _SCALARS else decode_canonical(v)
                    for v in items
                ]
                value = tuple(decoded) if tag == "t" else frozenset(decoded)
            elif tag == "fd":
                value = frozendict(
                    (decode_canonical(k), decode_canonical(v))
                    for k, v in items
                )
            else:
                raise ValueError(f"unknown tagged value {value!r}")
            canonical = intern_frozen(value)
            return canonical if _encodes_alike(canonical, value) else value
        raise ValueError(f"unknown tagged value {value!r}")
    if isinstance(value, list):
        raise ValueError(f"bare JSON array in canonical encoding: {value!r}")
    return value


def canonical_json(payload: Any) -> str:
    """Canonical JSON text of a JSON-native payload (sorted keys, tight
    separators) — byte-stable across processes and dict orders."""
    return json.dumps(
        payload, sort_keys=True, separators=(",", ":"), ensure_ascii=True
    )


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
                (name, canonical_json(encode_canonical(value)))
                for name, value in params.items()
            )
        )
        return cls(kind=kind, params=encoded)

    def param(self, name: str, default: Any = None) -> Any:
        """Decode one parameter back to its frozen value."""
        for key, text in self.params:
            if key == name:
                return decode_canonical(json.loads(text))
        return default

    def params_dict(self) -> Dict[str, Any]:
        """Every parameter, decoded (frozen values)."""
        return {name: decode_canonical(json.loads(text))
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
