"""The canonical value codec: how a frozen value becomes text and bytes.

Trace fingerprints, derived seeds and certificate-store keys are content
addresses, and a content address is evidence only if it is a function
of the value it names: two values that compare equal must be written
down alike, whatever order they were built in and whatever
``PYTHONHASHSEED`` the process drew.  This module is the one place that
decides how a value is written down.

* **Domain.**  ``None``, ``bool``, ``int``, ``float`` and ``str``
  scalars, tuples, frozensets and :class:`~repro.core.freeze.frozendict`
  mappings, nested freely.  :func:`encode` also takes lists, sets and
  dicts, as the tuple, frozenset and frozendict they freeze to.

* **Member order.**  A set's members, and a mapping's entries, are
  written in the order of the members' (keys') canonical :func:`text`,
  never in hash-table order.  A set's ``repr`` follows its table layout,
  which depends on how the set was built and, for strings, on the hash
  seed; this order depends on neither.

* **Two renderings.**  :func:`text` is Python source text,
  byte-identical to ``repr`` for every value that holds no set (a
  frozendict's ``repr`` is canonical text), so set-free fingerprints
  and seeds are what they always were.  :func:`encode` /
  :func:`decode` are the tagged JSON form (``{"t": [...]}`` for tuples,
  ``{"fs": [...]}`` for frozensets, ``{"fd": [[k, v], ...]}`` for
  frozendicts) that trace JSONL, chaos artifacts, the schedule corpus
  and store keys use; :func:`canonical_json` writes a JSON-native
  payload as canonical text.  :func:`decode` returns the value it
  builds, so it is type-exact: ``1``, ``True`` and ``1.0`` compare
  equal but decode apart, and every decoded value re-encodes to the
  bytes it came from.

* **Fast path.**  Only a set makes ``repr`` non-canonical, and every set
  in a ``repr`` shows as ``frozenset(``.  :func:`text` and
  :func:`lines` therefore run the C ``repr`` and re-render through the
  member order only the values whose ``repr`` holds that marker.
"""

from __future__ import annotations

import json
from typing import Any, Mapping, Sequence

from .freeze import frozendict

#: Appears in the ``repr`` of every value that holds a frozenset.
_SET_MARK = "frozenset("


def text(value: Any) -> str:
    """The canonical source text of ``value``.

    Equal to ``repr(value)`` unless ``value`` holds a set, whose members
    are then written in canonical order.  Values outside the domain
    (other types, containers of them) are written by their ``repr``.
    """
    rendered = repr(value)
    return _render(value) if _SET_MARK in rendered else rendered


def lines(values: Sequence[Any]) -> str:
    """The :func:`text` of each value, joined by newlines.

    One ``repr`` pass over all of them, and one marker check on the
    joined text: only when that finds a set are the values that hold
    one re-rendered.
    """
    reprs = [repr(value) for value in values]
    joined = "\n".join(reprs)
    if _SET_MARK not in joined:
        return joined
    return "\n".join([
        rendered if _SET_MARK not in rendered else _render(value)
        for value, rendered in zip(values, reprs)
    ])


def frozendict_text(entries: Mapping) -> str:
    """The canonical text of a :class:`~repro.core.freeze.frozendict`
    holding ``entries``, which is also its ``repr``: entries in the
    order of their keys' text."""
    pairs = sorted(zip(_texts(entries), _texts(entries.values())))
    return "frozendict({" + ", ".join([f"{k}: {v}" for k, v in pairs]) + "})"


def _texts(values: Any) -> list:
    """:func:`text` of each of ``values``."""
    return [
        rendered if _SET_MARK not in rendered else _render(value)
        for value in values
        for rendered in (repr(value),)
    ]


def _render(value: Any) -> str:
    """:func:`text` of a value whose ``repr`` shows a set."""
    kind = type(value)
    if kind is tuple:
        inner = ", ".join(_texts(value))
        return f"({inner},)" if len(value) == 1 else f"({inner})"
    if kind is frozenset:
        if not value:
            return "frozenset()"
        return "frozenset({" + ", ".join(sorted(_texts(value))) + "})"
    # A frozendict's repr is already canonical; other types are outside
    # the domain.
    return repr(value)


def encode(value: Any) -> Any:
    """Encode a frozen value into JSON-native, canonically ordered form.

    Scalars pass through; tuples and lists become ``{"t": [...]}``,
    frozensets and sets ``{"fs": [...]}``, frozendicts and dicts
    ``{"fd": [[k, v], ...]}``, members and keys in :func:`text` order.
    Anything else is a :class:`TypeError`: an unencodable value must
    fail loudly, never produce an unstable encoding.
    """
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    if isinstance(value, (tuple, list)):
        return {"t": [encode(v) for v in value]}
    if isinstance(value, (frozenset, set)):
        return {"fs": [encode(v) for v in sorted(value, key=text)]}
    if isinstance(value, (frozendict, dict)):
        return {
            "fd": [
                [encode(k), encode(value[k])]
                for k in sorted(value, key=text)
            ]
        }
    raise TypeError(
        f"cannot canonicalize value of type {type(value).__name__}: {value!r}"
    )


#: JSON scalar types, which :func:`decode` returns unchanged
_SCALARS = frozenset({str, int, float, bool, type(None)})


def decode(value: Any) -> Any:
    """Invert :func:`encode`: the frozen value it was encoded from.

    The decoding is type-exact (``(0, True)`` and ``(0, 1)`` are equal
    but decode apart), so a decoded value re-encodes to the same bytes.
    """
    if type(value) in _SCALARS:
        return value
    if isinstance(value, dict):
        if len(value) == 1:
            ((tag, items),) = value.items()
            if tag == "t" or tag == "fs":
                # Scalar items (most of them) skip the recursive call.
                decoded = [
                    v if type(v) in _SCALARS else decode(v) for v in items
                ]
                return tuple(decoded) if tag == "t" else frozenset(decoded)
            if tag == "fd":
                return frozendict((decode(k), decode(v)) for k, v in items)
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
