"""Helpers for turning mutable state into hashable, immutable values.

State-space exploration (reachability, valency analysis, symmetry checks)
requires automaton states to be hashable so they can live in ``set`` and
``dict``.  Process and system states are most naturally authored as nested
dicts and lists; :func:`freeze` converts such a value into an equivalent
immutable one, and :func:`thaw` converts it back for inspection.

The encoding is canonical: two structurally equal mutable values freeze to
equal hashable values, regardless of dict insertion order.

A frozen state is a value: equal states are interchangeable, and nothing
here gives them a shared identity.  Exploration engines name states by a
dense id in their own :class:`~repro.core.packed.StateInterner`, so a
frozen state is hashed deeply once per graph; :class:`frozendict` also
caches its own hash.
"""

from __future__ import annotations

from typing import Any, Mapping, Sequence


class frozendict(Mapping):
    """An immutable, hashable mapping.

    Unlike ``frozenset(d.items())``, a ``frozendict`` still supports item
    lookup, which keeps assertion messages and invariant monitors readable.
    """

    __slots__ = ("_data", "_hash")

    def __init__(self, *args, **kwargs):
        self._data = dict(*args, **kwargs)
        self._hash = None

    @classmethod
    def _from_data(cls, data: dict) -> "frozendict":
        """Wrap ``data`` without copying.  Internal fast path only: the
        caller must hand over ownership (never mutate ``data`` again)."""
        new = cls.__new__(cls)
        new._data = data
        new._hash = None
        return new

    def __getitem__(self, key):
        return self._data[key]

    def __iter__(self):
        return iter(self._data)

    def __len__(self):
        return len(self._data)

    def __hash__(self):
        if self._hash is None:
            # Order-independent combine (equal mappings hash equal no
            # matter the insertion order) without materializing a
            # frozenset of the items.  Collisions fall back to __eq__.
            h = 0x345678
            for item in self._data.items():
                h ^= hash(item)
            self._hash = hash((len(self._data), h))
        return self._hash

    def __eq__(self, other):
        if isinstance(other, frozendict):
            if self is other:
                return True
            # Cached hashes disagree => the mappings cannot be equal.
            if (
                self._hash is not None
                and other._hash is not None
                and self._hash != other._hash
            ):
                return False
            return self._data == other._data
        if isinstance(other, dict):
            return self._data == other
        return NotImplemented

    def __repr__(self):
        # Entries in canonical order (repro.core.canonical imports this
        # module, hence the late import).
        from .canonical import frozendict_text

        return frozendict_text(self._data)

    def set(self, key, value) -> "frozendict":
        """Return a copy of this mapping with ``key`` bound to ``value``."""
        if key in self._data:
            old = self._data[key]
            if old is value or old == value:
                return self
        new = dict(self._data)
        new[key] = value
        return frozendict._from_data(new)

    def update_with(self, **kwargs) -> "frozendict":
        """Return a copy with the given keyword bindings applied."""
        new = dict(self._data)
        new.update(kwargs)
        return frozendict._from_data(new)


def freeze(value: Any) -> Any:
    """Recursively convert ``value`` into an equivalent hashable value.

    * dict -> :class:`frozendict` (values frozen recursively)
    * list / tuple -> tuple of frozen elements
    * set / frozenset -> frozenset of frozen elements
    * everything else is returned unchanged (assumed already hashable)
    """
    if isinstance(value, Mapping):
        return frozendict({k: freeze(v) for k, v in value.items()})
    if isinstance(value, (list, tuple)):
        return tuple(freeze(v) for v in value)
    if isinstance(value, (set, frozenset)):
        return frozenset(freeze(v) for v in value)
    return value


def thaw(value: Any) -> Any:
    """Inverse of :func:`freeze`: produce plain dicts/lists/sets.

    Tuples become lists, which matches how states are typically authored.
    """
    if isinstance(value, frozendict):
        return {k: thaw(v) for k, v in value.items()}
    if isinstance(value, tuple):
        return [thaw(v) for v in value]
    if isinstance(value, frozenset):
        return {thaw(v) for v in value}
    return value


def is_frozen(value: Any) -> bool:
    """Return True if ``value`` is hashable all the way down."""
    try:
        hash(value)
    except TypeError:
        return False
    if isinstance(value, Mapping):
        return all(is_frozen(v) for v in value.values())
    if isinstance(value, (tuple, frozenset)):
        return all(is_frozen(v) for v in value)
    if isinstance(value, Sequence) and not isinstance(value, (str, bytes)):
        return all(is_frozen(v) for v in value)
    return True
