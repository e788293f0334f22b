"""Helpers for turning mutable state into hashable, immutable values.

State-space exploration (reachability, valency analysis, symmetry checks)
requires automaton states to be hashable so they can live in ``set`` and
``dict``.  Process and system states are most naturally authored as nested
dicts and lists; :func:`freeze` converts such a value into an equivalent
immutable one, and :func:`thaw` converts it back for inspection.

The encoding is canonical: two structurally equal mutable values freeze to
equal hashable values, regardless of dict insertion order.

Because frozen states live in the inner loops of the exploration engine
(every ``succ in reachable`` membership test hashes one), this module also
hash-conses: :class:`frozendict` computes its hash once and caches it, and
:func:`intern_frozen` maintains an intern table mapping each frozen
container to one canonical instance, so structurally equal states share
identity — and dict/set probes short-circuit on ``is`` instead of walking
deep structures.
"""

from __future__ import annotations

import weakref
from typing import Any, Dict, Mapping, Sequence


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


_INTERN: Dict[Any, Any] = {}
_INTERN_HITS = 0
_INTERN_MISSES = 0

# Objects owning per-graph interned state (dense-id tables, packed
# adjacency — see repro.core.packed).  Ids issued by those interners
# reference this process's interning epoch; clear_intern_table() starts a
# new epoch, so every registered owner is asked to drop its packed state
# too.  Weak references: registration must not extend any graph's life.
_PACKED_OWNERS: "weakref.WeakSet" = weakref.WeakSet()


def register_packed_owner(owner: Any) -> None:
    """Register an object exposing ``reset_packed_state()`` for cascade
    clearing by :func:`clear_intern_table` (weakly referenced)."""
    _PACKED_OWNERS.add(owner)


def intern_frozen(value: Any) -> Any:
    """Hash-cons ``value``: return the canonical instance equal to it.

    Only container values (:class:`frozendict`, tuple, frozenset) are
    interned — scalars are returned unchanged.  Unhashable values pass
    through untouched.  The canonical instance is whichever equal value
    was interned first, so states that recur across explorations share
    one object and equality checks inside set/dict probes reduce to
    identity.
    """
    global _INTERN_HITS, _INTERN_MISSES
    # frozendict last: its ABC instance check is the slow one.
    if not isinstance(value, (tuple, frozenset, frozendict)):
        return value
    try:
        canonical = _INTERN.get(value)
    except TypeError:
        return value
    if canonical is not None:
        _INTERN_HITS += 1
        return canonical
    _INTERN[value] = value
    _INTERN_MISSES += 1
    return value


def intern_table_stats() -> Dict[str, Any]:
    """Size and hit-rate accounting for the global intern table."""
    probes = _INTERN_HITS + _INTERN_MISSES
    return {
        "size": len(_INTERN),
        "hits": _INTERN_HITS,
        "misses": _INTERN_MISSES,
        "hit_rate": (_INTERN_HITS / probes) if probes else 0.0,
    }


def clear_intern_table() -> None:
    """Empty the intern table (mainly for long-running processes and tests).

    Also resets every registered per-graph interner (state graphs,
    transition caches): their dense ids index tables built from this
    process's interning epoch, so the global clear cascades — otherwise a
    long-lived graph would both leak the old canonical instances and keep
    serving ids from the dead epoch.
    """
    global _INTERN_HITS, _INTERN_MISSES
    _INTERN.clear()
    _INTERN_HITS = 0
    _INTERN_MISSES = 0
    for owner in list(_PACKED_OWNERS):
        reset = getattr(owner, "reset_packed_state", None)
        if reset is not None:
            reset()


def freeze(value: Any, intern: bool = True) -> Any:
    """Recursively convert ``value`` into an equivalent hashable value.

    * dict -> :class:`frozendict` (values frozen recursively)
    * list / tuple -> tuple of frozen elements
    * set / frozenset -> frozenset of frozen elements
    * everything else is returned unchanged (assumed already hashable)

    With ``intern`` (the default), frozen containers are hash-consed
    through :func:`intern_frozen` so equal states share one instance.
    """
    if isinstance(value, frozendict):
        frozen: Any = frozendict(
            {k: freeze(v, intern) for k, v in value.items()}
        )
    elif isinstance(value, Mapping):
        frozen = frozendict({k: freeze(v, intern) for k, v in value.items()})
    elif isinstance(value, (list, tuple)):
        frozen = tuple(freeze(v, intern) for v in value)
    elif isinstance(value, (set, frozenset)):
        frozen = frozenset(freeze(v, intern) for v in value)
    else:
        return value
    return intern_frozen(frozen) if intern else frozen


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
