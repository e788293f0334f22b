"""The byte-level store entry codec against the dict codec it replaced.

``repro.service.store`` writes an entry as the key's memoized prefix, the
result's canonical JSON and a fixed tail, and verifies a read by those
bytes alone.  The reference (``tests/store_reference.py``) builds and
checks the same entry as a decoded dict.  Under test: the two encoders
write identical bytes; every single-byte flip and every truncation of a
stored entry reads back as the original result or a counted ``corrupt``
miss, never a different answer; a store the reference wrote reads back
as all hits; and an entry re-serialized with other whitespace — which
the reference accepted — is now a counted miss.
"""

import gc
import json
import os
import types

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.canonical import canonical_json, decode, encode, text
from repro.core.freeze import frozendict
from repro.core.packed import StateInterner
from repro.core.runtime import Trace, TraceEvent
from repro.service.keys import QueryKey
from repro.service.store import CertificateStore, SegmentLog, _encode_entry

from .store_reference import reference_encode_entry, reference_verify_entry

# -- strategies -------------------------------------------------------------

_TEXT = st.text(
    alphabet=st.characters(blacklist_categories=("Cs",)), max_size=12
)

JSON_SCALARS = (
    st.none()
    | st.booleans()
    | st.integers(min_value=-(2**70), max_value=2**70)
    | st.floats(allow_nan=False)
    | _TEXT
)

JSON_PAYLOADS = st.recursive(
    JSON_SCALARS,
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(_TEXT, children, max_size=4),
    max_leaves=20,
)


def _frozen(scalars):
    return st.recursive(
        scalars,
        lambda children: st.lists(children, max_size=4).map(tuple)
        | st.frozensets(children, max_size=4)
        | st.dictionaries(children, children, max_size=3).map(frozendict),
        max_leaves=12,
    )


PARAM_VALUES = _frozen(
    st.none()
    | st.booleans()
    | st.integers(min_value=-1000, max_value=1000)
    | st.floats(allow_nan=False)
    | _TEXT
)

QUERY_KEYS = st.builds(
    lambda kind, params: QueryKey.make(kind, **params),
    _TEXT,
    st.dictionaries(
        st.from_regex(r"[a-z_]{1,8}", fullmatch=True), PARAM_VALUES,
        max_size=3,
    ),
)


# -- fixtures ---------------------------------------------------------------

KEY = QueryKey.make(
    "flp-analysis", protocol="quorum-vote", n=3, tags=frozenset({"ä", 2})
)
RESULT = {
    "protocol": "quorum-vote",
    "failure_mode": "agreement-violation",
    "path": [[0, "m→1"], [1, None]],
    "ratio": 0.25,
    "ok": False,
}


def _stored(tmp_path):
    store = CertificateStore(str(tmp_path / "certs"))
    path = store.put(KEY, RESULT)
    with open(path, "rb") as handle:
        return store, path, handle.read()


def _read_back(store, path, data):
    """Write ``data`` as the entry for KEY and read it; return
    (result, corrupt counted by this read)."""
    with open(path, "wb") as handle:
        handle.write(data)
    before = store.corrupt
    return store.get(KEY), store.corrupt - before


# -- the encoder ------------------------------------------------------------


@settings(max_examples=300, deadline=None)
@given(QUERY_KEYS, JSON_PAYLOADS)
def test_entry_bytes_equal_the_reference(key, result):
    assert _encode_entry(key, result) == reference_encode_entry(key, result)


def test_entry_prefix_is_memoized_on_the_key():
    key = QueryKey.make("register-search", depth=2)
    assert key.entry_prefix() is key.entry_prefix()
    assert key.entry_prefix().startswith(b'{"key":')
    assert key.fingerprint().encode() in key.entry_prefix()


# -- reads: never a different answer ----------------------------------------


@pytest.mark.parametrize("mask", [0x01, 0x20, 0x80])
def test_every_single_byte_flip_is_a_counted_miss(tmp_path, mask):
    store, path, data = _stored(tmp_path)
    for position in range(len(data)):
        flipped = bytearray(data)
        flipped[position] ^= mask
        # Never a different answer; in fact the checks cover every
        # byte, so no flip goes unnoticed.
        assert _read_back(store, path, bytes(flipped)) == (None, 1), position
    assert store.hits == 0


def test_every_truncation_is_a_counted_miss(tmp_path):
    store, path, data = _stored(tmp_path)
    for length in range(len(data)):
        assert _read_back(store, path, data[:length]) == (None, 1), length
    assert _read_back(store, path, data) == (RESULT, 0)


def test_segment_flips_never_yield_a_wrong_entry(tmp_path):
    keys = [QueryKey.make("chaos-corpus", target="t", n=i) for i in range(3)]
    expected = {k.fingerprint(): {"seed": i, "atoms": [i, "x"]}
                for i, k in enumerate(keys)}
    log = SegmentLog(str(tmp_path / "corpus"))
    for key in keys:
        log.add(key, expected[key.fingerprint()])
    log.close()
    (name,) = os.listdir(log.directory)
    segment = os.path.join(log.directory, name)
    with open(segment, "rb") as handle:
        data = handle.read()
    for position in range(len(data)):
        flipped = bytearray(data)
        flipped[position] ^= 0x01
        with open(segment, "wb") as handle:
            handle.write(flipped)
        reader = SegmentLog(str(tmp_path / "corpus"))
        read = {key.fingerprint(): result for key, result in reader.items()}
        assert all(expected[fp] == result for fp, result in read.items())
        assert len(read) < len(keys), position
        assert reader.corrupt >= 1


def test_store_written_by_the_reference_reads_back_all_hits(tmp_path):
    store = CertificateStore(str(tmp_path / "certs"))
    written = {}
    for i in range(6):
        key = QueryKey.make("valency", depth=i, inputs=(0, 1, i))
        result = {"i": i, "labels": ["bivalent", "0-valent"][: i % 3],
                  "text": "ünïcödé" * i, "x": i / 7}
        path = store._object_path(key.fingerprint())
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "wb") as handle:
            handle.write(reference_encode_entry(key, result))
        written[key] = result
    for key, result in written.items():
        assert store.get(key) == result
    assert store.stats == {"hits": 6, "misses": 0, "corrupt": 0, "puts": 0}


def test_reserialized_entry_is_a_counted_miss(tmp_path):
    # The one deliberate behaviour change: the reference verifier
    # accepted any JSON re-serialization of a valid entry; the store now
    # trusts only the exact bytes put writes.
    store, path, data = _stored(tmp_path)
    entry = json.loads(data)
    reformatted = (json.dumps(entry, indent=1) + "\n").encode("utf-8")
    assert reference_verify_entry(json.loads(reformatted))[1] == RESULT
    result, corrupt = _read_back(store, path, reformatted)
    assert (result, corrupt) == (None, 1)
    assert store.stats == {"hits": 0, "misses": 1, "corrupt": 1, "puts": 1}


# -- the canonical value codec ----------------------------------------------


def _text(value):
    return canonical_json(encode(value))


#: A nested-set value whose decoded copy once re-encoded with its two
#: members swapped, when members were ordered by their (layout-dependent)
#: ``repr``.
NESTED_SETS = frozenset({
    frozenset({frozenset({-2.0639558169820896e+16}), 4}),
    frozenset({None}),
})


@settings(max_examples=300, deadline=None)
@given(PARAM_VALUES)
@example(NESTED_SETS)
def test_canonical_round_trip_is_exact(value):
    text = _text(value)
    decoded = decode(json.loads(text))
    assert decoded == value
    assert _text(decoded) == text


# Equal values, different encodings: equality conflates ``1``, ``True``
# and ``1.0``, and ``0.0`` with ``-0.0``.
TYPE_COLLISIONS = [
    ((0, True), (0, 1)),
    (frozendict({0.0: "k"}), frozendict({False: "k"})),
    ((1.0,), (1,)),
    ((-0.0,), (0.0,)),
    (((0, True),), ((0, 1),)),
    (frozenset({True, 2}), frozenset({1, 2})),
    (frozenset({0, True}), frozenset({False, 1})),
    (frozenset({(0, 1.0)}), frozenset({(0, 1)})),
    (frozendict({"k": 1, True: 0}), frozendict({"k": 1, 1: 0})),
    (frozendict({"k": (1,)}), frozendict({"k": (True,)})),
]


@pytest.mark.parametrize("first, second", TYPE_COLLISIONS)
def test_decoding_is_type_exact_after_an_equal_value_was_interned(first, second):
    assert first == second and _text(first) != _text(second)
    # Equal states share one id in a graph's interner; decoding neither
    # reads nor feeds that identity, in either order.
    interner = StateInterner()
    for pair in ((first, second), (second, first)):
        texts = [_text(value) for value in pair]
        decoded = [decode(json.loads(text)) for text in texts]
        assert [_text(value) for value in decoded] == texts
        assert interner.intern(decoded[0]) == interner.intern(decoded[1])


def test_decoded_values_are_held_by_nothing_else():
    decoded = decode(json.loads(_text((0, frozenset({(1, True)})))))
    holders = [
        ref for ref in gc.get_referrers(decoded)
        if not isinstance(ref, types.FrameType)
    ]
    assert holders == []


@pytest.mark.parametrize(
    "bad", [{"t": [1], "fs": [2]}, {"x": [1]}, {}, [1, 2]]
)
def test_malformed_canonical_values_raise(bad):
    with pytest.raises(ValueError):
        decode(bad)


# -- one value, one encoding -------------------------------------------------

# Members never equal across types (no bools beside ints, no floats), so
# rebuilding a set from its members keeps every one of them:
# ``frozenset([1, True])`` would keep whichever came first.
DISTINCT_MEMBERS = _frozen(
    st.none() | st.integers(min_value=-64, max_value=64) | _TEXT
)

# Sets of at most one member: their repr has only one order to show.
FIXED_ORDER_VALUES = st.recursive(
    st.none()
    | st.booleans()
    | st.integers(min_value=-(2**70), max_value=2**70)
    | st.floats()
    | _TEXT,
    lambda children: st.lists(children, max_size=4).map(tuple)
    | st.frozensets(children, max_size=1)
    | st.dictionaries(children, children, max_size=3).map(frozendict),
    max_leaves=12,
)


def _rebuilt_reversed(value):
    """An equal copy of ``value`` whose sets and mappings were filled in
    the reverse of the original's iteration order."""
    if isinstance(value, tuple):
        return tuple(_rebuilt_reversed(v) for v in value)
    if isinstance(value, frozenset):
        return frozenset(_rebuilt_reversed(v) for v in reversed(list(value)))
    if isinstance(value, frozendict):
        return frozendict(
            (_rebuilt_reversed(k), _rebuilt_reversed(v))
            for k, v in reversed(list(value.items()))
        )
    return value


def _fingerprint(value):
    event = TraceEvent(0, "p", "send", value)
    return Trace("probe", "codec", 0, (event,)).fingerprint()


@settings(max_examples=300, deadline=None)
@given(DISTINCT_MEMBERS)
@example(frozenset([0, 8]))
@example((frozenset(), frozenset([frozenset()])))
@example(frozenset([frozenset([0, 8]), frozenset([16, 24])]))
@example(frozendict({frozenset([0, 8]): (frozenset([8, 16]),)}))
@example(NESTED_SETS)
def test_equal_values_built_in_either_order_encode_alike(value):
    twin = _rebuilt_reversed(value)
    assert twin == value
    assert text(twin) == text(value)
    assert eval(text(value), {"frozendict": frozendict}) == value
    assert _text(twin) == _text(value)
    assert _fingerprint(twin) == _fingerprint(value)


def test_reversed_build_can_reorder_a_repr():
    # The property above has teeth: the two builds of this set iterate,
    # and so ``repr``, in different orders.
    first, second = frozenset([0, 8]), frozenset([8, 0])
    assert repr(first) != repr(second)
    assert text(first) == text(second) == "frozenset({0, 8})"


@settings(max_examples=300, deadline=None)
@given(FIXED_ORDER_VALUES)
@example((frozenset(), frozenset([frozenset()])))
def test_text_is_repr_where_the_repr_has_one_order(value):
    # Set-free values, and sets too small to have two orders.
    assert text(value) == repr(value)
