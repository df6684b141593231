"""The 7-Zip archiver's codec memo against the codec it memoises.

``archiver._encode`` and ``archiver._decode`` look every codec call up
in one content-keyed cache (``cache.codec``) before running LZ77 and
Huffman.  The codec runs between a module's entry and exit probes, so
its input-to-output map is the whole contract -- corrupt inputs
included, because an injected run hands the decoder flipped
``total_bits``, ``token_len`` and ``expected_size`` values.  Each
property below compares the memoised call with a direct
``lz77_compress`` + ``huffman_encode`` (or ``huffman_decode`` +
``lz77_decompress``) call three times: with the memo cold, on the hit
that follows, and with one key field changed after the hit.  A key
missing any input the codec reads fails the third comparison.
"""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.experiments.datasets import DATASET_SPECS, build_target, campaign_config
from repro.experiments.scale import get_scale
from repro.injection.campaign import Campaign
from repro.mining.cache import clear_reuse_caches, reuse_caches_disabled
from repro.targets.sevenzip import archiver
from repro.targets.sevenzip.huffman import huffman_decode, huffman_encode
from repro.targets.sevenzip.lz77 import lz77_compress, lz77_decompress

#: What the archiver compresses: words over a small alphabet (long
#: matches, skewed symbol frequencies), or arbitrary bytes.
_FILES = st.one_of(
    st.text(alphabet="abcde ", max_size=300).map(str.encode),
    st.binary(max_size=300),
)

_DECODE_FIELDS = ("lengths", "payload", "total_bits", "token_len", "expected_size")


def _direct_encode(data: bytes) -> tuple[int, bytes, bytes, int]:
    tokens = lz77_compress(data)
    return (len(tokens), *huffman_encode(tokens))


def _direct_decode(lengths, payload, total_bits, token_len, expected_size) -> bytes:
    tokens = huffman_decode(lengths, payload, total_bits, token_len)
    return lz77_decompress(tokens, expected_size)


def _lengths_tables(valid: bytes) -> st.SearchStrategy[bytes]:
    """A corrupt lengths table: random lengths up to 255, short lengths
    that over-subscribe the code space, lengths just past the 15-bit
    cap, or a table of the wrong size."""
    return st.one_of(
        st.binary(min_size=256, max_size=256),
        st.lists(st.integers(0, 3), min_size=256, max_size=256).map(bytes),
        st.lists(st.integers(0, 18), min_size=256, max_size=256).map(bytes),
        st.binary(max_size=300).filter(lambda table: len(table) != 256),
    )


def _payloads(valid: bytes) -> st.SearchStrategy[bytes]:
    """The encoder's payload truncated, with one byte changed, or
    arbitrary bytes."""
    truncated = st.integers(0, len(valid)).map(lambda k: valid[:k])
    return st.one_of(truncated, _flip_one_byte(valid), st.binary(max_size=400))


def _flip_one_byte(data: bytes) -> st.SearchStrategy[bytes]:
    if not data:
        return st.just(b"\x00")
    return st.tuples(st.integers(0, len(data) - 1), st.integers(1, 255)).map(
        lambda flip: data[: flip[0]]
        + bytes([data[flip[0]] ^ flip[1]])
        + data[flip[0] + 1 :]
    )


def _around(value: int) -> st.SearchStrategy[int]:
    """An integer around ``value``, negative and past it included."""
    return st.integers(-8, value + 64)


@st.composite
def decode_inputs(draw) -> dict:
    """An encoded file with up to three of its decode inputs corrupted
    (the rest stay valid, so the decoder often gets far)."""
    data = draw(_FILES)
    n_tokens, lengths, payload, total_bits = _direct_encode(data)
    valid = {
        "lengths": lengths,
        "payload": payload,
        "total_bits": total_bits,
        "token_len": n_tokens,
        "expected_size": len(data),
    }
    corrupt = {
        "lengths": _lengths_tables,
        "payload": _payloads,
        "total_bits": _around,
        "token_len": _around,
        "expected_size": _around,
    }
    fields = draw(st.sets(st.sampled_from(_DECODE_FIELDS), max_size=3))
    return {
        field: draw(corrupt[field](value)) if field in fields else value
        for field, value in valid.items()
    }


@st.composite
def changed_field(draw, inputs: dict) -> tuple[str, object]:
    """One decode key field and a value different from ``inputs``'."""
    field = draw(st.sampled_from(_DECODE_FIELDS))
    old = inputs[field]
    if isinstance(old, bytes):
        values = st.one_of(
            _flip_one_byte(old), st.just(old[:-1]), st.just(old + b"\x00")
        )
    else:
        values = st.one_of(st.just(old - 1), st.just(old // 2), _around(max(old, 0)))
    return field, draw(values.filter(lambda value: value != old))


# A valid single-file archive entry, and the same entry with each key
# field changed so that the decoded bytes change: a memo key without
# that field serves the first entry's bytes for the second.
_TEXT = b"abcab abcab ccdda abcab " * 4
_N, _LENGTHS, _PAYLOAD, _BITS = _direct_encode(_TEXT)
_VALID = {
    "lengths": _LENGTHS,
    "payload": _PAYLOAD,
    "total_bits": _BITS,
    "token_len": _N,
    "expected_size": len(_TEXT),
}
_PINNED_CHANGES = {
    "lengths": bytes(reversed(_LENGTHS)),
    "payload": _PAYLOAD[: len(_PAYLOAD) // 2],
    "total_bits": _BITS // 2,
    "token_len": _N // 2,
    "expected_size": len(_TEXT) // 2,
}


@pytest.fixture(autouse=True)
def _cold_memo():
    clear_reuse_caches()
    yield
    clear_reuse_caches()


@pytest.mark.parametrize("field", _DECODE_FIELDS)
def test_every_decode_key_field_changes_the_pinned_entry(field):
    changed = dict(_VALID, **{field: _PINNED_CHANGES[field]})
    assert _direct_decode(**_VALID) == _TEXT
    assert _direct_decode(**changed) != _TEXT
    assert archiver._decode(**_VALID) == _TEXT
    assert archiver._decode(**changed) == _direct_decode(**changed)


@given(inputs=decode_inputs(), data=st.data())
@settings(
    deadline=None,
    max_examples=300,
    suppress_health_check=[HealthCheck.too_slow],
    print_blob=True,
)
def test_memoised_decode_equals_direct_codec(inputs, data):
    archiver._CODEC.clear()
    expected = _direct_decode(**inputs)
    assert archiver._decode(**inputs) == expected  # cold
    misses = archiver._CODEC.misses
    assert archiver._decode(**inputs) == expected  # hit
    assert archiver._CODEC.misses == misses
    field, value = data.draw(changed_field(inputs), label="changed")
    changed = dict(inputs, **{field: value})
    assert archiver._decode(**changed) == _direct_decode(**changed)


@given(data=_FILES, flip=st.data())
@settings(
    deadline=None,
    max_examples=200,
    suppress_health_check=[HealthCheck.too_slow],
    print_blob=True,
)
def test_memoised_encode_equals_direct_codec(data, flip):
    archiver._CODEC.clear()
    expected = _direct_encode(data)
    assert archiver._encode(data) == expected  # cold
    assert archiver._encode(data) == expected  # hit
    assert archiver._CODEC.hits == 1
    changed = flip.draw(_flip_one_byte(data), label="changed")
    assert archiver._encode(changed) == _direct_encode(changed)


def test_reuse_controls_govern_the_codec_memo():
    archiver._encode(_TEXT)
    assert len(archiver._CODEC) == 1
    clear_reuse_caches()
    assert len(archiver._CODEC) == 0
    with reuse_caches_disabled():
        assert archiver._encode(_TEXT) == _direct_encode(_TEXT)
    assert len(archiver._CODEC) == 0


_SEVENZIP = sorted(name for name in DATASET_SPECS if name.startswith("7Z"))


@pytest.mark.parametrize("name", _SEVENZIP)
def test_campaign_records_equal_without_reuse_caches(name):
    spec = DATASET_SPECS[name]
    scale = get_scale("smoke")
    target = build_target(spec.target, scale)
    config = campaign_config(spec, scale)
    with reuse_caches_disabled():
        unmemoised = Campaign(target, config).run().to_dict()
    assert archiver._CODEC.hits == 0
    memoised = Campaign(target, config).run().to_dict()
    assert archiver._CODEC.hits > 0
    assert memoised == unmemoised
