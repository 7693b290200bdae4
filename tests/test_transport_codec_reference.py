"""The codec's fast paths against its reference walk and the estimator.

``encode_message`` encodes through a fast walk (memoized tagged strings,
the scalars of a container encoded in its own loop) and keeps the plain
recursive ``_encode_value`` as the walk that names an offending value's
path.  ``decode_message`` sizes what it decodes from the lengths it
reads.  Over the codec's whole value grammar and the golden corpus:

* the fast encoder's bytes are the reference walk's, byte for byte;
* a decoded copy's :attr:`Message.size` is its ``size_bytes()`` — the
  size the sender's estimator gives the same message;
* whatever the fast walk cannot encode raises the reference walk's
  :class:`CodecError`, which names the path.
"""

import math
import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.net.message import Message
from repro.transport import codec
from repro.transport.codec import (CodecError, decode_message,
                                   encode_message)
from tests.test_transport_wire_golden import CORPUS, _message

FIELDS = ("kind", "payload", "src", "dst", "hops", "msg_id", "trace",
          "trace_ctx")

#: The widest int the 2-byte length field carries (its length is
#: ``(bit_length + 8) // 8`` = 0xFFFF bytes), and the narrowest it does not.
WIDEST = 2 ** (8 * 0xFFFF - 1) - 1
TOO_WIDE = WIDEST + 1


def int_id(value):
    """A test id for an int too long to print."""
    if value.bit_length() < 200:
        return hex(value)
    return f"{'-' if value < 0 else ''}2^{value.bit_length()}"


def reference_body(msg):
    """The body as the reference walk writes it."""
    parts = [bytes([codec.WIRE_VERSION])]
    for name in FIELDS:
        codec._encode_value(parts, getattr(msg, name))
    return b"".join(parts)


def check(msg):
    """Fast bytes == reference bytes, and the decode sizes the copy as the
    estimator sizes the original."""
    body = encode_message(msg)
    assert body == reference_body(msg)
    decoded = decode_message(body)
    assert decoded.size == decoded.size_bytes() == msg.size_bytes()
    assert encode_message(decoded) == body
    return decoded


# ----------------------------------------------------------------------
# The value grammar: every wire type, nested
# ----------------------------------------------------------------------
SCALARS = st.one_of(
    st.none(), st.booleans(), st.integers(),
    st.floats(allow_nan=True, allow_infinity=True),
    st.text(), st.binary(max_size=8))
#: Hashable wire values (NaN is left out of keys: it never equals itself).
KEYS = st.one_of(
    st.none(), st.booleans(), st.integers(), st.floats(allow_nan=False),
    st.text(max_size=8), st.binary(max_size=4),
    st.tuples(st.integers(), st.text(max_size=4)))
VALUES = st.recursive(
    SCALARS,
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.lists(inner, max_size=4).map(tuple),
        st.dictionaries(KEYS, inner, max_size=4)),
    max_leaves=20)
ADDRESSES = st.one_of(st.none(), st.integers(min_value=0, max_value=2**20))


@settings(max_examples=300, deadline=None)
@given(kind=st.text(), payload=VALUES, src=ADDRESSES, dst=ADDRESSES,
       hops=st.integers(min_value=0, max_value=300),
       msg_id=st.integers(min_value=1, max_value=2**40),
       trace=st.one_of(st.none(), st.lists(st.integers(0, 2**16), max_size=4)),
       trace_ctx=st.one_of(st.none(), st.tuples(st.integers(), st.integers())))
def test_fast_encoder_is_the_reference_walk_and_decode_sizes(
        kind, payload, src, dst, hops, msg_id, trace, trace_ctx):
    check(Message(kind, payload, src, dst, hops, msg_id, trace, trace_ctx))


@pytest.mark.parametrize("entry", CORPUS, ids=lambda entry: entry["name"])
def test_golden_corpus(entry):
    check(_message(entry["message"]))


# ----------------------------------------------------------------------
# The edges, one by one
# ----------------------------------------------------------------------
@settings(max_examples=200, deadline=None)
@given(st.text(alphabet=st.characters(min_codepoint=0x80,
                                      blacklist_categories=("Cs",)),
               min_size=1))
def test_non_ascii_strings(text):
    decoded = check(Message(text, {text: [text, (text,)]}))
    assert decoded.kind == text
    assert decoded.size == 24 + 4 * len(text.encode())


@pytest.mark.parametrize("where", ("kind", "key", "value", "item"))
def test_a_surrogate_is_a_codec_error_naming_its_path(where):
    bad = "ok\ud800"
    msg = {"kind": Message(bad, {}),
           "key": Message("t", {bad: 1}),
           "value": Message("t", {"k": bad}),
           "item": Message("t", {"k": [1, bad]})}[where]
    with pytest.raises(CodecError, match="non-UTF-8 string at "):
        encode_message(msg)
    # A failed encode memoizes nothing, and the next message is whole.
    assert bad not in codec._str_frames
    check(Message("t", {"k": "fine"}))


def test_bool_and_int_stay_apart():
    decoded = check(Message("t", {"b": [True, False, 1, 0],
                                  True: 1, 0: False}))
    assert [type(v) for v in decoded.payload["b"]] == [bool, bool, int, int]
    # Sized apart too: a bool is 1 byte, an int 8.
    assert Message("t", {"v": True}).size_bytes() + 7 == \
        Message("t", {"v": 1}).size_bytes()


def test_signed_zeros_and_nan_keep_their_bits():
    values = [0.0, -0.0, math.nan, -math.nan, math.inf, -math.inf]
    decoded = check(Message("t", {"f": values}))
    assert ([struct.pack(">d", v) for v in decoded.payload["f"]]
            == [struct.pack(">d", v) for v in values])


@pytest.mark.parametrize("value", [
    -0x81, -0x80, -0x7F, -1, 0, 1, 0x7F, 0x80, 0xFF, 0x100,
    -0x8000, -0x7FFF, 0x7FFF, 0x8000, 2**63, -2**63, 2**128 + 1,
    WIDEST, -WIDEST], ids=int_id)
def test_ints_up_to_the_length_limit(value):
    decoded = check(Message("t", {"v": value, "l": [value], "u": (value,)},
                            src=value if value >= 0 else None))
    assert decoded.payload["v"] == value and type(decoded.payload["v"]) is int


@pytest.mark.parametrize("value", [TOO_WIDE, -TOO_WIDE], ids=int_id)
def test_an_int_past_the_length_limit_is_a_codec_error(value):
    with pytest.raises(CodecError,
                       match=r"integer too large for the wire at payload\['l'\]\[0\]"):
        encode_message(Message("t", {"l": [value]}))


def test_bytes_nested_containers_and_non_str_keys():
    payload = {
        b"raw": b"\x00\xff",
        1: [(), [], {}, ((1, "a"), [b"", None])],
        (2, "k"): {None: (True, 1.5), False: [[[]]]},
        2.5: "f",
        None: {0: -1},
    }
    decoded = check(Message("t", payload))
    assert decoded.payload == payload
    assert type(decoded.payload[1][3]) is tuple
    assert type(decoded.payload[1][3][1]) is list


def test_an_unserializable_value_names_its_path_as_before():
    with pytest.raises(CodecError,
                       match=r"unserializable payload at payload\['a'\]\[1\]"):
        encode_message(Message("t", {"a": [1, {2}]}))
