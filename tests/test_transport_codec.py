"""Wire-codec property suite: canonical bytes, adversarial values,
version/corruption rejection, and incremental framing."""

import math
import random
import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.net.message import Message
from repro.transport.codec import (
    MAX_FRAME_BYTES,
    WIRE_VERSION,
    CodecError,
    decode_message,
    encode_frame,
    encode_message,
    frame,
    roundtrip_check,
    split_frames,
)
from tests.test_transport_wire_golden import CORPUS


def rt(payload):
    """Round-trip a message with ``payload``; return the decoded copy."""
    msg = Message(kind="t", payload=payload)
    decoded, _body = roundtrip_check(msg)
    return decoded


# ----------------------------------------------------------------------
# Value round trips
# ----------------------------------------------------------------------
ADVERSARIAL_INTS = [0, 1, -1, 127, 128, 255, 256, -128, -129,
                    2**63 - 1, -2**63, 2**128, -2**128, 2**200, -2**200 + 1]

ADVERSARIAL_FLOATS = [0.0, -0.0, 1.5, -1.5, 1e308, -1e308, 5e-324,
                      math.inf, -math.inf, math.nan, 0.1 + 0.2]

ADVERSARIAL_STRINGS = ["", "ascii", "ümlaut", "日本語", "🦀🚀",
                       "a\x00b", "  ", "𝔘𝔫𝔦𝔠𝔬𝔡𝔢"]


@pytest.mark.parametrize("value", ADVERSARIAL_INTS)
def test_int_roundtrip(value):
    decoded = rt({"v": value})
    assert decoded.payload["v"] == value
    assert type(decoded.payload["v"]) is int


@pytest.mark.parametrize("value", ADVERSARIAL_FLOATS)
def test_float_roundtrip_bit_exact(value):
    decoded = rt({"v": value})
    got = decoded.payload["v"]
    assert type(got) is float
    # Bit-exact, which == can't check for NaN / -0.0.
    assert struct.pack(">d", got) == struct.pack(">d", value)


@pytest.mark.parametrize("value", ADVERSARIAL_STRINGS)
def test_str_roundtrip(value):
    assert rt({"v": value}).payload["v"] == value


def test_scalar_and_container_roundtrip():
    payload = {
        "none": None, "t": True, "f": False,
        "bytes": b"\x00\xff\x7f", "empty_list": [], "empty_dict": {},
        "empty_tuple": (), "nested": [{"a": (1, 2, [3, {"b": None}])}],
    }
    decoded = rt(payload)
    assert decoded.payload == payload


def test_tuple_and_list_stay_distinct():
    decoded = rt({"tup": (1, 2), "lst": [1, 2]})
    assert type(decoded.payload["tup"]) is tuple
    assert type(decoded.payload["lst"]) is list


def test_bool_and_int_stay_distinct():
    decoded = rt({"b": True, "i": 1})
    assert decoded.payload["b"] is True
    assert type(decoded.payload["i"]) is int


def test_dict_insertion_order_preserved():
    forward = encode_message(Message(kind="t", payload={"a": 1, "b": 2}))
    backward = encode_message(Message(kind="t", payload={"b": 2, "a": 1}))
    assert forward != backward  # order is part of the canonical bytes
    decoded = decode_message(backward)
    assert list(decoded.payload.keys()) == ["b", "a"]


def test_canonical_bytes_are_deterministic():
    msg = Message(kind="k", payload={"x": [1.5, "s", (2, None)]},
                  src=3, dst=4, hops=2, trace=[1, 2], trace_ctx=("q", 7))
    assert encode_message(msg) == encode_message(msg)
    decoded, body = roundtrip_check(msg)
    assert encode_message(decoded) == body


def test_message_fields_preserved():
    msg = Message(kind="route", payload={"op": "join"}, src=11, dst=22,
                  hops=5, trace=[11, 9], trace_ctx=("trace", 42))
    decoded, _ = roundtrip_check(msg)
    assert decoded.kind == "route"
    assert decoded.src == 11 and decoded.dst == 22 and decoded.hops == 5
    assert decoded.trace == [11, 9]
    assert decoded.trace_ctx == ("trace", 42)
    assert type(decoded.trace_ctx) is tuple
    assert decoded.msg_id == msg.msg_id  # the sender's id travels


def test_decode_does_not_consume_fresh_msg_ids():
    body = encode_message(Message(kind="t", payload={}))
    decode_message(body)
    a = Message(kind="x", payload={})
    decode_message(body)
    b = Message(kind="x", payload={})
    assert b.msg_id == a.msg_id + 1  # decoding allocated no ids between


# ----------------------------------------------------------------------
# Rejection
# ----------------------------------------------------------------------
@pytest.mark.parametrize("payload", [
    {"fn": lambda: None},
    {"set": {1, 2}},
    {"obj": object()},
    {"cls": Message},
    {"nested": [1, {"deep": {"bad": range(3)}}]},
])
def test_unserializable_payloads_rejected(payload):
    with pytest.raises(CodecError):
        encode_message(Message(kind="t", payload=payload))


def test_subclasses_of_wire_types_rejected():
    class SneakyInt(int):
        pass

    class SneakyDict(dict):
        pass

    with pytest.raises(CodecError):
        encode_message(Message(kind="t", payload={"v": SneakyInt(3)}))
    with pytest.raises(CodecError):
        encode_message(Message(kind="t", payload=SneakyDict(a=1)))


_HINT = " — carry an address/topic reference instead"
_MAX_INT = 2 ** (8 * 0xFFFF - 9)  # the largest magnitude 2 length bytes carry


# The texts are the ones the encoder raised when it built every path
# eagerly (recorded from PR 19's tree): the failure-only re-walk must name
# the same first offender, by the same path, in the same words.
OFFENDING_PATHS = [
    ({"payload": {"inner": [1, {1, 2}]}},
     "unserializable payload at payload['inner'][1]: set ({1, 2})" + _HINT),
    ({"payload": {"t": (1, range(3))}},
     "unserializable payload at payload['t'][1]: range (range(0, 3))" + _HINT),
    ({"payload": {"m": {frozenset({1}): 1}}},
     "unserializable payload at payload['m'].<key frozenset({1})>: "
     "frozenset (frozenset({1}))" + _HINT),
    ({"payload": {"m": {("k", 2): {"deep": [0, (None, {2})]}}}},
     "unserializable payload at payload['m'][('k', 2)]['deep'][1][1]: "
     "set ({2})" + _HINT),
    ({"payload": {"a": {1}, "b": {2}}},  # the first offender, not the last
     "unserializable payload at payload['a']: set ({1})" + _HINT),
    ({"payload": {"ok": _MAX_INT, "big": 2 ** (8 * 0xFFFF)}},
     "integer too large for the wire at payload['big']"),
    ({"payload": {"ok": -_MAX_INT, "s": ["\ud800"]}},
     "non-UTF-8 string at payload['s'][0]: 'utf-8' codec can't encode "
     "character '\\ud800' in position 0: surrogates not allowed"),
    ({"payload": {}, "trace": [1, 2.5, {3}]},
     "unserializable payload at trace[2]: set ({3})" + _HINT),
    ({"payload": {}, "trace_ctx": ("q", {4})},
     "unserializable payload at trace_ctx[1]: set ({4})" + _HINT),
]


def test_error_names_the_offending_path():
    for fields, text in OFFENDING_PATHS:
        with pytest.raises(CodecError) as raised:
            encode_message(Message(kind="t", **fields))
        assert str(raised.value) == text


def test_version_mismatch_rejected():
    body = bytearray(encode_message(Message(kind="t", payload={})))
    body[0] = WIRE_VERSION + 1
    with pytest.raises(CodecError, match="version mismatch"):
        decode_message(bytes(body))


#: The unframed body of every message in the golden corpus (one per
#: protocol kind plus the edge values: every tag, every nesting).
GOLDEN_BODIES = [bytes.fromhex(entry["hex"])[4:] for entry in CORPUS]


def test_truncated_body_rejected():
    """Cut at *every* offset: each proper prefix ends inside a tag, a
    length field or a value, and each is a CodecError — never an
    IndexError / struct.error."""
    for body in GOLDEN_BODIES:
        for cut in range(len(body)):
            with pytest.raises(CodecError):
                decode_message(body[:cut])


def test_invalid_utf8_rejected():
    body = encode_message(Message(kind="t", payload={"k": "value"}))
    bad = body.replace(b"value", b"va\xffue")
    with pytest.raises(CodecError, match="UTF-8"):
        decode_message(bad)


@pytest.mark.parametrize("key", [b"L\x00\x00\x00\x00",       # []
                                 b"M\x00\x00\x00\x00",       # {}
                                 b"U\x00\x00\x00\x01L\x00\x00\x00\x00"])  # ([],)
def test_unhashable_dict_key_rejected(key):
    head = encode_message(Message(kind="t", payload={}))
    tail = head[head.index(b"M\x00\x00\x00\x00") + 5:]
    body = head[:-len(tail) - 5] + b"M\x00\x00\x00\x01" + key + b"N" + tail
    with pytest.raises(CodecError, match="unhashable dict key"):
        decode_message(body)


def test_runaway_nesting_rejected():
    head = encode_message(Message(kind="t", payload={}))
    cut = head.index(b"M\x00\x00\x00\x00")
    body = head[:cut] + b"L\x00\x00\x00\x01" * 100_000 + b"N" + head[cut + 5:]
    with pytest.raises(CodecError, match="nested too deeply"):
        decode_message(body)


def decodes_or_codec_error(data):
    """The decoder is total: a Message or a CodecError, nothing else."""
    try:
        msg = decode_message(data)
    except CodecError:
        return
    assert type(msg) is Message


@settings(max_examples=300, deadline=None)
@given(st.binary(max_size=200))
def test_arbitrary_bytes_decode_or_raise_codec_error(data):
    decodes_or_codec_error(data)
    decodes_or_codec_error(bytes([WIRE_VERSION]) + data)


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_mutated_bodies_decode_or_raise_codec_error(data):
    body = bytearray(data.draw(st.sampled_from(GOLDEN_BODIES)))
    for _ in range(data.draw(st.integers(1, 4))):
        bit = data.draw(st.integers(0, len(body) * 8 - 1))
        body[bit // 8] ^= 1 << (bit % 8)
    cut = data.draw(st.integers(0, len(body)))
    decodes_or_codec_error(bytes(body))
    decodes_or_codec_error(bytes(body[:cut]))


def test_trailing_garbage_rejected():
    body = encode_message(Message(kind="t", payload={}))
    with pytest.raises(CodecError, match="trailing"):
        decode_message(body + b"\x00")


def test_unknown_tag_rejected():
    body = encode_message(Message(kind="t", payload={}))
    with pytest.raises(CodecError, match="unknown value tag"):
        decode_message(body[:1] + b"\x7a" + body[2:])


def test_non_string_kind_rejected():
    # Hand-craft a body whose kind field is an int.
    good = encode_message(Message(kind="t", payload={}))
    bad = bytearray()
    bad.append(WIRE_VERSION)
    bad.append(0x49)                       # I tag
    bad += (1).to_bytes(2, "big")
    bad += (7).to_bytes(1, "big", signed=True)
    bad += good[1 + 1 + 4 + 1:]            # skip version + 'S' + len + 't'
    with pytest.raises(CodecError, match="kind"):
        decode_message(bytes(bad))


def test_oversized_frame_rejected():
    with pytest.raises(CodecError, match="cap"):
        frame(b"x" * (MAX_FRAME_BYTES + 1))
    buffer = bytearray((MAX_FRAME_BYTES + 1).to_bytes(4, "big") + b"xxxx")
    with pytest.raises(CodecError, match="cap"):
        split_frames(buffer)


# ----------------------------------------------------------------------
# Framing
# ----------------------------------------------------------------------
def test_split_frames_incremental():
    messages = [Message(kind=f"k{i}", payload={"i": i}) for i in range(5)]
    stream = b"".join(encode_frame(m) for m in messages)
    buffer = bytearray()
    decoded = []
    rng = random.Random(7)
    pos = 0
    while pos < len(stream):
        step = rng.randint(1, 9)
        buffer += stream[pos:pos + step]
        pos += step
        for body in split_frames(buffer):
            decoded.append(decode_message(body))
    assert not buffer  # everything consumed
    assert [m.kind for m in decoded] == [m.kind for m in messages]
    assert [m.payload for m in decoded] == [m.payload for m in messages]


def test_randomized_payload_roundtrips():
    rng = random.Random(2017)

    def gen(depth):
        roll = rng.random()
        if depth > 3 or roll < 0.35:
            return rng.choice([
                None, True, False, rng.randint(-2**80, 2**80),
                rng.random() * 10**rng.randint(-10, 10),
                "s" * rng.randint(0, 5), "ü🦀", b"\xff" * rng.randint(0, 4),
            ])
        if roll < 0.6:
            return [gen(depth + 1) for _ in range(rng.randint(0, 4))]
        if roll < 0.8:
            return tuple(gen(depth + 1) for _ in range(rng.randint(0, 4)))
        return {f"k{i}": gen(depth + 1) for i in range(rng.randint(0, 4))}

    for _ in range(200):
        payload = {"v": gen(0)}
        msg = Message(kind="fuzz", payload=payload)
        decoded, body = roundtrip_check(msg)
        assert encode_message(decoded) == body
