"""Deterministic, versioned wire codec for :class:`repro.net.message.Message`.

Frame layout (all integers big-endian)::

    4 bytes   frame length N (bytes of body that follow)
    N bytes   body:
        1 byte    wire version (``WIRE_VERSION``)
        fields in fixed order:
            kind       str
            payload    dict
            src        int | None
            dst        int | None
            hops       int
            msg_id     int
            trace      list[int] | None
            trace_ctx  tuple | None

Values are tagged (one tag byte, then the tag-specific encoding):

====  =========  =========================================================
tag   type       encoding
====  =========  =========================================================
``N`` None       —
``T`` True       —
``F`` False      —
``I`` int        2-byte length, then minimal signed big-endian magnitude
                 (NodeIds are ~128-bit, so ints are arbitrary-precision)
``D`` float      8-byte IEEE-754 double (bit-exact, NaN payload included)
``S`` str        4-byte length, then UTF-8 bytes
``B`` bytes      4-byte length, then the bytes
``L`` list       4-byte count, then the items
``U`` tuple      4-byte count, then the items (distinct from list: the
                 protocols rely on tuples staying tuples, e.g. packed
                 predicates and leaf-set refs)
``M`` dict       4-byte count, then key/value pairs in insertion order
====  =========  =========================================================

The encoding is canonical: two structurally equal messages encode to
identical bytes, and ``encode(decode(encode(m))) == encode(m)`` holds
byte-for-byte (dict insertion order is preserved through the round
trip).  Anything outside the table — callables, node objects, sets,
arbitrary classes — raises :class:`CodecError` with the offending path,
which is exactly the wire-safety lint: a payload the codec rejects is a
payload that could never have crossed a real socket.  Decoding is total:
any byte string either parses or raises :class:`CodecError`.

The layout is ``WIRE_VERSION`` 1, unchanged since it landed, and
``tests/data/wire_golden.json`` pins its bytes: the code below is tuned
for speed *within* it; a change that moves a byte bumps the version.
"""

from __future__ import annotations

import struct
from typing import Any, List, Optional, Tuple

from repro.net.message import Message

#: Bump on any change to the frame/body layout; decoders reject mismatches.
WIRE_VERSION = 1

#: Hard cap on a single frame (16 MiB): a corrupt length prefix fails
#: fast instead of attempting a giant allocation.
MAX_FRAME_BYTES = 16 * 1024 * 1024

_TAG_NONE = 0x4E   # 'N'
_TAG_TRUE = 0x54   # 'T'
_TAG_FALSE = 0x46  # 'F'
_TAG_INT = 0x49    # 'I'
_TAG_FLOAT = 0x44  # 'D'
_TAG_STR = 0x53    # 'S'
_TAG_BYTES = 0x42  # 'B'
_TAG_LIST = 0x4C   # 'L'
_TAG_TUPLE = 0x55  # 'U'
_TAG_DICT = 0x4D   # 'M'

# Tag + fixed-width header in one pack call; the decoder reads the same
# widths in place with ``unpack_from``.
_pack_counted = struct.Struct(">BI").pack      # S / B / L / U / M + 4-byte count
_pack_int_head = struct.Struct(">BH").pack     # I + 2-byte length
_pack_float = struct.Struct(">Bd").pack        # D + the double
_unpack_u32 = struct.Struct(">I").unpack_from
_unpack_u16 = struct.Struct(">H").unpack_from
_unpack_double = struct.Struct(">d").unpack_from

_VERSION_BYTE = bytes([WIRE_VERSION])
_NONE, _TRUE, _FALSE = (bytes([tag]) for tag in (_TAG_NONE, _TAG_TRUE, _TAG_FALSE))
#: The body's field order — also ``Message.__init__``'s positional order.
_FIELDS = ("kind", "payload", "src", "dst", "hops", "msg_id", "trace",
           "trace_ctx")


class CodecError(ValueError):
    """A value (or frame) the wire codec cannot represent or parse."""


# ----------------------------------------------------------------------
# Encoding
# ----------------------------------------------------------------------
def _encode_value(parts: List[bytes], value: Any,
                  path: Optional[str] = None) -> None:
    """Append ``value``'s encoding to ``parts`` (hot types first).

    ``path`` names where ``value`` sits, for error messages.  Without one
    none is built for the children either (``path and f"…"``):
    :func:`encode_message` asks for paths only on a second walk, after
    encoding has actually failed.
    """
    # Exact type checks on purpose: bool subclasses int, and subclasses
    # of the wire types (e.g. a dict-like node object) must not slip
    # through looking serializable.
    vtype = type(value)
    if vtype is str:
        try:
            data = value.encode()  # UTF-8, strict
        except UnicodeEncodeError as exc:
            raise CodecError(f"non-UTF-8 string at {path}: {exc}") from None
        parts.append(_pack_counted(_TAG_STR, len(data)))
        parts.append(data)
    elif vtype is int:
        length = (value.bit_length() + 8) // 8
        if length > 0xFFFF:
            raise CodecError(f"integer too large for the wire at {path}")
        parts.append(_pack_int_head(_TAG_INT, length))
        parts.append(value.to_bytes(length, "big", signed=True))
    elif vtype is dict:
        parts.append(_pack_counted(_TAG_DICT, len(value)))
        for key, item in value.items():
            _encode_value(parts, key, path and f"{path}.<key {key!r}>")
            _encode_value(parts, item, path and f"{path}[{key!r}]")
    elif value is None:
        parts.append(_NONE)
    elif vtype is list or vtype is tuple:
        parts.append(_pack_counted(
            _TAG_LIST if vtype is list else _TAG_TUPLE, len(value)))
        for i, item in enumerate(value):
            _encode_value(parts, item, path and f"{path}[{i}]")
    elif vtype is bool:
        parts.append(_TRUE if value else _FALSE)
    elif vtype is float:
        parts.append(_pack_float(_TAG_FLOAT, value))
    elif vtype is bytes:
        parts.append(_pack_counted(_TAG_BYTES, len(value)))
        parts.append(value)
    else:
        raise CodecError(
            f"unserializable payload at {path}: {vtype.__name__} "
            f"({value!r:.80}) — carry an address/topic reference instead")


def encode_message(msg: Message) -> bytes:
    """Serialize ``msg`` to a canonical (unframed) wire body."""
    parts = [_VERSION_BYTE]
    try:
        for name in _FIELDS:
            _encode_value(parts, getattr(msg, name))
    except CodecError:
        # The rare path: walk again, tracking paths this time, to raise
        # the error that names where the offending value sits.
        for name in _FIELDS:
            _encode_value([], getattr(msg, name), name)
        raise
    return b"".join(parts)


def frame(body: bytes) -> bytes:
    """Prefix ``body`` with its 4-byte big-endian length."""
    if len(body) > MAX_FRAME_BYTES:
        raise CodecError(f"frame of {len(body)} bytes exceeds the "
                         f"{MAX_FRAME_BYTES}-byte cap")
    return len(body).to_bytes(4, "big") + body


def encode_frame(msg: Message) -> bytes:
    """Serialize ``msg`` as one length-prefixed frame, ready to write."""
    return frame(encode_message(msg))


# ----------------------------------------------------------------------
# Decoding
# ----------------------------------------------------------------------
def _decode_value(data: bytes, pos: int) -> Tuple[Any, int]:
    """Decode the value tagged at ``data[pos]``; return it and the offset
    just past it, reading by position (hot tags first).

    Bounds are :func:`decode_message`'s job, once: a tag or fixed-width
    header cut off by the end raises ``IndexError`` / ``struct.error``,
    and a str, int or bytes claiming more than is left gets a clamped
    slice and an offset *past* the end, which no later read survives.
    """
    tag = data[pos]
    pos += 1
    if tag == _TAG_STR or tag == _TAG_BYTES:
        start = pos + 4
        end = start + _unpack_u32(data, pos)[0]
        if tag == _TAG_BYTES:
            return data[start:end], end
        try:
            return data[start:end].decode(), end  # UTF-8, strict
        except UnicodeDecodeError as exc:
            raise CodecError(f"invalid UTF-8 in the string at offset "
                             f"{start}: {exc}") from None
    if tag == _TAG_INT:
        start = pos + 2
        end = start + _unpack_u16(data, pos)[0]
        return int.from_bytes(data[start:end], "big", signed=True), end
    if tag == _TAG_DICT:
        count = _unpack_u32(data, pos)[0]
        pos += 4
        result = {}
        for _ in range(count):
            key, pos = _decode_value(data, pos)
            value, pos = _decode_value(data, pos)
            try:
                result[key] = value
            except TypeError:
                raise CodecError(f"unhashable dict key before offset {pos}: "
                                 f"{type(key).__name__}") from None
        return result, pos
    if tag == _TAG_NONE:
        return None, pos
    if tag == _TAG_LIST or tag == _TAG_TUPLE:
        count = _unpack_u32(data, pos)[0]
        pos += 4
        items = []
        for _ in range(count):
            item, pos = _decode_value(data, pos)
            items.append(item)
        return (items if tag == _TAG_LIST else tuple(items)), pos
    if tag == _TAG_TRUE:
        return True, pos
    if tag == _TAG_FALSE:
        return False, pos
    if tag == _TAG_FLOAT:
        return _unpack_double(data, pos)[0], pos + 8
    raise CodecError(f"unknown value tag 0x{tag:02x} at offset {pos - 1}")


def decode_message(body: bytes) -> Message:
    """Parse one wire body back into a :class:`Message`.

    Total: every ``body`` decodes or raises :class:`CodecError` (version
    mismatch, truncation, unknown tag, invalid UTF-8, unhashable dict
    key, runaway nesting, trailing garbage) and nothing else.  Never
    consumes a fresh ``msg_id`` (the sender's travels on the wire).
    """
    try:
        version = body[0]
        if version != WIRE_VERSION:
            raise CodecError(f"wire version mismatch: got {version}, "
                             f"this codec speaks {WIRE_VERSION}")
        fields = []
        pos = 1
        for _ in _FIELDS:
            value, pos = _decode_value(body, pos)
            fields.append(value)
    except (IndexError, struct.error):
        pos = len(body) + 1  # cut inside a tag or a length field
    except RecursionError:
        raise CodecError("containers nested too deeply to decode") from None
    if pos > len(body):
        raise CodecError(f"truncated frame: a value runs past the end of "
                         f"the {len(body)}-byte body")
    if pos < len(body):
        raise CodecError(f"{len(body) - pos} trailing bytes after a "
                         f"complete message")
    if type(fields[0]) is not str:
        raise CodecError("message kind must decode to a string")
    return Message(*fields)


def split_frames(buffer: bytearray) -> List[bytes]:
    """Pop every complete length-prefixed frame body off ``buffer``.

    Incremental stream decoding for byte-oriented transports: append
    received bytes to ``buffer``, call this, decode each returned body.
    Bytes of a still-incomplete frame stay in the buffer.  A length
    prefix over :data:`MAX_FRAME_BYTES` raises :class:`CodecError` before
    anything is waited for: the stream cannot be framed past it, so the
    caller drops the connection.
    """
    bodies: List[bytes] = []
    pos = 0
    size = len(buffer)
    while size - pos >= 4:
        length = _unpack_u32(buffer, pos)[0]
        if length > MAX_FRAME_BYTES:
            raise CodecError(f"frame length {length} exceeds the "
                             f"{MAX_FRAME_BYTES}-byte cap")
        end = pos + 4 + length
        if end > size:
            break
        bodies.append(bytes(buffer[pos + 4:end]))
        pos = end
    del buffer[:pos]
    return bodies


def roundtrip_check(msg: Message) -> Tuple[Message, bytes]:
    """Encode → decode → re-encode ``msg``; raise unless byte-identical.

    The sim transport's ``wire_check`` shadow mode runs every delivery
    through this, making the DES a continuous lint for wire safety.
    """
    body = encode_message(msg)
    decoded = decode_message(body)
    again = encode_message(decoded)
    if again != body:
        raise CodecError(
            f"codec round trip not byte-identical for kind={msg.kind!r} "
            f"({len(body)} vs {len(again)} bytes)")
    return decoded, body
