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
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.net.message import (MESSAGE_OVERHEAD, NUMBER_SIZE, SCALAR_SIZE,
                               STR_MEMO_LIMIT, Message)

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
_pack_int16 = struct.Struct(">BHh").pack       # I + length 2 + the value
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
    """Append ``value``'s encoding to ``parts``: the reference walk.

    :func:`encode_message` runs it only after its fast walk has failed,
    with ``path`` set, to raise the error that names where the first
    offending value sits (``path and f"…"`` builds no path without one).
    The fast walk must produce this walk's bytes exactly.
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


#: Memo of hot strings' tagged encodings (tag, 4-byte length, UTF-8): a
#: few hundred kinds, keys, topic and aggregate names make up nearly every
#: string on the wire.  Bounded like the size estimator's memo.
_str_frames: Dict[str, bytes] = {}


def _tagged_str(value: str) -> bytes:
    """``value``'s tagged encoding, memoized (a surrogate raises
    ``UnicodeEncodeError``, which sends the encoder to its error walk)."""
    data = value.encode()  # UTF-8, strict
    tagged = _pack_counted(_TAG_STR, len(data)) + data
    if len(_str_frames) < STR_MEMO_LIMIT:
        _str_frames[value] = tagged
    return tagged


def _tagged_int(value: int) -> bytes:
    """``value``'s tagged encoding (the containers' loops look a one-byte
    int up in the table themselves)."""
    if -0x80 <= value < 0x80:
        return _SMALL_INTS[value]
    if -0x8000 < value < 0x8000:
        return _pack_int16(_TAG_INT, 2, value)
    return _tagged_wide_int(value)


def _tagged_wide_int(value: int) -> bytes:
    """Any int's tagged encoding: a length of ``bit_length + 1`` bits,
    rounded up to bytes, then the two's-complement value."""
    length = (value.bit_length() + 8) // 8
    if length > 0xFFFF:
        raise CodecError("integer too large for the wire")
    return _pack_int_head(_TAG_INT, length) + value.to_bytes(
        length, "big", signed=True)


#: The tagged encodings of -128..127, indexed by value (a negative one
#: counts from the end): addresses, counts and flags are most of the ints
#: on the wire.  (-128 takes two bytes: the length is bit_length + 1.)
_SMALL_INTS = tuple(_tagged_wide_int(value)
                    for value in (*range(0x80), *range(-0x80, 0)))


def _encode_fast(append: Callable[[bytes], None], value: Any) -> None:
    """Append ``value``'s encoding, byte for byte :func:`_encode_value`'s:
    strings come from the memo, and a container's strings, ints and Nones
    are encoded in its own loop.  Any failure raises, unnamed."""
    vtype = type(value)
    if vtype is dict:
        append(_pack_counted(_TAG_DICT, len(value)))
        for key, item in value.items():
            if type(key) is str:
                append(_str_frames.get(key) or _tagged_str(key))
            else:
                _encode_fast(append, key)
            vtype = type(item)
            if vtype is str:
                append(_str_frames.get(item) or _tagged_str(item))
            elif vtype is int:
                append(_SMALL_INTS[item] if -0x80 <= item < 0x80
                       else _tagged_int(item))
            elif item is None:
                append(_NONE)
            else:
                _encode_fast(append, item)
    elif vtype is list or vtype is tuple:
        append(_pack_counted(
            _TAG_LIST if vtype is list else _TAG_TUPLE, len(value)))
        for item in value:
            vtype = type(item)
            if vtype is str:
                append(_str_frames.get(item) or _tagged_str(item))
            elif vtype is int:
                append(_SMALL_INTS[item] if -0x80 <= item < 0x80
                       else _tagged_int(item))
            elif item is None:
                append(_NONE)
            else:
                _encode_fast(append, item)
    elif vtype is str:
        append(_str_frames.get(value) or _tagged_str(value))
    elif vtype is int:
        append(_tagged_int(value))
    elif value is None:
        append(_NONE)
    elif vtype is bool:
        append(_TRUE if value else _FALSE)
    elif vtype is float:
        append(_pack_float(_TAG_FLOAT, value))
    elif vtype is bytes:
        append(_pack_counted(_TAG_BYTES, len(value)))
        append(value)
    else:
        raise CodecError(f"unserializable payload: {vtype.__name__}")


def encode_message(msg: Message) -> bytes:
    """Serialize ``msg`` to a canonical (unframed) wire body."""
    parts: List[bytes] = []
    fields = (msg.kind, msg.payload, msg.src, msg.dst, msg.hops, msg.msg_id,
              msg.trace, msg.trace_ctx)
    try:
        # The fields encode as a tuple's items would (its loop encodes
        # the scalar ones in place); the body opens with the version byte
        # where the tuple's header went.
        _encode_fast(parts.append, fields)
    except (CodecError, UnicodeEncodeError):
        # The rare path: the reference walk, tracking paths this time,
        # raises the error that names where the offending value sits.
        for name, value in zip(_FIELDS, fields):
            _encode_value([], value, name)
        raise
    parts[0] = _VERSION_BYTE
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
def _decode_value(data: bytes, pos: int) -> Tuple[Any, int, int]:
    """Decode the value tagged at ``data[pos]``; return it, the offset
    just past it and its size by the estimator's rules
    (:func:`repro.net.message._estimate_size`), summed from the lengths
    read.  A container decodes its strings, ints and Nones in its own
    loop; anything else is one recursive call.

    Bounds are :func:`decode_message`'s job, once: a tag or fixed-width
    header cut off by the end raises ``IndexError`` / ``struct.error``,
    and a str, int or bytes claiming more than is left gets a clamped
    slice and an offset *past* the end, which no later read survives.
    """
    tag = data[pos]
    if tag == _TAG_DICT:
        count = _unpack_u32(data, pos + 1)[0]
        pos += 5
        result = {}
        size = 0
        for _ in range(count):
            if data[pos] == _TAG_STR:
                start = pos + 5
                pos = start + _unpack_u32(data, pos + 1)[0]
                key = data[start:pos].decode()  # UTF-8, strict
                size += pos - start
            else:
                key, pos, n = _decode_value(data, pos)
                size += n
            tag = data[pos]
            if tag == _TAG_STR:
                start = pos + 5
                pos = start + _unpack_u32(data, pos + 1)[0]
                value = data[start:pos].decode()
                size += pos - start
            elif tag == _TAG_INT:
                start = pos + 3
                pos = start + _unpack_u16(data, pos + 1)[0]
                value = (_SIGNED_BYTES[data[start]] if pos - start == 1 else
                         _int_from_bytes(data[start:pos], "big", signed=True))
                size += NUMBER_SIZE
            elif tag == _TAG_NONE:
                value = None
                pos += 1
                size += SCALAR_SIZE
            else:
                value, pos, n = _decode_value(data, pos)
                size += n
            try:
                result[key] = value
            except TypeError:
                raise CodecError(f"unhashable dict key before offset {pos}: "
                                 f"{type(key).__name__}") from None
        return result, pos, size
    if tag == _TAG_LIST or tag == _TAG_TUPLE:
        is_list = tag == _TAG_LIST
        count = _unpack_u32(data, pos + 1)[0]
        pos += 5
        items: List[Any] = []
        append = items.append
        size = 0
        for _ in range(count):
            tag = data[pos]
            if tag == _TAG_STR:
                start = pos + 5
                pos = start + _unpack_u32(data, pos + 1)[0]
                append(data[start:pos].decode())
                size += pos - start
            elif tag == _TAG_INT:
                start = pos + 3
                pos = start + _unpack_u16(data, pos + 1)[0]
                append(_SIGNED_BYTES[data[start]] if pos - start == 1 else
                       _int_from_bytes(data[start:pos], "big", signed=True))
                size += NUMBER_SIZE
            elif tag == _TAG_NONE:
                append(None)
                pos += 1
                size += SCALAR_SIZE
            else:
                value, pos, n = _decode_value(data, pos)
                append(value)
                size += n
        return (items if is_list else tuple(items)), pos, size
    if tag == _TAG_STR or tag == _TAG_BYTES:
        start = pos + 5
        pos = start + _unpack_u32(data, pos + 1)[0]
        if tag == _TAG_BYTES:
            return data[start:pos], pos, pos - start
        return data[start:pos].decode(), pos, pos - start
    if tag == _TAG_INT:
        start = pos + 3
        pos = start + _unpack_u16(data, pos + 1)[0]
        return (_int_from_bytes(data[start:pos], "big", signed=True), pos,
                NUMBER_SIZE)
    if tag == _TAG_NONE:
        return None, pos + 1, SCALAR_SIZE
    if tag == _TAG_TRUE or tag == _TAG_FALSE:
        return tag == _TAG_TRUE, pos + 1, SCALAR_SIZE
    if tag == _TAG_FLOAT:
        return _unpack_double(data, pos + 1)[0], pos + 9, NUMBER_SIZE
    raise CodecError(f"unknown value tag 0x{tag:02x} at offset {pos}")


#: The value of a one-byte int, by its unsigned byte: most ints on the
#: wire (addresses, counts, flags) are one byte.
_SIGNED_BYTES = (*range(0x80), *range(-0x80, 0))
_int_from_bytes = int.from_bytes  # bound once: the lookup costs a call


def decode_message(body: bytes) -> Message:
    """Parse one wire body back into a :class:`Message`, sized.

    The copy's :attr:`Message.size` is its estimator size
    (:meth:`Message.size_bytes`), summed from the lengths the decode
    reads: a receiver needs no walk.  Total: every ``body`` decodes or
    raises :class:`CodecError` (version mismatch, truncation, unknown
    tag, invalid UTF-8, unhashable dict key, runaway nesting, trailing
    garbage) and nothing else.  Never consumes a fresh ``msg_id`` (the
    sender's travels on the wire).
    """
    try:
        version = body[0]
        if version != WIRE_VERSION:
            raise CodecError(f"wire version mismatch: got {version}, "
                             f"this codec speaks {WIRE_VERSION}")
        # The estimator sizes kind and payload only.
        kind, pos, kind_size = _decode_value(body, 1)
        payload, pos, payload_size = _decode_value(body, pos)
        fields = [kind, payload]
        append = fields.append
        for _ in range(len(_FIELDS) - 2):  # addresses, counts, Nones
            tag = body[pos]
            if tag == _TAG_INT:
                start = pos + 3
                pos = start + _unpack_u16(body, pos + 1)[0]
                append(_SIGNED_BYTES[body[start]] if pos - start == 1 else
                       _int_from_bytes(body[start:pos], "big", signed=True))
            elif tag == _TAG_NONE:
                append(None)
                pos += 1
            else:
                value, pos, _ = _decode_value(body, pos)
                append(value)
    except (IndexError, struct.error):
        pos = len(body) + 1  # cut inside a tag or a length field
    except UnicodeDecodeError as exc:
        raise CodecError(f"invalid UTF-8 in a string: {exc}") from None
    except RecursionError:
        raise CodecError("containers nested too deeply to decode") from None
    if pos > len(body):
        raise CodecError(f"truncated frame: a value runs past the end of "
                         f"the {len(body)}-byte body")
    if pos < len(body):
        raise CodecError(f"{len(body) - pos} trailing bytes after a "
                         f"complete message")
    if type(kind) is not str:
        raise CodecError("message kind must decode to a string")
    msg = Message(*fields)
    msg.size = MESSAGE_OVERHEAD + kind_size + payload_size
    return msg


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


def decode_checked(body: bytes) -> Message:
    """Decode ``body`` and re-encode the copy; raise unless the two bodies
    are byte-identical (a value the codec cannot carry faithfully)."""
    decoded = decode_message(body)
    again = encode_message(decoded)
    if again != body:
        raise CodecError(
            f"codec round trip not byte-identical for kind={decoded.kind!r} "
            f"({len(body)} vs {len(again)} bytes)")
    return decoded


def roundtrip_check(msg: Message) -> Tuple[Message, bytes]:
    """Encode → decode → re-encode ``msg``; raise unless byte-identical."""
    body = encode_message(msg)
    return decode_checked(body), body
