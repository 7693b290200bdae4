"""Golden wire corpus: the bytes ``WIRE_VERSION`` 1 puts on a socket.

Round-trip tests pass when encoder and decoder drift *together*; this
file pins the bytes themselves.  ``tests/data/wire_golden.json`` holds,
for one real message of every protocol kind a dressed ``wire_check`` run
delivers plus a set of edge values, the message as a Python literal and
the frame ``encode_frame`` produced for it, in hex.  The hex was written
by the codec as it stood before the position-based rewrite (PR 19's
tree) and is never regenerated alongside a codec change: a codec that
moves one byte of it needs a ``WIRE_VERSION`` bump, not a new corpus.

Regenerate (only together with such a bump), from the repository root::

    PYTHONPATH=src:. python tests/test_transport_wire_golden.py
"""

import json
import math
from pathlib import Path

import pytest

from repro.net.message import Message
from repro.transport.codec import WIRE_VERSION, decode_message, encode_frame

GOLDEN_PATH = Path(__file__).parent / "data" / "wire_golden.json"
FIELDS = ("kind", "payload", "src", "dst", "hops", "msg_id", "trace", "trace_ctx")

#: Message kinds the dressed run must have contributed (a subset of
#: ``test_transport_wire_safety.REQUIRED_WIRE_KINDS`` would be a smaller
#: corpus than the one checked in).
REQUIRED_KINDS = {
    "direct/query/site_query", "direct/query/site_result",
    "direct/scribe/agg_push_batch", "direct/scribe/agg_value",
    "direct/scribe/child_probe", "direct/scribe/parent_set",
    "pastry.ls_rep", "pastry.ls_req", "route/scribe/agg_get",
    "route/scribe/join",
}

EDGE_MESSAGES = {
    "edge/ints": dict(kind="edge", payload={"v": [
        0, 1, -1, 127, 128, -128, -129, 255, 256, 2**64, -2**64,
        2**127, -2**127, 2**128 - 1, 2**200]}, msg_id=1),
    "edge/floats": dict(kind="edge", payload={"v": [
        0.0, -0.0, 1.5, 0.1 + 0.2, 5e-324, 1e308, math.inf, -math.inf,
        math.nan]}, msg_id=2),
    "edge/strings": dict(kind="edge", payload={"v": [
        "", "ascii", "ü🦀", "a\x00b", "日本語"], "b": [b"", b"\x00\xff\x7f"]},
        msg_id=3),
    "edge/scalars": dict(kind="edge", payload={
        "none": None, "t": True, "f": False}, msg_id=4),
    "edge/containers": dict(kind="edge", payload={
        "empty": [[], (), {}], "nested": [{"a": (1, 2, [3, {"b": None}])}],
        "tuple_in_tuple": ((), ((),), ([],)),
        "keys": {7: "int", (2, "t"): "tuple", b"k": "bytes", None: "none",
                 1.5: "float", True: "bool"}}, msg_id=5),
    "edge/envelope": dict(kind="pastry.route", payload={}, src=0, dst=2**31,
                          hops=17, msg_id=2**40, trace=[3, 1, 4, 1, 5],
                          trace_ctx=("trace-00ff", 42)),
    "edge/defaults": dict(kind="", payload={}, msg_id=6),
}


def _literal(msg: Message) -> str:
    return repr({name: getattr(msg, name) for name in FIELDS})


def _message(literal: str) -> Message:
    # ``repr`` of inf / nan is a bare name, which ast.literal_eval refuses.
    fields = eval(literal, {"__builtins__": {}, "inf": math.inf, "nan": math.nan})
    return Message(**fields)


def load_corpus():
    with open(GOLDEN_PATH, encoding="utf-8") as handle:
        document = json.load(handle)
    assert document["wire_version"] == WIRE_VERSION
    return document["messages"]


# Absent only while ``_generate`` is about to write it.
CORPUS = load_corpus() if GOLDEN_PATH.exists() else []


def test_corpus_covers_every_protocol_kind_and_the_edges():
    names = {entry["name"] for entry in CORPUS}
    assert REQUIRED_KINDS <= names
    assert set(EDGE_MESSAGES) <= names


@pytest.mark.parametrize("entry", CORPUS, ids=lambda entry: entry["name"])
def test_encoder_reproduces_every_golden_byte(entry):
    assert encode_frame(_message(entry["message"])).hex() == entry["hex"]


@pytest.mark.parametrize("entry", CORPUS, ids=lambda entry: entry["name"])
def test_decode_then_reencode_is_identical(entry):
    golden = bytes.fromhex(entry["hex"])
    assert int.from_bytes(golden[:4], "big") == len(golden) - 4
    decoded = decode_message(golden[4:])
    assert encode_frame(decoded) == golden
    # The decoded message is the literal's message, types included
    # (repr distinguishes tuple from list, -0.0 from 0.0, True from 1).
    assert _literal(decoded) == entry["message"]


def _generate():
    """Write the corpus with whatever codec is importable (see module doc)."""
    from repro.core.plane import RBay, RBayConfig
    from repro.faults.injector import protocol_kind
    from repro.query.options import QueryOptions
    from repro.workloads.generator import FederationWorkload, WorkloadSpec

    plane = RBay(RBayConfig(seed=2017, synthetic_sites=4, nodes_per_site=3,
                            jitter=False, wire_check=True, tracing=True)).build()
    largest = {}

    def keep(msg):
        kind = protocol_kind(msg)
        frame = encode_frame(msg)
        if kind not in largest or len(frame) > len(largest[kind][1]):
            largest[kind] = (_literal(msg), frame)

    plane.network.set_delivery_hook(keep)
    FederationWorkload(plane, WorkloadSpec(password="rbay")).apply()
    plane.register_buckets("CPU_utilization", 0.0, 100.0, buckets=4)
    plane.sim.run()
    plane.start_maintenance()
    plane.settle(5_000.0)
    plane.query("SELECT * FROM * GROUP BY CPU_utilization;")
    plane.query("SELECT 1 FROM Site000, Site001 WHERE CPU_utilization < 90%;",
                options=QueryOptions(origin="Site000",
                                     payload={"password": "rbay"}))
    plane.settle(1_000.0)
    assert plane.network.wire_kinds_seen == set(largest)

    messages = [{"name": kind, "message": literal, "hex": frame.hex()}
                for kind, (literal, frame) in sorted(largest.items())]
    for name, fields in EDGE_MESSAGES.items():
        msg = Message(**fields)
        messages.append({"name": name, "message": _literal(msg),
                         "hex": encode_frame(msg).hex()})
    GOLDEN_PATH.parent.mkdir(exist_ok=True)
    with open(GOLDEN_PATH, "w", encoding="utf-8") as handle:
        json.dump({"wire_version": WIRE_VERSION, "messages": messages},
                  handle, indent=1, ensure_ascii=True)
        handle.write("\n")
    print(f"wrote {len(messages)} messages to {GOLDEN_PATH}")


if __name__ == "__main__":
    _generate()
