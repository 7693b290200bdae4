"""Exact-size spec for the per-send size estimate.

``_estimate_size`` sizes the common leaves of a container in place and
recurses only into containers and strings its memo does not hold yet.
Every size it returns must be exactly what the plain recursion below
returns: ``net.bytes_sent``, ``bytes_per_msg`` and the fingerprints all
read it, and none of them may move.
"""

import math

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.net import message as message_module
from repro.net.message import Message, _estimate_size
from tests.test_transport_wire_golden import CORPUS, _message


def reference_size(value) -> int:
    """The size rule as one plain recursion, without a memo."""
    t = type(value)
    if t is str:
        return len(value.encode("utf-8"))
    if t is float or t is int:
        return 8
    if t is dict:
        return sum(reference_size(k) + reference_size(v) for k, v in value.items())
    if t in (list, tuple, set, frozenset):
        return sum(reference_size(v) for v in value)
    if value is None or t is bool:
        return 1
    if t is bytes:
        return len(value)
    return 16


class IntSub(int):
    pass


class Opaque:
    pass


HASHABLE = st.recursive(
    st.one_of(st.text(), st.integers(), st.floats(), st.booleans(), st.none(),
              st.binary(max_size=8), st.builds(IntSub, st.integers())),
    lambda inner: st.tuples(inner, inner) | st.frozensets(inner, max_size=3),
    max_leaves=6)

PAYLOADS = st.recursive(
    st.one_of(st.text(), st.integers(-2**70, 2**70), st.floats(), st.booleans(),
              st.none(), st.binary(max_size=16), st.builds(IntSub, st.integers()),
              st.builds(Opaque)),
    lambda inner: st.one_of(
        st.lists(inner, max_size=5),
        st.lists(inner, max_size=5).map(tuple),
        st.dictionaries(HASHABLE, inner, max_size=5),
        st.sets(HASHABLE, max_size=4),
        st.frozensets(HASHABLE, max_size=4)),
    max_leaves=25)


@settings(max_examples=400, deadline=None)
@given(PAYLOADS)
def test_estimate_matches_the_plain_recursion(value):
    want = reference_size(value)
    assert _estimate_size(value) == want
    # The first call memoized the strings; now they are sized in place.
    assert _estimate_size(value) == want


def test_fresh_and_memoized_strings_size_alike():
    fresh = f"never sized before: ü {id(object())}"
    assert fresh not in message_module._str_sizes
    for container in ({fresh: [fresh, (fresh,)]}, [fresh], (fresh, fresh)):
        assert _estimate_size(container) == reference_size(container)
    assert message_module._str_sizes[fresh] == len(fresh.encode("utf-8"))


def test_scalar_sizes():
    assert _estimate_size([True, False]) == 2  # bool is not an 8-byte int
    assert _estimate_size({"t": True}) == 2
    assert _estimate_size([None, b"abc"]) == 4
    assert _estimate_size([IntSub(5)]) == 16  # only exact int is a number
    assert _estimate_size({"o": Opaque()}) == 17
    assert _estimate_size((1, 2.5, math.inf)) == 24
    assert _estimate_size(["日本語"]) == 9


#: ``size_bytes()`` of every golden wire message, as the estimator gave
#: before its container loops sized leaves in place.
GOLDEN_SIZES = {
    "direct/query/commit": 105,
    "direct/query/release": 90,
    "direct/query/site_query": 223,
    "direct/query/site_result": 392,
    "direct/scribe/agg_push_batch": 229,
    "direct/scribe/agg_value": 150,
    "direct/scribe/anycast_result": 305,
    "direct/scribe/child_probe": 116,
    "direct/scribe/parent_set": 115,
    "pastry.ls_rep": 329,
    "pastry.ls_req": 51,
    "route/scribe/agg_get": 179,
    "route/scribe/join": 164,
    "edge/ints": 149,
    "edge/floats": 101,
    "edge/strings": 56,
    "edge/scalars": 37,
    "edge/containers": 138,
    "edge/envelope": 36,
    "edge/defaults": 24,
}


def test_golden_wire_messages_keep_their_sizes():
    sizes = {}
    for entry in CORPUS:
        msg: Message = _message(entry["message"])
        sizes[entry["name"]] = msg.size_bytes()
        assert sizes[entry["name"]] == (24 + reference_size(msg.kind)
                                        + reference_size(msg.payload))
    assert sizes == GOLDEN_SIZES
