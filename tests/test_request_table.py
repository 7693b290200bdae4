"""The request table every reply-awaiting protocol step registers in.

Contract (``repro.sim.futures.RequestTable``): ids come from the owner's
sequence in order; an entry lives exactly while its future is unresolved,
whether the future ends by reply or by timeout; only the first reply to
an open id is accepted, and a late, duplicated or unknown reply changes
nothing.
"""

import itertools

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.engine import Simulator
from repro.sim.futures import Future, FutureTimeout, RequestTable


def table_with_sim(start=1):
    sim = Simulator()
    return sim, RequestTable(itertools.count(start))


def test_ids_come_from_the_owner_sequence_in_order():
    sim, table = table_with_sim(start=40)
    ids = [table.open(Future(sim)) for _ in range(3)]
    assert ids == [40, 41, 42]
    assert len(table) == 3


def test_reply_resolves_and_removes_the_entry():
    sim, table = table_with_sim()
    future = Future(sim, timeout=100.0)
    request_id = table.open(future)
    assert table.answer(request_id, "value")
    assert future.value == "value"
    assert len(table) == 0


def test_duplicate_reply_is_not_accepted():
    sim, table = table_with_sim()
    future = Future(sim, timeout=100.0)
    request_id = table.open(future)
    assert table.answer(request_id, "first")
    assert not table.answer(request_id, "second")
    assert future.value == "first"


def test_timeout_removes_the_entry_and_a_late_reply_is_not_accepted():
    sim, table = table_with_sim()
    future = Future(sim, timeout=100.0)
    request_id = table.open(future)
    sim.run()
    assert isinstance(future.value, FutureTimeout)
    assert len(table) == 0
    assert not table.answer(request_id, "late")
    assert isinstance(future.value, FutureTimeout)


def test_unknown_reply_is_not_accepted():
    sim, table = table_with_sim()
    table.open(Future(sim))
    assert not table.answer(999, "stray")
    assert len(table) == 1


def test_future_resolved_elsewhere_leaves_the_table():
    sim, table = table_with_sim()
    future = Future(sim)
    request_id = table.open(future)
    future.resolve("settled by its owner")
    assert len(table) == 0
    assert not table.answer(request_id, "reply")


#: One step of a request's life: open a request (with a timeout), reply to
#: the i-th request ever opened (an open one, an answered one — a
#: duplicate — or a timed-out one — a late reply), reply to an id never
#: issued, or let time pass.
STEPS = st.lists(st.one_of(
    st.tuples(st.just("open"), st.sampled_from([5.0, 20.0, 50.0])),
    st.tuples(st.just("reply"), st.integers(0, 30)),
    st.tuples(st.just("stray"), st.integers(10_000, 10_100)),
    st.tuples(st.just("advance"), st.sampled_from([1.0, 10.0, 60.0])),
), max_size=60)


@settings(max_examples=200, deadline=None)
@given(STEPS)
def test_table_follows_its_contract(steps):
    sim, table = table_with_sim()
    opened = []  # (request_id, future) in opening order
    answers = {}  # request_id -> the reply that was accepted
    for op, arg in steps:
        if op == "open":
            future = Future(sim, timeout=arg)
            opened.append((table.open(future), future))
        elif op == "reply" and arg < len(opened):
            request_id, future = opened[arg]
            was_open = not future.resolved
            assert table.answer(request_id, ("reply", arg)) == was_open
            if was_open:
                answers[request_id] = ("reply", arg)
        elif op == "stray":
            assert not table.answer(arg, "stray")
        elif op == "advance":
            sim.run(until=sim.now + arg)
        # Ids are consecutive; an entry lives exactly while unresolved;
        # a resolved future holds its first reply or a timeout.
        assert [rid for rid, _ in opened] == list(range(1, len(opened) + 1))
        assert len(table) == sum(not f.resolved for _, f in opened)
        for request_id, future in opened:
            if request_id in answers:
                assert future.value == answers[request_id]
            elif future.resolved:
                assert isinstance(future.value, FutureTimeout)
