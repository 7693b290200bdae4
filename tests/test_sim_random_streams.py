"""Unit tests for named random streams."""

from repro.sim.random_streams import RandomStreams


def test_same_seed_same_sequence():
    a = RandomStreams(5).stream("x")
    b = RandomStreams(5).stream("x")
    assert [a.random() for _ in range(10)] == [b.random() for _ in range(10)]


def test_different_names_are_independent():
    streams = RandomStreams(5)
    a = [streams.stream("a").random() for _ in range(5)]
    b = [streams.stream("b").random() for _ in range(5)]
    assert a != b


def test_different_seeds_differ():
    a = RandomStreams(1).stream("x").random()
    b = RandomStreams(2).stream("x").random()
    assert a != b


def test_stream_is_cached():
    streams = RandomStreams(0)
    assert streams.stream("x") is streams.stream("x")


def test_draws_in_one_stream_do_not_affect_another():
    one = RandomStreams(9)
    two = RandomStreams(9)
    one.stream("noise").random()  # extra draw only in `one`
    assert one.stream("signal").random() == two.stream("signal").random()


def test_master_seed_property():
    assert RandomStreams(77).master_seed == 77
