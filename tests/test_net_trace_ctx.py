"""Trace-context propagation across delivery: the codec-or-in-process
parity fix.

The network stamps outgoing messages with the sender's current context
and restores it around each delivery.  These tests pin the contract the
shared :func:`repro.transport.base.deliver_traced` helper guarantees:

* identical stamping/restoration whether the message crossed the wire
  codec (``wire_check``) or stayed an in-process object;
* no context push (and no leak) when the recorder is disabled;
* a handler calling ``recorder.clear()`` mid-delivery cannot corrupt or
  underflow the context stack.
"""

import pytest

from repro.net.message import Message
from repro.net.network import Host, Network
from repro.net.site import SiteRegistry
from repro.obs.spans import NullRecorder, SpanRecorder
from repro.sim.engine import Simulator
from repro.transport.base import deliver_traced, stamp_trace_ctx


def make_net(**kwargs):
    sim = Simulator()
    registry = SiteRegistry()
    registry.add("A", "r")
    registry.add("B", "r")
    sites = list(registry)
    net = Network(sim, **kwargs)
    return sim, sites, net


class Probe(Host):
    """Records the recorder's ctx-stack depth seen inside each delivery."""

    def __init__(self, site, recorder=None, on_deliver=None):
        super().__init__(site)
        self.recorder = recorder
        self.on_deliver = on_deliver
        self.seen = []  # (msg.kind, ctx stack depth during handling)

    def on_message(self, msg):
        depth = (len(self.recorder._ctx_stack)
                 if isinstance(self.recorder, SpanRecorder) else 0)
        self.seen.append((msg.kind, depth))
        if self.on_deliver is not None:
            self.on_deliver(msg)


@pytest.mark.parametrize("wire", [False, True])
def test_ctx_restored_identically_with_and_without_codec(wire):
    sim, sites, net = make_net(wire_check=wire)
    recorder = SpanRecorder(sim)
    net.recorder = recorder
    a = Probe(sites[0], recorder)
    b = Probe(sites[1], recorder)
    net.attach(a)
    net.attach(b)

    with recorder.use(recorder.start("query", "step")):
        a.send(b.address, Message(kind="hello", payload={"x": 1}))
    sim.run()

    # The handler ran with exactly the sender's context pushed (depth 1)
    # and the stack is balanced afterwards.
    assert b.seen == [("hello", 1)]
    assert recorder._ctx_stack == []
    assert recorder.current_ctx() is None


@pytest.mark.parametrize("wire", [False, True])
def test_disabled_recorder_never_stamps_or_pushes(wire):
    sim, sites, net = make_net(wire_check=wire)
    net.recorder = NullRecorder()
    a = Probe(sites[0])
    b = Probe(sites[1])
    net.attach(a)
    net.attach(b)
    captured = []
    net.set_delivery_hook(lambda msg: captured.append(msg.trace_ctx))
    a.send(b.address, Message(kind="hello", payload={}))
    sim.run()
    assert captured == [None]   # nothing stamped on the wire
    assert b.seen == [("hello", 0)]


def test_no_push_when_message_predates_tracing():
    """A message with no stamped ctx (recorder enabled later, or sender
    had no active span) must not get a context pushed at delivery."""
    sim, sites, net = make_net()
    recorder = SpanRecorder(sim)
    net.recorder = recorder
    a = Probe(sites[0], recorder)
    b = Probe(sites[1], recorder)
    net.attach(a)
    net.attach(b)
    a.send(b.address, Message(kind="bare", payload={}))  # no active span
    sim.run()
    assert b.seen == [("bare", 0)]
    assert recorder._ctx_stack == []


def test_handler_clearing_recorder_mid_delivery_is_safe():
    """``recorder.clear()`` empties the ctx stack while the delivery's
    context is pushed; restoration must neither raise nor leave junk."""
    sim, sites, net = make_net()
    recorder = SpanRecorder(sim)
    net.recorder = recorder
    a = Probe(sites[0], recorder)
    b = Probe(sites[1], recorder, on_deliver=lambda msg: recorder.clear())
    net.attach(a)
    net.attach(b)
    with recorder.use(recorder.start("query", "step")):
        a.send(b.address, Message(kind="wipe", payload={}))
        a.send(b.address, Message(kind="wipe", payload={}))
    sim.run()  # would IndexError with naive unconditional pop_ctx()
    assert recorder._ctx_stack == []
    assert [kind for kind, _ in b.seen] == ["wipe", "wipe"]


def test_handler_pushing_extra_ctx_is_trimmed():
    """A handler that leaks a pushed context of its own is trimmed back
    to the pre-delivery depth, so one buggy handler cannot poison the
    parentage of every later delivery."""
    sim, sites, net = make_net()
    recorder = SpanRecorder(sim)
    net.recorder = recorder
    a = Probe(sites[0], recorder)
    b = Probe(sites[1], recorder,
              on_deliver=lambda msg: recorder.push_ctx((999, 999)))
    net.attach(a)
    net.attach(b)
    with recorder.use(recorder.start("query", "step")):
        a.send(b.address, Message(kind="leak", payload={}))
    sim.run()
    assert recorder._ctx_stack == []


def test_stamp_trace_ctx_rules():
    sim = Simulator()
    recorder = SpanRecorder(sim)
    msg = Message(kind="k", payload={})
    # No recorder / disabled recorder: untouched.
    stamp_trace_ctx(None, msg)
    assert msg.trace_ctx is None
    stamp_trace_ctx(NullRecorder(), msg)
    assert msg.trace_ctx is None
    # No active context: untouched.
    stamp_trace_ctx(recorder, msg)
    assert msg.trace_ctx is None
    # Active context: stamped as a plain tuple (wire-safe).
    span = recorder.start("s", "step")
    with recorder.use(span):
        stamp_trace_ctx(recorder, msg)
    assert msg.trace_ctx == tuple(span.ctx)
    assert type(msg.trace_ctx) is tuple
    # Already stamped: a forwarding hop must not overwrite the origin.
    with recorder.use(recorder.start("other", "step")):
        stamp_trace_ctx(recorder, msg)
    assert msg.trace_ctx == tuple(span.ctx)


def test_deliver_traced_plain_paths():
    calls = []
    msg = Message(kind="k", payload={}, trace_ctx=(1, 1))
    deliver_traced(None, msg, lambda: calls.append("none"))
    deliver_traced(NullRecorder(), msg, lambda: calls.append("null"))
    bare = Message(kind="k", payload={})
    sim = Simulator()
    recorder = SpanRecorder(sim)
    deliver_traced(recorder, bare, lambda: calls.append("bare"))
    assert calls == ["none", "null", "bare"]
    assert recorder._ctx_stack == []
