"""The traced pass: spans recorded from outside, around each layer's entry points.

One table (:data:`ENTRY_POINTS`) names the public functions that bound the
layers (layer = ``src/repro/<module>``).  :class:`Tracer.install` wraps
them at class level *before* a plane is built; each wrapper records name,
start, end and parent on a stack, accumulates self time (duration minus
child spans) and calls per layer, and keeps the last ``max_spans`` spans
in memory.  Nothing in ``src/`` is edited — spans inside the program are a
later change — and end-to-end metrics never come from a traced run.
"""

from __future__ import annotations

import importlib
import json
from collections import Counter, deque
from time import perf_counter
from typing import Any, Callable, Deque, Dict, List, Optional, Tuple

#: ``(layer, module, class or None, attribute)``.  A ``None`` class patches
#: a module-level name where it is *called* (``from x import f`` binds a
#: second reference that patching ``x.f`` would miss).
ENTRY_POINTS: List[Tuple[str, str, Optional[str], str]] = [
    # Roots: everything below runs inside one of the engines' pumps.
    ("sim", "repro.sim.engine", "Simulator", "run"),
    ("sim", "repro.sim.engine", "Simulator", "run_until"),
    ("transport", "repro.transport.realtime", "RealtimeScheduler", "run"),
    ("transport", "repro.transport.realtime", "RealtimeScheduler", "run_until"),
    ("pastry", "repro.pastry.node", "PastryNode", "route"),
    ("pastry", "repro.pastry.node", "PastryNode", "on_message"),
    ("pastry", "repro.pastry.node", "PastryNode", "stabilize"),
    ("net", "repro.net.network", "Network", "send"),
    ("transport", "repro.transport.asyncio_transport", "AsyncioTransport", "send"),
    ("transport", "repro.transport.asyncio_transport", "AsyncioTransport", "_deliver_body"),
    ("transport", "repro.transport.asyncio_transport", None, "encode_frame"),
    ("transport", "repro.transport.asyncio_transport", None, "decode_message"),
    ("scribe", "repro.scribe.scribe", "ScribeApplication", "set_local"),
    ("scribe", "repro.scribe.scribe", "ScribeApplication", "join"),
    ("scribe", "repro.scribe.scribe", "ScribeApplication", "leave"),
    ("scribe", "repro.scribe.scribe", "ScribeApplication", "multicast"),
    ("scribe", "repro.scribe.scribe", "ScribeApplication", "anycast"),
    ("scribe", "repro.scribe.scribe", "ScribeApplication", "deliver"),
    ("scribe", "repro.scribe.scribe", "ScribeApplication", "forward"),
    ("scribe", "repro.scribe.scribe", "ScribeApplication", "host_message"),
    ("scribe", "repro.scribe.scribe", "ScribeApplication", "maintain"),
    ("query", "repro.query.executor", "QueryApplication", "execute"),
    ("query", "repro.query.executor", "QueryApplication", "visit"),
    ("query", "repro.query.executor", "QueryApplication", "host_message"),
    ("query", "repro.query.admission", "AdmissionController", "submit"),
    ("aa", "repro.aa.runtime", "ActiveAttribute", "invoke"),
    ("core", "repro.core.reservation", "ReservationTable", "try_reserve"),
    ("core", "repro.core.reservation", "ReservationTable", "commit"),
    ("core", "repro.core.reservation", "ReservationTable", "release"),
    ("core", "repro.core.reservation", "ReservationTable", "release_uncommitted"),
    ("core", "repro.core.node", "RBayNode", "maintenance_tick"),
    ("ext", "repro.ext.economy", "SpotPricer", "tick"),
    ("ext", "repro.ext.economy", "CostAwareCustomer", "buy"),
    ("ext", "repro.ext.autoscale", "SiteAutoscaler", "tick"),
]

LAYERS = ("sim", "net", "pastry", "scribe", "query", "aa", "core", "ext",
          "transport", "bench")


class NullTracer:
    """What the untraced repetitions are handed: nothing is wrapped."""

    def wrap(self, name: str, fn: Callable[..., Any],
             layer: Optional[str] = None) -> Callable[..., Any]:
        return fn

    def start(self, plane: Any) -> None:
        """The measured schedule begins (``plane`` is built and warm)."""

    def stop(self, plane: Any) -> None:
        """The measured schedule ended; checks and drains are not traced."""


class Tracer(NullTracer):
    """Span stack + per-layer self time, fed by the installed wrappers."""

    def __init__(self, max_spans: int = 100_000):
        #: Spans are recorded only between ``start`` and ``stop``.
        self.active = False
        self.self_s: Dict[str, float] = {layer: 0.0 for layer in LAYERS}
        self.calls: Counter = Counter()
        #: Calls that returned exactly ``False`` (refused reservations).
        self.refused: Counter = Counter()
        #: ``(name, start, end, span id, parent id)`` of the newest spans.
        self.spans: Deque[Tuple[str, float, float, int, int]] = deque(maxlen=max_spans)
        #: Delivered messages by application-level kind.
        self.census: Counter = Counter()
        #: Entry points of the table that no longer resolve.
        self.unwrapped: List[str] = []
        #: Wall seconds between ``start`` and ``stop``.
        self.window_s = 0.0
        self._window_start = 0.0
        self._stack: List[List[Any]] = []
        self._next_id = 1
        self._undo: List[Tuple[Any, str, Any]] = []

    # ------------------------------------------------------------------
    def wrap(self, name: str, fn: Callable[..., Any],
             layer: Optional[str] = None) -> Callable[..., Any]:
        """``fn`` wrapped in a span called ``name`` (layer = its prefix)."""
        layer = layer if layer is not None else name.split(".", 1)[0]
        stack = self._stack
        self_s = self.self_s
        calls = self.calls
        refused = self.refused
        spans = self.spans

        def traced(*args: Any, **kwargs: Any) -> Any:
            if not self.active:
                return fn(*args, **kwargs)
            span_id = self._next_id
            self._next_id = span_id + 1
            parent = stack[-1][0] if stack else 0
            frame = [span_id, 0.0]
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
                if result is False:
                    refused[name] += 1
                return result
            finally:
                end = perf_counter()
                stack.pop()
                duration = end - start
                self_s[layer] += duration - frame[1]
                calls[name] += 1
                if stack:
                    stack[-1][1] += duration
                spans.append((name, start, end, span_id, parent))

        traced.__wrapped__ = fn  # type: ignore[attr-defined]
        return traced

    def install(self) -> None:
        """Wrap every resolvable entry point of the table (see ``remove``)."""
        for layer, module_name, class_name, attribute in ENTRY_POINTS:
            label = f"{layer}.{class_name + '.' if class_name else ''}{attribute}"
            try:
                owner = importlib.import_module(module_name)
                if class_name is not None:
                    owner = getattr(owner, class_name)
                original = owner.__dict__[attribute]
            except (ImportError, AttributeError, KeyError):
                # The table outlived a rename: say so, keep measuring.
                self.unwrapped.append(label)
                continue
            setattr(owner, attribute, self.wrap(f"{layer}.{attribute}", original, layer))
            self._undo.append((owner, attribute, original))

    def remove(self) -> None:
        """Restore every wrapped entry point."""
        while self._undo:
            owner, attribute, original = self._undo.pop()
            setattr(owner, attribute, original)

    def start(self, plane: Any) -> None:
        plane.network.set_delivery_hook(self.count_delivery)
        self.active = True
        self._window_start = perf_counter()

    def stop(self, plane: Any) -> None:
        self.window_s = perf_counter() - self._window_start
        self.active = False
        plane.network.set_delivery_hook(None)

    # ------------------------------------------------------------------
    def count_delivery(self, msg: Any) -> None:
        """Delivery hook: census of messages by application-level kind."""
        payload = msg.payload
        if msg.kind == "pastry.direct":
            self.census[f"{payload['app']}.{payload['kind']}"] += 1
        elif msg.kind == "pastry.route":
            self.census[f"{payload['app']}.{payload['data'].get('op', 'route')}"] += 1
        else:
            self.census[msg.kind] += 1

    def shares(self) -> Dict[str, float]:
        """``<layer>.self_share`` of the traced window, plus the remainder
        no span covered (the slice loop between root spans)."""
        out = {f"{layer}.self_share": self.self_s[layer] / self.window_s
               for layer in LAYERS}
        out["bench.other_share"] = 1.0 - sum(out.values())
        return out

    def dump(self, path: str) -> None:
        """Write the retained spans as JSON lines."""
        with open(path, "w", encoding="utf-8") as handle:
            for name, start, end, span_id, parent in self.spans:
                handle.write(json.dumps({"name": name, "start": start, "end": end,
                                         "id": span_id, "parent": parent}) + "\n")
