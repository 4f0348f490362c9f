"""Layer ledger: self time and work counts per layer of the program.

The tracer wraps the public functions at each layer boundary -- from
these benchmark files, leaving ``src/`` untouched -- and keeps a stack
of open spans.  A span's self time is its duration minus the time of
the spans it encloses, so the layer self times add up to the time spent
in outermost spans (``Ledger.top_s``); the rest of the traced wall time
is the residual ``other``.

Spans are aggregated as they close (self seconds per layer, calls per
counter) instead of being stored one by one: a round makes millions of
spans, and only their sums are reported.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional

import repro.dataplane.batched as batched_module
import repro.dataplane.functional as functional_module
import repro.dataplane.merging as merging_module
import repro.dataplane.server as server_module
import repro.net.ah as ah_module
import repro.nfs.vpn as vpn_module
from repro.core.closures import CompiledGraph
from repro.core.orchestrator import Orchestrator
from repro.dataplane.batched import BatchedDataplane
from repro.dataplane.chaining import ChainingManager
from repro.dataplane.flowsplit import FlowCache
from repro.net.headers import AhView, EthernetView, Ipv4View, TcpView, UdpView
from repro.net.packet import Packet
from repro.nfs.base import NetworkFunction
from repro.sim.engine import Environment

clock = time.perf_counter

#: NF kinds the workloads run; each gets its own ``nfs.<kind>`` layer.
NF_KINDS = ("vpn", "firewall", "monitor", "loadbalancer", "nat", "ids")

#: Packet accessors counted as header views (``net.views``).  The other
#: codec entry points add to ``net.view`` time and count as ``net.fields``.
VIEW_ACCESSORS = ("eth", "ipv4", "tcp", "udp", "payload", "five_tuple")
_PACKET_CODEC = VIEW_ACCESSORS + ("ah", "l4_protocol", "has_ah", "set_payload")
_HEADER_VIEWS = (EthernetView, Ipv4View, TcpView, UdpView, AhView)

#: Layers whose self time is reported; the residual (``other``) is the
#: traced wall time minus their sum.
LAYERS = (
    ("crypto",)
    + ("net.view", "net.copy")
    + tuple(f"nfs.{kind}" for kind in NF_KINDS)
    + ("dataplane", "dataplane.classify", "merge", "core", "sim")
)

COUNTERS = (
    "crypto.calls", "crypto.bytes", "net.views", "net.fields", "net.copies",
    *(f"nfs.{kind}.calls" for kind in NF_KINDS),
    "dataplane.batches", "dataplane.ct_walks", "dataplane.assigns",
    "flow_cache.gets", "flow_cache.hits", "merge.calls", "core.compiles",
    "core.binds", "sim.events", "trace.spans",
)


def layer_group(layer: str) -> str:
    """The module-level layer a span layer belongs to (for dominance)."""
    if layer.startswith("dataplane"):
        return "dataplane"
    return layer.split(".")[0]


@dataclass
class Ledger:
    """One traced round: its wall time and the tracer's tables."""

    wall: float
    self_s: Dict[str, float]
    counts: Dict[str, int]
    #: Total seconds of the outermost spans, summed as they closed.
    top_s: float
    #: Spans still open when the round ended (0 unless the tracer's
    #: stack bookkeeping is broken).
    open_spans: int
    nfs: List[NetworkFunction]

    @property
    def other(self) -> float:
        """Traced wall time outside every layer span (the residual)."""
        return self.wall - self.top_s

    def reconciles(self) -> bool:
        """Whether the span bookkeeping adds up.

        The two sums are kept apart -- self time per layer as each span
        closes, and the outermost durations at the root of the stack --
        so they differ when a span's time is lost or counted twice.  The
        outermost spans fit inside the traced wall time unless a nested
        span was charged to the root as well; and no span is left open.
        """
        layers = sum(self.self_s.values())
        return (self.open_spans == 0 and self.top_s <= self.wall
                and abs(layers - self.top_s) <= 1e-8 * max(1.0, self.top_s))


def by_group(times: Dict[str, float]) -> Dict[str, float]:
    """Sum per-layer seconds into module-level layers."""
    groups: Dict[str, float] = {}
    for layer, seconds in times.items():
        group = layer_group(layer)
        groups[group] = groups.get(group, 0.0) + seconds
    return groups


class LayerTracer:
    """Wraps layer entry points while installed; aggregates their spans.

    A call into a layer that is already open (``Packet.five_tuple``
    reading ``Packet.ipv4``) is counted but opens no span: it adds no
    self time to another layer, and timing it would only add cost.
    """

    def __init__(self) -> None:
        self.self_s: Dict[str, float] = {layer: 0.0 for layer in LAYERS}
        self.counts: Dict[str, int] = {}
        #: NF objects seen by ``handle`` since the last reset, by id.
        self.instances: Dict[int, NetworkFunction] = {}
        #: Child seconds of each open span; the root collects the
        #: outermost spans.
        self._stack: List[list] = [[0.0]]
        self._busy: Dict[str, list] = {layer: [False] for layer in LAYERS}
        self._originals: List[tuple] = []
        self.reset()

    def reset(self) -> None:
        for layer in self.self_s:
            self.self_s[layer] = 0.0
        for counter in COUNTERS:
            self.counts[counter] = 0
        self.instances.clear()
        self._stack[:] = [[0.0]]

    def snapshot(self, wall: float) -> Ledger:
        """Freeze the tables of the round just traced."""
        return Ledger(wall, dict(self.self_s), dict(self.counts),
                      self._stack[0][0], len(self._stack) - 1,
                      list(self.instances.values()))

    # ------------------------------------------------------------ wrappers
    def _span(self, layer: str, counter: str, fn: Callable,
              size_arg: Optional[int] = None,
              hit_counter: Optional[str] = None) -> Callable:
        stack, self_s, counts = self._stack, self.self_s, self.counts
        busy = self._busy[layer]

        def traced(*args, **kwargs):
            counts[counter] += 1
            if size_arg is not None:
                counts["crypto.bytes"] += len(args[size_arg])
            if busy[0]:
                result = fn(*args, **kwargs)
            else:
                busy[0] = True
                counts["trace.spans"] += 1
                frame = [0.0]
                stack.append(frame)
                start = clock()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    elapsed = clock() - start
                    busy[0] = False
                    stack.pop()
                    stack[-1][0] += elapsed
                    self_s[layer] += elapsed - frame[0]
            if hit_counter is not None and result is not None:
                counts[hit_counter] += 1
            return result

        return traced

    def _nf_span(self, fn: Callable) -> Callable:
        """``NetworkFunction.handle``: the layer follows the NF's kind."""
        stack, self_s, counts = self._stack, self.self_s, self.counts
        instances = self.instances

        def traced(nf, pkt):
            layer = "nfs." + nf.KIND
            instances[id(nf)] = nf
            counts[layer + ".calls"] += 1
            counts["trace.spans"] += 1
            frame = [0.0]
            stack.append(frame)
            start = clock()
            try:
                return fn(nf, pkt)
            finally:
                elapsed = clock() - start
                stack.pop()
                stack[-1][0] += elapsed
                self_s[layer] += elapsed - frame[0]

        return traced

    def _patch(self, owner, name: str, wrapper: Callable) -> None:
        original = owner.__dict__[name]
        self._originals.append((owner, name, original))
        setattr(owner, name, wrapper)

    def _patch_property(self, owner, name: str, layer: str,
                        counter: str) -> None:
        prop = owner.__dict__[name]
        fset = prop.fset and self._span(layer, counter, prop.fset)
        self._patch(owner, name, property(
            self._span(layer, counter, prop.fget), fset, doc=prop.__doc__))

    # ------------------------------------------------------- install/remove
    def install(self) -> None:
        """Wrap every layer boundary.  Planes built afterwards bind the
        wrapped NF handles, merge function and crypto calls."""
        if self._originals:
            raise RuntimeError("tracer already installed")
        span = self._span
        self._patch(vpn_module, "aes_ctr_transform",
                    span("crypto", "crypto.calls",
                         vpn_module.aes_ctr_transform, size_arg=2))
        self._patch(ah_module, "compute_icv",
                    span("crypto", "crypto.calls", ah_module.compute_icv,
                         size_arg=1))
        for name in _PACKET_CODEC:
            counter = "net.views" if name in VIEW_ACCESSORS else "net.fields"
            attr = Packet.__dict__[name]
            if isinstance(attr, property):
                self._patch_property(Packet, name, "net.view", counter)
            else:
                self._patch(Packet, name, span("net.view", counter, attr))
        for cls in _HEADER_VIEWS:
            for name, attr in list(vars(cls).items()):
                if isinstance(attr, property):
                    self._patch_property(cls, name, "net.view", "net.fields")
        for name in ("header_copy", "full_copy"):
            self._patch(Packet, name,
                        span("net.copy", "net.copies", Packet.__dict__[name]))
        self._patch(NetworkFunction, "handle",
                    self._nf_span(NetworkFunction.handle))
        self._patch(BatchedDataplane, "process_batch",
                    span("dataplane", "dataplane.batches",
                         BatchedDataplane.process_batch))
        self._patch(FlowCache, "get",
                    span("dataplane", "flow_cache.gets", FlowCache.get,
                         hit_counter="flow_cache.hits"))
        self._patch(ChainingManager, "classify",
                    span("dataplane.classify", "dataplane.ct_walks",
                         ChainingManager.classify))
        self._patch(batched_module, "assign_instances",
                    span("dataplane.classify", "dataplane.assigns",
                         batched_module.assign_instances))
        self._patch(CompiledGraph, "bind",
                    span("dataplane.classify", "core.binds",
                         CompiledGraph.bind))
        # ``CompiledGraph.bind`` resolves the merge function from its
        # module at bind time; the scalar planes hold their own binding.
        for module in (merging_module, functional_module, server_module):
            self._patch(module, "apply_merge_ops",
                        span("merge", "merge.calls", module.apply_merge_ops))
        self._patch(Orchestrator, "compile",
                    span("core", "core.compiles", Orchestrator.compile))
        self._patch(Environment, "step",
                    span("sim", "sim.events", Environment.step))

    def uninstall(self) -> None:
        while self._originals:
            owner, name, original = self._originals.pop()
            setattr(owner, name, original)
