"""Functional (untimed) execution of service graphs.

Runs a compiled :class:`~repro.core.graph.ServiceGraph` over real packet
bytes with full NFP semantics -- versions, header-only copies, stage
barriers, nil propagation, merging -- but no clock.  The semantics
themselves live in one place, :class:`~repro.core.closures.CompiledGraph`;
this plane is a thin driver around a bound closure, and it is checked
against the *result correctness principle* (§4.1): for any policy,
``FunctionalDataplane`` output must be byte-identical to
:class:`SequentialReference` output over the original chain (§6.4's
replay experiment).

The timed DES dataplane (:mod:`repro.dataplane.server`) shares the same
NF objects and merge code but walks the graph itself, as distributed
runtimes and mergers; it adds queueing and service times.

Scaled graphs (§7) execute here too: pass ``scale`` (a uniform int or a
name -> count mapping) and each replicated NF gets per-instance objects
(``name#k``); every packet is routed to its flow's instance through the
same RSS split the DES server uses
(:mod:`repro.dataplane.flowsplit`), so NF state partitions identically
across planes.  :class:`SequentialBank` is the matching sequential
ground truth: N independent sequential chains fed by the same split.
"""

from __future__ import annotations

import time
from typing import Callable, Dict, Iterable, List, Mapping, Optional, Sequence, Tuple, Union

from ..core.closures import BoundClosure, CompiledGraph
from ..core.graph import ServiceGraph
from ..faults import FaultInjector, HealthBoard
from ..net.packet import Packet
from ..nfs.base import NetworkFunction, ProcessingContext, create_nf
from .flowsplit import assign_instances, flow_key, rss_instance
# Unused here: the wall-clock tracer (perfbench/layers.py) patches this
# module attribute by name.
from .merging import apply_merge_ops  # noqa: F401

__all__ = [
    "FunctionalDataplane",
    "SequentialReference",
    "SequentialBank",
    "instantiate_nfs",
]


def _normalize_scale(
    graph: ServiceGraph, scale: Union[int, Mapping[str, int], None]
) -> Dict[str, int]:
    names = graph.nf_names()
    if scale is None:
        return {name: 1 for name in names}
    if isinstance(scale, int):
        if scale < 1:
            raise ValueError("uniform scale must be >= 1")
        return {name: scale for name in names}
    counts = {}
    for name in names:
        count = int(scale.get(name, 1))
        if count < 1:
            raise ValueError(f"scale for {name!r} must be >= 1")
        counts[name] = count
    return counts


def instantiate_nfs(
    graph: ServiceGraph,
    scale: Union[int, Mapping[str, int], None] = None,
    **kwargs,
) -> Dict[str, NetworkFunction]:
    """Create NF objects per graph node, keyed by instance label.

    Unscaled nodes key by their plain name; replicated nodes get one
    object per instance under ``name#k`` labels (the same labels the
    DES server and telemetry use).  Extra kwargs are forwarded to every
    constructor.
    """
    counts = _normalize_scale(graph, scale)
    instances: Dict[str, NetworkFunction] = {}
    for node in graph.nodes():
        count = counts[node.name]
        if count == 1:
            instances[node.name] = create_nf(node.kind, name=node.name, **kwargs)
        else:
            for k in range(count):
                label = f"{node.name}#{k}"
                instances[label] = create_nf(node.kind, name=label, **kwargs)
    return instances


class _InstanceGate:
    """Fault-gated stand-in for one NF instance, bound in its place.

    Consulted before each NF application on fault runs.  A dead/hung
    instance drops the version (nil) instead of serving it; with
    replicas left, later flows rehash onto healthy instances; with none
    left, the instance restarts fresh (its per-flow state is lost -- the
    semantics failover degrades to, and what fuzzing measures the blast
    radius of).  The NF is looked up in ``plane.nfs`` at call time, so a
    restarted NF is the one served.
    """

    __slots__ = ("plane", "name", "kind", "index", "label")

    def __init__(self, plane: "FunctionalDataplane", name: str, kind: str,
                 index: int, label: str):
        self.plane = plane
        self.name = name
        self.kind = kind
        self.index = index
        self.label = label

    def handle(self, pkt: Packet) -> ProcessingContext:
        plane = self.plane
        label = self.label
        state = plane.injector.on_packet(label, float(plane.processed))
        if not state.down:
            return plane.nfs[label].handle(pkt)
        plane.drop_reasons["instance_down"] = (
            plane.drop_reasons.get("instance_down", 0) + 1)
        if not plane.health.mark_down(self.name, self.index):
            # The group's last healthy instance: the untimed plane has
            # no parked process, so reviving in place is safe here.
            plane.nfs[label] = create_nf(self.kind, name=label)
            plane.restarts += 1
            plane.injector.revive(label)
            plane.health.mark_up(self.name, self.index)
        ctx = ProcessingContext()
        ctx.drop("instance_down")
        return ctx


class FunctionalDataplane:
    """Synchronous driver of one graph's bound :class:`CompiledGraph`."""

    def __init__(
        self,
        graph: ServiceGraph,
        nf_instances: Optional[Dict[str, NetworkFunction]] = None,
        scale: Union[int, Mapping[str, int], None] = None,
        injector: Optional[FaultInjector] = None,
        telemetry=None,
    ):
        self.graph = graph
        #: Optional :class:`~repro.telemetry.hooks.TelemetryHub`; the
        #: untimed plane only counts control-plane facts (RSS pinning),
        #: never per-packet service time -- it has no clock.
        self.telemetry = telemetry
        #: Optional :class:`~repro.telemetry.timeseries.Sampler`; the
        #: functional plane has no virtual clock to schedule it on, so
        #: :meth:`process` drives its wall-clock ``maybe_tick`` fallback.
        self.sampler = None
        self.scale = _normalize_scale(graph, scale)
        self._scaled = {n: c for n, c in self.scale.items() if c > 1}
        self.nfs = nf_instances or instantiate_nfs(graph, scale=self.scale)
        missing = [
            label
            for name in graph.nf_names()
            for label in self._labels(name)
            if label not in self.nfs
        ]
        if missing:
            raise ValueError(f"no NF instances for graph nodes: {missing}")
        self.processed = 0
        self.emitted = 0
        self.dropped = 0
        #: Optional fault injector: with one, every instance label binds
        #: to an :class:`_InstanceGate` instead of the NF itself.
        self.injector = injector
        self.health = HealthBoard()
        for name, count in self.scale.items():
            self.health.register(name, count)
        #: reason -> packet count for faulted drops (conservation report).
        self.drop_reasons: Dict[str, int] = {}
        self.restarts = 0
        if injector is None:
            self._targets: Mapping[str, object] = self.nfs
        else:
            self._targets = {
                label: _InstanceGate(self, node.name, node.kind, index, label)
                for node in graph.nodes()
                for index, label in enumerate(self._labels(node.name))
            }
        self._compiled = CompiledGraph(graph)
        #: Bound closures keyed by the flow's assigned instance indices
        #: (one per scaled NF, in ``_scaled`` order): at most the
        #: product of the instance counts.  An unscaled graph has the
        #: single key ``()``, bound here once.
        self._runners: Dict[Tuple[int, ...], BoundClosure] = {}
        if not self._scaled:
            self._runners[()] = self._compiled.bind(self._targets, self.scale, {})

    def _labels(self, name: str) -> List[str]:
        count = self.scale[name]
        if count == 1:
            return [name]
        return [f"{name}#{k}" for k in range(count)]

    def _runner(self, pkt: Packet) -> BoundClosure:
        """The closure bound to ``pkt``'s flow's instance assignment."""
        assignment = assign_instances(
            flow_key(pkt), self._scaled,
            healthy=self.health.view() if self.injector else None,
            telemetry=self.telemetry)
        key = tuple(assignment.get(name, 0) for name in self._scaled)
        runner = self._runners.get(key)
        if runner is None:
            runner = self._runners[key] = self._compiled.bind(
                self._targets, self.scale, assignment)
        return runner

    def process(self, pkt: Packet) -> Optional[Packet]:
        """Run one packet through the graph; ``None`` means dropped."""
        self.processed += 1
        if self.sampler is not None:
            self.sampler.maybe_tick(time.monotonic() * 1e6)
        runner = self._runner(pkt) if self._scaled else self._runners[()]
        merged = runner(pkt)
        if merged is None:
            self.dropped += 1
        else:
            self.emitted += 1
        return merged

    def process_many(self, packets: Iterable[Packet]) -> List[Optional[Packet]]:
        return [self.process(pkt) for pkt in packets]


class SequentialReference:
    """Plain sequential chain execution -- the ground truth of §4.1."""

    def __init__(self, nfs: Sequence[NetworkFunction]):
        self.nfs = list(nfs)
        self.processed = 0
        self.emitted = 0
        self.dropped = 0

    def process(self, pkt: Packet) -> Optional[Packet]:
        """Run the chain in order; a drop terminates processing."""
        self.processed += 1
        for nf in self.nfs:
            ctx = nf.handle(pkt)
            if ctx.dropped:
                self.dropped += 1
                return None
        self.emitted += 1
        return pkt

    def process_many(self, packets: Iterable[Packet]) -> List[Optional[Packet]]:
        return [self.process(pkt) for pkt in packets]


class SequentialBank:
    """N independent sequential chains behind the shared RSS split.

    The sound sequential oracle for a *scaled* parallel deployment: NFs
    with cross-flow state (the NAT's arrival-order port allocator, the
    VPN's global AH sequence counter) partition their state per
    instance once a graph is scaled, so the reference must partition
    identically.  ``chain_factory(bank_index)`` builds one fresh
    sequential chain per bank; packets route by the same
    :func:`~repro.dataplane.flowsplit.flow_key` / ``crc32`` split every
    other plane uses.  With ``instances=1`` this degenerates to a plain
    :class:`SequentialReference`.
    """

    def __init__(
        self,
        chain_factory: Callable[[int], Sequence[NetworkFunction]],
        instances: int,
    ):
        if instances < 1:
            raise ValueError("instances must be >= 1")
        self.banks = [
            SequentialReference(chain_factory(k)) for k in range(instances)
        ]

    def bank_for(self, pkt: Packet) -> int:
        return rss_instance(flow_key(pkt), len(self.banks))

    def process(self, pkt: Packet) -> Optional[Packet]:
        return self.banks[self.bank_for(pkt)].process(pkt)

    def process_many(self, packets: Iterable[Packet]) -> List[Optional[Packet]]:
        return [self.process(pkt) for pkt in packets]

    @property
    def processed(self) -> int:
        return sum(bank.processed for bank in self.banks)

    @property
    def emitted(self) -> int:
        return sum(bank.emitted for bank in self.banks)

    @property
    def dropped(self) -> int:
        return sum(bank.dropped for bank in self.banks)
