"""Install-time compilation of service graphs into action closures.

:class:`CompiledGraph` is the only executor of NFP's graph semantics
(§4.1): copy at stage entry, stage barrier, deferred nil, merge.  It
flattens the FT/MO table walk into per-stage program tuples once per
install, and :meth:`CompiledGraph.bind` closes the program over a
concrete set of NF instances so the per-packet inner loop is a single
call on a prebound Python closure.  The functional, batched and
multiserver planes all run bound closures; the independent oracles --
:class:`~repro.dataplane.functional.SequentialReference` and the DES
walk in :mod:`repro.dataplane.server` -- do not.

Strictly sequential graphs (the common case after forced-sequential
policies) take a fast path that skips the version dict entirely; for a
single-version graph an NF drop makes every later stage a nil-skip and
the merge return ``None``, so an early return is observationally
identical.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Mapping, Optional, Tuple

from ..net.packet import HEADER_COPY_BYTES, Packet
from .graph import ORIGINAL_VERSION, ServiceGraph

__all__ = ["CompiledGraph", "CopyCounters", "BoundClosure"]

#: A bound per-flow runner: one packet in, merged packet or ``None`` out.
BoundClosure = Callable[[Packet], Optional[Packet]]


class CopyCounters:
    """Mutable copy counters shared between a plane and its closures."""

    __slots__ = ("copies_header", "copies_full")

    def __init__(self):
        self.copies_header = 0
        self.copies_full = 0


class CompiledGraph:
    """One service graph flattened into per-stage program tuples.

    Built once per graph (:class:`ChainingManager` keeps one per MID at
    table-install time; the functional plane and each multiserver stage
    build their own); holds no NF instances itself, so one compiled
    graph serves every flow and every instance assignment of the
    deployment.
    """

    __slots__ = ("graph", "sequential", "merge_ops", "program", "chain")

    def __init__(self, graph: ServiceGraph):
        self.graph = graph
        self.sequential = graph.is_sequential
        self.merge_ops = tuple(graph.merge_ops)
        program: List[tuple] = []
        for stage_index, stage in enumerate(graph.stages):
            copies = tuple(
                (spec.version, spec.header_only)
                for spec in graph.copies
                if spec.stage_index == stage_index
            )
            entries = tuple(
                (entry.node.name, entry.version) for entry in stage
            )
            program.append((copies, entries))
        #: Per-stage ``(copies, entries)`` tuples, declaration order.
        self.program: Tuple[tuple, ...] = tuple(program)
        #: NF names in chain order (sequential fast path only).
        self.chain: Tuple[str, ...] = (
            tuple(name for _, entries in self.program for name, _ in entries)
            if self.sequential
            else ()
        )

    def bind(
        self,
        nfs: Mapping[str, object],
        scale: Mapping[str, int],
        assignment: Mapping[str, int],
        counters: Optional[CopyCounters] = None,
    ) -> BoundClosure:
        """Close the program over concrete NF instances for one flow.

        ``nfs`` maps instance labels to objects with a ``handle``
        method (NFs, or the functional plane's fault gates);
        ``scale``/``assignment`` resolve each graph node to its
        ``name#k`` label as every plane does.  The returned closure is the
        whole per-packet hot path: no graph walk, no label resolution,
        no telemetry branches.
        """
        counters = counters if counters is not None else CopyCounters()

        def resolve(name: str):
            if scale.get(name, 1) == 1:
                return nfs[name].handle
            return nfs[f"{name}#{assignment.get(name, 0)}"].handle

        if self.sequential:
            handles = tuple(resolve(name) for name in self.chain)

            def run_sequential(pkt: Packet) -> Optional[Packet]:
                for handle in handles:
                    if handle(pkt).dropped:
                        return None
                return pkt

            return run_sequential

        bound = tuple(
            (
                copies,
                tuple((resolve(name), version) for name, version in entries),
            )
            for copies, entries in self.program
        )
        merge_ops = self.merge_ops
        from ..dataplane.merging import apply_merge_ops

        def run_parallel(pkt: Packet) -> Optional[Packet]:
            versions: Dict[int, Packet] = {ORIGINAL_VERSION: pkt}
            for copies, entries in bound:
                if copies:
                    base = versions[ORIGINAL_VERSION]
                    for version, header_only in copies:
                        if base.nil:
                            versions[version] = base.make_nil()
                        elif header_only:
                            versions[version] = base.header_copy(
                                version, HEADER_COPY_BYTES
                            )
                            counters.copies_header += 1
                        else:
                            versions[version] = base.full_copy(version)
                            counters.copies_full += 1
                newly_dropped = None
                for handle, version in entries:
                    buffer = versions[version]
                    if buffer.nil:
                        continue
                    if handle(buffer).dropped:
                        if newly_dropped is None:
                            newly_dropped = [version]
                        else:
                            newly_dropped.append(version)
                if newly_dropped:
                    for version in newly_dropped:
                        versions[version] = versions[version].make_nil()
            return apply_merge_ops(versions, merge_ops)

        return run_parallel

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        kind = "sequential" if self.sequential else "parallel"
        return f"CompiledGraph({self.graph.name!r}, {kind}, {len(self.program)} stages)"
