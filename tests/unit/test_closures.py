"""Unit tests for install-time action-closure compilation.

:class:`repro.core.closures.CompiledGraph` is the one executor of graph
semantics: the FT/MO walk flattened per (graph, stage) at install time,
bound to concrete NF instances per flow.  These tests pin the program
layout, the sequential fast path, bound-closure equivalence against the
independent sequential oracle, copy counters, and the ChainingManager's
install-time compilation cache.
"""

import pytest

from repro.core import CompiledGraph, CopyCounters, Orchestrator, Policy
from repro.core.tables import build_tables
from repro.dataplane import ChainingManager, SequentialReference, instantiate_nfs
from repro.eval.forced import forced_parallel, forced_sequential
from repro.traffic import FlowGenerator


def _packets(count=24, seed=7):
    return FlowGenerator(num_flows=6, seed=seed).packets(count)


def test_sequential_graph_compiles_to_flat_chain():
    graph = forced_sequential(["firewall", "monitor", "loadbalancer"])
    compiled = CompiledGraph(graph)
    assert compiled.sequential
    assert compiled.chain == tuple(graph.nf_names())
    assert len(compiled.program) == len(graph.stages)
    for copies, entries in compiled.program:
        assert copies == ()
        assert all(version == 1 for _, version in entries)


def test_parallel_graph_program_mirrors_copy_declarations():
    graph = forced_parallel(["firewall", "firewall", "firewall"],
                            with_copy=True)
    compiled = CompiledGraph(graph)
    assert not compiled.sequential
    assert compiled.chain == ()
    declared = sorted((spec.version, spec.header_only)
                      for spec in graph.copies)
    programmed = sorted(
        pair for copies, _ in compiled.program for pair in copies)
    assert programmed == declared
    assert compiled.merge_ops == tuple(graph.merge_ops)


@pytest.mark.parametrize("factory", [
    lambda: forced_sequential(["firewall", "monitor"]),
    lambda: forced_parallel(["firewall", "monitor"], with_copy=False),
    lambda: forced_parallel(["firewall", "firewall"], with_copy=True),
])
def test_bound_closure_matches_sequential_reference(factory):
    # Read-only firewall/monitor graphs: running the same NFs in chain
    # order is the independent oracle for the parallel closure.
    reference = SequentialReference(instantiate_nfs(factory()).values())
    graph = factory()
    compiled = CompiledGraph(graph)
    nfs = instantiate_nfs(graph)
    scale = {name: 1 for name in graph.nf_names()}
    runner = compiled.bind(nfs, scale, {})
    for ref_pkt, pkt in zip(_packets(), _packets()):
        want = reference.process(ref_pkt)
        got = runner(pkt)
        if want is None:
            assert got is None
        else:
            assert got is not None
            assert bytes(got.buf) == bytes(want.buf)


def test_copy_counters_increment_through_the_closure():
    graph = forced_parallel(["firewall", "firewall"], with_copy=True)
    compiled = CompiledGraph(graph)
    counters = CopyCounters()
    runner = compiled.bind(instantiate_nfs(graph),
                           {name: 1 for name in graph.nf_names()},
                           {}, counters)
    for pkt in _packets(8):
        runner(pkt)
    assert counters.copies_header + counters.copies_full == \
        8 * len(graph.copies)


def test_scaled_bind_calls_the_assigned_instance():
    graph = forced_sequential(["ids"])
    compiled = CompiledGraph(graph)
    name = graph.nf_names()[0]
    scale = {name: 2}
    nfs = instantiate_nfs(graph, scale=scale)
    runner = compiled.bind(nfs, scale, {name: 1})
    before = nfs[f"{name}#1"].rx_packets
    for pkt in _packets(5):
        runner(pkt)
    assert nfs[f"{name}#1"].rx_packets == before + 5
    assert nfs[f"{name}#0"].rx_packets == 0


def test_chaining_manager_compiles_once_per_install():
    manager = ChainingManager()
    graph = forced_sequential(["firewall", "monitor"])
    assert manager.closures_compiled == 0
    manager.install(build_tables(graph, mid=1))
    assert manager.closures_compiled == 1
    compiled = manager.compiled_for(1)
    assert isinstance(compiled, CompiledGraph)
    assert compiled.graph is manager.graph_for(1)
    # Repeated lookups reuse the same object -- no per-flow compilation.
    assert manager.compiled_for(1) is compiled
    other = Orchestrator().compile(
        Policy.from_chain(["gateway", "caching"])).graph
    manager.install(build_tables(other, mid=2))
    assert manager.closures_compiled == 2
    assert manager.compiled_for(2) is not compiled
