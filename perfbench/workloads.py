"""Workloads and the engines that run them.

A workload is a service chain plus a packet stream made from the seed.
One *round* runs the whole stream through one engine from a fresh
set-up, so every round of a run does the same work and must produce the
same outputs and the same work counts.  The engines are the program's
public entry points: ``BatchedDataplane.process_batch`` (closed loop,
one caller, 32-packet batches back to back), ``FunctionalDataplane``
(one packet per call) and the DES (``measure_nfp``, open loop in
simulated time, timed as one batch job).
"""

from __future__ import annotations

import random
import time
from collections import Counter
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from repro.core.orchestrator import Orchestrator
from repro.core.policy import Policy
from repro.dataplane.batched import DEFAULT_BATCH_SIZE, BatchedDataplane
from repro.dataplane.functional import FunctionalDataplane, SequentialReference
from repro.dataplane.server import NFPServer
from repro.eval.experiments import NORTH_SOUTH_CHAIN, WEST_EAST_CHAIN
from repro.eval.harness import deployed_from_graph, measure_nfp
from repro.net.packet import Packet
from repro.nfs.base import create_nf
from repro.sim import DEFAULT_PARAMS, Environment
from repro.traffic.generator import (
    DATACENTER_MIX,
    FIXED_64B,
    FlowGenerator,
    PacketSizeDistribution,
)

clock = time.perf_counter

#: Pause hook of a round: called between batches, and every
#: ``DES_PAUSE_EVERY`` simulator events, outside the timed work.
Pause = Optional[Callable[[], None]]
#: Simulator events between two pause-hook calls in a DES round.
DES_PAUSE_EVERY = 1024


@dataclass(frozen=True)
class Workload:
    name: str
    chain: Tuple[str, ...]
    sizes: PacketSizeDistribution
    num_flows: int
    popularity: str
    #: Packets per round (one stream, replayed from a fresh set-up).
    round_packets: int
    #: Engine whose rate is ``pkts_per_s``: "batched" or "des".
    primary: str
    why: str
    #: A round touches more flows than the batched plane's flow cache
    #: holds, so every batched round must evict.
    churn: bool = False
    #: DES workloads: extra seeds whose heap peaks join the warm-up's in
    #: ``mem_mb``.  A DES peak follows the queueing backlog of one
    #: seed's arrivals, which differs by up to half between seeds; each
    #: extra seed costs a DES round under tracemalloc (about 9 s).
    mem_seeds: int = 0


WORKLOADS: Dict[str, Workload] = {
    wl.name: wl
    for wl in (
        Workload(
            "ns_vpn", NORTH_SOUTH_CHAIN, DATACENTER_MIX, 64, "uniform",
            round_packets=160, primary="batched",
            why="Fig. 13 north-south chain on 724 B mean frames: AES in "
                "net/crypto.py takes nearly all the time, classification "
                "almost none",
        ),
        Workload(
            "we_churn", ("nat",) + WEST_EAST_CHAIN, FIXED_64B, 131072, "zipf",
            round_packets=28672, primary="batched", churn=True,
            why="64 B frames, Zipf(1.2) over 32x the flow-cache size; a "
                "round touches about 4,700 flows, so the cache evicts; no "
                "crypto: packet codec, NF logic, copy/merge and cold "
                "classification, with NAT/monitor state growing",
        ),
        Workload(
            "des_we", WEST_EAST_CHAIN, DATACENTER_MIX, 64, "uniform",
            round_packets=3200, primary="des", mem_seeds=1,
            why="Fig. 13 west-east chain on the per-packet DES: the only "
                "workload where the simulator engine and DES server run",
        ),
    )
}


class ExactMix(PacketSizeDistribution):
    """A size distribution drawn in exact proportion, balanced per batch.

    ``count`` consecutive samples hold every size exactly ``share *
    count`` times, dealt over the round's 32-packet batches so that
    every batch carries nearly the same bytes; ``seed`` orders the
    batches and the packets inside each.  Every seed then offers the
    same bytes per round and per batch: seeds change which flow carries
    which size, not how much work a round or a batch is.  Sampling
    noise in the mix would otherwise move a crypto-bound rate, and the
    batch-latency percentiles, by several percent per seed.
    """

    def __init__(self, base: PacketSizeDistribution, count: int, seed: int):
        super().__init__(base.points, name=f"{base.name}-exact")
        sizes = sorted(size for size, share in self.points
                       for _ in range(round(share * count)))
        if len(sizes) != count or count % DEFAULT_BATCH_SIZE:
            raise ValueError(f"{base.name} has no exact mix of {count} "
                             f"in {DEFAULT_BATCH_SIZE}-packet batches")
        batches = [[] for _ in range(count // DEFAULT_BATCH_SIZE)]
        for rank, size in enumerate(sizes):  # deal in snake order
            lap, column = divmod(rank, len(batches))
            if lap % 2:
                column = len(batches) - 1 - column
            batches[column].append(size)
        rng = random.Random(seed)
        rng.shuffle(batches)
        for batch in batches:
            rng.shuffle(batch)
        self._sizes = [size for batch in batches for size in batch]
        self._drawn = 0

    def sample(self, rng: random.Random) -> int:
        size = self._sizes[self._drawn % len(self._sizes)]
        self._drawn += 1
        return size


def round_sizes(wl: Workload, seed: int) -> PacketSizeDistribution:
    """Fresh size source for one pass over the workload's stream."""
    if len(wl.sizes.points) == 1:
        return wl.sizes
    return ExactMix(wl.sizes, wl.round_packets, seed)


def make_stream(wl: Workload, seed: int) -> List[bytes]:
    """The workload's packet stream as frame bytes.

    For ``des_we`` this is exactly the stream ``measure_nfp`` injects
    (same generator, flow count, sizes and seed), so the fast planes and
    the oracle see what the DES sees.  Mixed sizes come in exact
    proportion (:class:`ExactMix`).
    """
    flows = FlowGenerator(num_flows=wl.num_flows,
                          sizes=round_sizes(wl, seed), seed=seed,
                          popularity=wl.popularity)
    return [bytes(flows.next_packet().buf) for _ in range(wl.round_packets)]


def fresh_packets(stream: List[bytes]) -> List[Packet]:
    return [Packet(bytearray(frame)) for frame in stream]


def compile_chain(chain) -> object:
    return Orchestrator().compile(Policy.from_chain(list(chain))).graph


def oracle_outputs(wl: Workload, stream: List[bytes]) -> List[Optional[bytes]]:
    """Expected frame per input (``None`` = dropped), chain order."""
    reference = SequentialReference([create_nf(kind) for kind in wl.chain])
    return [None if out is None else bytes(out.buf)
            for out in reference.process_many(fresh_packets(stream))]


@dataclass
class Round:
    engine: str
    packets: int
    #: Processing wall time (excludes set-up).
    busy_s: float
    #: Wall time of each timed segment: a 32-packet batch on the fast
    #: planes, ``DES_PAUSE_EVERY`` events of a paused DES round.
    batch_s: List[float] = field(default_factory=list)
    #: Fast planes: one output per input, ``None`` = dropped.  Released
    #: by :func:`check` once compared with the oracle.
    outputs: Optional[List] = None
    #: DES: the position in the stream (1-based) of each packet it
    #: dropped on purpose (nil-merged), in order.
    dropped: Optional[List] = None
    mismatches: int = 0
    nf_errors: int = 0
    lost: int = 0
    #: Program counters that must repeat exactly round after round.
    counters: Dict[str, float] = field(default_factory=dict)
    state: Dict[str, int] = field(default_factory=dict)
    #: Host-calibration samples taken around and during the round.
    calib: List[float] = field(default_factory=list)
    #: Host slowdown while each segment ran (rounds paused between
    #: segments; see ``Run.round``).
    batch_speed: List[float] = field(default_factory=list)
    #: Set-up plus processing wall time.
    wall: float = 0.0

    @property
    def failed(self) -> int:
        return self.mismatches + self.nf_errors + self.lost


def check(rnd: Round, expected: List[Optional[bytes]]) -> None:
    """Compare a round with the oracle, outside any timed region.

    Fast planes must match byte for byte and drop for drop.  The DES
    must drop exactly the packets the oracle drops, named by their
    position in the stream; each one dropped on one side only is a
    mismatch.  Packets it does not account for (delivered + nil-dropped
    + lost != offered) already count as lost.
    """
    if rnd.dropped is not None:
        want = Counter(pos for pos, out in enumerate(expected, 1)
                       if out is None)
        got = Counter(rnd.dropped)
        rnd.mismatches = sum(((want - got) + (got - want)).values())
        return
    outputs, rnd.outputs = rnd.outputs, None
    bad = abs(len(outputs) - len(expected))
    for got, want in zip(outputs, expected):
        if got is None or want is None:
            bad += (got is None) != (want is None)
        elif bytes(got.buf) != want:
            bad += 1
    rnd.mismatches = bad


def nf_state(nfs) -> Dict[str, int]:
    state = {"nat.bindings": 0, "monitor.flows": 0}
    for nf in nfs:
        if nf.KIND == "nat":
            state["nat.bindings"] += nf.binding_count()
        elif nf.KIND == "monitor":
            state["monitor.flows"] += nf.flow_count()
    return state


def batched_round(wl: Workload, packets: List[Packet],
                  between: Pause) -> Round:
    """``between`` runs after every batch, outside the timed region."""
    plane = BatchedDataplane(compile_chain(wl.chain))
    outputs: List = []
    batch_s: List[float] = []
    for first in range(0, len(packets), DEFAULT_BATCH_SIZE):
        batch = packets[first:first + DEFAULT_BATCH_SIZE]
        began = clock()
        out = plane.process_batch(batch)
        batch_s.append(clock() - began)
        outputs.extend(out)
        if between:
            between()
    nfs = list(plane.nfs.values())
    cache = plane.flow_cache
    return Round(
        "batched", len(packets), sum(batch_s), batch_s,
        outputs=outputs,
        nf_errors=sum(nf.errors for nf in nfs),
        counters={
            "processed": plane.processed, "emitted": plane.emitted,
            "dropped": plane.dropped, "ct_walks": plane.ct_walks,
            "copies_header": plane.counters.copies_header,
            "copies_full": plane.counters.copies_full,
            "cache.hits": cache.hits, "cache.misses": cache.misses,
            "cache.evictions": cache.evictions,
        },
        state=nf_state(nfs),
    )


def functional_round(wl: Workload, packets: List[Packet],
                     between: Pause) -> Round:
    plane = FunctionalDataplane(compile_chain(wl.chain))
    process = plane.process
    outputs: List = []
    chunk_s: List[float] = []
    for first in range(0, len(packets), DEFAULT_BATCH_SIZE):
        chunk = packets[first:first + DEFAULT_BATCH_SIZE]
        began = clock()
        out = [process(pkt) for pkt in chunk]
        chunk_s.append(clock() - began)
        outputs.extend(out)
        if between:
            between()
    nfs = list(plane.nfs.values())
    return Round(
        "functional", len(packets), sum(chunk_s), chunk_s,
        outputs=outputs,
        nf_errors=sum(nf.errors for nf in nfs),
        counters={"processed": plane.processed, "emitted": plane.emitted,
                  "dropped": plane.dropped},
        state=nf_state(nfs),
    )


def des_setup_s(wl: Workload) -> float:
    """Compile plus DES server construction and deploy, as measure_nfp
    builds them (the run itself is timed by :func:`des_round`)."""
    start = clock()
    graph = compile_chain(wl.chain)
    server = NFPServer(Environment(), DEFAULT_PARAMS)
    server.deploy(deployed_from_graph(graph))
    return clock() - start


def des_round(wl: Workload, seed: int, between: Pause) -> Round:
    """One ``measure_nfp`` run on the workload's stream, timed as a
    batch job.

    With ``between``, ``Environment.step`` is wrapped for the run to
    call it every ``DES_PAUSE_EVERY`` events, and once more at the end;
    the run's time is the sum of the segments between those calls, kept
    in ``batch_s``.  The wrapper's own cost (a Python call and a count
    per event) stays in the timed work.

    ``NFPServer.record_drop`` is wrapped for the run to name the packets
    the server counts as nil-dropped, so :func:`check` can compare them
    with the oracle's drops.  A drop carries only the packet's metadata;
    its PID numbers packets from 1 in the order the classifier took
    them, which is the order the source offered them unless the server
    lost some (a failure in itself).
    """
    graph = compile_chain(wl.chain)
    dropped: List[Optional[int]] = []
    record_drop = NFPServer.record_drop

    def recording(server, pkt):
        counted = server.nil_dropped
        record_drop(server, pkt)
        if server.nil_dropped != counted:
            meta = pkt.meta if pkt is not None else None
            dropped.append(meta.pid if meta is not None else None)

    step = Environment.step
    segments: List[float] = []
    #: Events stepped, and when the current segment began.
    steps, began = [0], [0.0]

    def pausing(env):
        step(env)
        steps[0] += 1
        if not steps[0] % DES_PAUSE_EVERY:
            segments.append(clock() - began[0])
            between()
            began[0] = clock()

    NFPServer.record_drop = recording
    if between:
        Environment.step = pausing
    start = began[0] = clock()
    try:
        result = measure_nfp(graph, packets=wl.round_packets,
                             sizes=round_sizes(wl, seed),
                             num_flows=wl.num_flows, seed=seed)
    finally:
        end = clock()
        NFPServer.record_drop = record_drop
        Environment.step = step
    if between:
        segments.append(end - began[0])
        between()
    unaccounted = wl.round_packets - (
        result.delivered + result.nil_dropped + result.lost)
    return Round(
        "des", wl.round_packets,
        sum(segments) if segments else end - start, segments,
        dropped=dropped, lost=result.lost + abs(unaccounted),
        counters={"events": result.events_processed,
                  "delivered": result.delivered,
                  "nil_dropped": result.nil_dropped,
                  "sim_p50_us": result.latency_p50_us,
                  "sim_p99_us": result.latency_p99_us,
                  "sim_mpps": result.throughput_mpps},
    )


def setup_sample(wl: Workload) -> float:
    """Set-up alone: compile plus construction of the primary engine."""
    if wl.primary == "des":
        return des_setup_s(wl)
    start = clock()
    BatchedDataplane(compile_chain(wl.chain))
    return clock() - start


def run_round(engine: str, wl: Workload, seed: int, packets: List[Packet],
              between: Pause) -> Round:
    if engine == "batched":
        return batched_round(wl, packets, between)
    if engine == "functional":
        return functional_round(wl, packets, between)
    return des_round(wl, seed, between)
