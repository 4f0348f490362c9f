"""Wall-clock benchmark of the NFP reproduction.

Run from the repository root:

    python3 perfbench/run.py --workload we_churn --seed 1 --seconds 20 --trace 0

One run measures one workload (see ``workloads.py``) for ``--seconds``
of timed rounds, checks every output against the sequential oracle and
prints a report followed, on the last line, by one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.  ``--trace 0``
publishes the end-to-end metrics, ``--trace 1`` the per-layer ledger of
a traced round (see ``layers.py``).  Exit code 0 only when every check
passed.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import statistics
import sys
import time
import tracemalloc
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
if not (ROOT / "src" / "repro").is_dir():
    print(f"perfbench: the program is missing: no {ROOT / 'src' / 'repro'}",
          file=sys.stderr)
    sys.exit(2)
sys.path.insert(0, str(ROOT / "src"))

from layers import NF_KINDS, LayerTracer, by_group  # noqa: E402
from workloads import (  # noqa: E402
    WORKLOADS,
    Round,
    Workload,
    check,
    des_round,
    fresh_packets,
    make_stream,
    nf_state,
    oracle_outputs,
    run_round,
    setup_sample,
)

clock = time.perf_counter

#: Iterations of the fixed host-calibration loop.
CALIB_ITERS = 36_000
#: The reference host: one on which the loop takes 10 ms.  Published
#: times are scaled to it (see :meth:`Run.speed`).
CALIB_REF_S = 0.010
#: Calibrate again once this much wall time passed inside a round.
CALIB_EVERY_S = 0.1
#: Timed cycles a run makes however long they take.
MIN_CYCLES = 2
#: Set-up samples per cycle.
SETUP_SAMPLES = 10


class _Slot:
    __slots__ = ("a", "b", "c")


def calibrate() -> float:
    """Time a fixed pure-Python loop of small-object, attribute and dict
    work, the yardstick for host speed."""
    start = clock()
    acc = 0
    table = {}
    for i in range(CALIB_ITERS):
        obj = _Slot()
        obj.a, obj.b, obj.c = i, i & 7, (i, i & 7)
        table[i & 255] = obj
        peer = table.get((i * 7) & 255)
        if peer is not None:
            acc += peer.b
    return clock() - start


def heap_peak_mb(job):
    """Run ``job`` with the allocator traced; returns its result and the
    peak growth of the Python heap while it ran (MB)."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        result = job()
        return result, (tracemalloc.get_traced_memory()[1] - base) / 2**20
    finally:
        tracemalloc.stop()


def percentile(samples, q: float) -> float:
    """Nearest-rank percentile (q in 0..100)."""
    ordered = sorted(samples)
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[int(rank) - 1]


class Run:
    """One invocation: inputs, oracle, rounds, checks and metrics."""

    def __init__(self, wl: Workload, seed: int, seconds: float):
        self.wl = wl
        self.seed = seed
        self.seconds = seconds
        self.stream = make_stream(wl, seed)
        self.expected = None
        self.engines = (("des", "batched", "functional")
                        if wl.primary == "des" else ("batched", "functional"))
        self.rounds = {engine: [] for engine in self.engines}
        self.setups = []
        self.calib = []
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.notes = []
        #: Samples of the round in progress, if any, and for each of its
        #: segments the index of the last sample taken before it ended.
        self._round_calib = None
        self._marks = None
        self._calibrated_at = clock()

    # ---------------------------------------------------------- calibration
    def calibrate(self) -> float:
        """Take a calibration sample; returns the host's slowdown
        against the reference (see :meth:`speed`)."""
        sample = calibrate()
        self.calib.append(sample)
        if self._round_calib is not None:
            self._round_calib.append(sample)
        self._calibrated_at = clock()
        return sample / CALIB_REF_S

    def _pause(self) -> None:
        """After each timed segment of a round (a batch, or a stretch of
        DES events): calibrate when one is due."""
        if clock() - self._calibrated_at >= CALIB_EVERY_S:
            self.calibrate()
        self._marks.append(len(self._round_calib) - 1)

    @staticmethod
    def speed(rnd: Round) -> float:
        """How much slower than the reference the host ran during a
        round: the median of its calibration samples over CALIB_REF_S.

        The host is shared, and its speed drifts by tens of percent
        over seconds to minutes.  Dividing a round's times by this
        factor (multiplying its rates) expresses them on the reference
        host.
        """
        return statistics.median(rnd.calib) / CALIB_REF_S

    @staticmethod
    def scaled_busy(rnd: Round) -> float:
        """A round's processing time on the reference host: each of its
        segments divided by the host's slowdown while it ran."""
        return sum(t / s for t, s in zip(rnd.batch_s, rnd.batch_speed))

    # --------------------------------------------------------------- rounds
    def round(self, engine: str, tracer: LayerTracer = None,
              pause: bool = True) -> Round:
        """Run, check and record one round, calibrating before, after
        and (with ``pause``) between its batches or DES events.
        ``rnd.wall`` is the set-up plus processing time, the traced
        region."""
        packets = fresh_packets(self.stream) if engine != "des" else None
        gc.collect()  # every round starts from the same collector state
        self._round_calib, self._marks = samples, marks = [], []
        self.calibrate()
        if tracer is not None:
            tracer.reset()
            tracer.install()
        start = clock()
        try:
            rnd = run_round(engine, self.wl, self.seed, packets,
                            self._pause if pause else None)
        finally:
            wall = clock() - start
            if tracer is not None:
                tracer.uninstall()
        self.calibrate()
        self._round_calib = self._marks = None
        rnd.calib = samples
        rnd.wall = wall
        if rnd.batch_s and len(marks) == len(rnd.batch_s):
            # The host drifts within a round too: a segment ran between
            # the last sample taken before it and the next one.
            rnd.batch_speed = [(samples[k] + samples[k + 1])
                               / (2 * CALIB_REF_S)
                               for k in [0] + marks[:-1]]
        self.settle(rnd)
        return rnd

    def settle(self, rnd: Round) -> None:
        check(rnd, self.expected)
        self.attempted += rnd.packets
        self.failed += rnd.failed
        if (self.wl.churn and rnd.engine == "batched"
                and not rnd.counters["cache.evictions"]):
            self.problems.append("the flow cache never evicted in a round")
        history = self.rounds[rnd.engine]
        if history and history[0].counters != rnd.counters:
            self.problems.append(
                f"{rnd.engine} work counters changed between rounds: "
                f"{history[0].counters} != {rnd.counters}")
        history.append(rnd)

    def warm_up(self) -> float:
        """First primary round: fills lazy state and measures memory.

        Returns the peak growth of the Python heap over set-up plus the
        round (MB), traced at the allocator so it does not depend on
        what the process freed before: the heap only ever holds what
        the program allocates, and nothing here is native.  On a DES
        workload it is the median of that peak over the run's seed and
        ``mem_seeds`` seeds derived from it, each round checked and
        counted like the warm-up.  The warm-up is checked and counted,
        but not timed.
        """
        engine = self.engines[0]
        packets = fresh_packets(self.stream) if engine != "des" else None
        warm, mem_mb = heap_peak_mb(lambda: run_round(
            engine, self.wl, self.seed, packets, None))
        self.expected = oracle_outputs(self.wl, self.stream)
        self.settle(warm)
        peaks = [mem_mb]
        for i in range(1, self.wl.mem_seeds + 1):
            seed = self.seed + i * 1_000_003
            probe, mem_mb = heap_peak_mb(lambda: des_round(
                self.wl, seed, None))
            check(probe, oracle_outputs(self.wl, make_stream(self.wl, seed)))
            self.attempted += probe.packets
            self.failed += probe.failed
            peaks.append(mem_mb)
        return statistics.median(peaks)

    def timed_cycles(self, body) -> None:
        """Repeat ``body`` while another cycle as long as the last one
        still fits in ``--seconds``, and at least ``MIN_CYCLES`` times,
        so every batch has repeats to take a median of."""
        deadline = clock() + self.seconds
        cycles, last = 0, 0.0
        while cycles < MIN_CYCLES or clock() + last <= deadline:
            began = clock()
            body()
            cycles, last = cycles + 1, clock() - began

    # ------------------------------------------------------------- measures
    def end_to_end(self) -> dict:
        mem_mb = self.warm_up()
        primary = self.engines[0]

        def cycle():
            for engine in self.engines:
                self.round(engine)
            speed = self.calibrate()
            for _ in range(SETUP_SAMPLES):
                self.setups.append(setup_sample(self.wl) / speed)

        self.timed_cycles(cycle)
        timed = {engine: rounds[1:] if engine == primary else rounds
                 for engine, rounds in self.rounds.items()}

        def rate(engine, scaled=True):
            return statistics.median(
                r.packets / (self.scaled_busy(r) if scaled else r.busy_s)
                for r in timed[engine])

        # Each batch of the stream runs once per round: its time is the
        # median of its scaled repeats, so a burst of host load that
        # hits one round does not become the tail.
        batches = [statistics.median(repeats) for repeats in zip(
            *([t / s for t, s in zip(r.batch_s, r.batch_speed)]
              for r in timed["batched"]))]
        metrics = {
            "pkts_per_s": (rate(primary), "1/s"),
            "functional_pkts_per_s": (rate("functional"), "1/s"),
            "batch_p50_us": (percentile(batches, 50) * 1e6, "us"),
            "batch_p90_us": (percentile(batches, 90) * 1e6, "us"),
            "batch_p99_us": (percentile(batches, 99) * 1e6, "us"),
            "setup_s": (statistics.median(self.setups), "s"),
            "mem_mb": (mem_mb, "MB"),
        }
        count = len(batches)
        self.notes += [
            "rounds: " + ", ".join(f"{e}={len(r)}" for e, r in timed.items())
            + f" of {self.wl.round_packets} packets; set-up samples: "
            f"{len(self.setups)}",
            f"batches per round: {count}, each timed {len(timed['batched'])}"
            f" times (beyond p90: {count - count * 90 // 100}, beyond p99: "
            f"{count - count * 99 // 100})",
            "unscaled: " + ", ".join(
                f"{engine} {rate(engine, scaled=False):.6g} pkt/s"
                for engine in self.engines),
        ]
        if primary == "des":
            model = self.rounds["des"][-1].counters
            self.notes.append("model: " + ", ".join(
                f"{k}={v}" for k, v in model.items()))
        last = self.rounds["batched"][-1]
        self.notes += [
            "NF state after a round: " + ", ".join(
                f"{k}={v}" for k, v in last.state.items()),
            "batched plane counters per round: " + ", ".join(
                f"{k}={v}" for k, v in last.counters.items()),
        ]
        return metrics

    def per_layer(self) -> dict:
        """Alternate untraced and traced primary rounds; publish the
        ledger of the traced round with the median (scaled) wall time."""
        self.expected = oracle_outputs(self.wl, self.stream)
        engine = self.engines[0]
        self.round(engine, pause=False)  # warm-up
        tracer = LayerTracer()
        plain, ledgers = [], []

        def cycle():
            plain.append(self.round(engine, pause=False))
            rnd = self.round(engine, tracer, pause=False)
            ledgers.append((tracer.snapshot(rnd.wall), rnd))

        self.timed_cycles(cycle)
        first = ledgers[0][0].counts
        for ledger, _ in ledgers[1:]:
            if ledger.counts != first:
                diff = {k: (v, ledger.counts[k]) for k, v in first.items()
                        if v != ledger.counts[k]}
                self.problems.append(f"traced work counters differ: {diff}")
        ledgers.sort(key=lambda entry: entry[0].wall / self.speed(entry[1]))
        ledger, rnd = ledgers[len(ledgers) // 2]
        self_s, counts, pkts = ledger.self_s, ledger.counts, rnd.packets
        for traced, _ in ledgers:
            if not traced.reconciles():
                self.problems.append(
                    f"ledger does not reconcile: layers "
                    f"{sum(traced.self_s.values())!r} s, outermost spans "
                    f"{traced.top_s!r} s, total {traced.wall!r} s, "
                    f"{traced.open_spans} spans left open")
        model = rnd.counters if rnd.engine == "des" else {}
        if model and model["events"] != counts["sim.events"]:
            self.problems.append("traced DES steps != events_processed")
        state = nf_state(ledger.nfs)
        # Untraced time of the same round at the traced round's host speed.
        untraced = statistics.median(
            r.wall / self.speed(r) for r in plain) * self.speed(rnd)
        gets = counts["flow_cache.gets"]
        metrics = {
            "crypto.self_s": (self_s["crypto"], "s"),
            "crypto.calls_per_pkt": (counts["crypto.calls"] / pkts, "1/pkt"),
            "crypto.bytes_per_pkt": (counts["crypto.bytes"] / pkts, "B/pkt"),
            "net.view_s": (self_s["net.view"], "s"),
            "net.views_per_pkt": (counts["net.views"] / pkts, "1/pkt"),
            "net.fields_per_pkt": (counts["net.fields"] / pkts, "1/pkt"),
            "net.copy_s": (self_s["net.copy"], "s"),
            "net.copies_per_pkt": (counts["net.copies"] / pkts, "1/pkt"),
        }
        for kind in NF_KINDS:
            metrics[f"nfs.{kind}.self_s"] = (self_s[f"nfs.{kind}"], "s")
            metrics[f"nfs.{kind}.calls_per_pkt"] = (
                counts[f"nfs.{kind}.calls"] / pkts, "1/pkt")
        metrics.update({
            "nfs.errors": (rnd.nf_errors, "count"),
            "nfs.nat.bindings": (state["nat.bindings"], "count"),
            "nfs.monitor.flows": (state["monitor.flows"], "count"),
            "dataplane.self_s": (self_s["dataplane"], "s"),
            "dataplane.classify_s": (self_s["dataplane.classify"], "s"),
            "dataplane.ct_walks_per_pkt": (
                counts["dataplane.ct_walks"] / pkts, "1/pkt"),
            "dataplane.flow_cache_hit_ratio": (
                counts["flow_cache.hits"] / gets if gets else 0.0, "ratio"),
            "merge.self_s": (self_s["merge"], "s"),
            "merge.calls_per_pkt": (counts["merge.calls"] / pkts, "1/pkt"),
            "core.compile_s": (self_s["core"], "s"),
            "core.binds": (counts["core.binds"], "count"),
            "sim.self_s": (self_s["sim"], "s"),
            "sim.events_per_pkt": (counts["sim.events"] / pkts, "1/pkt"),
            "sim_mpps": (model.get("sim_mpps", 0.0), "Mpps"),
            "sim_p50_us": (model.get("sim_p50_us", 0.0), "us"),
            "sim_p99_us": (model.get("sim_p99_us", 0.0), "us"),
            "other.self_s": (ledger.other, "s"),
            "traced.total_s": (ledger.wall, "s"),
            "trace.overhead_ratio": (ledger.wall / untraced, "x"),
            "trace.spans_per_pkt": (counts["trace.spans"] / pkts, "1/pkt"),
            "host.calib_s": (statistics.median(self.calib), "s"),
        })
        groups = by_group(dict(self_s, other=ledger.other))
        ranked = sorted(groups.items(), key=lambda kv: -kv[1])
        self.notes += [
            f"traced rounds: {len(ledgers)}, untraced rounds: {len(plain)},"
            f" {pkts} packets each; traced round {ledger.wall:.3f} s vs "
            f"untraced {untraced:.3f} s at the same host speed",
            f"ledger: layers {sum(self_s.values()):.6f} s, outermost spans "
            f"{ledger.top_s:.6f} s, other {ledger.other:.6f} s, traced "
            f"total {ledger.wall:.6f} s",
            "layer shares, traced: " + ", ".join(
                f"{name} {100 * seconds / ledger.wall:.1f}%"
                for name, seconds in ranked),
            f"dominant layer: {ranked[0][0]}",
        ]
        return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    run = Run(WORKLOADS[args.workload], args.seed, args.seconds)
    metrics = run.per_layer() if args.trace else run.end_to_end()

    correct = run.failed == 0 and not run.problems
    print(f"workload {args.workload}: {run.wl.why}")
    print(f"seed {args.seed}, seconds {args.seconds:g}, trace {args.trace}")
    print(f"host: python {platform.python_version()}, {platform.platform()}, "
          f"nproc {os.cpu_count()}; calib_s median "
          f"{statistics.median(run.calib):.5f} (min {min(run.calib):.5f}, "
          f"max {max(run.calib):.5f}, {len(run.calib)} samples, "
          f"reference {CALIB_REF_S})")
    for note in run.notes:
        print(note)
    for name, (value, unit) in metrics.items():
        print(f"  {name:32s} {value:14.6g} {unit}")
    print(f"attempted {run.attempted}, failed {run.failed}, "
          f"fail_share {run.failed / run.attempted:.6g}")
    for problem in run.problems:
        print(f"CHECK FAILED: {problem}")
    print(json.dumps({
        "correct": correct,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
