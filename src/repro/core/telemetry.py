"""Operational telemetry for the streaming pipeline.

A live telescope deployment needs to know, per stage, how fast data is
moving (packets/s into the event builder, events/s out of it), how much
state the pipeline is holding (open flows — the only unbounded-looking
structure, which the timeout actually bounds) and how far processing
lags behind the data (watermark lag).  ``PipelineTelemetry`` collects
those from the chunk loop in :func:`repro.sim.runner.run_scenario` and
renders a compact table for the CLI summary.

Nothing here affects results — the telemetry layer only observes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional


@dataclass
class StageStats:
    """Throughput accounting for one pipeline stage."""

    name: str
    #: units consumed (packets for capture/build, events for detection).
    items_in: int = 0
    #: units produced (packets chunked, events finalized...).
    items_out: int = 0
    seconds: float = 0.0

    def add(self, items_in: int, items_out: int, seconds: float) -> None:
        self.items_in += int(items_in)
        self.items_out += int(items_out)
        self.seconds += float(seconds)

    @property
    def throughput(self) -> Optional[float]:
        """Items consumed per second of stage time (None before data)."""
        if self.seconds <= 0.0:
            return None
        return self.items_in / self.seconds

    def as_dict(self) -> dict:
        return {
            "name": self.name,
            "items_in": self.items_in,
            "items_out": self.items_out,
            "seconds": self.seconds,
            "throughput": self.throughput,
        }


@dataclass
class WorkerStats:
    """Throughput and state gauges for one shard worker.

    Recorded by the shard-parallel path (:mod:`repro.parallel`) after
    the pool joins; the per-worker peak-open gauges sum into the run's
    aggregate memory high-water mark because shards run concurrently.
    """

    shard: int
    packets: int = 0
    events: int = 0
    peak_open_flows: int = 0
    seconds: float = 0.0
    #: wall seconds the worker spent *generating* its shard's capture
    #: (lazy shard-local generation only; 0 when packets were shipped).
    generate_seconds: float = 0.0
    #: RNG span streams derived while generating — the pre-dedup unit
    #: of the batched span derivation (0 when packets were shipped).
    spans_derived: int = 0
    #: derived spans that actually produced packets; the gap to
    #: ``spans_derived`` is derivation work with no emitted packets.
    spans_emitted: int = 0
    #: tasks of this shard stolen by another pool process.  Sharded
    #: detection runs one task per worker, so this stays 0; only flow
    #: synthesis steals (:class:`FlowWorkerStats`).
    stolen_tasks: int = 0

    @property
    def throughput(self) -> Optional[float]:
        """Packets consumed per second of worker wall time."""
        if self.seconds <= 0.0:
            return None
        return self.packets / self.seconds

    @property
    def generate_throughput(self) -> Optional[float]:
        """Packets generated per second of worker generation time."""
        if self.generate_seconds <= 0.0:
            return None
        return self.packets / self.generate_seconds

    def as_dict(self) -> dict:
        return {
            "shard": self.shard,
            "packets": self.packets,
            "events": self.events,
            "peak_open_flows": self.peak_open_flows,
            "seconds": self.seconds,
            "generate_seconds": self.generate_seconds,
            "spans_derived": self.spans_derived,
            "spans_emitted": self.spans_emitted,
            "throughput": self.throughput,
            "generate_throughput": self.generate_throughput,
            "stolen_tasks": self.stolen_tasks,
        }


@dataclass
class FlowWorkerStats:
    """Throughput gauges for one flow-synthesis shard worker.

    Recorded by the shard-parallel columnar flow path
    (:func:`repro.parallel.parallel_flow_columns`) after the pool
    joins; rows are true-count flow cells, the unit the synthesis
    stage produces.
    """

    shard: int
    scanners: int = 0
    #: true-count flow cells synthesized (pre-sampling) — NOT the
    #: exported flow rows the NetFlow exporter emits after 1:1000
    #: sampling; see ``benchmarks/test_perf_flows.py`` for both units.
    rows: int = 0
    seconds: float = 0.0
    #: work the planner predicted for this shard, in
    #: :meth:`~repro.scanners.base.Scanner.cost_estimate` units.
    planned_cost: float = 0.0
    #: schedulable tasks this shard was decomposed into.
    tasks: int = 1
    #: tasks of this shard executed by a different pool process than
    #: its heaviest task (work stealing in action).
    stolen_tasks: int = 0

    @property
    def throughput(self) -> Optional[float]:
        """Flow rows produced per second of worker wall time."""
        if self.seconds <= 0.0:
            return None
        return self.rows / self.seconds

    def as_dict(self) -> dict:
        return {
            "shard": self.shard,
            "scanners": self.scanners,
            "rows": self.rows,
            "seconds": self.seconds,
            "throughput": self.throughput,
            "planned_cost": self.planned_cost,
            "tasks": self.tasks,
            "stolen_tasks": self.stolen_tasks,
        }


@dataclass
class ServeStats:
    """Per-tenant ingest-path accounting for the serve layer.

    The always-on service (:mod:`repro.serve`) folds queued wire chunks
    in adaptive micro-batches: the tenant worker drains everything
    queued up to a byte/chunk budget and folds it as one coalesced
    batch.  This block records how that path behaved — how long chunks
    waited in the queue, how many chunks each fold coalesced, and how
    much wall time the folds took.  Nothing here affects results.
    """

    #: wire chunks accepted into the tenant queue (HTTP 202s).
    chunks_received: int = 0
    #: wire bytes accepted into the tenant queue.
    bytes_received: int = 0
    #: coalesced fold calls executed (<= chunks_received).
    folds: int = 0
    #: packets folded into the engine by those calls.
    packets_folded: int = 0
    #: wall seconds spent inside fold calls.
    fold_seconds: float = 0.0
    #: total queue wait (enqueue -> dequeue of the oldest chunk per fold).
    queue_wait_seconds: float = 0.0
    #: worst single queue wait observed.
    max_queue_wait_seconds: float = 0.0
    #: largest number of chunks one fold coalesced.
    max_coalesced_chunks: int = 0
    #: histogram: chunks-coalesced-per-fold -> number of folds.
    coalesce_histogram: Dict[int, int] = field(default_factory=dict)
    #: chunk records appended to the write-ahead journal.
    journal_appends: int = 0
    #: journal bytes written (records incl. framing).
    journal_bytes: int = 0
    #: fsync calls the journal issued (policy-dependent).
    journal_fsyncs: int = 0
    #: journal appends that failed (chunk answered 429, not acked).
    journal_failures: int = 0
    #: chunks answered 202 as already-admitted duplicates (retransmits).
    duplicate_chunks: int = 0
    #: chunks re-folded from the journal at boot/heal time.
    replayed_chunks: int = 0

    def record_enqueued(self, n_bytes: int) -> None:
        """Account one wire chunk accepted into the queue."""
        self.chunks_received += 1
        self.bytes_received += int(n_bytes)

    def record_journal_append(self, n_bytes: int, fsyncs: int = 0) -> None:
        """Account one durable journal append (pre-ack)."""
        self.journal_appends += 1
        self.journal_bytes += int(n_bytes)
        self.journal_fsyncs += int(fsyncs)

    def record_journal_failure(self) -> None:
        """Account one failed journal append (chunk refused, 429)."""
        self.journal_failures += 1

    def record_duplicate(self) -> None:
        """Account one retransmitted chunk deduplicated by digest."""
        self.duplicate_chunks += 1

    def record_replay(self, chunks: int) -> None:
        """Account chunks re-folded from the journal after a restart."""
        self.replayed_chunks += int(chunks)

    def record_fold(
        self,
        chunks: int,
        packets: int,
        seconds: float,
        queue_wait: float,
    ) -> None:
        """Account one coalesced fold call."""
        chunks = int(chunks)
        self.folds += 1
        self.packets_folded += int(packets)
        self.fold_seconds += float(seconds)
        self.queue_wait_seconds += float(queue_wait)
        self.max_queue_wait_seconds = max(
            self.max_queue_wait_seconds, float(queue_wait)
        )
        self.max_coalesced_chunks = max(self.max_coalesced_chunks, chunks)
        self.coalesce_histogram[chunks] = (
            self.coalesce_histogram.get(chunks, 0) + 1
        )

    @property
    def mean_coalesced_chunks(self) -> Optional[float]:
        """Average chunks folded per fold call (None before data)."""
        if self.folds == 0:
            return None
        return sum(
            chunks * count for chunks, count in self.coalesce_histogram.items()
        ) / self.folds

    @property
    def fold_packets_per_second(self) -> Optional[float]:
        """Packets folded per second of fold wall time."""
        if self.fold_seconds <= 0.0:
            return None
        return self.packets_folded / self.fold_seconds

    def as_dict(self) -> dict:
        """JSON-friendly form (histogram keys become strings)."""
        return {
            "chunks_received": self.chunks_received,
            "bytes_received": self.bytes_received,
            "folds": self.folds,
            "packets_folded": self.packets_folded,
            "fold_seconds": self.fold_seconds,
            "queue_wait_seconds": self.queue_wait_seconds,
            "max_queue_wait_seconds": self.max_queue_wait_seconds,
            "max_coalesced_chunks": self.max_coalesced_chunks,
            "mean_coalesced_chunks": self.mean_coalesced_chunks,
            "fold_packets_per_second": self.fold_packets_per_second,
            "coalesce_histogram": {
                str(chunks): count
                for chunks, count in sorted(self.coalesce_histogram.items())
            },
            "journal_appends": self.journal_appends,
            "journal_bytes": self.journal_bytes,
            "journal_fsyncs": self.journal_fsyncs,
            "journal_failures": self.journal_failures,
            "duplicate_chunks": self.duplicate_chunks,
            "replayed_chunks": self.replayed_chunks,
        }


@dataclass
class RunHealth:
    """Fault-tolerance accounting for one run.

    Everything the resilient execution layer (:mod:`repro.core.faults`)
    did to keep the run alive: shard retries, pool respawns after a
    worker died, watchdog interventions, checkpoint traffic, and chunk
    archives quarantined by degraded-mode readers.  All zeros on a
    healthy run; nothing here affects results.
    """

    #: shard attempts re-run after a retryable failure.
    retries: int = 0
    #: process pools torn down and respawned (worker hard-death).
    respawns: int = 0
    #: pools presumed wedged and torn down by the watchdog.
    watchdog_timeouts: int = 0
    #: shard states reloaded from verified checkpoints (work skipped).
    checkpoint_hits: int = 0
    #: shard states persisted to the checkpoint directory.
    checkpoint_writes: int = 0
    #: checkpoints discarded on digest/header mismatch (shard re-run).
    checkpoint_corrupt: int = 0
    #: chunk archives skipped by degraded-mode readers (deduplicated).
    quarantined_chunks: List[str] = field(default_factory=list)

    def record_quarantine(self, path: str) -> None:
        """Account one damaged chunk (idempotent per path — several
        shard workers read the same archives)."""
        if path not in self.quarantined_chunks:
            self.quarantined_chunks.append(path)

    @property
    def quarantined(self) -> int:
        return len(self.quarantined_chunks)

    def any_events(self) -> bool:
        """Whether anything fault-related happened at all."""
        return bool(
            self.retries
            or self.respawns
            or self.watchdog_timeouts
            or self.checkpoint_hits
            or self.checkpoint_writes
            or self.checkpoint_corrupt
            or self.quarantined_chunks
        )

    def summary_rows(self) -> List[tuple]:
        """(label, value) pairs for the CLI telemetry table."""
        rows = [
            ("shard retries", str(self.retries)),
            ("pool respawns", str(self.respawns)),
            ("watchdog timeouts", str(self.watchdog_timeouts)),
            (
                "checkpoints",
                f"{self.checkpoint_hits} reused, "
                f"{self.checkpoint_writes} written, "
                f"{self.checkpoint_corrupt} corrupt",
            ),
            ("quarantined chunks", str(self.quarantined)),
        ]
        rows += [
            ("quarantined", path) for path in self.quarantined_chunks
        ]
        return rows

    def as_dict(self) -> dict:
        """The full health block, with every key present even when all
        counters are zero — JSON consumers (the bench matrix files, the
        service's ``/health`` endpoint) must never key-error on a clean
        run."""
        return {
            "retries": self.retries,
            "respawns": self.respawns,
            "watchdog_timeouts": self.watchdog_timeouts,
            "checkpoint_hits": self.checkpoint_hits,
            "checkpoint_writes": self.checkpoint_writes,
            "checkpoint_corrupt": self.checkpoint_corrupt,
            "quarantined": self.quarantined,
            "quarantined_chunks": list(self.quarantined_chunks),
            "any_events": self.any_events(),
        }


@dataclass
class PipelineTelemetry:
    """Counters and gauges for one streaming pipeline run."""

    chunk_seconds: Optional[float] = None
    chunks: int = 0
    total_packets: int = 0
    total_events: int = 0
    #: high-water mark of the open-flow state (memory gauge).
    peak_open_flows: int = 0
    #: open flows remaining when the run finished (0 after a flush).
    final_open_flows: int = 0
    #: largest single chunk, in packets.
    peak_chunk_packets: int = 0
    #: timestamp of the newest packet folded in.
    watermark: Optional[float] = None
    #: worst observed (chunk end edge - watermark) gap: how stale the
    #: detector's view was, at its worst, relative to the data's clock.
    max_watermark_lag: float = 0.0
    stages: Dict[str, StageStats] = field(default_factory=dict)
    #: per-shard worker gauges; non-empty only for parallel runs.
    worker_stats: List[WorkerStats] = field(default_factory=list)
    #: per-shard flow-synthesis gauges; non-empty only when the columnar
    #: flow stage ran sharded.
    flow_worker_stats: List[FlowWorkerStats] = field(default_factory=list)
    #: fault-tolerance accounting (retries, respawns, checkpoints,
    #: quarantined chunks); all zeros on a healthy run.
    health: RunHealth = field(default_factory=RunHealth)

    def stage(self, name: str) -> StageStats:
        """Get or create the named stage accumulator."""
        if name not in self.stages:
            self.stages[name] = StageStats(name)
        return self.stages[name]

    @property
    def workers(self) -> int:
        """Number of shard workers (0 for serial runs)."""
        return len(self.worker_stats)

    def record_worker(
        self,
        shard: int,
        packets: int,
        events: int,
        peak_open_flows: int,
        seconds: float,
        generate_seconds: float = 0.0,
        spans_derived: int = 0,
        spans_emitted: int = 0,
    ) -> None:
        """Fold one shard worker's report into the gauges.

        The run-level ``peak_open_flows`` becomes the *sum* of the
        worker peaks: shards run concurrently, so the fleet's aggregate
        open-flow state is bounded by (and, at the worst moment, close
        to) that sum.
        """
        self.worker_stats.append(
            WorkerStats(
                shard=int(shard),
                packets=int(packets),
                events=int(events),
                peak_open_flows=int(peak_open_flows),
                seconds=float(seconds),
                generate_seconds=float(generate_seconds),
                spans_derived=int(spans_derived),
                spans_emitted=int(spans_emitted),
            )
        )
        self.peak_open_flows = max(
            self.peak_open_flows,
            sum(w.peak_open_flows for w in self.worker_stats),
        )

    def record_flow_worker(
        self,
        shard: int,
        scanners: int,
        rows: int,
        seconds: float,
        planned_cost: float = 0.0,
        tasks: int = 1,
        stolen_tasks: int = 0,
    ) -> None:
        """Fold one flow-synthesis worker's report into the gauges."""
        self.flow_worker_stats.append(
            FlowWorkerStats(
                shard=int(shard),
                scanners=int(scanners),
                rows=int(rows),
                seconds=float(seconds),
                planned_cost=float(planned_cost),
                tasks=int(tasks),
                stolen_tasks=int(stolen_tasks),
            )
        )

    def record_chunk(
        self,
        packets: int,
        events_finalized: int,
        open_flows: int,
        window_end: float,
        watermark: Optional[float],
    ) -> None:
        """Fold one processed chunk into the gauges."""
        self.chunks += 1
        self.total_packets += int(packets)
        self.total_events += int(events_finalized)
        self.peak_open_flows = max(self.peak_open_flows, int(open_flows))
        self.peak_chunk_packets = max(self.peak_chunk_packets, int(packets))
        if watermark is not None:
            self.watermark = watermark
            self.max_watermark_lag = max(
                self.max_watermark_lag, float(window_end) - float(watermark)
            )

    # ------------------------------------------------------------------
    def summary_rows(self) -> List[tuple]:
        """(label, value) pairs for the CLI telemetry table."""
        rows: List[tuple] = [
            ("chunks", str(self.chunks)),
            ("chunk seconds", _fmt_opt(self.chunk_seconds)),
            ("packets", f"{self.total_packets:,}"),
            ("events", f"{self.total_events:,}"),
            ("peak open flows", f"{self.peak_open_flows:,}"),
            ("final open flows", f"{self.final_open_flows:,}"),
            ("peak chunk packets", f"{self.peak_chunk_packets:,}"),
            ("watermark", _fmt_opt(self.watermark)),
            ("max watermark lag", f"{self.max_watermark_lag:.1f}s"),
        ]
        if self.worker_stats:
            rows.append(("workers", str(self.workers)))
            for worker in self.worker_stats:
                throughput = worker.throughput
                rate = (
                    f"{throughput:,.0f}/s" if throughput is not None else "n/a"
                )
                detail = (
                    f"{worker.packets:,} pkts, {worker.events:,} events, "
                    f"peak {worker.peak_open_flows:,} open, "
                    f"{worker.seconds:.2f}s ({rate})"
                )
                if worker.generate_seconds > 0.0:
                    gen = worker.generate_throughput
                    gen_rate = f"{gen:,.0f}/s" if gen is not None else "n/a"
                    detail += (
                        f", gen {worker.generate_seconds:.2f}s ({gen_rate})"
                    )
                if worker.spans_derived > 0:
                    detail += (
                        f", spans {worker.spans_derived:,} derived / "
                        f"{worker.spans_emitted:,} emitted"
                    )
                rows.append((f"worker {worker.shard}", detail))
        for worker in self.flow_worker_stats:
            throughput = worker.throughput
            rate = (
                f"{throughput:,.0f} rows/s"
                if throughput is not None
                else "n/a"
            )
            detail = (
                f"{worker.scanners:,} scanners, {worker.rows:,} rows, "
                f"{worker.seconds:.2f}s ({rate})"
            )
            if worker.tasks > 1 or worker.planned_cost > 0.0:
                detail += (
                    f", plan {worker.planned_cost:,.0f} over "
                    f"{worker.tasks} task(s), {worker.stolen_tasks} stolen"
                )
            rows.append((f"flows worker {worker.shard}", detail))
        if self.health.any_events():
            rows.extend(self.health.summary_rows())
        for stage in self.stages.values():
            throughput = stage.throughput
            rate = (
                f"{throughput:,.0f}/s" if throughput is not None else "n/a"
            )
            rows.append(
                (
                    f"stage {stage.name}",
                    f"{stage.items_in:,} in, {stage.items_out:,} out, "
                    f"{stage.seconds:.2f}s ({rate})",
                )
            )
        return rows

    def as_dict(self) -> dict:
        """JSON-friendly form for reports."""
        return {
            "chunk_seconds": self.chunk_seconds,
            "chunks": self.chunks,
            "total_packets": self.total_packets,
            "total_events": self.total_events,
            "peak_open_flows": self.peak_open_flows,
            "final_open_flows": self.final_open_flows,
            "peak_chunk_packets": self.peak_chunk_packets,
            "watermark": self.watermark,
            "max_watermark_lag": self.max_watermark_lag,
            "stages": {k: v.as_dict() for k, v in self.stages.items()},
            "workers": [w.as_dict() for w in self.worker_stats],
            "flow_workers": [w.as_dict() for w in self.flow_worker_stats],
            "health": self.health.as_dict(),
        }


def _fmt_opt(value: Optional[float]) -> str:
    return "n/a" if value is None else f"{value:,.1f}"
