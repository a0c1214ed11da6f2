"""Shard-parallel streaming detection (``repro.parallel``).

The three aggressive-hitter definitions are all keyed per *source*
address: events group packets by (src, dport, proto), the dispersion
and volume rules judge per-source events, and the port rule counts
per-(src, day) distinct ports.  Detection is therefore embarrassingly
parallel across sources — hash-partition the capture by source address
and every flow, every event, and every per-source statistic lands
wholly inside one shard.

This module exploits that: :func:`parallel_detect` shards each capture
chunk by source, runs one independent
:class:`~repro.core.streaming.StreamingDetector` per shard (in worker
processes), folds the shard states back together through the explicit
``merge()`` methods on the detector and its per-definition structures,
and calls :meth:`~repro.core.streaming.StreamingDetector.finish` once
on the merged state.  Because thresholds (the volume and port ECDF
tails) are only derived *after* the merge — over exactly the sample a
serial run would have accumulated — the events, thresholds and AH sets
are **identical to the serial path for any shard count**.  A hypothesis
property test pins this invariant.

Three consumption modes:

* :func:`parallel_detect` — shard an in-memory chunk stream in the
  parent and ship per-shard sub-batches to the pool.
* :func:`parallel_detect_directory` — point the workers at a
  ``chunk-*.npz`` directory written by
  :func:`repro.io.packetlog.save_packets_chunked`; each worker reads
  every archive itself and keeps only its shard's packets, so no packet
  ever crosses a process pipe and parent memory stays at one chunk.
* :func:`parallel_generate_detect` — ship each worker its shard of the
  scanner *population* and let it generate its own capture lazily.

Every entry point executes through the fault-tolerant layer
(:mod:`repro.core.faults`): failed shards are retried with backoff, a
dead worker process respawns the pool and re-runs only the unfinished
shards, and — with ``checkpoint_dir`` set — each finished shard's state
is persisted atomically under a content digest so an interrupted run
resumes by re-executing exactly the missing shards
(:func:`resume_run`).  Because retry and resume re-run whole shards
from their inputs and the merge is always performed in shard-index
order, a faulted or resumed run is bit-identical to a fault-free one.

Every detection entry point runs exactly one task per worker over
source-hash shards, through one shared tail: plan
(:func:`~repro.core.schedule.plan_grouped`) → :func:`run_sharded` →
merge → finish.  Flow synthesis (:func:`parallel_flow_columns`) is the
one stage that over-decomposes into stealable, cost-capped slices.
"""

from __future__ import annotations

import dataclasses
import os
import pickle
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.config import DetectionConfig
from repro.core.detection import DetectionResult
from repro.core.events import EventTable
from repro.core.faults import (
    CheckpointStore,
    FaultPlan,
    RetryPolicy,
    run_sharded,
    sha256_hex,
)
from repro.core.engine import DetectionEngine
from repro.core.schedule import SchedulePlan, plan_contiguous, plan_grouped
from repro.core.streaming import StreamingDetector
from repro.core.telemetry import PipelineTelemetry, RunHealth
from repro.io.shm import (
    resolve_batches,
    share_shard_batches,
    want_shared_memory,
)
from repro.packet import PacketBatch

#: Fibonacci-hash multiplier: decorrelates the shard index from address
#: structure (plain ``src % n`` would map whole prefixes to one shard).
_HASH_MULTIPLIER = np.uint64(0x9E3779B97F4A7C15)


def shard_of(src: np.ndarray, n_shards: int) -> np.ndarray:
    """Shard index per source address (vectorized, deterministic).

    The same source always lands in the same shard — the invariant the
    whole parallel path rests on — and the multiplicative hash spreads
    adjacent addresses across shards.
    """
    if n_shards < 1:
        raise ValueError("n_shards must be >= 1")
    hashed = src.astype(np.uint64) * _HASH_MULTIPLIER
    return ((hashed >> np.uint64(33)) % np.uint64(n_shards)).astype(np.int64)


def shard_batch(batch: PacketBatch, n_shards: int) -> List[PacketBatch]:
    """Partition a packet batch into per-shard sub-batches.

    Row order within each shard is preserved, so a time-ordered batch
    yields time-ordered shards.
    """
    if n_shards == 1:
        return [batch]
    shard = shard_of(batch.src, n_shards)
    return [batch.select(shard == i) for i in range(n_shards)]


def merge_detectors(
    detectors: Sequence[StreamingDetector],
) -> StreamingDetector:
    """Fold shard detectors into one (in shard order, for determinism).

    Returns the first detector, now holding the union state; the rest
    are consumed and must be discarded.
    """
    if not detectors:
        raise ValueError("need at least one detector to merge")
    merged = detectors[0]
    for other in detectors[1:]:
        merged.merge(other)
    return merged


@dataclass(frozen=True)
class WorkerReport:
    """What one shard worker processed (telemetry, not results)."""

    shard: int
    packets: int
    events_finalized: int
    open_flows: int
    peak_open_flows: int
    #: wall-clock seconds spent inside the worker's detector loop.
    seconds: float
    watermark: Optional[float]
    #: wall-clock seconds spent generating this shard's capture (lazy
    #: shard-local generation only; stays 0 when packets were shipped).
    generate_seconds: float = 0.0
    #: RNG span streams derived during lazy generation (pre-dedup
    #: derivation units; 0 when packets were shipped).
    spans_derived: int = 0
    #: derived spans that actually produced packets (<= spans_derived).
    spans_emitted: int = 0
    #: chunk archives this worker skipped as corrupt (degraded-mode
    #: directory reads only; every worker sees the same archives, so
    #: the parent deduplicates when folding into ``RunHealth``).
    quarantined: Tuple[str, ...] = ()
    #: OS process id that executed the work.
    pid: int = 0


@dataclass
class ParallelResult:
    """Output of a shard-parallel detection run."""

    events: EventTable
    detections: Dict[int, DetectionResult]
    worker_reports: List[WorkerReport]

    @property
    def workers(self) -> int:
        return len(self.worker_reports)


def _run_shard(
    shard: int,
    batches: List[PacketBatch],
    timeout: float,
    dark_size: int,
    config: Optional[DetectionConfig],
    day_seconds: float,
) -> Tuple[StreamingDetector, WorkerReport]:
    """Worker body: drive one shard's detector over its sub-batches.

    Top-level (not a closure) so it pickles under any multiprocessing
    start method.  ``batches`` is either the shard's batch list (the
    pickled hand-off) or a :class:`~repro.io.shm.ShmBatchList` handle,
    resolved here into read-only views of the parent's segment.
    Returns the *unfinished* detector — thresholds must only be derived
    after the merge.
    """
    t0 = time.perf_counter()
    batches = resolve_batches(batches)
    detector = StreamingDetector(timeout, dark_size, config, day_seconds)
    for batch in batches:
        detector.add_batch(batch)
    report = WorkerReport(
        shard=shard,
        packets=detector.packets_seen,
        events_finalized=detector.events_finalized,
        open_flows=detector.open_flows,
        peak_open_flows=detector.peak_open_flows,
        seconds=time.perf_counter() - t0,
        watermark=detector.watermark,
        pid=os.getpid(),
    )
    return detector, report


def _run_shard_directory(
    shard: int,
    hashes: Tuple[int, ...],
    n_shards: int,
    directory: str,
    timeout: float,
    dark_size: int,
    config: Optional[DetectionConfig],
    day_seconds: float,
    on_corrupt: str,
) -> Tuple[StreamingDetector, WorkerReport]:
    """Worker body for chunk directories: read, filter to shard, fold.

    Every worker streams the full archive sequence but holds only one
    chunk at a time, and feeds its detector only the packets whose
    source hashes (mod ``n_shards``) into the task's ``hashes`` — the
    tasks own disjoint hash sets, so the source partition stays
    disjoint and one detector per task is correct.  Archives are
    verified against the directory's digest manifest; a damaged one
    raises (strict) or is skipped and reported back
    (``on_corrupt="quarantine"``) — every worker skips the *same*
    archives, so degraded-mode results stay deterministic across shard
    counts.
    """
    from repro.io.packetlog import iter_packets_verified

    t0 = time.perf_counter()
    detector = StreamingDetector(timeout, dark_size, config, day_seconds)
    quarantined: List[str] = []
    owned = np.asarray(hashes, dtype=np.int64)
    for path, batch in iter_packets_verified(directory, on_corrupt):
        if batch is None:
            quarantined.append(str(path))
            continue
        if n_shards > 1:
            batch = batch.select(
                np.isin(shard_of(batch.src, n_shards), owned)
            )
        if len(batch):
            detector.add_batch(batch)
    report = WorkerReport(
        shard=shard,
        packets=detector.packets_seen,
        events_finalized=detector.events_finalized,
        open_flows=detector.open_flows,
        peak_open_flows=detector.peak_open_flows,
        seconds=time.perf_counter() - t0,
        watermark=detector.watermark,
        quarantined=tuple(quarantined),
        pid=os.getpid(),
    )
    return detector, report


def _run_shard_lazy(
    shard: int,
    scanners: list,
    view,
    chunk_seconds: float,
    window,
    timeout: float,
    dark_size: int,
    config: Optional[DetectionConfig],
    day_seconds: float,
) -> Tuple[StreamingDetector, WorkerReport]:
    """Worker body for lazy generation: emit own shard, then detect.

    The worker receives its shard's *scanners* (a compact description of
    behavior, kilobytes) instead of their packets (gigabytes at scale),
    streams the shard's capture locally with a
    :class:`~repro.telescope.chunks.LazyCaptureSource`, and folds it
    into its detector chunk by chunk — raw packets never cross a
    process boundary, and no process ever materializes a full capture.
    """
    from repro.telescope.chunks import LazyCaptureSource

    t0 = time.perf_counter()
    detector = StreamingDetector(timeout, dark_size, config, day_seconds)
    source = LazyCaptureSource.from_population(
        scanners, view, chunk_seconds, window=window
    )
    generate_seconds = 0.0
    t_prev = time.perf_counter()
    for chunk in source:
        t_generated = time.perf_counter()
        generate_seconds += t_generated - t_prev
        detector.add_batch(chunk.packets)
        t_prev = time.perf_counter()
    report = WorkerReport(
        shard=shard,
        packets=detector.packets_seen,
        events_finalized=detector.events_finalized,
        open_flows=detector.open_flows,
        peak_open_flows=detector.peak_open_flows,
        seconds=time.perf_counter() - t0,
        watermark=detector.watermark,
        generate_seconds=generate_seconds,
        spans_derived=source.spans_derived,
        spans_emitted=source.spans_emitted,
        pid=os.getpid(),
    )
    return detector, report


# ----------------------------------------------------------------------
# Fault-tolerance plumbing shared by the entry points
# ----------------------------------------------------------------------


def _resolve_health(telemetry: Optional[PipelineTelemetry]) -> RunHealth:
    """The RunHealth sink faults are accounted on (discarded if no
    telemetry was requested)."""
    return telemetry.health if telemetry is not None else RunHealth()


def _config_meta(config: Optional[DetectionConfig]) -> Optional[dict]:
    return None if config is None else dataclasses.asdict(config)


def _window_meta(window: Optional[tuple]) -> Optional[list]:
    # JSON round-trips tuples as lists; normalize so a resumed run's
    # metadata compares equal to the recorded one.
    return None if window is None else [float(edge) for edge in window]


def _checkpoint_store(
    checkpoint_dir, health: RunHealth, meta: dict
) -> Optional[CheckpointStore]:
    """Open (or adopt) a run's checkpoint directory; ``None`` disables
    checkpointing.  Mismatched run parameters raise — see
    :meth:`~repro.core.faults.CheckpointStore.require_meta`."""
    if checkpoint_dir is None:
        return None
    store = CheckpointStore(checkpoint_dir, health)
    store.require_meta(meta)
    return store


def _ship_payloads(payloads: List[List[PacketBatch]], shm, processes: bool):
    """Choose the pool hand-off for per-shard batch lists.

    Returns ``(worker_payloads, lease)``: either the lists themselves
    (pickled hand-off, ``lease=None``) or one
    :class:`~repro.io.shm.ShmBatchList` handle per shard backed by a
    single named segment the caller must close after the pool joins.
    The segment outlives any worker crash — retried and respawned
    shards re-attach by name — because only the parent unlinks it.
    """
    if not want_shared_memory(
        shm,
        processes,
        sum(batch.nbytes for batches in payloads for batch in batches),
    ):
        return payloads, None
    return share_shard_batches(payloads, "detect")


def _dump_detect_state(result: tuple) -> bytes:
    detector, report = result
    return pickle.dumps((detector.to_bytes(), report), protocol=4)


def _load_detect_state(payload: bytes) -> tuple:
    blob, report = pickle.loads(payload)
    return StreamingDetector.from_bytes(blob), report


def _dump_flow_state(result: tuple) -> bytes:
    from repro.flows.synthesis import flow_state_to_bytes

    columns, report = result
    return pickle.dumps((flow_state_to_bytes(columns), report), protocol=4)


def _load_flow_state(payload: bytes) -> tuple:
    from repro.flows.synthesis import flow_state_from_bytes

    blob, report = pickle.loads(payload)
    return flow_state_from_bytes(blob), report


# ----------------------------------------------------------------------
# The sharded-detection tail: plan → run_sharded → merge → finish
# ----------------------------------------------------------------------


def _hash_groups(src: np.ndarray, n_shards: int) -> List[List[int]]:
    """Item indices per source-hash shard, ascending within a shard."""
    shard = shard_of(src, n_shards)
    return [np.flatnonzero(shard == i).tolist() for i in range(n_shards)]


def _run_detect_plan(
    body,
    plan: SchedulePlan,
    args: List[tuple],
    *,
    use_processes: bool,
    retry: Optional[RetryPolicy],
    fault_plan: Optional[FaultPlan],
    health: RunHealth,
    store: Optional[CheckpointStore],
    telemetry: Optional[PipelineTelemetry],
    lease=None,
) -> ParallelResult:
    """Run one detection task per worker, then merge and finish once.

    The tail every detection entry point shares: ``args[i]`` are task
    ``i``'s arguments for the worker ``body``.  Task states merge in
    task order through :meth:`DetectionEngine.from_shards`, which also
    owns the single finish and the worker/merge-stage telemetry.
    ``lease`` (the shared-memory segment holding the payloads, if any)
    is released as soon as the pool joins.
    """
    try:
        shard_results = run_sharded(
            body,
            args,
            policy=retry,
            plan=fault_plan,
            use_processes=use_processes and plan.workers > 1,
            max_workers=plan.workers,
            submit_order=plan.submit_order(),
            health=health,
            store=store,
            kind="detect",
            dumps=_dump_detect_state,
            loads=_load_detect_state,
        )
    finally:
        if lease is not None:
            lease.close()
    for _, report in shard_results:
        for path in report.quarantined:
            health.record_quarantine(path)
    if telemetry is not None:
        telemetry.total_packets = sum(
            report.packets for _, report in shard_results
        )
    engine = DetectionEngine.from_shards(shard_results, telemetry=telemetry)
    events, detections = engine.finish()
    return ParallelResult(
        events=events,
        detections=detections,
        worker_reports=[report for _, report in shard_results],
    )


def parallel_detect(
    chunks: Iterable,
    timeout: float,
    dark_size: int,
    config: Optional[DetectionConfig] = None,
    day_seconds: float = 86_400.0,
    *,
    workers: int,
    shm: Optional[bool] = None,
    use_processes: bool = True,
    telemetry: Optional[PipelineTelemetry] = None,
    retry: Optional[RetryPolicy] = None,
    fault_plan: Optional[FaultPlan] = None,
    checkpoint_dir: Union[str, Path, None] = None,
) -> ParallelResult:
    """Shard-parallel equivalent of :func:`repro.core.streaming.stream_detect`.

    Args:
        chunks: time-ordered capture chunks — ``PacketBatch`` objects or
            anything with a ``.packets`` batch attribute (e.g.
            :class:`~repro.telescope.chunks.CaptureChunk`).
        workers: number of source-hash shards, one detector (and, with
            ``use_processes``, one worker process) per shard.  Each
            shard's packets are counted while chunking, and the
            heaviest shard is submitted first.
        shm: hand shard payloads to the pool through a named
            shared-memory segment (:mod:`repro.io.shm`) instead of
            pickling them — workers map the segment read-only, so no
            packet byte crosses a process pipe.  ``None`` (default)
            decides automatically: shared memory when the pool uses
            processes, the platform supports it, and the payload is at
            least :data:`~repro.io.shm.SHM_MIN_BYTES`; ``True`` forces
            it whenever possible; ``False`` always pickles.  Results
            are bit-identical either way — the hand-off is pure
            transport.
        use_processes: run shards in a process pool; ``False`` runs them
            serially in-process (same shard/merge code path — useful for
            tests and as the degenerate ``workers=1`` case).
        telemetry: optional gauge sink; chunk-level counters are
            recorded while sharding, worker throughput after the join,
            and fault accounting on ``telemetry.health``.
        retry: per-shard retry/backoff/watchdog policy (defaults to
            :class:`~repro.core.faults.RetryPolicy`).
        fault_plan: deterministic fault injection (tests/CI only).
        checkpoint_dir: persist each finished shard's detector state
            here (atomic, digest-verified); re-running with the same
            directory and parameters resumes, re-executing only the
            missing shards.  The caller owns input identity for this
            in-memory entry point — feed the same chunk stream when
            resuming.

    Returns the merged :class:`ParallelResult` whose events and
    detections are identical to the serial streaming (and batch) path —
    also under any injected faults, retries, or resume.
    """
    if workers < 1:
        raise ValueError("workers must be >= 1")
    health = _resolve_health(telemetry)
    store = _checkpoint_store(
        checkpoint_dir,
        health,
        {
            "kind": "detect",
            "workers": workers,
            "timeout": float(timeout),
            "dark_size": int(dark_size),
            "day_seconds": float(day_seconds),
            "config": _config_meta(config),
        },
    )
    shards: List[List[PacketBatch]] = [[] for _ in range(workers)]
    t_prev = time.perf_counter()
    shard_stage = telemetry.stage("shard") if telemetry is not None else None
    for chunk in chunks:
        batch = getattr(chunk, "packets", chunk)
        if len(batch) == 0:
            continue
        for index, sub in enumerate(shard_batch(batch, workers)):
            if len(sub):
                shards[index].append(sub)
        if telemetry is not None:
            now = time.perf_counter()
            shard_stage.add(len(batch), len(batch), now - t_prev)
            watermark = float(batch.ts.max())
            telemetry.record_chunk(
                packets=len(batch),
                events_finalized=0,
                open_flows=0,
                window_end=getattr(chunk, "end", watermark),
                watermark=watermark,
            )
            t_prev = time.perf_counter()

    # LPT puts each non-empty hash shard on a task of its own (it never
    # stacks work onto a loaded task while an empty one is left), so a
    # task's payload is one shard's time-ordered batch list.
    plan = plan_grouped(
        [sum(len(sub) for sub in subs) for subs in shards],
        [[index] for index in range(workers)],
        workers,
    )
    payloads, lease = _ship_payloads(
        [
            [sub for index in task.items for sub in shards[index]]
            for task in plan.tasks
        ],
        shm,
        use_processes and workers > 1,
    )
    args = [
        (task.index, payloads[task.index], timeout, dark_size, config,
         day_seconds)
        for task in plan.tasks
    ]
    return _run_detect_plan(
        _run_shard,
        plan,
        args,
        use_processes=use_processes,
        retry=retry,
        fault_plan=fault_plan,
        health=health,
        store=store,
        telemetry=telemetry,
        lease=lease,
    )


def parallel_detect_directory(
    directory: Union[str, Path],
    timeout: float,
    dark_size: int,
    config: Optional[DetectionConfig] = None,
    day_seconds: float = 86_400.0,
    *,
    workers: int,
    use_processes: bool = True,
    telemetry: Optional[PipelineTelemetry] = None,
    retry: Optional[RetryPolicy] = None,
    fault_plan: Optional[FaultPlan] = None,
    checkpoint_dir: Union[str, Path, None] = None,
    on_corrupt: str = "raise",
) -> ParallelResult:
    """Shard-parallel detection over a ``save_packets_chunked`` directory.

    Each worker streams the archive sequence itself and filters to its
    source-hash shard, so raw packets never cross a process boundary;
    only the (much smaller) merged detector states travel back.  Packet
    counts are unknown before reading, so the shards weigh uniformly.
    The directory is validated up front — a missing directory, no
    ``chunk-*.npz`` archives, or a gap in the chunk sequence raise
    immediately with a clear message rather than failing mid-run.

    Chunk archives are digest-verified against the directory manifest.
    ``on_corrupt="raise"`` (default) surfaces the first damaged archive
    as a :class:`~repro.core.faults.ChunkCorruptionError` naming its
    path; ``"quarantine"`` skips damaged archives, accounts them on
    ``telemetry.health``, and detects over the survivors.

    With ``checkpoint_dir`` set, finished shard states persist there and
    a rerun — or :func:`resume_run` on the directory — re-executes only
    the missing shards; the run's parameters are recorded in
    ``run.json`` and a mismatched resume raises instead of merging
    incompatible states.
    """
    from repro.io.packetlog import CORRUPT_MODES, chunk_paths

    if workers < 1:
        raise ValueError("workers must be >= 1")
    if on_corrupt not in CORRUPT_MODES:
        raise ValueError(
            f"on_corrupt must be one of {CORRUPT_MODES}, got {on_corrupt!r}"
        )
    chunk_paths(directory)  # validate eagerly, before any process spawns
    health = _resolve_health(telemetry)
    store = _checkpoint_store(
        checkpoint_dir,
        health,
        {
            "kind": "directory",
            "directory": str(directory),
            "workers": workers,
            "timeout": float(timeout),
            "dark_size": int(dark_size),
            "day_seconds": float(day_seconds),
            "config": _config_meta(config),
        },
    )
    plan = plan_grouped(
        [1.0] * workers, [[index] for index in range(workers)], workers
    )
    args = [
        (
            task.index,
            task.items,
            workers,
            str(directory),
            timeout,
            dark_size,
            config,
            day_seconds,
            on_corrupt,
        )
        for task in plan.tasks
    ]
    return _run_detect_plan(
        _run_shard_directory,
        plan,
        args,
        use_processes=use_processes,
        retry=retry,
        fault_plan=fault_plan,
        health=health,
        store=store,
        telemetry=telemetry,
    )


def resume_run(
    run_dir: Union[str, Path],
    *,
    use_processes: bool = True,
    telemetry: Optional[PipelineTelemetry] = None,
    retry: Optional[RetryPolicy] = None,
    on_corrupt: str = "raise",
) -> ParallelResult:
    """Resume a checkpointed :func:`parallel_detect_directory` run.

    Reads the run parameters recorded in ``<run_dir>/run.json``,
    reloads every shard state whose checkpoint verifies, and re-executes
    only the shards that are missing or damaged — the merged result is
    bit-identical to a fault-free run.  Runs whose inputs are not
    file-addressable (in-memory chunks, lazy generation, flow slices)
    resume by re-invoking their entry point with the same
    ``checkpoint_dir`` instead.
    """
    store = CheckpointStore(run_dir)
    meta = store.load_meta()
    if meta is None:
        raise FileNotFoundError(
            f"no run.json under {run_dir} — not a checkpointed run "
            "directory"
        )
    if meta.get("kind") != "directory":
        raise ValueError(
            f"run {run_dir} was checkpointed by a "
            f"{meta.get('kind')!r} entry point, which does not record "
            "its inputs on disk; resume it by re-invoking that entry "
            "point with the same checkpoint_dir"
        )
    config = (
        None if meta["config"] is None else DetectionConfig(**meta["config"])
    )
    return parallel_detect_directory(
        meta["directory"],
        meta["timeout"],
        meta["dark_size"],
        config,
        meta["day_seconds"],
        workers=meta["workers"],
        use_processes=use_processes,
        telemetry=telemetry,
        retry=retry,
        checkpoint_dir=run_dir,
        on_corrupt=on_corrupt,
    )


def shard_scanners(scanners: Sequence, n_shards: int) -> List[list]:
    """Partition a scanner population by source-address shard.

    Uses the same Fibonacci hash as :func:`shard_of`, so generating a
    shard's scanners locally produces exactly the packets that sharding
    the materialized capture would have routed to that worker (every
    packet carries its scanner's source).  Scanners with the spoofed
    sentinel source 0 land in ``shard_of(0)``'s worker; their forged
    per-packet sources would scatter under packet sharding, but
    detection is per-source and each forged source contributes one
    packet, so results are unaffected.  Population order is preserved
    within each shard (part of the tie-breaking contract).
    """
    sources = np.array([int(s.src) for s in scanners], dtype=np.uint32)
    return [
        [scanners[i] for i in group]
        for group in _hash_groups(sources, n_shards)
    ]


@dataclass(frozen=True)
class FlowWorkerReport:
    """What one flow-synthesis worker produced (telemetry, not results)."""

    shard: int
    #: scanners synthesized by this worker.
    scanners: int
    #: flow rows (true-count cells) produced — the pre-sampling unit,
    #: not the (smaller) exported row count after flow sampling.
    rows: int
    #: wall-clock seconds inside the worker's synthesis loop.
    seconds: float
    #: OS process id that executed the work (steal accounting).
    pid: int = 0


def _run_flow_shard(
    shard: int,
    scanners: list,
    start_index: int,
    mixes: np.ndarray,
    view,
    window,
    day_seconds: float,
    base: int,
):
    """Worker body: synthesize one contiguous population slice.

    Top-level (not a closure) so it pickles under any multiprocessing
    start method.  ``start_index`` keys the per-scanner streams, so the
    slice's columns are exactly the serial pass's columns for those
    scanners regardless of which worker runs it.
    """
    from repro.flows.synthesis import synthesize_flow_columns

    t0 = time.perf_counter()
    columns = synthesize_flow_columns(
        scanners, mixes, view, window, day_seconds, base,
        start_index=start_index,
    )
    report = FlowWorkerReport(
        shard=shard,
        scanners=len(scanners),
        rows=len(columns),
        seconds=time.perf_counter() - t0,
        pid=os.getpid(),
    )
    return columns, report


def _stolen_tasks(plan_tasks, reports) -> int:
    """Tasks of one logical shard executed away from its home worker.

    The home worker is wherever the shard's heaviest task ran; any
    sibling task that a different process drained from the pool queue
    counts as stolen.  In-process runs share one pid, so this is 0
    there — it measures actual pool dynamics, not the plan.
    """
    if len(reports) <= 1:
        return 0
    heavy = max(
        range(len(plan_tasks)),
        key=lambda i: (plan_tasks[i].cost, -i),
    )
    home_pid = reports[heavy].pid
    return sum(1 for report in reports if report.pid != home_pid)


def _record_flow_workers(
    telemetry: PipelineTelemetry,
    plan: SchedulePlan,
    task_results: List[tuple],
) -> None:
    """Fold per-task flow reports into one telemetry entry per shard.

    Keeps the long-standing arity invariant — exactly ``plan.workers``
    ``flow_worker_stats`` entries whose scanner counts sum to the
    population — whatever the task decomposition was.
    """
    for shard in range(plan.workers):
        tasks = plan.shard_tasks(shard)
        reports = [task_results[task.index][1] for task in tasks]
        telemetry.record_flow_worker(
            shard=shard,
            scanners=sum(r.scanners for r in reports),
            rows=sum(r.rows for r in reports),
            seconds=sum(r.seconds for r in reports),
            planned_cost=plan.planned_cost(shard),
            tasks=len(tasks),
            stolen_tasks=_stolen_tasks(tasks, reports),
        )


def parallel_flow_columns(
    scanners: Sequence,
    mixes: np.ndarray,
    view,
    window,
    day_seconds: float,
    base: int,
    *,
    workers: int,
    use_processes: bool = True,
    telemetry: Optional[PipelineTelemetry] = None,
    retry: Optional[RetryPolicy] = None,
    fault_plan: Optional[FaultPlan] = None,
    checkpoint_dir: Union[str, Path, None] = None,
):
    """Shard-parallel columnar flow synthesis.

    Unlike detection — where state is keyed per source and shards are
    hash-partitioned — flow synthesis has *no* cross-scanner state:
    scanner ``i`` draws only from its own ``(base, salt, i)`` stream.
    The population is therefore split into **contiguous** index slices,
    and concatenating the per-task columns in logical task order
    reproduces the serial population order exactly — the merge is a
    concat, and results are bit-identical to serial for any worker
    count (hypothesis-tested 1..8).

    The slices are cost-capped by
    :meth:`~repro.scanners.base.Scanner.cost_estimate`, a few per worker
    (:func:`~repro.core.schedule.plan_contiguous`), and submitted
    heaviest first, so idle workers drain the stragglers' queue.

    Args:
        scanners: full population slice to synthesize, in order.
        mixes: per-scanner router-mix matrix, aligned with ``scanners``.
        view: the ISP transit view.
        window: [start, end) collection period.
        day_seconds: day length for day indexing.
        base: the run's flow base seed.
        workers: number of logical shards / worker processes.
        use_processes: ``False`` runs shards serially in-process (same
            shard/merge code path; useful for tests).
        telemetry: optional gauge sink for per-worker throughput.

    Returns:
        The merged :class:`~repro.flows.netflow.FlowColumns`.
    """
    from repro.flows.netflow import FlowColumns

    if workers < 1:
        raise ValueError("workers must be >= 1")
    scanners = list(scanners)
    plan = plan_contiguous([s.cost_estimate() for s in scanners], workers)
    health = _resolve_health(telemetry)
    store = _checkpoint_store(
        checkpoint_dir,
        health,
        {
            "kind": "flows",
            "workers": workers,
            "n_tasks": plan.n_tasks,
            "day_seconds": float(day_seconds),
            "base": int(base),
            "window": _window_meta(window),
            "n_scanners": len(scanners),
            "population": sha256_hex(
                np.array(
                    [int(s.src) for s in scanners], dtype=np.uint64
                ).tobytes()
            ),
        },
    )
    args = [
        (
            task.index,
            [scanners[i] for i in task.items],
            task.items[0] if task.items else 0,
            mixes[list(task.items)],
            view,
            window,
            day_seconds,
            base,
        )
        for task in plan.tasks
    ]
    task_results = run_sharded(
        _run_flow_shard,
        args,
        policy=retry,
        plan=fault_plan,
        use_processes=use_processes and workers > 1,
        max_workers=workers,
        submit_order=plan.submit_order(),
        health=health,
        store=store,
        kind="flows",
        dumps=_dump_flow_state,
        loads=_load_flow_state,
    )
    if telemetry is not None:
        _record_flow_workers(telemetry, plan, task_results)
    return FlowColumns.concat([columns for columns, _ in task_results])


def parallel_generate_detect(
    scanners: Sequence,
    view,
    chunk_seconds: float,
    timeout: float,
    dark_size: int,
    config: Optional[DetectionConfig] = None,
    day_seconds: float = 86_400.0,
    *,
    workers: int,
    window: Optional[tuple] = None,
    use_processes: bool = True,
    telemetry: Optional[PipelineTelemetry] = None,
    retry: Optional[RetryPolicy] = None,
    fault_plan: Optional[FaultPlan] = None,
    checkpoint_dir: Union[str, Path, None] = None,
) -> ParallelResult:
    """Shard-parallel detection with shard-local lazy generation.

    The synthetic-capture twin of :func:`parallel_detect_directory`:
    instead of sharding packets, the parent shards the *population* by
    source address and each worker lazily generates its own shard's
    capture (:class:`~repro.telescope.chunks.LazyCaptureSource`) while
    detecting.  Raw packets never cross a process pipe and no process —
    parent or worker — ever materializes a capture, so peak memory per
    worker is one chunk plus open generation spans and open flows.

    Results are identical to the serial and batch paths for any worker
    count: sharding scanners by source is equivalent to sharding their
    packets (every packet carries its scanner's source), and thresholds
    are derived once, after the merge.

    Args:
        scanners: the full population, in emission order.
        view: the monitored address region (the telescope's view).
        chunk_seconds: generation window length (epoch-aligned).
        timeout: event inactivity timeout.
        dark_size: telescope aperture (threshold normalization).
        config: detection thresholds configuration.
        day_seconds: day length for per-day statistics.
        workers: number of source-hash shards / worker processes, one
            task each (packet counts are unknown before generating, so
            the shards weigh uniformly).
        window: overall [start, end) restriction (the scenario window).
        use_processes: ``False`` runs shards serially in-process (same
            code path; useful for tests).
        telemetry: optional gauge sink; per-worker generate/detect
            throughput is recorded after the join.
    """
    if workers < 1:
        raise ValueError("workers must be >= 1")
    scanners = list(scanners)
    sources = np.array([int(s.src) for s in scanners], dtype=np.uint64)
    health = _resolve_health(telemetry)
    store = _checkpoint_store(
        checkpoint_dir,
        health,
        {
            "kind": "generate",
            "workers": workers,
            "chunk_seconds": float(chunk_seconds),
            "timeout": float(timeout),
            "dark_size": int(dark_size),
            "day_seconds": float(day_seconds),
            "window": _window_meta(window),
            "config": _config_meta(config),
            "n_scanners": len(scanners),
            "population": sha256_hex(sources.tobytes()),
        },
    )
    plan = plan_grouped(
        [1.0] * workers, _hash_groups(sources, workers), workers
    )
    args = [
        (
            task.index, [scanners[i] for i in task.items], view,
            chunk_seconds, window, timeout, dark_size, config, day_seconds,
        )
        for task in plan.tasks
    ]
    return _run_detect_plan(
        _run_shard_lazy,
        plan,
        args,
        use_processes=use_processes,
        retry=retry,
        fault_plan=fault_plan,
        health=health,
        store=store,
        telemetry=telemetry,
    )
