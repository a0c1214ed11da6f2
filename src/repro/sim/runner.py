"""Drives a scenario end-to-end: Internet -> scanners -> telescope ->
events -> detections, with lazy ISP flow / stream collection on top.

``run_scenario`` is the single entry point every example and benchmark
uses; the returned :class:`ScenarioResult` caches the expensive pieces
so the analyses can be re-run cheaply.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, Optional

import numpy as np

from repro.config import DEFAULT_CHUNK_SECONDS
from repro.core.detection import DetectionResult, detect_all
from repro.core.events import EventTable, build_events
from repro.core.engine import DetectionEngine
from repro.core.telemetry import PipelineTelemetry
from repro.flows.isp import ISPNetwork, build_campus_like, build_merit_like
from repro.flows.netflow import NetflowExporter
from repro.flows.stream import StreamMonitor
from repro.net.internet import Internet, build_internet
from repro.scanners.population import ScannerPopulation, build_population
from repro.sim.scenario import Scenario
from repro.telescope.capture import DarknetCapture
from repro.telescope.darknet import Telescope


@dataclass
class ScenarioResult:
    """Everything a scenario produced, plus lazy ISP collection."""

    scenario: Scenario
    internet: Internet
    telescope: Telescope
    population: ScannerPopulation
    events: EventTable
    detections: Dict[int, DetectionResult]
    merit: Optional[ISPNetwork] = None
    campus: Optional[ISPNetwork] = None
    #: how the events/detections were produced ("batch" or "streaming").
    mode: str = "batch"
    #: pipeline counters/gauges; populated only by streaming runs.
    telemetry: Optional[PipelineTelemetry] = None
    #: worker count the run was configured with; lazy flow collection
    #: shards its synthesis across this many processes (results are
    #: identical for any value).
    workers: Optional[int] = None
    #: checkpoint/run directory the run was configured with; lazy flow
    #: collection checkpoints its shards under ``<dir>/flows``.
    checkpoint_dir: Optional[str] = None
    #: per-shard retry budget the run was configured with.
    shard_retries: Optional[int] = None
    #: materialized capture; ``None`` after lazy-generation runs until
    #: an analysis asks for it through the ``capture`` property.
    _capture: Optional[DarknetCapture] = field(default=None, repr=False)
    _flow_cache: Optional[tuple] = field(default=None, repr=False)
    _stream_cache: Optional[dict] = field(default=None, repr=False)

    # ------------------------------------------------------------------
    @property
    def capture(self) -> DarknetCapture:
        """The darknet capture, materialized on first access.

        Streaming and parallel runs generate the capture lazily and
        never hold it whole; the packet-level analyses (Table 1, the
        characterization figures...) still can ask for the full batch
        here, which rebuilds it deterministically — bit-identical to
        what the pipeline consumed — and caches it on the result.
        """
        if self._capture is None:
            self._capture = self.telescope.capture(
                self.population.scanners, self.scenario.window()
            )
        return self._capture

    @property
    def clock(self):
        """The scenario's calendar."""
        return self.scenario.clock

    @property
    def dark_size(self) -> int:
        """Number of dark addresses observed."""
        return self.telescope.size

    def ah_sources(self, definition: int = 1) -> set:
        """The AH set for one definition."""
        return self.detections[definition].sources

    def flow_scanners(self) -> list:
        """Scanners materialized at the ISP routers: the union of all
        detected AH plus every acknowledged-org scanner (needed for the
        Table 4 ACKed impact)."""
        wanted = set()
        for result in self.detections.values():
            wanted |= result.sources
        wanted |= self.population.acked.all_fleet_ips()
        return self.population.scanners_for(wanted)

    # ------------------------------------------------------------------
    def collect_flows(
        self,
        exporter: Optional[NetflowExporter] = None,
        seed_offset: int = 101,
        workers: Optional[int] = None,
    ) -> tuple:
        """NetFlow at the ISP for the scenario's flow days.

        Returns ``(flow_table, totals)``; cached after the first call
        with default arguments.  Synthesis shards across ``workers``
        processes (defaulting to the run's worker count) — the table is
        bit-identical for any value, so the cache is shared.
        """
        if exporter is None and self._flow_cache is not None:
            return self._flow_cache
        if self.merit is None:
            raise RuntimeError("scenario was built without an ISP model")
        if not self.scenario.flow_days:
            raise RuntimeError("scenario has no flow days configured")
        if workers is None:
            workers = self.workers
        rng = np.random.default_rng(self.scenario.seed + seed_offset)
        days = self.scenario.flow_days
        window = (
            min(days) * self.clock.seconds_per_day,
            (max(days) + 1) * self.clock.seconds_per_day,
        )
        retry = None
        if self.shard_retries is not None:
            from repro.core.faults import RetryPolicy

            retry = RetryPolicy(max_retries=self.shard_retries)
        flow_checkpoint = None
        if self.checkpoint_dir is not None:
            from pathlib import Path

            flow_checkpoint = Path(self.checkpoint_dir) / "flows"
        table, true_totals = self.merit.collect_scanner_flows(
            self.flow_scanners(),
            window,
            self.clock,
            rng,
            exporter,
            workers=workers,
            telemetry=self.telemetry,
            retry=retry,
            checkpoint_dir=flow_checkpoint,
        )
        totals = self.merit.router_day_totals(days, true_totals, self.clock, rng)
        result = (table, totals)
        if exporter is None:
            self._flow_cache = result
        return result

    def record_streams(
        self,
        ah_sources: Optional[set] = None,
        seed_offset: int = 202,
    ) -> dict:
        """Per-second stream series at both stations (Figure 1/2)."""
        if ah_sources is None and self._stream_cache is not None:
            return self._stream_cache
        if self.merit is None or self.campus is None:
            raise RuntimeError("scenario was built without stream stations")
        window = self.scenario.stream_window
        if window is None:
            raise RuntimeError("scenario has no stream window configured")
        sources = ah_sources if ah_sources is not None else self.ah_sources(1)
        scanners = self.population.scanners_for(sources)
        rng = np.random.default_rng(self.scenario.seed + seed_offset)
        out = {}
        for network in (self.merit, self.campus):
            monitor = StreamMonitor(network=network, clock=self.clock)
            out[network.name] = monitor.record(scanners, window, rng)
        if ah_sources is None:
            self._stream_cache = out
        return out


def _build_world_base(scenario: Scenario) -> tuple:
    """Build the simulated world for a scenario — without the capture.

    Returns ``(internet, telescope, population, merit, campus,
    timeout)``.  Capture materialization is a separate (batch-only)
    step: the streaming and parallel modes generate packets lazily out
    of this world model and never hold the capture whole.
    """
    internet = build_internet(scenario.internet)
    dark_prefix = internet.allocator.allocate(scenario.dark_prefix_length)
    telescope = Telescope.from_prefix(dark_prefix)

    merit = campus = None
    if scenario.with_isp:
        merit, internet = build_merit_like(internet, dark_prefix)
    if scenario.with_campus:
        campus, internet = build_campus_like(internet)

    population = build_population(
        internet, telescope.prefixes.ranges(), scenario.population
    )
    timeout = (
        scenario.event_timeout
        if scenario.event_timeout is not None
        else telescope.default_timeout()
    )
    return internet, telescope, population, merit, campus, timeout


def build_world(scenario: Scenario) -> tuple:
    """Build the simulated world and materialized capture for a scenario.

    Returns ``(internet, telescope, population, capture, merit, campus,
    timeout)`` — the state the batch detection mode starts from.
    Exposed separately from :func:`run_scenario` so benchmarks and
    tools can obtain a scenario's capture without running detection.
    Streaming/parallel runs use :func:`_build_world_base` plus lazy
    generation instead and never call this.
    """
    internet, telescope, population, merit, campus, timeout = (
        _build_world_base(scenario)
    )
    capture = telescope.capture(population.scanners, scenario.window())
    return internet, telescope, population, capture, merit, campus, timeout


def _parallel_events_and_detections(
    telescope: Telescope,
    population: ScannerPopulation,
    timeout: float,
    scenario: Scenario,
    chunk_seconds: float,
    workers: int,
    retry=None,
    checkpoint_dir=None,
) -> tuple:
    """Run the shard-parallel pipeline with shard-local lazy generation.

    Returns ``(events, detections, telemetry)`` — identical results to
    the serial streaming (and batch) paths.  The parent ships each
    worker its shard's *scanners*; every worker generates its own
    shard's capture locally (:func:`repro.parallel.parallel_generate_detect`),
    so raw packets never cross a process pipe and nothing ever holds the
    full capture.  ``retry``/``checkpoint_dir`` plug the fault-tolerant
    execution layer (:mod:`repro.core.faults`) into the run.
    """
    from repro.parallel import parallel_generate_detect

    telemetry = PipelineTelemetry(chunk_seconds=chunk_seconds)
    result = parallel_generate_detect(
        population.scanners,
        telescope.view(),
        chunk_seconds,
        timeout,
        telescope.size,
        scenario.detection,
        scenario.clock.seconds_per_day,
        workers=workers,
        window=scenario.window(),
        telemetry=telemetry,
        retry=retry,
        checkpoint_dir=checkpoint_dir,
    )
    return result.events, result.detections, telemetry


def _directory_events_and_detections(
    capture_dir,
    telescope: Telescope,
    timeout: float,
    scenario: Scenario,
    chunk_seconds: float,
    workers: int,
    retry=None,
    checkpoint_dir=None,
    on_corrupt: str = "raise",
) -> tuple:
    """Run shard-parallel detection over a saved chunk directory.

    The replay twin of :func:`_parallel_events_and_detections`: packets
    come from ``save_packets_chunked`` archives under ``capture_dir``
    instead of being generated, with each archive digest-verified
    against the directory manifest (``on_corrupt`` selects strict or
    quarantine handling of damaged chunks).
    """
    from repro.parallel import parallel_detect_directory

    telemetry = PipelineTelemetry(chunk_seconds=chunk_seconds)
    result = parallel_detect_directory(
        capture_dir,
        timeout,
        telescope.size,
        scenario.detection,
        scenario.clock.seconds_per_day,
        workers=workers,
        telemetry=telemetry,
        retry=retry,
        checkpoint_dir=checkpoint_dir,
        on_corrupt=on_corrupt,
    )
    return result.events, result.detections, telemetry


def _stream_events_and_detections(
    telescope: Telescope,
    population: ScannerPopulation,
    timeout: float,
    scenario: Scenario,
    chunk_seconds: float,
) -> tuple:
    """Run the lazy-generation -> incremental-detection pipeline.

    Returns ``(events, detections, telemetry)``.  The detections are
    identical to the batch path's (``detect_all`` over ``build_events``)
    — the streaming layer only changes *when* work happens, never what
    is computed — while peak memory is bounded by one chunk plus open
    generation spans and the open-flow state: the capture is generated
    window by window (:meth:`Telescope.stream`), never materialized.

    A thin driver over :class:`~repro.core.engine.DetectionEngine`: the
    runner only times the generation side of the loop; chunk routing,
    detect-stage accounting and the finish-time flush live in the
    engine (shared with the pool paths and the :mod:`repro.serve`
    service).
    """
    source = telescope.stream(
        population.scanners, chunk_seconds, window=scenario.window()
    )
    telemetry = PipelineTelemetry(chunk_seconds=chunk_seconds)
    engine = DetectionEngine(
        timeout,
        telescope.size,
        scenario.detection,
        scenario.clock.seconds_per_day,
        telemetry=telemetry,
    )
    generate_stage = telemetry.stage("generate")

    t_prev = time.perf_counter()
    for chunk in source:
        t_chunked = time.perf_counter()
        generate_stage.add(len(chunk), len(chunk), t_chunked - t_prev)
        engine.ingest(chunk)
        t_prev = time.perf_counter()

    events, detections = engine.finish()
    return events, detections, telemetry


def run_scenario(
    scenario: Scenario,
    *,
    mode: str = "batch",
    chunk_seconds: Optional[float] = None,
    workers: Optional[int] = None,
    capture_dir: Optional[str] = None,
    checkpoint_dir: Optional[str] = None,
    shard_retries: Optional[int] = None,
    on_corrupt: str = "raise",
) -> ScenarioResult:
    """Execute a scenario: build the world, capture and detect.

    The simulation order mirrors the real measurement pipeline: the
    address plan and monitored networks exist first, the scanner
    population probes everything, the telescope records its share, the
    event builder summarizes, and the three detectors produce AH lists.

    Args:
        scenario: what to simulate.
        mode: ``"batch"`` builds events and detects over the full
            capture at once; ``"streaming"`` drives the chunked
            capture -> incremental detection pipeline instead (same
            detections, bounded memory, telemetry attached).
        chunk_seconds: streaming window size; defaults to the
            scenario's ``chunk_seconds``, then to
            :data:`repro.config.DEFAULT_CHUNK_SECONDS`.
        workers: shard work across this many worker processes —
            identical results for any count.  With ``mode="streaming"``
            the capture is sharded by source address and detector states
            merged (:mod:`repro.parallel`); in *any* mode the columnar
            ISP flow synthesis behind ``collect_flows`` shards its
            population across the same pool.  Defaults to the scenario's
            ``workers``; ``None`` or 1 runs the serial pipelines.
        capture_dir: detect over a ``save_packets_chunked`` directory
            instead of generating the capture (streaming mode only);
            archives are digest-verified against the chunk manifest.
        checkpoint_dir: persist finished shard states here; re-running
            (or :func:`repro.parallel.resume_run`) re-executes only the
            missing shards.  Forces the sharded detection path even with
            one worker, and routes flow collection's checkpoints to
            ``<dir>/flows``.
        shard_retries: per-shard retry budget for transient worker
            failures (default policy when ``None``).
        on_corrupt: ``"raise"`` (default) fails on the first damaged
            chunk archive, naming it; ``"quarantine"`` skips damaged
            archives and accounts them in ``telemetry.health``.
    """
    if mode not in ("batch", "streaming"):
        raise ValueError(f"unknown mode: {mode!r}")
    if workers is None:
        workers = scenario.workers
    if workers is not None and workers < 1:
        raise ValueError("workers must be >= 1")
    if capture_dir is not None and mode != "streaming":
        raise ValueError("capture_dir requires mode='streaming'")
    retry = None
    if shard_retries is not None:
        if shard_retries < 0:
            raise ValueError("shard_retries must be >= 0")
        from repro.core.faults import RetryPolicy

        retry = RetryPolicy(max_retries=shard_retries)
    (
        internet,
        telescope,
        population,
        merit,
        campus,
        timeout,
    ) = _build_world_base(scenario)
    telemetry = None
    capture = None
    if mode == "streaming":
        if chunk_seconds is None:
            chunk_seconds = (
                scenario.chunk_seconds
                if scenario.chunk_seconds is not None
                else DEFAULT_CHUNK_SECONDS
            )
        if capture_dir is not None:
            events, detections, telemetry = _directory_events_and_detections(
                capture_dir, telescope, timeout, scenario, chunk_seconds,
                workers if workers is not None else 1,
                retry=retry,
                checkpoint_dir=checkpoint_dir,
                on_corrupt=on_corrupt,
            )
        elif (workers is not None and workers > 1) or checkpoint_dir is not None:
            events, detections, telemetry = _parallel_events_and_detections(
                telescope, population, timeout, scenario, chunk_seconds,
                workers if workers is not None else 1,
                retry=retry,
                checkpoint_dir=checkpoint_dir,
            )
        else:
            events, detections, telemetry = _stream_events_and_detections(
                telescope, population, timeout, scenario, chunk_seconds
            )
    else:
        capture = telescope.capture(population.scanners, scenario.window())
        events = build_events(capture.packets, timeout)
        detections = detect_all(
            events,
            telescope.size,
            scenario.detection,
            scenario.clock.seconds_per_day,
        )
    # The ISP models were built before the population, but their
    # internet snapshot lacks nothing the flows need: router assignment
    # only reads AS country data, which is identical in both snapshots.
    if merit is not None:
        merit.internet = internet
    if campus is not None:
        campus.internet = internet
    return ScenarioResult(
        scenario=scenario,
        internet=internet,
        telescope=telescope,
        population=population,
        events=events,
        detections=detections,
        merit=merit,
        campus=campus,
        mode=mode,
        telemetry=telemetry,
        workers=workers,
        checkpoint_dir=None if checkpoint_dir is None else str(checkpoint_dir),
        shard_retries=shard_retries,
        _capture=capture,
    )
