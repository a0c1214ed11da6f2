"""Tests for the shard-parallel detection layer (repro.parallel)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import DetectionConfig
from repro.core.detection import detect_all
from repro.core.events import build_events
from repro.core.telemetry import PipelineTelemetry
from repro.io.packetlog import save_packets_chunked
from repro.packet import PacketBatch, Protocol
from repro.parallel import (
    merge_detectors,
    parallel_detect,
    parallel_detect_directory,
    shard_batch,
    shard_of,
    shard_scanners,
)
from repro.sim.runner import run_scenario
from repro.sim.scenario import tiny_scenario
from tests.test_events import _packets
from tests.test_streaming import (
    _assert_detections_identical,
    _assert_tables_identical,
)

TCP = Protocol.TCP_SYN.value

_DARK_SIZE = 64
_CONFIG = DetectionConfig(
    alpha=0.05, min_packet_threshold=2, min_port_threshold=1
)


def _random_capture(seed, n=20_000, duration=400_000.0):
    rng = np.random.default_rng(seed)
    return PacketBatch(
        ts=np.sort(rng.random(n) * duration),
        src=rng.integers(1, 200, n).astype(np.uint32),
        dst=rng.integers(0, _DARK_SIZE, n).astype(np.uint32),
        dport=rng.choice(np.array([22, 23, 80, 443], dtype=np.uint16), n),
        proto=np.full(n, TCP, dtype=np.uint8),
        ipid=np.zeros(n, dtype=np.uint16),
    )


def _reference(batch, timeout=600.0):
    events = build_events(batch, timeout)
    return events, detect_all(events, _DARK_SIZE, _CONFIG)


class TestSharding:
    def test_shard_of_deterministic_and_in_range(self):
        src = np.arange(10_000, dtype=np.uint32)
        for n in (1, 2, 3, 8):
            shard = shard_of(src, n)
            assert shard.min() >= 0 and shard.max() < n
            assert np.array_equal(shard, shard_of(src, n))

    def test_shard_of_spreads_sources(self):
        # Adjacent addresses (a /24's worth) must not pile into one shard.
        src = np.arange(256, dtype=np.uint32)
        counts = np.bincount(shard_of(src, 4), minlength=4)
        assert counts.min() > 0

    def test_shard_batch_partitions(self):
        batch = _random_capture(1, n=5_000)
        shards = shard_batch(batch, 4)
        assert sum(len(s) for s in shards) == len(batch)
        seen = [set(np.unique(s.src).tolist()) for s in shards if len(s)]
        for i, a in enumerate(seen):
            for b in seen[i + 1:]:
                assert not (a & b)

    def test_invalid_shard_count(self):
        with pytest.raises(ValueError):
            shard_of(np.arange(4, dtype=np.uint32), 0)

    def test_shard_scanners_legacy_layout_stable(self):
        # The hash-grouped scanner partition (the lazy-generation
        # layout) must keep matching shard_of on each source,
        # preserving population order within a shard.
        class _Fake:
            def __init__(self, src):
                self.src = src

        scanners = [_Fake(src) for src in range(1, 300, 7)]
        shards = shard_scanners(scanners, 4)
        assert sum(len(s) for s in shards) == len(scanners)
        sources = np.array([s.src for s in scanners], dtype=np.uint32)
        expected = shard_of(sources, 4)
        for idx, shard in enumerate(shards):
            srcs = [s.src for s in shard]
            assert srcs == [
                s.src for s, e in zip(scanners, expected) if e == idx
            ]

    def test_shard_scanners_single_shard(self):
        class _Fake:
            def __init__(self, src):
                self.src = src

        scanners = [_Fake(1), _Fake(2)]
        assert shard_scanners(scanners, 1) == [scanners]
        with pytest.raises(ValueError):
            shard_scanners(scanners, 0)

    def test_merge_detectors_empty(self):
        with pytest.raises(ValueError):
            merge_detectors([])


class TestParallelDetect:
    def test_matches_serial_with_processes(self):
        batch = _random_capture(21)
        ref_events, ref_detections = _reference(batch)
        chunks = (c for _, _, c in batch.iter_time_chunks(3_600.0))
        result = parallel_detect(
            chunks, 600.0, _DARK_SIZE, _CONFIG, workers=2
        )
        _assert_tables_identical(result.events, ref_events)
        _assert_detections_identical(result.detections, ref_detections)
        assert result.workers == 2

    def test_worker_reports_cover_capture(self):
        batch = _random_capture(22, n=8_000)
        chunks = (c for _, _, c in batch.iter_time_chunks(3_600.0))
        result = parallel_detect(
            chunks, 600.0, _DARK_SIZE, _CONFIG, workers=3, use_processes=False
        )
        assert sum(r.packets for r in result.worker_reports) == len(batch)
        assert all(r.seconds >= 0 for r in result.worker_reports)
        assert [r.shard for r in result.worker_reports] == [0, 1, 2]
        # One task per worker, each holding one whole source-hash shard,
        # packed heaviest first by the packet counts taken while chunking.
        counts = np.bincount(shard_of(batch.src, 3), minlength=3)
        assert [r.packets for r in result.worker_reports] == sorted(
            counts.tolist(), reverse=True
        )

    def test_telemetry_aggregation(self):
        batch = _random_capture(23, n=8_000)
        telemetry = PipelineTelemetry(chunk_seconds=3_600.0)
        chunks = (c for _, _, c in batch.iter_time_chunks(3_600.0))
        result = parallel_detect(
            chunks,
            600.0,
            _DARK_SIZE,
            _CONFIG,
            workers=2,
            use_processes=False,
            telemetry=telemetry,
        )
        assert telemetry.workers == 2
        assert telemetry.total_packets == len(batch)
        assert telemetry.total_events == len(result.events)
        assert telemetry.peak_open_flows == sum(
            w.peak_open_flows for w in telemetry.worker_stats
        )
        assert telemetry.final_open_flows == 0
        assert "merge" in telemetry.stages
        assert any(
            label == "workers" for label, _ in telemetry.summary_rows()
        )
        assert len(telemetry.as_dict()["workers"]) == 2

    def test_invalid_workers(self):
        with pytest.raises(ValueError):
            parallel_detect([], 600.0, _DARK_SIZE, workers=0)


class TestParallelDirectory:
    def test_matches_serial(self, tmp_path):
        batch = _random_capture(31, n=10_000)
        save_packets_chunked(batch, tmp_path / "cap", 3_600.0)
        ref_events, ref_detections = _reference(batch)
        result = parallel_detect_directory(
            tmp_path / "cap", 600.0, _DARK_SIZE, _CONFIG, workers=2
        )
        _assert_tables_identical(result.events, ref_events)
        _assert_detections_identical(result.detections, ref_detections)

    def test_missing_directory_raises_upfront(self, tmp_path):
        with pytest.raises(FileNotFoundError, match="chunk directory"):
            parallel_detect_directory(
                tmp_path / "nope", 600.0, _DARK_SIZE, workers=2
            )

    def test_gap_in_sequence_raises_upfront(self, tmp_path):
        batch = _random_capture(32, n=6_000)
        save_packets_chunked(batch, tmp_path / "cap", 3_600.0)
        victims = sorted((tmp_path / "cap").glob("chunk-*.npz"))
        assert len(victims) > 2
        victims[1].unlink()
        with pytest.raises(ValueError, match="gaps"):
            parallel_detect_directory(
                tmp_path / "cap", 600.0, _DARK_SIZE, workers=2
            )


class TestRunnerIntegration:
    @pytest.fixture(scope="class")
    def batch_result(self):
        return run_scenario(tiny_scenario())

    def test_workers_match_batch(self, batch_result):
        parallel = run_scenario(
            tiny_scenario(), mode="streaming", workers=2
        )
        _assert_tables_identical(parallel.events, batch_result.events)
        _assert_detections_identical(
            parallel.detections, batch_result.detections
        )
        assert parallel.telemetry is not None
        assert parallel.telemetry.workers == 2

    def test_scenario_workers_field(self, batch_result):
        import dataclasses

        scenario = dataclasses.replace(tiny_scenario(), workers=2)
        parallel = run_scenario(scenario, mode="streaming")
        _assert_detections_identical(
            parallel.detections, batch_result.detections
        )
        assert parallel.telemetry.workers == 2

    def test_span_counters_threaded_to_telemetry(self, batch_result):
        # The lazy path reports spans_derived (pre-dedup derivation
        # units) separately from spans_emitted, all the way into the
        # per-worker telemetry rows.
        parallel = run_scenario(
            tiny_scenario(), mode="streaming", workers=2
        )
        stats = parallel.telemetry.worker_stats
        assert len(stats) == 2
        for worker in stats:
            assert worker.spans_derived >= worker.spans_emitted >= 0
            as_dict = worker.as_dict()
            assert as_dict["spans_derived"] == worker.spans_derived
            assert as_dict["spans_emitted"] == worker.spans_emitted
        assert sum(w.spans_emitted for w in stats) > 0
        rows = dict(parallel.telemetry.summary_rows())
        assert any("derived" in value for value in rows.values())

    def test_one_task_per_worker(self, batch_result):
        # Sharded detection has one fixed layout — one source-hash shard
        # per worker — and no option left to pick another.
        parallel = run_scenario(tiny_scenario(), mode="streaming", workers=3)
        _assert_detections_identical(
            parallel.detections, batch_result.detections
        )
        stats = parallel.telemetry.worker_stats
        assert [w.shard for w in stats] == [0, 1, 2]
        assert sum(w.packets for w in stats) == parallel.telemetry.total_packets
        with pytest.raises(TypeError, match="schedule"):
            run_scenario(
                tiny_scenario(), mode="streaming", workers=2,
                schedule="stealing",
            )

    def test_workers_allowed_in_batch_mode(self, batch_result):
        # Batch mode now accepts workers: detection runs serially, but
        # the ISP flow synthesis shards across the pool on demand.
        result = run_scenario(tiny_scenario(), mode="batch", workers=2)
        _assert_detections_identical(result.detections, batch_result.detections)
        assert result.workers == 2

    def test_workers_must_be_positive(self):
        with pytest.raises(ValueError, match=">= 1"):
            run_scenario(tiny_scenario(), mode="streaming", workers=0)
        with pytest.raises(ValueError, match=">= 1"):
            run_scenario(tiny_scenario(), mode="batch", workers=0)


# ----------------------------------------------------------------------
# Property: for any shard count in 1..8, sharded streaming detection
# emits AH sets (and thresholds, and the event table) identical to
# serial detect_all, for all three definitions.  In-process execution —
# the shard/merge code path is exactly the process-pool one.
# ----------------------------------------------------------------------

packet_rows = st.lists(
    st.tuples(
        st.floats(min_value=0, max_value=5_000, allow_nan=False),
        st.integers(min_value=1, max_value=6),
        st.integers(min_value=0, max_value=20),
        st.sampled_from([22, 23, 80]),
    ),
    min_size=1,
    max_size=120,
)


@given(
    packet_rows,
    st.integers(min_value=1, max_value=8),
    st.floats(min_value=10.0, max_value=2_000.0),
    st.floats(min_value=50.0, max_value=6_000.0),
)
@settings(max_examples=60, deadline=None)
def test_sharded_equals_serial(rows, workers, timeout, chunk_seconds):
    batch = _packets([(ts, s, d, p, TCP) for ts, s, d, p in rows])
    ref_events = build_events(batch, timeout)
    ref_detections = detect_all(ref_events, _DARK_SIZE, _CONFIG)
    chunks = (c for _, _, c in batch.iter_time_chunks(chunk_seconds))
    result = parallel_detect(
        chunks,
        timeout,
        _DARK_SIZE,
        _CONFIG,
        workers=workers,
        use_processes=False,
    )
    _assert_tables_identical(
        result.events, ref_events.sorted_canonical()
    )
    _assert_detections_identical(result.detections, ref_detections)
