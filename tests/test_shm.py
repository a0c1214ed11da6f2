"""Tests for the shared-memory columnar hand-off (repro.io.shm).

The contract: shared memory is pure *transport*.  For any worker
count, fault plan, or interrupt/resume sequence, a run
whose shards travelled as named-segment handles is bit-identical to
the pickled hand-off and to serial — and every segment is unlinked by
the time the entry point returns, crash or no crash.
"""

import pickle
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import DetectionConfig
from repro.core.engine import DetectionEngine
from repro.core.faults import FaultPlan, RetryPolicy, ShardFailedError
from repro.io.shm import (
    SHM_MIN_BYTES,
    SegmentLease,
    ShmBatch,
    ShmBatchList,
    resolve_batch,
    resolve_batches,
    share_batch,
    share_shard_batches,
    shared_memory_available,
    want_shared_memory,
)
from repro.packet import COLUMNS, PacketBatch, Protocol
from repro.parallel import parallel_detect
from tests.test_parallel import _CONFIG, _DARK_SIZE, _random_capture, _reference
from tests.test_streaming import (
    _assert_detections_identical,
    _assert_tables_identical,
)

pytestmark = pytest.mark.skipif(
    not shared_memory_available(),
    reason="platform has no usable shared memory",
)

TCP = Protocol.TCP_SYN.value


def _batch(n, seed=0):
    rng = np.random.default_rng(seed)
    return PacketBatch(
        ts=np.sort(rng.random(n) * 5_000.0),
        src=rng.integers(1, 50, n).astype(np.uint32),
        dst=rng.integers(0, _DARK_SIZE, n).astype(np.uint32),
        dport=rng.choice(np.array([22, 443], dtype=np.uint16), n),
        proto=np.full(n, TCP, dtype=np.uint8),
        ipid=np.zeros(n, dtype=np.uint16),
    )


def _assert_batches_equal(a: PacketBatch, b: PacketBatch):
    for name in COLUMNS:
        np.testing.assert_array_equal(getattr(a, name), getattr(b, name))


def _segment_gone(name: str) -> bool:
    from multiprocessing import shared_memory

    try:
        segment = shared_memory.SharedMemory(name=name)
    except FileNotFoundError:
        return True
    segment.close()
    return False


class TestRoundTrip:
    def test_blocks_round_trip_through_pickle(self):
        shards = [[_batch(500, 1), _batch(3, 2)], [], [_batch(1, 3)]]
        handles, lease = share_shard_batches(shards)
        with lease:
            for shard, handle in zip(
                shards, pickle.loads(pickle.dumps(handles))
            ):
                loaded = resolve_batches(handle)
                assert len(loaded) == len(shard)
                for a, b in zip(shard, loaded):
                    _assert_batches_equal(a, b)
        assert _segment_gone(handles[0].segment)

    def test_views_are_read_only(self):
        handles, lease = share_shard_batches([[_batch(16)]])
        with lease:
            (loaded,) = handles[0].load()
            for name in COLUMNS:
                column = getattr(loaded, name)
                assert not column.flags.writeable
                with pytest.raises((ValueError, RuntimeError)):
                    column[0] = 0

    def test_views_are_zero_copy(self):
        # Columns alias the segment mapping, not per-batch allocations.
        handles, lease = share_shard_batches([[_batch(64)]])
        with lease:
            (loaded,) = handles[0].load()
            assert loaded.ts.base.obj is loaded.src.base.obj

    def test_empty_batch_and_empty_shard(self):
        shards = [[PacketBatch.empty()], []]
        handles, lease = share_shard_batches(shards)
        with lease:
            (empty,) = handles[0].load()
            assert len(empty) == 0
            assert handles[1].load() == []

    def test_single_packet_batch(self):
        one = _batch(1, 9)
        handle, lease = share_batch(one)
        with lease:
            _assert_batches_equal(one, resolve_batch(handle))

    def test_resolve_passthrough(self):
        batches = [_batch(4)]
        assert resolve_batches(batches) is batches
        assert resolve_batch(batches[0]) is batches[0]

    def test_lease_close_is_idempotent(self):
        handles, lease = share_shard_batches([[_batch(8)]])
        lease.close()
        lease.close()
        assert _segment_gone(handles[0].segment)


class TestPolicy:
    def test_forced_off_always_pickles(self):
        assert not want_shared_memory(False, True, 10 * SHM_MIN_BYTES)

    def test_forced_on_ignores_size_and_pool_kind(self):
        assert want_shared_memory(True, True, 0)
        assert want_shared_memory(True, False, 0)

    def test_auto_requires_processes_and_size(self):
        assert not want_shared_memory(None, False, 10 * SHM_MIN_BYTES)
        assert not want_shared_memory(None, True, SHM_MIN_BYTES - 1)
        assert want_shared_memory(None, True, SHM_MIN_BYTES)


class TestEngineIngest:
    def test_engine_ingests_handles_like_batches(self):
        batch = _batch(2_000, 7)
        plain = DetectionEngine(600.0, _DARK_SIZE, _CONFIG, workers=2)
        shared = DetectionEngine(600.0, _DARK_SIZE, _CONFIG, workers=2)
        for _, _, chunk in batch.iter_time_chunks(500.0):
            handle, lease = share_batch(chunk)
            with lease:
                shared.ingest(handle)
            plain.ingest(chunk)
        events_a, detections_a = plain.finish()
        events_b, detections_b = shared.finish()
        _assert_tables_identical(events_a, events_b)
        _assert_detections_identical(detections_a, detections_b)


# ----------------------------------------------------------------------
# The acceptance property: transport never changes results.
# ----------------------------------------------------------------------

_BATCH = _random_capture(41, n=6_000)
_REF_EVENTS, _REF_DETECTIONS = _reference(_BATCH)


def _chunks():
    return (c for _, _, c in _BATCH.iter_time_chunks(3_600.0))


def _detect(**kwargs):
    return parallel_detect(
        _chunks(), 600.0, _DARK_SIZE, _CONFIG, use_processes=False, **kwargs
    )


class TestShmDetectionIdentity:
    @settings(deadline=None, max_examples=16)
    @given(
        workers=st.integers(1, 8),
        victim=st.integers(0, 7),
        kill=st.booleans(),
    )
    def test_shm_equals_serial_any_workers(self, workers, victim, kill):
        """Forced shared-memory hand-off, 1..8 workers, with and
        without an injected kill: bit-identical to the fault-free
        serial reference."""
        plan = (
            FaultPlan(kill={victim % workers: 1}) if kill else FaultPlan()
        )
        result = _detect(
            workers=workers,
            shm=True,
            fault_plan=plan,
            retry=RetryPolicy(max_retries=1, backoff_seconds=0.0),
        )
        _assert_tables_identical(result.events, _REF_EVENTS)
        _assert_detections_identical(result.detections, _REF_DETECTIONS)

    @settings(deadline=None, max_examples=8)
    @given(workers=st.integers(2, 8), victim=st.integers(0, 7))
    def test_shm_interrupt_then_resume_identical(self, workers, victim):
        """Interrupt (zero retry budget) and resume with the segment
        hand-off on: the rerun completes only the missing shards and
        matches serial — and no segment outlives either attempt."""
        with tempfile.TemporaryDirectory() as run_dir:
            with pytest.raises(ShardFailedError):
                _detect(
                    workers=workers,
                    shm=True,
                    retry=RetryPolicy(max_retries=0, backoff_seconds=0.0),
                    fault_plan=FaultPlan(kill={victim % workers: 1}),
                    checkpoint_dir=run_dir,
                )
            result = _detect(
                workers=workers, shm=True, checkpoint_dir=run_dir
            )
        _assert_tables_identical(result.events, _REF_EVENTS)
        _assert_detections_identical(result.detections, _REF_DETECTIONS)

    def test_shm_across_real_processes(self):
        """Cross-process attach: workers map the parent's segment."""
        result = parallel_detect(
            _chunks(),
            600.0,
            _DARK_SIZE,
            _CONFIG,
            workers=2,
            shm=True,
            use_processes=True,
        )
        _assert_tables_identical(result.events, _REF_EVENTS)
        _assert_detections_identical(result.detections, _REF_DETECTIONS)

    def test_segment_cleaned_after_worker_abort(self):
        """A hard worker abort (BrokenProcessPool + pool respawn) still
        ends with the parent unlinking its segment."""
        import repro.io.shm as shm_module

        created = []
        original = shm_module.share_shard_batches

        def recording(shards, label="detect"):
            handles, lease = original(shards, label)
            created.append(handles[0].segment if handles else lease.name)
            return handles, lease

        shm_module.share_shard_batches = recording
        # parallel.py binds the name at import time; patch both.
        import repro.parallel as parallel_module

        parallel_module.share_shard_batches = recording
        try:
            result = parallel_detect(
                _chunks(),
                600.0,
                _DARK_SIZE,
                _CONFIG,
                workers=2,
                shm=True,
                use_processes=True,
                fault_plan=FaultPlan(abort={1: 1}),
                retry=RetryPolicy(max_retries=2, backoff_seconds=0.0),
            )
        finally:
            shm_module.share_shard_batches = original
            parallel_module.share_shard_batches = original
        _assert_tables_identical(result.events, _REF_EVENTS)
        assert created and all(_segment_gone(name) for name in created)
