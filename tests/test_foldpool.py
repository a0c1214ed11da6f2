"""Tests for the serve fold pool (repro.serve.foldpool).

Covers pooled-vs-local result identity (the acceptance bar for the
off-loop fold path), micro-batch coalescing through
``ingest_payloads``, snapshot/restore round-trips while pooled, and
the worker-death failure mode (state-desync detection + heal from
snapshot).
"""

import os
import signal

import numpy as np
import pytest

from repro.config import DetectionConfig
from repro.core.engine import DetectionEngine, gate_time_order
from repro.core.faults import CheckpointStore
from repro.core.telemetry import PipelineTelemetry
from repro.io.packetlog import packets_to_npz_bytes
from repro.packet import PacketBatch, Protocol
from repro.parallel import shard_of
from repro.serve.foldpool import FoldPool, FoldPoolError
from repro.serve.tenants import Tenant, TenantConfig
from tests.test_streaming import _assert_detections_identical

TCP = Protocol.TCP_SYN.value
RST = Protocol.TCP_RST.value

_DARK_SIZE = 64
_CONFIG = DetectionConfig(
    alpha=0.05, min_packet_threshold=2, min_port_threshold=1
)
_TIMEOUT = 600.0


def _capture(seed, n=5_000, duration=120_000.0):
    rng = np.random.default_rng(seed)
    return PacketBatch(
        ts=np.sort(rng.random(n) * duration),
        src=rng.integers(1, 100, n).astype(np.uint32),
        dst=rng.integers(0, _DARK_SIZE, n).astype(np.uint32),
        dport=rng.choice(np.array([22, 80, 443], dtype=np.uint16), n),
        proto=np.full(n, TCP, dtype=np.uint8),
        ipid=np.zeros(n, dtype=np.uint16),
    )


def _engine(**kwargs):
    return DetectionEngine(
        _TIMEOUT, _DARK_SIZE, _CONFIG, 86_400.0, **kwargs
    )


def _chunks(batch, n_chunks):
    edges = np.linspace(0, len(batch), n_chunks + 1).astype(int)
    return [
        batch.select(slice(int(a), int(b)))
        for a, b in zip(edges[:-1], edges[1:])
        if b > a
    ]


def _blobs(batch, n_chunks):
    return [packets_to_npz_bytes(c) for c in _chunks(batch, n_chunks)]


@pytest.fixture(scope="module")
def pool():
    with FoldPool(2) as p:
        yield p


class TestGate:
    def test_passes_ordered_drops_stale(self):
        batch = _capture(1)
        chunks = _chunks(batch, 4)
        errors = []
        kept = gate_time_order(chunks, None, errors)
        assert kept == chunks and not errors
        # Replaying an early chunk after a later one is rejected.
        errors = []
        kept = gate_time_order(
            [chunks[2], chunks[0], chunks[3]], None, errors
        )
        assert kept == [chunks[2], chunks[3]]
        assert len(errors) == 1 and "out of order" in errors[0]

    def test_respects_prior_watermark_and_skips_empty(self):
        batch = _capture(2)
        empty = batch.select(slice(0, 0))
        errors = []
        kept = gate_time_order(
            [empty, batch], float(batch.ts.max()) + 1.0, errors
        )
        assert kept == [] and len(errors) == 1

    def test_drops_non_finite_timestamps(self):
        chunks = _chunks(_capture(3), 3)
        ts = chunks[1].ts.copy()
        ts[-1] = np.nan
        poisoned = PacketBatch(
            ts=ts,
            src=chunks[1].src,
            dst=chunks[1].dst,
            dport=chunks[1].dport,
            proto=chunks[1].proto,
            ipid=chunks[1].ipid,
        )
        errors = []
        kept = gate_time_order(
            [chunks[0], poisoned, chunks[2]], None, errors
        )
        assert kept == [chunks[0], chunks[2]]
        assert len(errors) == 1 and "non-finite" in errors[0]
        # The dropped chunk leaves the gate's watermark alone, so a
        # stale chunk after it is still caught.
        errors = []
        kept = gate_time_order([chunks[2], poisoned, chunks[0]], None, errors)
        assert kept == [chunks[2]]
        assert len(errors) == 2


class TestPooledParity:
    @pytest.mark.parametrize("workers", [1, 2, 3])
    @pytest.mark.parametrize("coalesce", [1, 3, 7])
    def test_pooled_coalesced_matches_serial_local(
        self, pool, workers, coalesce
    ):
        batch = _capture(7)
        blobs = _blobs(batch, 12)

        serial = _engine(workers=workers)
        for blob in blobs:
            serial.ingest_payloads([blob])
        expected = serial.query()

        pooled = _engine(workers=workers)
        pooled.attach_pool(pool, f"t-{workers}-{coalesce}")
        for start in range(0, len(blobs), coalesce):
            pooled.ingest_payloads(blobs[start:start + coalesce])
        got = pooled.query()

        assert got.packets == expected.packets == len(batch)
        assert got.events == expected.events
        assert got.chunks == expected.chunks == len(blobs)
        for definition in (1, 2, 3):
            assert got.ah_sources(definition) == expected.ah_sources(
                definition
            )
        pooled.detach_pool()

    @pytest.mark.parametrize("workers", [1, 2])
    def test_attach_with_existing_state_then_finish(self, pool, workers):
        batch = _capture(8)
        chunks = _chunks(batch, 6)

        reference = _engine(workers=workers)
        for chunk in chunks:
            reference.ingest(chunk)
        expected_events, expected_det = reference.finish()

        hybrid = _engine(workers=workers)
        for chunk in chunks[:3]:
            hybrid.ingest(chunk)
        hybrid.attach_pool(pool, f"hybrid-{workers}")
        assert hybrid.pooled
        for chunk in chunks[3:]:
            hybrid.ingest(chunk)
        # finish() detaches and merges — identical to the local run.
        events, detections = hybrid.finish()
        assert not hybrid.pooled
        assert len(events) == len(expected_events)
        for definition in (1, 2, 3):
            assert (
                detections[definition].sources
                == expected_det[definition].sources
            )

    def test_snapshot_restore_while_pooled(self, pool, tmp_path):
        batch = _capture(9)
        blobs = _blobs(batch, 8)
        engine = _engine(workers=2)
        engine.attach_pool(pool, "snap")
        engine.ingest_payloads(blobs[:4])
        snapshot = engine.snapshot()
        engine.detach_pool()

        resumed = DetectionEngine.restore(snapshot)
        resumed.attach_pool(pool, "snap-resume")
        resumed.ingest_payloads(blobs[4:])
        got = resumed.query()
        resumed.detach_pool()

        serial = _engine(workers=2)
        for blob in blobs:
            serial.ingest_payloads([blob])
        expected = serial.query()
        assert got.packets == expected.packets
        for definition in (1, 2, 3):
            assert got.ah_sources(definition) == expected.ah_sources(
                definition
            )

    def test_bad_blob_isolated_in_coalesced_fold(self, pool):
        batch = _capture(10)
        blobs = _blobs(batch, 4)
        engine = _engine()
        engine.attach_pool(pool, "badblob")
        report = engine.ingest_payloads(
            blobs[:2] + [b"garbage, not an npz"] + blobs[2:]
        )
        assert report.chunks == len(blobs)
        assert len(report.errors) == 1
        assert report.packets == len(batch)
        engine.detach_pool()

    def test_abandon_pool_clears_worker_state(self, pool):
        engine = _engine()
        engine.attach_pool(pool, "gone")
        engine.ingest_payloads(_blobs(_capture(11), 2))
        assert engine.packets_seen > 0
        engine.abandon_pool()
        assert not engine.pooled
        assert pool.collect(("gone", 0)) is None


def _source_in_shard(shard, n_shards=3):
    """The smallest source address that hashes to ``shard``."""
    candidates = np.arange(200, 400, dtype=np.uint32)
    return int(candidates[shard_of(candidates, n_shards) == shard][0])


def _packets(rows):
    """A batch from ``(ts, src, proto)`` rows (dport 80, dst 1)."""
    ts, src, proto = (np.array(column) for column in zip(*rows))
    n = len(rows)
    return PacketBatch(
        ts=ts.astype(np.float64),
        src=src.astype(np.uint32),
        dst=np.ones(n, dtype=np.uint32),
        dport=np.full(n, 80, dtype=np.uint16),
        proto=proto.astype(np.uint8),
        ipid=np.zeros(n, dtype=np.uint16),
    )


@pytest.fixture(scope="module")
def single_pool():
    with FoldPool(1) as p:
        yield p


class TestWholeChunkRefusal:
    """``ingest()`` refuses a stale chunk whole, in every fold mode.

    The head chunk ends with a packet from a shard-1 source, so shard 1
    holds the engine watermark while shard 0's own watermark is older.
    Each bad chunk has a packet that precedes the engine watermark plus
    a later shard-0 packet that shard 0 alone would accept.
    """

    @pytest.fixture(params=["local-1", "local-3", "pool-1", "pool-3"])
    def make_engine(self, request, single_pool):
        mode, workers = request.param.split("-")

        def make(key):
            engine = _engine(
                workers=int(workers), telemetry=PipelineTelemetry()
            )
            if mode == "pool":
                engine.attach_pool(single_pool, f"{request.param}-{key}")
            return engine

        return make

    @staticmethod
    def _stream():
        head = _capture(20, n=2_000, duration=50_000.0)
        mark = float(head.ts.max()) + 1.0
        head = PacketBatch.concat(
            [head, _packets([(mark, _source_in_shard(1), TCP)])]
        )
        tail = _capture(21, n=2_000, duration=50_000.0)
        tail.ts = tail.ts + mark + 10.0
        return head, mark, tail

    @staticmethod
    def _gauges(engine):
        return (
            engine.packets_seen,
            engine.chunks_ingested,
            engine.events_finalized,
            engine.open_flows,
            engine.peak_open_flows,
            engine.watermark,
            engine.telemetry.chunks,
        )

    @pytest.mark.parametrize("early_proto", [TCP, RST], ids=["syn", "rst"])
    def test_stale_chunk_refused_whole(self, make_engine, early_proto):
        head, mark, tail = self._stream()
        bad = _packets(
            [
                (mark - 0.5, _source_in_shard(1), early_proto),
                (mark + 1.0, _source_in_shard(0), TCP),
            ]
        )
        engine = make_engine("fed")
        twin = make_engine("twin")
        engine.ingest(head)
        twin.ingest(head)
        before = self._gauges(engine)

        with pytest.raises(ValueError, match="out.of.order"):
            engine.ingest(bad)
        assert self._gauges(engine) == before == self._gauges(twin)

        engine.ingest(tail)
        twin.ingest(tail)
        events, detections = engine.finish()
        expected_events, expected = twin.finish()
        assert len(events) == len(expected_events)
        assert engine.telemetry.chunks == twin.telemetry.chunks == 2
        _assert_detections_identical(detections, expected)


class TestWorkerDeath:
    def test_dead_worker_raises_and_tenant_heals(self, tmp_path):
        config = TenantConfig(
            timeout=_TIMEOUT,
            dark_size=_DARK_SIZE,
            detection=_CONFIG,
            snapshot_every_chunks=None,
        )
        batch = _capture(12)
        blobs = _blobs(batch, 6)
        with FoldPool(1) as pool:
            from repro.core.telemetry import PipelineTelemetry

            telemetry = PipelineTelemetry()
            store = CheckpointStore(
                tmp_path / "ckpt", health=telemetry.health
            )
            engine = _engine(store=store)
            tenant = Tenant(
                tenant_id="t",
                config=config,
                engine=engine,
                telemetry=telemetry,
                store=store,
            )
            tenant.attach_pool(pool)
            tenant.ingest_payloads(blobs[:3])
            tenant.save_snapshot()
            tenant.ingest_payloads([blobs[3]])  # unsnapshotted progress

            os.kill(pool._workers[0].process.pid, signal.SIGKILL)
            with pytest.raises(FoldPoolError):
                tenant.ingest_payloads([blobs[4]])

            # The server's heal path: rebuild from the last persisted
            # snapshot and re-attach; the stream resumes from chunk 3.
            tenant.restore_from_store()
            assert tenant.recycles == 1
            assert tenant.engine.pooled
            report = tenant.engine.ingest_payloads(blobs[3:])
            assert report.chunks == 3

            serial = _engine()
            for blob in blobs:
                serial.ingest_payloads([blob])
            expected = serial.query()
            got = tenant.engine.query()
            assert got.packets == expected.packets
            for definition in (1, 2, 3):
                assert got.ah_sources(definition) == expected.ah_sources(
                    definition
                )
            tenant.detach_pool()

    def test_respawned_worker_detects_state_desync(self):
        with FoldPool(1) as pool:
            engine = _engine()
            engine.attach_pool(pool, "desync")
            engine.ingest_payloads(_blobs(_capture(13), 2))
            os.kill(pool._workers[0].process.pid, signal.SIGKILL)
            # First call hits the dead pipe...
            with pytest.raises(FoldPoolError):
                engine.ingest_payloads(_blobs(_capture(13), 2))
            # ...and the respawned (empty) worker must refuse to fold
            # as if nothing happened rather than restart from zero.
            with pytest.raises(FoldPoolError, match="no state|out of sync"):
                engine.ingest_payloads(_blobs(_capture(14), 2))
