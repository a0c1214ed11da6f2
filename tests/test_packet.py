"""Unit tests for PacketBatch."""

import numpy as np
import pytest

from repro.packet import PacketBatch, Protocol, merge_sorted


def make_batch(n=5, proto=Protocol.TCP_SYN, seed=0):
    rng = np.random.default_rng(seed)
    return PacketBatch(
        ts=rng.random(n) * 100,
        src=rng.integers(0, 2**32, n, dtype=np.int64).astype(np.uint32),
        dst=rng.integers(0, 2**32, n, dtype=np.int64).astype(np.uint32),
        dport=rng.integers(0, 65536, n, dtype=np.int64).astype(np.uint16),
        proto=np.full(n, proto.value, dtype=np.uint8),
        ipid=rng.integers(0, 65536, n, dtype=np.int64).astype(np.uint16),
    )


class TestConstruction:
    def test_empty(self):
        batch = PacketBatch.empty()
        assert len(batch) == 0
        assert batch.ts.dtype == np.float64

    def test_mismatched_lengths_rejected(self):
        good = make_batch(3)
        with pytest.raises(ValueError):
            PacketBatch(
                ts=good.ts,
                src=good.src[:2],
                dst=good.dst,
                dport=good.dport,
                proto=good.proto,
                ipid=good.ipid,
            )

    def test_dtype_coercion(self):
        batch = PacketBatch(
            ts=[1.0, 2.0],
            src=[1, 2],
            dst=[3, 4],
            dport=[80, 443],
            proto=[6, 17],
            ipid=[0, 1],
        )
        assert batch.src.dtype == np.uint32
        assert batch.dport.dtype == np.uint16

    @pytest.mark.parametrize(
        "column, values",
        [
            ("src", np.array([-1.0, 5.0])),
            ("dport", np.array([70_000, 23], dtype=np.int64)),
            ("dst", np.array([np.nan, 3.0])),
            ("dport", np.array([80.5, 23.0])),
            ("proto", np.array([-6, 17], dtype=np.int64)),
        ],
    )
    def test_lossy_cast_rejected(self, column, values):
        # A cast would wrap these silently: src -1.0 -> 4294967295,
        # dport 70000 -> 4464.
        columns = {
            name: getattr(make_batch(2), name)
            for name in ("ts", "src", "dst", "dport", "proto", "ipid")
        }
        columns[column] = values
        with pytest.raises(ValueError, match=repr(column)):
            PacketBatch(**columns)

    def test_lossless_cast_accepted(self):
        batch = PacketBatch(
            ts=np.array([1, 2], dtype=np.int64),
            src=np.array([4294967295.0, 0.0]),
            dst=np.array([3, 4], dtype=np.int64),
            dport=np.array([65535, 0], dtype=np.int32),
            proto=np.array([6, 17], dtype=np.int16),
            ipid=np.array([0, 1], dtype=np.uint8),
        )
        assert batch.src.tolist() == [4294967295, 0]
        assert batch.dport.dtype == np.uint16
        assert batch.ts.dtype == np.float64

    def test_nan_survives_a_float_widening(self):
        columns = {
            name: getattr(make_batch(2), name)
            for name in ("ts", "src", "dst", "dport", "proto", "ipid")
        }
        columns["ts"] = np.array([np.nan, 1.0], dtype=np.float32)
        batch = PacketBatch(**columns)
        assert np.isnan(batch.ts[0]) and batch.ts.dtype == np.float64


class TestConcatSelect:
    def test_concat_preserves_total(self):
        a, b = make_batch(4, seed=1), make_batch(6, seed=2)
        merged = PacketBatch.concat([a, b])
        assert len(merged) == 10
        assert np.array_equal(merged.src[:4], a.src)

    def test_concat_skips_empty(self):
        a = make_batch(3)
        merged = PacketBatch.concat([PacketBatch.empty(), a, PacketBatch.empty()])
        assert len(merged) == 3

    def test_concat_nothing(self):
        assert len(PacketBatch.concat([])) == 0

    def test_select_mask(self):
        batch = make_batch(10)
        mask = batch.ts > np.median(batch.ts)
        out = batch.select(mask)
        assert len(out) == int(mask.sum())

    def test_sorted_by_time(self):
        batch = make_batch(50)
        out = batch.sorted_by_time()
        assert np.all(np.diff(out.ts) >= 0)
        assert len(out) == 50

    def test_time_slice(self):
        batch = make_batch(100)
        out = batch.time_slice(20.0, 60.0)
        assert np.all((out.ts >= 20.0) & (out.ts < 60.0))

    def test_merge_sorted(self):
        merged = merge_sorted([make_batch(5, seed=1), make_batch(5, seed=2)])
        assert np.all(np.diff(merged.ts) >= 0)


class TestAnalysisHelpers:
    def test_unique_sources(self):
        batch = make_batch(20)
        batch.src[:] = 7
        assert batch.unique_sources().tolist() == [7]

    def test_protocol_counts(self):
        tcp = make_batch(4, Protocol.TCP_SYN, seed=3)
        udp = make_batch(6, Protocol.UDP, seed=4)
        counts = PacketBatch.concat([tcp, udp]).protocol_counts()
        assert counts[Protocol.TCP_SYN] == 4
        assert counts[Protocol.UDP] == 6
        assert counts[Protocol.ICMP_ECHO] == 0

    def test_validate_invariants_catches_bad_proto(self):
        batch = make_batch(3)
        batch.proto[0] = 99
        with pytest.raises(ValueError):
            batch.validate_invariants()

    def test_validate_invariants_catches_icmp_port(self):
        batch = make_batch(3, Protocol.ICMP_ECHO)
        batch.dport[:] = 0
        batch.validate_invariants()
        batch.dport[1] = 80
        with pytest.raises(ValueError):
            batch.validate_invariants()

    def test_protocol_labels(self):
        assert Protocol.TCP_SYN.label() == "TCP-SYN"
        assert Protocol.UDP.label() == "UDP"
        assert Protocol.ICMP_ECHO.label() == "ICMP Ech Rqst"
