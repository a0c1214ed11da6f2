"""Performance benchmarks for the pipeline's hot paths.

Unlike the table/figure benchmarks (single-round regenerators), these
measure steady-state throughput of the core kernels with repeated
rounds: the darknet event builder, AH detection, prefix lookups and
scanner emission.  They guard against quadratic regressions — a real
telescope day at ORION scale is ~1.5B packets, so the event builder's
throughput is the reproduction's scalability ceiling.
"""

import numpy as np
import pytest

from repro.config import DetectionConfig
from repro.core.detection import detect_all
from repro.core.events import build_events
from repro.net.internet import InternetConfig, build_internet
from repro.packet import PacketBatch, Protocol
from repro.scanners.base import Scanner, ScanMode, ScanSession, View
from repro.fingerprint import Tool
from repro.net.prefix import Prefix, PrefixSet


def synthetic_capture(n_packets=500_000, n_sources=2_000, seed=3):
    """A darknet-like capture: many small flows plus heavy scanners."""
    rng = np.random.default_rng(seed)
    src = rng.integers(1, n_sources, n_packets, dtype=np.int64).astype(np.uint32)
    return PacketBatch(
        ts=np.sort(rng.random(n_packets) * 86_400.0),
        src=src,
        dst=rng.integers(0, 8_192, n_packets, dtype=np.int64).astype(np.uint32),
        dport=rng.choice(
            np.array([23, 80, 443, 6_379, 22], dtype=np.uint16), n_packets
        ),
        proto=np.full(n_packets, Protocol.TCP_SYN.value, dtype=np.uint8),
        ipid=rng.integers(0, 65_536, n_packets, dtype=np.int64).astype(np.uint16),
    )


@pytest.fixture(scope="module")
def capture():
    return synthetic_capture()


@pytest.fixture(scope="module")
def events(capture):
    return build_events(capture, timeout=600.0)


def test_perf_event_builder(benchmark, capture):
    """Throughput of the darknet event builder (packets -> events)."""
    events = benchmark(build_events, capture, 600.0)
    assert int(events.packets.sum()) == len(capture)
    if benchmark.stats is not None:  # absent under --benchmark-disable
        # Checked floor: more than 200k packets/second.
        per_second = len(capture) / benchmark.stats.stats.mean
        assert per_second > 200_000


def test_perf_streaming(benchmark, capture):
    """Throughput of the incremental builder over hourly chunks.

    Drives the same capture as ``test_perf_event_builder`` through the
    streaming path (24 epoch-aligned hourly chunks with open flows
    carried across every boundary) — the chunked group-by must stay
    within a small factor of the batch builder, not collapse to
    per-packet Python speed.
    """
    from repro.core.streaming import StreamingEventBuilder

    chunks = [c for _, _, c in capture.iter_time_chunks(3_600.0)]
    assert len(chunks) == 24

    def stream():
        builder = StreamingEventBuilder(600.0)
        for chunk in chunks:
            builder.add_batch(chunk)
        return builder.finish()

    events = benchmark(stream)
    assert int(events.packets.sum()) == len(capture)
    if benchmark.stats is not None:  # absent under --benchmark-disable
        # Streaming floor: > 200k packets/second end to end.
        per_second = len(capture) / benchmark.stats.stats.mean
        assert per_second > 200_000


def test_perf_detection(benchmark, events):
    """All three definitions over a pre-built event table."""
    results = benchmark(
        detect_all, events, 8_192, DetectionConfig(alpha=1e-3), 86_400.0
    )
    assert set(results) == {1, 2, 3}


def test_perf_prefix_lookup(benchmark):
    """Vectorized AS lookups over a large address sample."""
    internet = build_internet(InternetConfig(seed=1))
    rng = np.random.default_rng(0)
    addresses = rng.integers(0, 2**32, 1_000_000, dtype=np.int64).astype(np.uint32)

    idx = benchmark(internet.registry.lookup_index, addresses)
    assert len(idx) == len(addresses)


def test_perf_scanner_emission(benchmark):
    """Coverage-scan emission into a /16 view."""
    view = View(name="perf", prefixes=PrefixSet([Prefix.parse("10.0.0.0/16")]))
    session = ScanSession(
        start=0.0,
        duration=3_600.0,
        ports=np.array([6_379], dtype=np.uint16),
        proto=Protocol.TCP_SYN,
        tool=Tool.MASSCAN,
        mode=ScanMode.COVERAGE,
        coverage=0.8,
    )
    scanner = Scanner(src=1, behavior="perf", sessions=[session], seed=1)

    batch = benchmark(scanner.emit, view)
    assert len(batch) > 0.7 * view.size


def test_perf_sorted_merge(benchmark, capture):
    """Time-sorting a large unsorted batch (the capture path)."""
    rng = np.random.default_rng(5)
    shuffled = capture.select(rng.permutation(len(capture)))

    out = benchmark(shuffled.sorted_by_time)
    assert np.all(np.diff(out.ts) >= 0)
