"""Tests for lazy, windowed emission (`Scanner.emit_window`,
`PopulationEmitter`, `LazyCaptureSource`).

The load-bearing invariant: windowed emission is an *exact slice* of
one deterministic realization, so concatenating window batches over any
partition reproduces the materialized path bit-identically — addresses,
ports, timestamps and fingerprints.  Everything downstream (streaming
equivalence, shard-parallel equivalence) rests on it.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.fingerprint import Tool
from repro.net.prefix import PrefixSet
from repro.packet import PacketBatch, Protocol
from repro.scanners.background import SpoofedScan
from repro.scanners.base import (
    ScanMode,
    Scanner,
    ScanSession,
    View,
    emit_population,
)
from repro.scanners.lazy import (
    PopulationEmitter,
    _assemble_block,
    _FallbackCursor,
    _span_draws,
)
from repro.telescope.chunks import ChunkedCaptureSource, LazyCaptureSource

_COLUMNS = ("ts", "src", "dst", "dport", "proto", "ipid")

_SPAN = 40_000.0


def _view(name="darknet"):
    return View(name, PrefixSet.parse(["10.0.0.0/20"]))


def _assert_batches_identical(a: PacketBatch, b: PacketBatch):
    for column in _COLUMNS:
        assert np.array_equal(getattr(a, column), getattr(b, column)), column


def _session(mode: ScanMode, start: float, duration: float) -> ScanSession:
    if mode is ScanMode.COVERAGE:
        return ScanSession(
            start=start,
            duration=duration,
            ports=np.array([23, 2323]),
            proto=Protocol.TCP_SYN,
            tool=Tool.MASSCAN,
            mode=mode,
            coverage=0.7,
        )
    if mode is ScanMode.RATE:
        return ScanSession(
            start=start,
            duration=duration,
            ports=np.array([23]),
            proto=Protocol.TCP_SYN,
            tool=Tool.OTHER,
            mode=mode,
            # High enough that long sessions split into many RNG spans.
            rate_pps=3e6,
        )
    return ScanSession(
        start=start,
        duration=duration,
        ports=np.arange(1, 40, dtype=np.uint16),
        proto=Protocol.TCP_SYN,
        tool=Tool.ZMAP,
        mode=mode,
        n_targets=2_000_000,
    )


def _scanner(mode: ScanMode, start: float, duration: float) -> Scanner:
    return Scanner(
        src=0x0B000001,
        behavior="test",
        sessions=[_session(mode, start, duration)],
        seed=99,
    )


# ----------------------------------------------------------------------
# Tentpole property: for every ScanMode and ANY partition of the time
# axis, concatenating emit_window over the parts equals the full
# emission exactly — every column, every packet, in order.
# ----------------------------------------------------------------------

partitions = st.lists(
    st.floats(min_value=0.0, max_value=_SPAN, allow_nan=False),
    min_size=0,
    max_size=8,
)


@given(
    st.sampled_from(list(ScanMode)),
    partitions,
    st.floats(min_value=100.0, max_value=_SPAN * 0.9, allow_nan=False),
    st.floats(min_value=1_000.0, max_value=_SPAN, allow_nan=False),
)
@settings(max_examples=40, deadline=None)
def test_emit_window_partition_equals_full_emit(
    mode, cuts, start, duration
):
    scanner = _scanner(mode, start, duration)
    view = _view()
    full = scanner.emit(view).sorted_by_time()

    # The last edge must cover every session end (start + duration can
    # reach 1.9 * _SPAN).
    edges = sorted({0.0, _SPAN * 2.0, *cuts})
    parts = [
        scanner.emit_window(view, lo, hi)
        for lo, hi in zip(edges[:-1], edges[1:])
    ]
    _assert_batches_identical(PacketBatch.concat(parts), full)


def test_emit_window_is_deterministic():
    scanner = _scanner(ScanMode.RATE, 0.0, _SPAN)
    view = _view()
    a = scanner.emit_window(view, 5_000.0, 15_000.0)
    b = scanner.emit_window(view, 5_000.0, 15_000.0)
    assert len(a) > 0
    _assert_batches_identical(a, b)


def test_windowed_emit_slices_are_exact():
    """emit(view, window) returns the full realization's packets with
    ts inside the window — not a fresh realization."""
    scanner = _scanner(ScanMode.COVERAGE, 1_000.0, 30_000.0)
    view = _view()
    full = scanner.emit(view).sorted_by_time()
    lo, hi = 8_000.0, 17_500.0
    window = scanner.emit(view, window=(lo, hi)).sorted_by_time()
    mask = (full.ts >= lo) & (full.ts < hi)
    _assert_batches_identical(window, full.select(mask))


def test_rate_sessions_split_into_bounded_spans():
    """A long, fast RATE session generates on a multi-span grid, so a
    window never materializes more than ~one span of it."""
    scanner = _scanner(ScanMode.RATE, 0.0, _SPAN)
    session = scanner.sessions[0]
    _, _, _, spans = scanner._session_plan(session, _view().ranges())
    assert len(spans) > 1
    assert spans[0][0] == session.start
    assert spans[-1][1] == session.end
    # Spans tile the session exactly.
    for (_, prev_end), (next_start, _) in zip(spans[:-1], spans[1:]):
        assert prev_end == next_start


# ----------------------------------------------------------------------
# PopulationEmitter / LazyCaptureSource: the streamed chunk sequence is
# bit-identical to chunking the materialized capture.
# ----------------------------------------------------------------------


def _population():
    scanners = [
        _scanner(ScanMode.COVERAGE, 2_000.0, 9_000.0),
        Scanner(
            src=0x0C000002,
            behavior="test-rate",
            sessions=[
                _session(ScanMode.RATE, 0.0, _SPAN),
                _session(ScanMode.COVERAGE, 30_000.0, 5_000.0),
            ],
            seed=7,
        ),
        SpoofedScan(
            start=4_000.0,
            duration=6_000.0,
            coverage=0.5,
            dport=445,
            spoof_ranges=np.array([[0x10000000, 0x20000000]], dtype=np.int64),
            seed=31,
        ),
        _scanner(ScanMode.VERTICAL, 12_000.0, 20_000.0),
    ]
    return scanners


@pytest.mark.parametrize("chunk_seconds", [1_800.0, 3_600.0, 7_200.0])
def test_lazy_source_matches_from_capture(chunk_seconds):
    scanners = _population()
    view = _view()
    window = (0.0, _SPAN * 1.2)
    materialized = emit_population(scanners, view, window)
    ref = list(
        ChunkedCaptureSource.from_capture(materialized, chunk_seconds)
    )
    lazy = list(
        LazyCaptureSource.from_population(
            scanners, view, chunk_seconds, window=window
        )
    )
    assert len(ref) == len(lazy) > 1
    for r, l in zip(ref, lazy):
        assert (r.index, r.start, r.end) == (l.index, l.start, l.end)
        _assert_batches_identical(r.packets, l.packets)


def test_emitter_respects_overall_window():
    scanners = _population()
    view = _view()
    window = (6_000.0, 20_000.0)
    total = PacketBatch.concat(
        [batch for _, _, batch in PopulationEmitter(scanners, view, 3_600.0, window=window)]
    )
    assert len(total) > 0
    assert float(total.ts.min()) >= window[0]
    assert float(total.ts.max()) < window[1]
    expected = emit_population(scanners, view, window)
    _assert_batches_identical(total, expected)


def test_emitter_empty_population():
    emitter = PopulationEmitter([], _view(), 3_600.0)
    assert list(emitter) == []
    assert emitter.span() is None
    assert emitter.spans_derived == 0
    assert emitter.spans_emitted == 0


def test_span_counters_split_derived_from_emitted():
    # The population mixes session-backed cursors (batched derivation)
    # with a fallback cursor (SpoofedScan) — both must count.
    scanners = _population()
    source = LazyCaptureSource.from_population(
        scanners, _view(), 3_600.0, window=(0.0, _SPAN * 1.2)
    )
    assert source.spans_derived == 0  # nothing admitted before draining
    total = sum(len(chunk) for chunk in source)
    assert total > 0
    assert source.spans_derived >= source.spans_emitted > 0
    # One derivation unit per keyed span plus one per fallback emit:
    # at least a span per session of each session-backed scanner.
    sessions = sum(len(getattr(s, "sessions", []) or []) for s in scanners)
    assert source.spans_derived >= sessions


def test_finished_cursors_release_their_generation_state():
    # Every scanner here ends inside the window.  While sweeping, the
    # emitter may keep only what a later window still needs: scheduled
    # spans (each carrying its session plan and RNG words) start at or
    # after the window's end, every live block still has rows to serve,
    # and every live fallback cursor ends after the window.  After
    # draining it holds no block, no scheduled span (so no plan and no
    # RNG words) and no fallback emission.
    emitter = PopulationEmitter(
        _population(), _view(), 3_600.0, window=(0.0, _SPAN * 1.2)
    )
    total = 0
    for _, w1, batch in emitter:
        total += len(batch)
        assert all(span[0] >= w1 for span in emitter._scheduled)
        assert all(block.pos < len(block.span) for block in emitter._blocks)
        assert all(cursor.end > w1 for _, cursor in emitter._fallbacks)
    assert total > 0
    assert emitter._scheduled == []
    assert emitter._blocks == []
    assert emitter._fallbacks == []
    fallbacks = [
        item for *_, item in emitter._pending
        if isinstance(item, _FallbackCursor)
    ]
    assert fallbacks
    assert all(len(cursor._batch) == 0 for cursor in fallbacks)
    assert emitter.spans_derived >= emitter.spans_emitted > 0


def test_emitter_rejects_bad_chunk_seconds():
    with pytest.raises(ValueError, match="chunk_seconds"):
        PopulationEmitter(_population(), _view(), 0.0)


# ----------------------------------------------------------------------
# Equal-timestamp ties and span/window edges: every emitter window is
# exactly the materialized capture's slice, ties broken in population
# order.
# ----------------------------------------------------------------------

_HOUR = 3_600.0


class _Mirror:
    """A session-less emitter replaying another scanner's packets under
    its own source, so its rows tie exactly with that scanner's."""

    def __init__(self, scanner: Scanner, src: int):
        self.scanner = scanner
        self.src = src
        self.start = scanner.first_activity()
        self.duration = scanner.last_activity() - self.start

    def emit(self, view, window=None):
        batch = self.scanner.emit(view, window)
        return PacketBatch(
            batch.ts, np.full(len(batch), self.src, dtype=np.uint32),
            batch.dst, batch.dport, batch.proto, batch.ipid,
        )


_TIE_ORDER = {0x0B00000F: 0, 0x0B0000AA: 1, 0x0B0000BB: 3}


def _tie_population():
    """Three-way exact ties; the rest covers edges and session shapes.

    The twins share a seed and sessions 1-2 (so those streams, and their
    timestamps, are identical) but sit at positions 1 and 3 with
    different sources, and the later twin starts — and is admitted —
    first: a tie-break by admission instead of population order shows.
    The mirror at position 0 replays the first twin through the
    fallback path, so its rows tie with a generated block's rows in
    every window's merge.  Session 2 is a four-span RATE session whose
    span edges fall exactly on hour edges.
    """
    shared = [
        _session(ScanMode.COVERAGE, 2.5 * _HOUR, 2_000.0),
        ScanSession(
            start=4 * _HOUR,
            duration=4 * _HOUR,
            ports=np.array([23]),
            proto=Protocol.TCP_SYN,
            tool=Tool.OTHER,
            mode=ScanMode.RATE,
            rate_pps=2.2e6,
        ),
    ]
    twin_a = Scanner(
        src=0x0B0000AA,
        behavior="twin",
        sessions=[_session(ScanMode.RATE, 1.2 * _HOUR, 600.0), *shared],
        seed=11,
    )
    twin_b = Scanner(
        src=0x0B0000BB,
        behavior="twin",
        sessions=[_session(ScanMode.RATE, 0.2 * _HOUR, 600.0), *shared],
        seed=11,
    )
    multi = Scanner(
        src=0x0C000003,
        behavior="multi",
        sessions=[
            ScanSession(
                start=1_000.0,
                duration=9 * _HOUR,
                ports=np.array([80, 8080, 443]),
                proto=Protocol.TCP_SYN,
                tool=Tool.OTHER,
                mode=ScanMode.RATE,
                rate_pps=2e5,
                port_weights=np.array([3.0, 1.0, 1.0]),
            ),
            ScanSession(
                start=3 * _HOUR,
                duration=2 * _HOUR,
                ports=np.array([0]),
                proto=Protocol.ICMP_ECHO,
                tool=Tool.MASSCAN,
                mode=ScanMode.COVERAGE,
                coverage=0.4,
                probes_per_target=2,
                # Half of it lies outside the view: a second target table.
                target_ranges=np.array(
                    [[0x0A000800, 0x0A001800]], dtype=np.int64
                ),
            ),
            _session(ScanMode.VERTICAL, 6 * _HOUR, 5_000.0),
        ],
        seed=23,
    )
    spoofed = SpoofedScan(
        start=1.5 * _HOUR,
        duration=3 * _HOUR,
        coverage=0.5,
        dport=445,
        spoof_ranges=np.array([[0x10000000, 0x20000000]], dtype=np.int64),
        seed=31,
    )
    return [_Mirror(twin_a, 0x0B00000F), twin_a, multi, twin_b, spoofed]


def test_tie_population_really_ties_across_scanners():
    capture = emit_population(_tie_population(), _view())
    ts = capture.ts
    tied = np.flatnonzero(ts[1:] == ts[:-1])
    assert len(tied) > 100
    # ... between mirror and twins only, in population order.
    order = np.array([_TIE_ORDER[int(src)] for src in capture.src[tied]])
    after = np.array(
        [_TIE_ORDER[int(src)] for src in capture.src[tied + 1]]
    )
    assert np.all(order < after)
    assert set(order) == {0, 1}


@given(
    st.sampled_from([900.0, 1_800.0, 3_600.0, 7_200.0]),
    st.one_of(
        st.none(),
        st.tuples(
            st.floats(min_value=0.0, max_value=6 * _HOUR),
            st.floats(min_value=_HOUR, max_value=12 * _HOUR),
        ),
    ),
)
@settings(max_examples=25, deadline=None)
def test_emitter_windows_equal_chunked_emit_population(chunk_seconds, clip):
    scanners = _tie_population()
    view = _view()
    window = None if clip is None else (clip[0], clip[0] + clip[1])
    materialized = emit_population(scanners, view, window)
    served = 0
    previous_end = None
    for w0, w1, batch in PopulationEmitter(
        scanners, view, chunk_seconds, window=window
    ):
        assert w0 % chunk_seconds == 0
        assert previous_end is None or w0 == previous_end
        previous_end = w1
        _assert_batches_identical(batch, materialized.time_slice(w0, w1))
        served += len(batch)
    assert served == len(materialized) > 0


class _RoundUpRng:
    """Stub generator: a RATE span of two packets whose timestamp
    fractions are 0.25 and the largest double below 1."""

    def poisson(self, lam):
        return 2

    def integers(self, low, high, size, dtype):
        return np.arange(size, dtype=dtype)

    def random(self, size):
        return np.array([0.25, 1 - 2**-53])[:size]


def test_span_draw_rounding_up_to_the_span_end_is_dropped():
    s0, s1 = 500_000.0, 503_600.0
    assert s0 + (1 - 2**-53) * (s1 - s0) == s1
    session = ScanSession(
        start=s0,
        duration=s1 - s0,
        ports=np.array([23]),
        proto=Protocol.TCP_SYN,
        tool=Tool.OTHER,
        mode=ScanMode.RATE,
        rate_pps=1.0,
    )
    scanner = Scanner(src=0x0B000001, behavior="test", sessions=[session])
    inter, hit_space, target_space, spans = scanner._session_plan(
        session, _view().ranges()
    )
    assert spans == [(s0, s1)]
    batch = scanner._generate_span(
        session, 0, 0, s0, s1, inter, hit_space, target_space, 0,
        rng=_RoundUpRng(),
    )
    assert batch.ts.tolist() == [s0 + 0.25 * (s1 - s0)]
    draws = _span_draws(
        session, hit_space, target_space, s0, s1, _RoundUpRng()
    )
    span = (s0, 0, s1, session, (inter, hit_space, target_space),
            scanner.src, None)
    block = _assemble_block([span], [draws], 0.0, 2 * s1)
    assert block is not None
    for name, column in zip(_COLUMNS, block.columns):
        assert np.array_equal(column, getattr(batch, name)), name


# ----------------------------------------------------------------------
# ChunkedCaptureSource single-pass contract.
# ----------------------------------------------------------------------


def test_chunked_source_is_single_pass():
    scanners = _population()
    view = _view()
    capture = emit_population(scanners, view, (0.0, _SPAN))
    source = ChunkedCaptureSource.from_capture(capture, 3_600.0)
    assert len(list(source)) > 0
    with pytest.raises(RuntimeError, match="single-pass"):
        iter(source)


def test_lazy_source_is_single_pass():
    source = LazyCaptureSource.from_population(
        _population(), _view(), 3_600.0, window=(0.0, _SPAN)
    )
    assert len(list(source)) > 0
    with pytest.raises(RuntimeError, match="single-pass"):
        iter(source)
