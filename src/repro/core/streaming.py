"""Incremental darknet-event construction and detection.

A production telescope never sees its year of traffic at once: captures
arrive in chunks (hourly pcaps, kafka batches), and the event pipeline
must fold each chunk in while keeping *open* flows — (src, port, proto)
activity whose silence gap has not yet exceeded the timeout — alive
across chunk boundaries.  ``StreamingEventBuilder`` implements exactly
that and is equivalent to the batch builder: feeding it any chunking of
a capture yields the same events as one :func:`~repro.core.events.build_events`
call over the concatenation (a property test pins this down).

``StreamingDetector`` stacks incremental detection on top: it drains
finalized events out of the builder after every chunk and folds them
into per-definition state — a streaming ECDF of per-event packet counts
(Definition 2), the running set of dispersion-qualified sources
(Definition 1) and merged per-(src, day) distinct-port triples
(Definition 3).  At :meth:`~StreamingDetector.finish` the accumulated
state is handed to the *same* threshold rules and result builders the
batch path uses (:mod:`repro.core.detection`), so both modes produce
identical :class:`~repro.core.detection.DetectionResult`\\ s by
construction.

Both layers expose the operational telemetry a live deployment needs —
number of open flows (state size, with its running peak) and watermarks
— and support *early-emission* queries: the events that are already
final given the data seen so far (everything whose flow expired before
the watermark).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.config import DetectionConfig
from repro.core.detection import (
    DetectionResult,
    dispersion_result,
    dispersion_threshold,
    ports_result_from_counts,
    volume_result,
    volume_threshold,
)
from repro.core.ecdf import StreamingECDF
from repro.core.events import (
    EventTable,
    _flow_keys,
    build_events,
    port_counts_from_triples,
)
from repro.packet import PacketBatch, SCANNING_PROTOCOLS


# Open flows live in a columnar table sorted by composite flow key —
# parallel numpy arrays for the numeric state (start, last, packets,
# segment gauges) plus one dict of per-flow destination-segment lists.
# Chunk folding is then a handful of vectorized passes (membership via
# searchsorted on the sorted keys, batched in-place continuation
# updates, batched closes straight into column chunks); Python-level
# iteration is confined to destination-segment bookkeeping for the
# flows a chunk actually touches.  Segments are numpy arrays, each
# deduplicated *within* itself; the cross-segment union is deferred to
# close time and computed for a whole close batch in one
# lexsort/boundary pass (:func:`_union_counts`).  Long-lived flows are
# compacted every :data:`_COMPACT_SEGMENTS` continuations so open-flow
# memory is bounded by distinct destinations (<= dark size), never
# flow length.
_COMPACT_SEGMENTS = 8

_KEY_DPORT_MASK = np.uint64(0xFFFF)
_KEY_PROTO_MASK = np.uint64(0xFF)


def _union_counts(seg_lists: List[list]) -> np.ndarray:
    """Distinct-destination counts for many multi-segment flows at once.

    One lexsort over all (flow, dst) pairs replaces a per-flow
    ``set().union(*segments)``; segments are already deduplicated
    internally, so the pair count is bounded by segments' total size.
    """
    lens = np.fromiter(
        (sum(len(s) for s in segs) for segs in seg_lists),
        dtype=np.int64,
        count=len(seg_lists),
    )
    ids = np.repeat(np.arange(len(seg_lists)), lens)
    vals = np.concatenate([s for segs in seg_lists for s in segs])
    order = np.lexsort((vals, ids))
    ids = ids[order]
    vals = vals[order]
    first = np.empty(len(vals), dtype=bool)
    first[0] = True
    first[1:] = (ids[1:] != ids[:-1]) | (vals[1:] != vals[:-1])
    return np.bincount(ids[first], minlength=len(seg_lists)).astype(np.int64)


def _columns_to_table(chunks: List[tuple]) -> EventTable:
    tables = [
        EventTable(
            src=c[0],
            dport=c[1],
            proto=c[2],
            start=c[3],
            end=c[4],
            packets=c[5],
            unique_dsts=c[6],
        )
        for c in chunks
        if len(c[0])
    ]
    return EventTable.concat(tables)


class StreamingEventBuilder:
    """Builds darknet events from time-ordered capture chunks.

    Args:
        timeout: silence gap, in seconds, that expires a flow.

    Chunks must arrive in time order *between* calls (each chunk may be
    internally unsorted; it is sorted on entry).  Feeding a chunk whose
    earliest packet predates the previous chunk's watermark raises —
    that data could belong to already-expired flows.

    Each chunk is folded in with a vectorized group-by (the same
    lexsort/segment-boundary construction the batch builder uses), and
    the open-flow state that survives chunk boundaries is itself
    columnar: a key-sorted struct-of-arrays table spliced with
    searchsorted membership, batched in-place updates, and batched
    closes.  Python-level iteration happens only for the
    destination-segment lists of flows the chunk touches.
    """

    def __init__(self, timeout: float):
        if timeout <= 0:
            raise ValueError("timeout must be positive")
        self.timeout = float(timeout)
        #: open-flow table, all parallel and sorted by ``_keys``.
        self._keys = np.empty(0, dtype=np.uint64)
        self._start = np.empty(0, dtype=np.float64)
        self._last = np.empty(0, dtype=np.float64)
        self._packets = np.empty(0, dtype=np.int64)
        #: destination-segment count; ``_seg0`` is the exact distinct
        #: destination count while ``_nseg == 1`` (segments are deduped
        #: internally), so single-segment closes never touch Python.
        self._nseg = np.empty(0, dtype=np.int64)
        self._seg0 = np.empty(0, dtype=np.int64)
        #: flow key -> list of per-continuation destination arrays.
        self._segs: Dict[int, list] = {}
        #: finalized column chunks awaiting drain/finish.
        self._closed_cols: List[tuple] = []
        self._pending_closed = 0
        self._n_closed = 0
        self._peak_open = 0
        self._watermark: Optional[float] = None

    # ------------------------------------------------------------------
    @property
    def open_flows(self) -> int:
        """Current state size (live flows)."""
        return len(self._keys)

    @property
    def peak_open_flows(self) -> int:
        """Largest state size observed so far (memory high-water mark)."""
        return self._peak_open

    @property
    def closed_events(self) -> int:
        """Events finalized so far (cumulative, survives draining)."""
        return self._n_closed

    @property
    def watermark(self) -> Optional[float]:
        """Timestamp of the latest packet folded in."""
        return self._watermark

    # ------------------------------------------------------------------
    def add_batch(self, batch: PacketBatch) -> None:
        """Fold one capture chunk into the event state."""
        if len(batch) == 0:
            return
        scanning_codes = np.array(
            [p.value for p in SCANNING_PROTOCOLS], dtype=np.uint8
        )
        keep = np.isin(batch.proto, scanning_codes)
        if not bool(np.all(keep)):
            batch = batch.select(keep)
        if len(batch) == 0:
            return
        first_ts = float(batch.ts.min())
        last_ts = float(batch.ts.max())
        # A NaN propagates into min/max, so checking the two bounds
        # covers every timestamp without another pass over the chunk.
        if not (math.isfinite(first_ts) and math.isfinite(last_ts)):
            raise ValueError(
                f"chunk has non-finite timestamps (min {first_ts}, "
                f"max {last_ts})"
            )
        if self._watermark is not None and first_ts < self._watermark:
            raise ValueError(
                f"out-of-order chunk: starts at {first_ts:.3f}, watermark "
                f"is {self._watermark:.3f}"
            )
        # Expire flows that were silent past the timeout before this
        # chunk even begins — keeps the open-state bounded.
        self._expire_before(first_ts)

        # Chunk-local segmentation, identical to the batch builder:
        # sort by (flow key, ts), events start at key or gap boundaries.
        n = len(batch)
        keys = _flow_keys(batch)
        order = np.lexsort((batch.ts, keys))
        keys = keys[order]
        ts = batch.ts[order]
        dst = batch.dst[order]
        new_key = np.empty(n, dtype=bool)
        new_key[0] = True
        new_key[1:] = keys[1:] != keys[:-1]
        gap = np.empty(n, dtype=bool)
        gap[0] = False
        gap[1:] = (ts[1:] - ts[:-1]) > self.timeout
        starts = new_key | gap
        event_id = np.cumsum(starts) - 1
        n_events = int(event_id[-1]) + 1
        start_idx = np.flatnonzero(starts)
        end_idx = np.concatenate([start_idx[1:], [n]]) - 1
        ev_packets = np.bincount(event_id, minlength=n_events).astype(np.int64)

        # Per-event deduplicated destination values in CSR form: the
        # counts close pure in-chunk events, the values seed or extend
        # the open-flow destination sets.
        pair_order = np.lexsort((dst, event_id))
        eid_sorted = event_id[pair_order]
        dst_sorted = dst[pair_order]
        first_pair = np.empty(n, dtype=bool)
        first_pair[0] = True
        first_pair[1:] = (eid_sorted[1:] != eid_sorted[:-1]) | (
            dst_sorted[1:] != dst_sorted[:-1]
        )
        ev_unique = np.bincount(
            eid_sorted[first_pair], minlength=n_events
        ).astype(np.int64)
        ev_dst = dst_sorted[first_pair]
        ev_off = np.concatenate([[0], np.cumsum(ev_unique)])

        ev_src = batch.src[order][start_idx]
        ev_dport = batch.dport[order][start_idx]
        ev_proto = batch.proto[order][start_idx]
        ev_start = ts[start_idx]
        ev_end = ts[end_idx]

        # Per-key event groups: events are sorted by (key, ts), so the
        # chunk's distinct keys come out ascending — ready for a single
        # searchsorted membership probe against the sorted open table.
        kf = np.flatnonzero(new_key[start_idx])
        kl = np.concatenate([kf[1:], [n_events]]) - 1
        chunk_keys = keys[start_idx][kf]
        nk = len(chunk_keys)
        n_open = len(self._keys)
        timeout = self.timeout

        matched = np.zeros(nk, dtype=bool)
        pos = np.zeros(nk, dtype=np.intp)
        if n_open:
            pos = np.searchsorted(self._keys, chunk_keys)
            inb = pos < n_open
            matched[inb] = self._keys[pos[inb]] == chunk_keys[inb]
        # A matched key continues its open flow only when the silence
        # gap to the key's first chunk event is within the timeout.
        cont = np.zeros(nk, dtype=bool)
        mpos = pos[matched]
        cont[matched] = ev_start[kf[matched]] - self._last[mpos] <= timeout
        single = kf == kl

        closed_mask = np.ones(n_events, dtype=bool)
        closed_mask[kl] = False
        closed_mask[kf[cont]] = False

        # Destination-segment bookkeeping: the only per-flow Python
        # work, confined to keys whose flows the chunk continues.
        new_nseg = np.ones(nk, dtype=np.int64)
        new_seg0 = ev_unique[kl].copy()
        segs_map = self._segs
        for i in np.flatnonzero(cont).tolist():
            e0 = kf[i]
            segs = segs_map[int(chunk_keys[i])]
            segs.append(ev_dst[ev_off[e0]:ev_off[e0 + 1]].copy())
            if single[i]:
                if len(segs) >= _COMPACT_SEGMENTS:
                    # Compact long-lived flows: unmerged per-chunk
                    # segments would grow O(flow packets), while the
                    # union is bounded by the dark size.
                    merged = np.unique(np.concatenate(segs))
                    segs_map[int(chunk_keys[i])] = [merged]
                    new_nseg[i] = 1
                    new_seg0[i] = len(merged)
                else:
                    new_nseg[i] = len(segs)

        # Continued flows whose key has further in-chunk events: the
        # merged first event is final.  Fold the merge into the table
        # in place, then close those rows together with the flows that
        # expired before their key's first packet.
        cm = cont & ~single
        cm_rows = pos[cm]
        if len(cm_rows):
            self._last[cm_rows] = ev_end[kf[cm]]
            self._packets[cm_rows] += ev_packets[kf[cm]]
            self._nseg[cm_rows] += 1
        exp_rows = pos[matched & ~cont]
        n_new_rows = self._close_rows(np.concatenate([exp_rows, cm_rows]))

        # Every chunk key ends with an open flow built from its last
        # event; a continued single-event key keeps the merged state.
        cs = cont & single
        cs_rows = pos[cs]
        new_start = ev_start[kl].copy()
        new_last = ev_end[kl]
        new_packets = ev_packets[kl].copy()
        new_start[cs] = self._start[cs_rows]
        new_packets[cs] += self._packets[cs_rows]
        for i in np.flatnonzero(~cs).tolist():
            e = kl[i]
            segs_map[int(chunk_keys[i])] = [
                ev_dst[ev_off[e]:ev_off[e + 1]].copy()
            ]

        # Splice: drop every matched row (closed or about to be
        # re-inserted merged), insert all chunk keys sorted.
        keep = np.ones(n_open, dtype=bool)
        keep[mpos] = False
        kept_keys = self._keys[keep]
        ins = np.searchsorted(kept_keys, chunk_keys)
        self._keys = np.insert(kept_keys, ins, chunk_keys)
        self._start = np.insert(self._start[keep], ins, new_start)
        self._last = np.insert(self._last[keep], ins, new_last)
        self._packets = np.insert(self._packets[keep], ins, new_packets)
        self._nseg = np.insert(self._nseg[keep], ins, new_nseg)
        self._seg0 = np.insert(self._seg0[keep], ins, new_seg0)

        if bool(closed_mask.any()):
            self._closed_cols.append(
                (
                    ev_src[closed_mask],
                    ev_dport[closed_mask],
                    ev_proto[closed_mask],
                    ev_start[closed_mask],
                    ev_end[closed_mask],
                    ev_packets[closed_mask],
                    ev_unique[closed_mask],
                )
            )
            n_new_rows += int(closed_mask.sum())
        self._n_closed += n_new_rows
        self._pending_closed += n_new_rows
        self._peak_open = max(self._peak_open, len(self._keys))
        self._watermark = last_ts

    def _close_rows(self, rows: np.ndarray) -> int:
        """Close open-table rows by index: one column chunk, batched.

        Single-segment flows (the overwhelming majority) read their
        distinct-destination count straight from ``_seg0``; the rest
        share one vectorized union pass.  Rows are *not* removed from
        the table here — callers compact or rebuild the arrays.
        """
        if not len(rows):
            return 0
        keys = self._keys[rows]
        n_dsts = self._seg0[rows].copy()
        multi = np.flatnonzero(self._nseg[rows] > 1)
        if len(multi):
            n_dsts[multi] = _union_counts(
                [self._segs[int(k)] for k in keys[multi]]
            )
        self._closed_cols.append(
            (
                (keys >> np.uint64(24)).astype(np.uint32),
                ((keys >> np.uint64(8)) & _KEY_DPORT_MASK).astype(np.uint16),
                (keys & _KEY_PROTO_MASK).astype(np.uint8),
                self._start[rows],
                self._last[rows],
                self._packets[rows],
                n_dsts,
            )
        )
        segs_map = self._segs
        for k in keys.tolist():
            del segs_map[k]
        return len(rows)

    def _expire_before(self, now: float) -> None:
        if not len(self._keys):
            return
        expired = (now - self._last) > self.timeout
        if not bool(expired.any()):
            return
        n = self._close_rows(np.flatnonzero(expired))
        keep = ~expired
        self._keys = self._keys[keep]
        self._start = self._start[keep]
        self._last = self._last[keep]
        self._packets = self._packets[keep]
        self._nseg = self._nseg[keep]
        self._seg0 = self._seg0[keep]
        self._n_closed += n
        self._pending_closed += n

    # ------------------------------------------------------------------
    def _pending_table(self) -> EventTable:
        return _columns_to_table(self._closed_cols)

    def finalized_events(self) -> EventTable:
        """Events already final given the watermark (early emission).

        Does not consume the events; excludes anything already drained
        via :meth:`drain_finalized`.
        """
        if self._watermark is not None:
            self._expire_before(self._watermark)
        return self._pending_table().sorted_canonical()

    def drain_finalized(self) -> EventTable:
        """Consume and return the events finalized since the last drain.

        The incremental-detection layer calls this after every chunk so
        finalized events leave the builder immediately — the builder's
        live memory is then only the open-flow state.  Rows come back in
        no particular order.
        """
        if self._watermark is not None:
            self._expire_before(self._watermark)
        table = self._pending_table()
        self._closed_cols = []
        self._pending_closed = 0
        return table

    def merge(self, other: "StreamingEventBuilder") -> None:
        """Fold another builder's state into this one (shard merge).

        Intended for the shard-parallel path (:mod:`repro.parallel`):
        the two builders must have been fed *disjoint* flow-key
        populations — hash-sharding packets by source address guarantees
        this, since a flow key starts with the source — so open flows
        never collide.  ``other`` should be discarded afterwards.

        The merged peak-open gauge is the *sum* of both peaks: shards
        run concurrently in separate processes, so the aggregate state
        held across the fleet at the worst moment is bounded by the sum.
        """
        if other is self:
            raise ValueError("cannot merge a builder with itself")
        if other.timeout != self.timeout:
            raise ValueError(
                f"cannot merge builders with different timeouts "
                f"({self.timeout} vs {other.timeout})"
            )
        overlap = np.intersect1d(
            self._keys, other._keys, assume_unique=True
        )
        if len(overlap):
            k = int(overlap[0])
            example = (k >> 24, (k >> 8) & 0xFFFF, k & 0xFF)
            raise ValueError(
                f"open-flow keys overlap across builders (e.g. "
                f"{example}); shards must partition sources"
            )
        merged_keys = np.concatenate([self._keys, other._keys])
        order = np.argsort(merged_keys, kind="stable")
        self._keys = merged_keys[order]
        self._start = np.concatenate([self._start, other._start])[order]
        self._last = np.concatenate([self._last, other._last])[order]
        self._packets = np.concatenate(
            [self._packets, other._packets]
        )[order]
        self._nseg = np.concatenate([self._nseg, other._nseg])[order]
        self._seg0 = np.concatenate([self._seg0, other._seg0])[order]
        self._segs.update(other._segs)
        self._closed_cols.extend(other._closed_cols)
        self._pending_closed += other._pending_closed
        self._n_closed += other._n_closed
        self._peak_open += other._peak_open
        if other._watermark is not None:
            self._watermark = (
                other._watermark
                if self._watermark is None
                else max(self._watermark, other._watermark)
            )

    def finish(self) -> EventTable:
        """Close all remaining flows and return their table.

        Includes everything not yet drained; after this the builder is
        empty.  When no :meth:`drain_finalized` calls were made this is
        the complete event table, ordered like the batch builder's.
        """
        self._close_rows(np.arange(len(self._keys)))
        self._keys = np.empty(0, dtype=np.uint64)
        self._start = np.empty(0, dtype=np.float64)
        self._last = np.empty(0, dtype=np.float64)
        self._packets = np.empty(0, dtype=np.int64)
        self._nseg = np.empty(0, dtype=np.int64)
        self._seg0 = np.empty(0, dtype=np.int64)
        table = _columns_to_table(self._closed_cols)
        self._closed_cols = []
        self._pending_closed = 0
        return table.sorted_canonical()


def chunked_events(
    batch: PacketBatch, timeout: float, chunk_seconds: float
) -> EventTable:
    """Convenience: run the streaming builder over fixed time chunks.

    Produces the same table as ``build_events(batch, timeout)`` (up to
    row order) — the equivalence is asserted in the test suite.  Chunk
    edges are computed as ``start + i * chunk_seconds`` so they stay
    exact over arbitrarily long captures (accumulating ``edge +=
    chunk_seconds`` drifts in floating point).
    """
    builder = StreamingEventBuilder(timeout)
    if len(batch) == 0:
        if chunk_seconds <= 0:
            raise ValueError("chunk_seconds must be positive")
        return builder.finish()
    for _, _, chunk in batch.iter_time_chunks(
        chunk_seconds, align_to_epoch=False
    ):
        builder.add_batch(chunk)
    return builder.finish()


def tables_equivalent(a: EventTable, b: EventTable) -> bool:
    """Order-insensitive event-table equality (test helper)."""
    if len(a) != len(b):
        return False

    def canon(t: EventTable):
        rows = list(
            zip(
                t.src.tolist(),
                t.dport.tolist(),
                t.proto.tolist(),
                np.round(t.start, 9).tolist(),
                np.round(t.end, 9).tolist(),
                t.packets.tolist(),
                t.unique_dsts.tolist(),
            )
        )
        return sorted(rows)

    return canon(a) == canon(b)


# ----------------------------------------------------------------------
# Incremental detection
# ----------------------------------------------------------------------


class DispersionState:
    """Running Definition-1 state: sources with a qualifying event.

    The dispersion threshold is static (a fraction of the dark space),
    so membership can be decided per event as it finalizes; the state is
    just the accumulated source set, and merging shard states is a set
    union (associative and commutative).
    """

    def __init__(self, threshold: float):
        self.threshold = float(threshold)
        self.sources: set = set()

    def __len__(self) -> int:
        return len(self.sources)

    def update(self, events: EventTable) -> None:
        """Fold a batch of finalized events in."""
        self.sources |= events.sources_of(
            events.unique_dsts >= self.threshold
        )

    def merge(self, other: "DispersionState") -> None:
        """Union another shard's state into this one."""
        if other.threshold != self.threshold:
            raise ValueError(
                f"cannot merge dispersion states with different thresholds "
                f"({self.threshold} vs {other.threshold})"
            )
        self.sources |= other.sources


class PortDayState:
    """Mergeable Definition-3 state: (src, day, port·proto) triple runs.

    Each update appends one deduplicated-within-itself run of triples;
    the per-(src, day) distinct-port counts are derived only at finish,
    and :func:`~repro.core.events.port_counts_from_triples` tolerates
    duplicates *across* runs (a flow active in several chunks — or, in
    overlapping crafted windows, in several shards' histories — repeats
    its triple but is counted once).  Merging is run-list concatenation:
    associative, and commutative up to the final sorted grouping.

    Long-lived states (an always-on serve tenant folds chunks forever)
    compact the run list once it exceeds :data:`COMPACT_AFTER` runs:
    the runs are concatenated and deduplicated into a single run, so
    memory is bounded by the number of *distinct* triples, not by the
    number of ``update()`` calls.  Compaction never changes
    :meth:`counts` — the grouping pass already counts duplicates once.
    """

    #: Compact ``_runs`` into one deduplicated run at this many runs.
    COMPACT_AFTER = 64

    def __init__(self, day_seconds: float):
        self.day_seconds = float(day_seconds)
        self._runs: List[tuple] = []

    def update(self, events: EventTable) -> None:
        """Fold a batch of finalized events in."""
        if len(events):
            self._runs.append(events.daily_port_triples(self.day_seconds))
            self._maybe_compact()

    def merge(self, other: "PortDayState") -> None:
        """Append another shard's runs to this state."""
        if other is self:
            raise ValueError("cannot merge a PortDayState with itself")
        if other.day_seconds != self.day_seconds:
            raise ValueError(
                f"cannot merge port-day states with different day lengths "
                f"({self.day_seconds} vs {other.day_seconds})"
            )
        self._runs.extend(other._runs)
        self._maybe_compact()

    def _maybe_compact(self) -> None:
        if len(self._runs) < self.COMPACT_AFTER:
            return
        src, day, port_proto = self.triples()
        order = np.lexsort((port_proto, day, src))
        src, day, port_proto = src[order], day[order], port_proto[order]
        fresh = np.empty(len(src), dtype=bool)
        fresh[0] = True
        fresh[1:] = (
            (src[1:] != src[:-1])
            | (day[1:] != day[:-1])
            | (port_proto[1:] != port_proto[:-1])
        )
        self._runs = [(src[fresh], day[fresh], port_proto[fresh])]

    def triples(self) -> tuple:
        """The concatenated (src, day, port·proto) runs."""
        if not self._runs:
            return (
                np.empty(0, dtype=np.int64),
                np.empty(0, dtype=np.int64),
                np.empty(0, dtype=np.int64),
            )
        return tuple(
            np.concatenate([run[i] for run in self._runs]) for i in range(3)
        )

    def counts(self) -> Dict[tuple, int]:
        """Per-(src, day) distinct-port counts over everything added."""
        return port_counts_from_triples(*self.triples())


#: Versioned header guarding detector-state checkpoints; bump when the
#: pickled layout changes incompatibly so stale checkpoints are
#: rejected (and their shards re-run) instead of merged.
STATE_MAGIC = b"repro-detector-state-v2\n"


@dataclass(frozen=True)
class ChunkReport:
    """What one :meth:`StreamingDetector.add_batch` call did."""

    packets: int
    events_finalized: int
    open_flows: int
    watermark: Optional[float]


class StreamingDetector:
    """Incremental aggressive-hitter detection over capture chunks.

    Feed time-ordered chunks with :meth:`add_batch`; call :meth:`finish`
    once to obtain the complete event table and the per-definition
    :class:`~repro.core.detection.DetectionResult`\\ s.  The results are
    identical to ``detect_all(build_events(capture), ...)`` over the
    concatenated capture, for any chunking — pinned by property tests.

    Per chunk, the detector drains the builder's finalized events and
    folds them into per-definition state:

    * Definition 1 (dispersion): threshold is static, so qualifying
      sources accumulate into a running set.
    * Definition 2 (volume): per-event packet counts accumulate into a
      :class:`~repro.core.ecdf.StreamingECDF`; the tail threshold only
      exists over the full sample, so membership is applied at finish.
    * Definition 3 (ports): per-chunk (src, day, port) triples are kept
      as mergeable runs; the per-day distinct-port counts and their
      ECDF threshold are derived at finish.

    Memory is bounded by the open-flow state plus the (much smaller)
    finalized event columns — the raw packet chunks are never retained.
    """

    def __init__(
        self,
        timeout: float,
        dark_size: int,
        config: Optional[DetectionConfig] = None,
        day_seconds: float = 86_400.0,
    ):
        self.builder = StreamingEventBuilder(timeout)
        self.dark_size = int(dark_size)
        self.config = config or DetectionConfig()
        self.day_seconds = float(day_seconds)
        self._chunks: List[EventTable] = []
        self._volume = StreamingECDF()
        self._ports = PortDayState(self.day_seconds)
        self._dispersion = DispersionState(
            dispersion_threshold(self.dark_size, self.config)
        )
        self._packets_seen = 0
        self._events_finalized = 0
        self._finished = False

    # ------------------------------------------------------------------
    @property
    def packets_seen(self) -> int:
        """Packets folded in so far (before protocol filtering)."""
        return self._packets_seen

    @property
    def events_finalized(self) -> int:
        """Events finalized and folded into detection state so far."""
        return self._events_finalized

    @property
    def open_flows(self) -> int:
        return self.builder.open_flows

    @property
    def peak_open_flows(self) -> int:
        return self.builder.peak_open_flows

    @property
    def watermark(self) -> Optional[float]:
        return self.builder.watermark

    @property
    def volume_samples(self) -> int:
        """Observations currently held by the Definition-2 ECDF."""
        return len(self._volume)

    @property
    def volume_approximate(self) -> bool:
        """Whether the volume ECDF was ever compacted past a budget."""
        return self._volume.is_approximate

    def bound_volume_samples(self, max_samples: int) -> bool:
        """Enforce a memory budget on the Definition-2 volume ECDF.

        Past ``max_samples`` retained observations, the sample degrades
        to that many evenly spaced order statistics
        (:meth:`StreamingECDF.compact_to`): memory becomes O(budget)
        instead of O(events), and the Definition-2 tail threshold
        becomes a bounded-rank approximation.  Definitions 1 and 3 are
        untouched.  Returns True if a compaction happened; once any
        did, :attr:`volume_approximate` stays set (including across
        serialization and merges).
        """
        return self._volume.compact_to(max_samples)

    # ------------------------------------------------------------------
    def add_batch(self, batch: PacketBatch) -> ChunkReport:
        """Fold one capture chunk through events into detection state."""
        if self._finished:
            raise RuntimeError("detector already finished")
        self.builder.add_batch(batch)
        before = self._events_finalized
        self._fold(self.builder.drain_finalized())
        self._packets_seen += len(batch)
        return ChunkReport(
            packets=len(batch),
            events_finalized=self._events_finalized - before,
            open_flows=self.builder.open_flows,
            watermark=self.builder.watermark,
        )

    def _fold(self, events: EventTable) -> None:
        if len(events) == 0:
            return
        self._chunks.append(events)
        self._events_finalized += len(events)
        self._volume.add(events.packets.astype(np.float64))
        self._dispersion.update(events)
        self._ports.update(events)

    # ------------------------------------------------------------------
    def merge(self, other: "StreamingDetector") -> None:
        """Fold another (unfinished) detector's state into this one.

        The shard-parallel path (:mod:`repro.parallel`) runs one
        detector per source shard and merges them before a single
        :meth:`finish` — which then derives thresholds over exactly the
        same accumulated sample as a serial run, so the results are
        identical.  Both detectors must share their configuration, and
        their builders must hold disjoint flows (guaranteed when packets
        were hash-partitioned by source).  ``other`` is consumed: its
        state moves into ``self`` and it must be discarded.
        """
        if self._finished or other._finished:
            raise RuntimeError("cannot merge a finished detector")
        if other is self:
            raise ValueError("cannot merge a detector with itself")
        if (
            self.dark_size != other.dark_size
            or self.day_seconds != other.day_seconds
            or self.config != other.config
        ):
            raise ValueError(
                "cannot merge detectors with different configurations"
            )
        self.builder.merge(other.builder)
        self._chunks.extend(other._chunks)
        self._volume.merge(other._volume)
        self._dispersion.merge(other._dispersion)
        self._ports.merge(other._ports)
        self._packets_seen += other._packets_seen
        self._events_finalized += other._events_finalized

    # ------------------------------------------------------------------
    def to_bytes(self) -> bytes:
        """Serialize the full (unfinished) detector state.

        The format is a versioned header plus a pickle of the detector
        — everything in the state (open flows, finalized columns, ECDF
        runs, port-day runs, gauges) is plain Python/numpy data, the
        same property that lets shard detectors cross process pipes.
        Used by the checkpoint layer (:mod:`repro.core.faults`): a
        round-tripped detector merges and finishes bit-identically to
        the original, so a resumed run reproduces a fault-free run
        exactly.
        """
        import pickle

        return STATE_MAGIC + pickle.dumps(self, protocol=4)

    @classmethod
    def from_bytes(cls, data: bytes) -> "StreamingDetector":
        """Rebuild a detector serialized by :meth:`to_bytes`.

        Raises ``ValueError`` on an unrecognized or incompatible
        header — a checkpoint written by a different state version must
        be discarded (and the shard re-run), never merged.
        """
        import pickle

        if not data.startswith(STATE_MAGIC):
            raise ValueError(
                "not a serialized StreamingDetector state (missing or "
                f"mismatched header; expected {STATE_MAGIC!r})"
            )
        detector = pickle.loads(data[len(STATE_MAGIC):])
        if not isinstance(detector, cls):
            raise ValueError(
                f"serialized state holds {type(detector).__name__}, "
                "not a StreamingDetector"
            )
        return detector

    # ------------------------------------------------------------------
    def snapshot(self) -> dict:
        """A provisional mid-stream view (no full recomputation)."""
        return {
            "packets": self._packets_seen,
            "events_finalized": self._events_finalized,
            "open_flows": self.builder.open_flows,
            "peak_open_flows": self.builder.peak_open_flows,
            "watermark": self.builder.watermark,
            "dispersion_sources": len(self._dispersion),
            "volume_threshold": (
                volume_threshold(self._volume.ecdf(), self.config)
                if len(self._volume)
                else None
            ),
        }

    def finish(self) -> Tuple[EventTable, Dict[int, DetectionResult]]:
        """Flush remaining flows and produce the final detections."""
        if self._finished:
            raise RuntimeError("detector already finished")
        self._fold(self.builder.finish())
        self._finished = True
        events = EventTable.concat(self._chunks).sorted_canonical()
        self._chunks = [events]

        results: Dict[int, DetectionResult] = {
            1: dispersion_result(
                events, self._dispersion.threshold, self.day_seconds
            )
        }
        if len(events) == 0:
            results[2] = DetectionResult(
                definition=2, sources=set(), threshold=0.0
            )
        else:
            results[2] = volume_result(
                events,
                volume_threshold(self._volume.ecdf(), self.config),
                self.day_seconds,
            )
        results[3] = ports_result_from_counts(
            self._ports.counts(), self.config
        )
        return events, results


def stream_detect(
    chunks,
    timeout: float,
    dark_size: int,
    config: Optional[DetectionConfig] = None,
    day_seconds: float = 86_400.0,
) -> Tuple[EventTable, Dict[int, DetectionResult]]:
    """Run the full incremental path over an iterable of chunks.

    ``chunks`` yields :class:`~repro.packet.PacketBatch` objects in time
    order.  Equivalent to ``detect_all(build_events(concat(chunks)))``
    with bounded live memory.
    """
    detector = StreamingDetector(timeout, dark_size, config, day_seconds)
    for chunk in chunks:
        detector.add_batch(chunk)
    return detector.finish()
