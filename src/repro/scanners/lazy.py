"""Lazy, windowed population emission.

:func:`repro.scanners.base.emit_population` materializes every packet a
population sends into a view, concatenates, and time-sorts — an
O(total capture) memory wall at the head of every run.  This module
replaces it for the streaming pipeline: :class:`PopulationEmitter`
sweeps an epoch-aligned chunk grid and, per window, generates only the
packets landing inside it.

The sweep works on generation spans, batched per window:

* **Admission** — scanners are sorted by first activity and admitted
  when the sweep reaches their start.  Admission plans every live
  session (the view's full-IPv4 intersection is computed once per
  emitter, since most sessions target all of IPv4), lays out its spans
  (:func:`~repro.scanners.base.span_grid`) and derives the RNG streams
  of every span the window's newly admitted scanners will ever need in
  one vectorized pass (:mod:`repro.scanners.streams`).  The spans are
  then scheduled by start time.
* **Block generation** — each window generates every scheduled span
  whose start it has reached as one *block*.  Per span, Python makes
  only the RNG draws, in :meth:`Scanner._generate_span`'s exact order
  (packet count, target offsets, port indices, timestamp fractions,
  random IP-IDs); everything else — timestamps, offset-to-address
  mapping, ports, fingerprints, the span and window clip — is a few
  numpy passes over the whole block.
* **Window output** — a block is sorted once by (timestamp, span
  order), so each window's share of it is a contiguous slice.  A
  window merges its live blocks' slices with one lexsort on the same
  key.  Served prefixes are compacted away and a block is dropped with
  its last row, so peak memory is O(open spans), never O(capture).
* **Bit-identity** — span RNG streams are keyed by (scanner, view,
  session, span), so the concatenation of all window batches equals
  ``emit_population(scanners, view, window).sorted_by_time()`` exactly:
  same addresses, ports, timestamps, and fingerprints.  Span order is
  (population position, session, span) and rows of one span keep their
  generation order, so equal-timestamp ties break exactly as the
  materialized path's single global stable sort over generation (=
  population) order does.

Scanner-like objects without sessions (e.g.
:class:`repro.scanners.background.SpoofedScan`) are handled by a
fallback cursor that calls their ``emit`` once — with the same overall
window the batch path would pass, because their windowed emission is a
fresh realization rather than a slice — and serves time-slices of the
result.
"""

from __future__ import annotations

import heapq
import math
from operator import itemgetter
from typing import Iterator, Optional, Sequence

import numpy as np

from repro.fingerprint import ZMAP_IPID, Tool, masscan_ipid
from repro.net.prefix import intersect_ranges, ranges_size, sample_distinct_offsets
from repro.packet import PacketBatch, Protocol
from repro.scanners.base import (
    ScanMode,
    View,
    _offsets_to_addrs,
    full_ipv4_ranges,
    span_grid,
    view_rng_key,
)
from repro.scanners.streams import derive_span_words, generator_from_words

#: A span's order key packs its scanner's population position above an
#: ordinal that grows session-major through the scanner's spans, so one
#: int64 compare reproduces (position, session, span) order.
_ORDINAL_BITS = 32


def _span_draws(
    session, hit_space: int, target_space: int, s0: float, s1: float, rng
) -> Optional[tuple]:
    """One span's random draws, in :meth:`Scanner._generate_span`'s order.

    Returns ``(offsets, dport, fractions, ipid)``, or ``None`` when the
    span draws no packet.  ``offsets`` index the session's target ∩
    view ranges, one per packet (probe repeats included); ``dport`` is
    one port (``int``) or a per-packet uint16 array; ``fractions`` are
    the uniform timestamp draws; ``ipid`` holds the random IP-IDs, or
    ``None`` for ZMap/Masscan, whose IDs are computed, not drawn.
    """
    ports = session.ports
    probes = session.probes_per_target
    if session.mode is ScanMode.RATE:
        lam = session.rate_pps * (s1 - s0) * hit_space / target_space
        k = int(rng.poisson(lam))
        if k == 0:
            return None
        offsets = rng.integers(0, hit_space, size=k, dtype=np.int64)
        if len(ports) == 1:
            dport = int(ports[0])
        else:
            dport = ports[
                rng.choice(len(ports), size=k, p=session.port_weights)
            ]
    elif session.mode is ScanMode.COVERAGE:
        p_hit = min(session.coverage, 1.0)
        parts = []
        hit_ports = []
        for port in ports:
            k = int(rng.binomial(hit_space, p_hit))
            if k == 0:
                continue
            parts.append(sample_distinct_offsets(rng, hit_space, k))
            hit_ports.append(port)
        if not parts:
            return None
        if len(parts) == 1:
            offsets, dport = parts[0], int(hit_ports[0])
        else:
            offsets = np.concatenate(parts)
            dport = np.repeat(
                np.array(hit_ports, dtype=np.uint16),
                [len(part) * probes for part in parts],
            )
        if probes > 1:
            offsets = np.repeat(offsets, probes)
    else:
        p_view = hit_space / target_space
        n_effective = session.n_targets
        if n_effective >= 1:
            k = int(rng.binomial(int(round(n_effective)), p_view))
        else:
            k = int(rng.random() < n_effective * p_view)
        k = min(k, hit_space)
        if k == 0:
            return None
        offsets = np.repeat(
            sample_distinct_offsets(rng, hit_space, k), len(ports) * probes
        )
        dport = np.tile(np.repeat(ports, probes), k)
    count = len(offsets)
    fractions = rng.random(count)
    ipid = None
    if session.tool is not Tool.ZMAP and session.tool is not Tool.MASSCAN:
        ipid = rng.integers(0, 65536, size=count, dtype=np.uint16)
    return offsets, dport, fractions, ipid


def _time_order(ts: np.ndarray, exact) -> np.ndarray:
    """Indices sorting ``ts``; ``exact()`` decides equal timestamps.

    The unstable sort is several times faster than a stable one on
    unsorted data, and with no two timestamps equal every sort agrees;
    only when a tie exists does the order come from ``exact()``.
    """
    order = np.argsort(ts)
    ordered = ts[order]
    if (ordered[1:] == ordered[:-1]).any():
        return exact()
    return order


class _Block:
    """One window's generated spans, sorted by (timestamp, span order).

    ``span`` is each row's index into ``keys`` (the spans' order keys)
    in the narrowest unsigned dtype that fits; ``pos`` is the first row
    the sweep has not served yet.
    """

    __slots__ = ("columns", "span", "keys", "pos")

    def __init__(self, columns: tuple, span: np.ndarray, keys: np.ndarray):
        self.columns = columns
        self.span = span
        self.keys = keys
        self.pos = 0

    def take(self, t1: float) -> Optional[tuple]:
        """The unserved rows with ``ts < t1`` as a window part:
        ``(columns, span, keys)``."""
        i0 = self.pos
        i1 = int(self.columns[0].searchsorted(t1, side="left"))
        if i1 <= i0:
            return None
        self.pos = i1
        cut = slice(i0, i1)
        return (
            tuple(column[cut] for column in self.columns),
            self.span[cut],
            self.keys,
        )

    def compact(self) -> bool:
        """Drop the served prefix once it outweighs the rest.

        Returns ``False`` when nothing is left to serve.  Copying only
        once the prefix is the larger part keeps the copying amortized
        O(1) per row.
        """
        left = len(self.span) - self.pos
        if left == 0:
            return False
        if self.pos > left:
            cut = slice(self.pos, None)
            self.columns = tuple(column[cut].copy() for column in self.columns)
            self.span = self.span[cut].copy()
            self.pos = 0
        return True


def _assemble_block(
    spans: Sequence[tuple], draws: Sequence[tuple], lo: float, hi: float
) -> Optional[_Block]:
    """Build a block from spans (in span order) and their draws.

    ``spans`` are scheduled-span tuples ``(s0, key, s1, session, plan,
    src, words)`` and ``draws`` the matching non-empty
    :func:`_span_draws` results.  Rows keep ``ts`` in ``[s0, s1)`` of
    their span — a draw that rounds up to ``s1`` is dropped, as
    :meth:`Scanner._generate_span` drops it — and in the sweep's
    ``[lo, hi)``.
    """
    n_spans = len(spans)
    counts = np.fromiter(
        (len(d[2]) for d in draws), dtype=np.int64, count=n_spans
    )
    s0 = np.fromiter((sp[0] for sp in spans), dtype=np.float64, count=n_spans)
    s1 = np.fromiter((sp[2] for sp in spans), dtype=np.float64, count=n_spans)
    ts = np.repeat(s0, counts) + np.concatenate(
        [d[2] for d in draws]
    ) * np.repeat(s1 - s0, counts)

    # Offsets index each span's own target ∩ view ranges; shifting them
    # into one concatenated range table maps the whole block at once.
    offsets = np.concatenate([d[0] for d in draws])
    bases = {}
    tables = []
    total = 0
    for sp in spans:
        inter, hit_space = sp[4][0], sp[4][1]
        if id(inter) not in bases:
            bases[id(inter)] = total
            tables.append(inter)
            total += hit_space
    if len(tables) > 1:
        offsets = offsets + np.repeat(
            np.fromiter(
                (bases[id(sp[4][0])] for sp in spans),
                dtype=np.int64, count=n_spans,
            ),
            counts,
        )
    dst = _offsets_to_addrs(
        tables[0] if len(tables) == 1 else np.concatenate(tables), offsets
    )

    dport = np.repeat(
        np.fromiter(
            (d[1] if isinstance(d[1], int) else 0 for d in draws),
            dtype=np.uint16, count=n_spans,
        ),
        counts,
    )
    drawn = [not isinstance(d[1], int) for d in draws]
    if any(drawn):
        dport[np.repeat(drawn, counts)] = np.concatenate(
            [d[1] for d, arr in zip(draws, drawn) if arr]
        )
    icmp = [sp[3].proto is Protocol.ICMP_ECHO for sp in spans]
    if any(icmp):
        dport[np.repeat(icmp, counts)] = 0

    random_ids = [d[3] is not None for d in draws]
    if all(random_ids):
        ipid = np.concatenate([d[3] for d in draws])
    else:
        tools = [sp[3].tool for sp in spans]
        ipid = np.repeat(
            np.array(
                [ZMAP_IPID if tool is Tool.ZMAP else 0 for tool in tools],
                dtype=np.uint16,
            ),
            counts,
        )
        if any(random_ids):
            ipid[np.repeat(random_ids, counts)] = np.concatenate(
                [d[3] for d in draws if d[3] is not None]
            )
        masscan = [tool is Tool.MASSCAN for tool in tools]
        if any(masscan):
            rows = np.repeat(masscan, counts)
            ipid[rows] = masscan_ipid(dst[rows], dport[rows])

    src = np.repeat(
        np.fromiter((sp[5] for sp in spans), dtype=np.uint32, count=n_spans),
        counts,
    )
    proto = np.repeat(
        np.fromiter(
            (sp[3].proto.value for sp in spans), dtype=np.uint8, count=n_spans
        ),
        counts,
    )
    span = np.repeat(
        np.arange(n_spans, dtype=np.min_scalar_type(max(n_spans - 1, 0))),
        counts,
    )

    # Rows are in span order, so a stable sort by time alone orders
    # them by (ts, span order, generation order).
    order = _time_order(ts, lambda: np.argsort(ts, kind="stable"))
    keep = ts < np.repeat(np.minimum(s1, hi), counts)
    if s0.min() < lo:
        keep &= ts >= lo
    if not keep.all():
        order = order[keep[order]]
        if len(order) == 0:
            return None
    keys = np.fromiter((sp[1] for sp in spans), dtype=np.int64, count=n_spans)
    return _Block(
        (ts[order], src[order], dst[order], dport[order], proto[order],
         ipid[order]),
        span[order],
        keys,
    )


class _FallbackCursor:
    """Cursor for duck-typed scanners without :class:`ScanSession` lists.

    Their ``emit`` is called exactly once, with the same overall window
    the materializing batch path passes (their windowed emission is a
    fresh realization, not a slice of the full one), and the sorted
    result is sliced forward.  Memory is bounded by that one emission,
    held only while the object is active.
    """

    __slots__ = (
        "scanner", "start", "end", "_view", "_window", "_batch",
        "spans_derived", "spans_emitted",
    )

    def __init__(self, scanner, view: View, window: Optional[tuple]):
        self.scanner = scanner
        start = getattr(scanner, "start", None)
        duration = getattr(scanner, "duration", None)
        if start is not None and duration is not None:
            self.start, self.end = float(start), float(start + duration)
        elif window is not None:
            self.start, self.end = window
        else:
            raise ValueError(
                "scanner without sessions needs start/duration attributes "
                "or an explicit overall window"
            )
        self._view = view
        self._window = window
        self._batch: Optional[PacketBatch] = None
        #: one ``emit`` call is one realized stream (the fallback has
        #: no span grid to pre-derive against).
        self.spans_derived = 0
        self.spans_emitted = 0

    def take(self, t0: float, t1: float, parts: list) -> None:
        if self._batch is None:
            self._batch = self.scanner.emit(
                self._view, self._window
            ).sorted_by_time()
            self.spans_derived = 1
            self.spans_emitted = 1 if len(self._batch) else 0
        i0, i1 = np.searchsorted(self._batch.ts, [t0, t1], side="left")
        part = self._batch.select(slice(int(i0), int(i1)))
        if len(part):
            parts.append(
                (part.ts, part.src, part.dst,
                 part.dport, part.proto, part.ipid)
            )

    def release(self) -> None:
        """Drop the emitted batch once the sweep has passed ``end``."""
        self._batch = PacketBatch.empty()


class PopulationEmitter:
    """Stream a population's capture as time-sorted window batches.

    Iterating yields ``(start, end, PacketBatch)`` tuples on an
    epoch-aligned ``chunk_seconds`` grid (the same grid
    ``PacketBatch.iter_time_chunks`` uses), including empty windows.
    Concatenating every batch reproduces
    ``emit_population(scanners, view, window).sorted_by_time()``
    bit-identically.

    Args:
        scanners: population in emission order (order is part of the
            tie-breaking contract and must match the batch path).
        view: the monitored address region.
        chunk_seconds: window length of the grid.
        window: optional overall [start, end) clip — the scenario
            window in simulation runs.
    """

    def __init__(
        self,
        scanners: Sequence,
        view: View,
        chunk_seconds: float,
        window: Optional[tuple] = None,
    ):
        if chunk_seconds <= 0:
            raise ValueError("chunk_seconds must be positive")
        self.view = view
        self.chunk_seconds = float(chunk_seconds)
        self.window = window
        self._view_ranges = view.ranges()
        self._view_key = view_rng_key(view)
        entries = []
        for position, scanner in enumerate(scanners):
            sessions = getattr(scanner, "sessions", None)
            if sessions:
                item = scanner
                start = min(s.start for s in sessions)
                end = max(s.end for s in sessions)
            else:
                item = _FallbackCursor(scanner, view, window)
                start, end = item.start, item.end
            if window is not None and (start >= window[1] or end <= window[0]):
                continue
            entries.append((start, position, end, item))
        #: (start, position, end, scanner | fallback cursor) sorted by
        #: first activity; admitted by the sweep.
        self._pending = sorted(entries, key=lambda e: (e[0], e[1]))
        #: the view's plan for sessions targeting all of IPv4.
        self._full_plan = None
        #: heap of admitted spans not yet generated:
        #: ``(s0, key, s1, session, plan, src, rng words)``.
        self._scheduled: list = []
        #: generated blocks with rows still to serve.
        self._blocks: list = []
        #: fallback cursors the sweep has admitted and not yet finished.
        self._fallbacks: list = []
        #: RNG span streams keyed so far (pre-dedup derivation units);
        #: grows as the sweep admits scanners.  Always >= spans_emitted
        #: — a derived span whose generation lands entirely outside the
        #: view (or produces zero packets) is derived work without
        #: emitted packets.
        self.spans_derived = 0
        #: derived spans that actually produced packets.
        self.spans_emitted = 0

    def span(self) -> Optional[tuple]:
        """Overall [start, end) the emitter will cover, or ``None``."""
        if not self._pending:
            return None
        lo = self._pending[0][0]
        hi = max(entry[2] for entry in self._pending)
        if self.window is not None:
            lo, hi = max(lo, self.window[0]), min(hi, self.window[1])
        if lo >= hi:
            return None
        return lo, hi

    def _plan(self, session) -> tuple:
        """``(inter, hit_space, target_space)`` of a session in the view."""
        if session.target_ranges is None:
            if self._full_plan is None:
                inter = intersect_ranges(full_ipv4_ranges(), self._view_ranges)
                self._full_plan = (
                    inter, ranges_size(inter), session.target_space_size(),
                )
            return self._full_plan
        inter = intersect_ranges(session.target_ranges, self._view_ranges)
        return inter, ranges_size(inter), session.target_space_size()

    def _admit(self, scanners: Sequence[tuple], t0: float) -> None:
        """Schedule every span ending after ``t0`` of newly admitted
        ``(position, scanner)`` pairs, deriving all their RNG streams in
        one vectorized pass."""
        spans = []
        rows = []
        view_key = self._view_key
        for position, scanner in scanners:
            base = position << _ORDINAL_BITS
            seed, src = scanner.seed, scanner.src
            for index, session in enumerate(scanner.sessions):
                if session.end <= t0:
                    continue
                plan = self._plan(session)
                if plan[1] == 0:
                    continue
                for span_idx, (s0, s1) in enumerate(
                    span_grid(session, plan[1], plan[2])
                ):
                    if s1 > t0:
                        spans.append(
                            (s0, base | len(spans), s1, session, plan, src)
                        )
                        rows.append((seed, view_key, index, span_idx))
        words = derive_span_words(rows)
        self.spans_derived += len(rows)
        scheduled = self._scheduled
        for span, span_words in zip(spans, words):
            heapq.heappush(scheduled, span + (span_words,))

    def _generate(self, t1: float, lo: float, hi: float) -> None:
        """Generate every scheduled span starting before ``t1`` as one
        block."""
        scheduled = self._scheduled
        due = []
        while scheduled and scheduled[0][0] < t1:
            due.append(heapq.heappop(scheduled))
        if not due:
            return
        due.sort(key=itemgetter(1))
        spans = []
        draws = []
        for span in due:
            s0, _, s1, session, plan, _, words = span
            drawn = _span_draws(
                session, plan[1], plan[2], s0, s1, generator_from_words(words)
            )
            if drawn is not None:
                spans.append(span)
                draws.append(drawn)
        self.spans_emitted += len(spans)
        if spans:
            block = _assemble_block(spans, draws, lo, hi)
            if block is not None:
                self._blocks.append(block)

    def __iter__(self) -> Iterator[tuple]:
        covered = self.span()
        if covered is None:
            return
        lo, hi = covered
        cs = self.chunk_seconds
        first_edge = math.floor(lo / cs) * cs
        pending = self._pending
        next_pending = 0
        i = 0
        try:
            while True:
                w0 = first_edge + i * cs
                if w0 >= hi:
                    break
                w1 = w0 + cs
                t0, t1 = max(w0, lo), min(w1, hi)
                admitted = []
                while (
                    next_pending < len(pending)
                    and pending[next_pending][0] < t1
                ):
                    _, position, _, item = pending[next_pending]
                    if isinstance(item, _FallbackCursor):
                        self._fallbacks.append((position, item))
                    else:
                        admitted.append((position, item))
                    next_pending += 1
                if admitted:
                    self._admit(admitted, t0)
                self._generate(t1, lo, hi)
                yield w0, w1, self._window_batch(t0, t1)
                i += 1
        finally:
            self._scheduled = []
            self._blocks = []
            for _, cursor in self._fallbacks:
                cursor.release()
            self._fallbacks = []

    def _window_batch(self, t0: float, t1: float) -> PacketBatch:
        """Serve ``[t0, t1)`` from the live blocks and fallback cursors."""
        parts = []
        for block in self._blocks:
            part = block.take(t1)
            if part is not None:
                parts.append(part)
        self._blocks = [block for block in self._blocks if block.compact()]
        if self._fallbacks:
            live = []
            for position, cursor in self._fallbacks:
                first = cursor._batch is None
                taken = []
                cursor.take(t0, t1, taken)
                if first:
                    self.spans_derived += cursor.spans_derived
                    self.spans_emitted += cursor.spans_emitted
                if taken:
                    parts.append((
                        taken[0],
                        np.zeros(len(taken[0][0]), dtype=np.uint8),
                        np.array([position << _ORDINAL_BITS], dtype=np.int64),
                    ))
                if cursor.end <= t1:
                    cursor.release()
                else:
                    live.append((position, cursor))
            self._fallbacks = live
        if not parts:
            return PacketBatch.empty()
        if len(parts) == 1:
            return PacketBatch(*(column.copy() for column in parts[0][0]))
        ts = np.concatenate([part[0][0] for part in parts])
        order = _time_order(ts, lambda: np.lexsort((
            np.concatenate([keys[span] for _, span, keys in parts]), ts,
        )))
        return PacketBatch(ts[order], *(
            np.concatenate([part[0][col] for part in parts])[order]
            for col in range(1, 6)
        ))
