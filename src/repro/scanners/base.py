"""Core scanner abstractions and the vantage-point emission math.

A :class:`Scanner` is one source IP with a list of :class:`ScanSession`
activities.  Sessions describe *Internet-wide* behavior (e.g. "cover 40%
of IPv4 on port 6379 over six hours"); the packets any particular
monitored network receives are derived analytically from the overlap
between the session's target space and that network's address ranges.

This "telescope sampling" construction is what makes the simulation
tractable: instead of materializing the billions of probes a real scan
sends, we draw only the packets that land inside a monitored view, with
exactly the right marginal distribution.  It also reproduces the paper's
key cross-vantage property for free: a scanner detected in the darknet
necessarily sends proportional traffic into every other monitored
network (Merit's lit space, the campus network), because all views
sample the same underlying session.

Three session modes cover the archetypes in the wild:

* ``COVERAGE`` — ZMap/Masscan-style jobs that enumerate a fraction of
  the target space once per port (random order, uniform in time).
* ``RATE`` — botnet-style probing with replacement at a fixed aggregate
  packet rate (e.g. Mirai bots).
* ``VERTICAL`` — many-port scans: probe every port in a (possibly huge)
  port set on a sample of addresses; the Definition-3 population.
"""

from __future__ import annotations

import enum
import math
import zlib
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from repro.fingerprint import Tool, masscan_ipid, random_ipid, zmap_ipid
from repro.net.prefix import (
    PrefixSet,
    intersect_ranges,
    ranges_size,
    sample_distinct_offsets,
)
from repro.packet import PacketBatch, Protocol
from repro.scanners.streams import span_generators

IPV4_SPACE = 2**32

#: Target expected in-view packets per RATE generation sub-window.  A
#: RATE session's Poisson process is exactly decomposable across
#: disjoint time spans, so long/high-rate sessions are generated on a
#: deterministic per-session grid sized to roughly this many packets per
#: span — windowed emission then never materializes more than ~one span
#: of any session, which is what bounds lazy-generation memory.  Small
#: is cheap: the number of extra RNG streams scales with *total* in-view
#: packets divided by this target, which stays negligible next to the
#: one-stream-per-session floor.
RATE_SPAN_TARGET_PACKETS = 8_192.0

#: Fixed costs of the flow-synthesis hot path, in (day, port) cell
#: units.  Calibrated on the darknet-2021 bench population: building
#: one scanner's block costs ~53µs before any cell is produced
#: (derived-RNG construction plus batched-call dispatch), each session
#: adds ~50µs of count bookkeeping, and one count cell costs ~0.22µs —
#: so the floors are 53/0.22 and 50/0.22 cell units.  Without them the
#: planner starves: on heavy-tail populations most scanners are
#: overhead-dominated, and a cells-only estimate packs thousands of
#: "free" light scanners into one shard.
FLOW_SCANNER_BASE_COST = 240.0
FLOW_SESSION_BASE_COST = 220.0


def full_ipv4_ranges() -> np.ndarray:
    """The whole IPv4 space as a single [start, end) range."""
    return np.array([[0, IPV4_SPACE]], dtype=np.int64)


def view_rng_key(view: "View") -> int:
    """Stable integer identifying a view's RNG substream.

    zlib.crc32, not hash(): Python string hashing is salted per process,
    which would break cross-run reproducibility.
    """
    return zlib.crc32(view.name.encode("utf-8"))


@dataclass(frozen=True)
class View:
    """A monitored address region (darknet, ISP lit space, campus)."""

    name: str
    prefixes: PrefixSet

    @property
    def size(self) -> int:
        """Number of monitored addresses."""
        return self.prefixes.size

    def ranges(self) -> np.ndarray:
        """Covered space as sorted [start, end) ranges."""
        return self.prefixes.ranges()

    def slash24s(self) -> int:
        """Announced /24 count (Figure 2 normalization)."""
        return self.prefixes.slash24s()


class ScanMode(enum.Enum):
    """How a session selects targets; see the module docstring."""

    COVERAGE = "coverage"
    RATE = "rate"
    VERTICAL = "vertical"


@dataclass
class ScanSession:
    """One contiguous scanning activity of a single source.

    Attributes:
        start: session start, seconds since scenario start.
        duration: session length in seconds.
        ports: destination ports probed (``[0]`` for ICMP sessions).
        proto: traffic type (TCP-SYN, UDP or ICMP echo request).
        tool: generating tool, which fixes the IP-ID fingerprint.
        mode: target-selection mode.
        coverage: COVERAGE mode — fraction of the target space
            enumerated per port, in (0, 1].
        rate_pps: RATE mode — aggregate Internet-wide packet rate.
        port_weights: RATE mode — per-port selection probabilities
            (uniform when omitted).
        n_targets: VERTICAL mode — number of addresses sampled from the
            target space, each probed on every port.
        probes_per_target: retransmission factor for COVERAGE/VERTICAL.
        target_ranges: restriction of the target space as an ``(n, 2)``
            [start, end) array; ``None`` means all of IPv4.
    """

    start: float
    duration: float
    ports: np.ndarray
    proto: Protocol
    tool: Tool
    mode: ScanMode
    coverage: float = 0.0
    rate_pps: float = 0.0
    port_weights: Optional[np.ndarray] = None
    n_targets: int = 0
    probes_per_target: int = 1
    target_ranges: Optional[np.ndarray] = None

    def __post_init__(self) -> None:
        self.ports = np.asarray(self.ports, dtype=np.uint16)
        if self.duration <= 0:
            raise ValueError("session duration must be positive")
        if len(self.ports) == 0:
            raise ValueError("session must probe at least one port")
        if self.mode is ScanMode.COVERAGE and not 0 < self.coverage <= 1:
            raise ValueError("coverage must be in (0, 1]")
        if self.mode is ScanMode.RATE and self.rate_pps <= 0:
            raise ValueError("rate_pps must be positive")
        if self.mode is ScanMode.VERTICAL and self.n_targets <= 0:
            raise ValueError("n_targets must be positive")
        if self.probes_per_target < 1:
            raise ValueError("probes_per_target must be >= 1")
        if self.port_weights is not None:
            self.port_weights = np.asarray(self.port_weights, dtype=np.float64)
            if len(self.port_weights) != len(self.ports):
                raise ValueError("port_weights must align with ports")
            self.port_weights = self.port_weights / self.port_weights.sum()

    @property
    def end(self) -> float:
        """Session end timestamp."""
        return self.start + self.duration

    def effective_targets(self) -> np.ndarray:
        """Target ranges, defaulting to the full IPv4 space."""
        if self.target_ranges is None:
            return full_ipv4_ranges()
        return self.target_ranges

    def target_space_size(self) -> int:
        """Address count of the session's target space."""
        return ranges_size(self.effective_targets())


def _offsets_to_addrs(ranges: np.ndarray, offsets: np.ndarray) -> np.ndarray:
    """Map linear offsets in [0, size(ranges)) to addresses."""
    sizes = ranges[:, 1] - ranges[:, 0]
    bounds = np.cumsum(sizes)
    which = np.searchsorted(bounds, offsets, side="right")
    starts = np.concatenate([[0], bounds[:-1]])
    return (ranges[which, 0] + (offsets - starts[which])).astype(np.uint32)


def _sample_addrs_with_replacement(
    rng: np.random.Generator, ranges: np.ndarray, count: int
) -> np.ndarray:
    total = ranges_size(ranges)
    offsets = rng.integers(0, total, size=count, dtype=np.int64)
    return _offsets_to_addrs(ranges, offsets)


@dataclass
class Scanner:
    """One scanning source IP and its activity schedule.

    Attributes:
        src: source address (integer IPv4).
        behavior: archetype label ("mirai", "masscan-sweep", ...); drives
            the GreyNoise-style tagging in :mod:`repro.labeling`.
        sessions: the scanner's activities over the scenario.
        org: acknowledged-scanner organization slug when the source
            belongs to a research org, else ``None``.
        seed: per-scanner RNG seed; emission into different views uses
            view-name-derived substreams so vantage points stay
            independent but reproducible.
    """

    src: int
    behavior: str
    sessions: list = field(default_factory=list)
    org: Optional[str] = None
    seed: int = 0

    def _rng_for_view(self, view: View) -> np.random.Generator:
        return np.random.default_rng((self.seed, view_rng_key(view)))

    def emit(
        self,
        view: View,
        window: Optional[tuple[float, float]] = None,
    ) -> PacketBatch:
        """Generate this scanner's packets landing inside ``view``.

        Emission is deterministic per (scanner, view, session,
        generation span): every session draws from its own RNG
        substream, so any time-slice of a session can be regenerated
        independently of the others.  A ``window`` therefore yields
        *exactly* the packets of the full emission whose timestamps fall
        inside it — windowed and full emission are slices of one
        underlying realization, which is what the lazy streaming layer
        (:mod:`repro.scanners.lazy`) relies on.

        Args:
            view: the monitored address region.
            window: optional [start, end) time clip.

        Returns:
            An unsorted :class:`PacketBatch` in deterministic generation
            order (callers sort at capture).
        """
        view_key = view_rng_key(view)
        view_ranges = view.ranges()
        batches = []
        for index, session in enumerate(self.sessions):
            if window is not None and (
                session.start >= window[1] or session.end <= window[0]
            ):
                continue
            batch = self._emit_session_windowed(
                index, session, view_ranges, view_key, window
            )
            if len(batch):
                batches.append(batch)
        return PacketBatch.concat(batches)

    def emit_window(self, view: View, t0: float, t1: float) -> PacketBatch:
        """Packets of the full emission with ``t0 <= ts < t1``, sorted.

        Concatenating ``emit_window`` over any partition of a span
        covering every session reproduces ``emit(view).sorted_by_time()``
        bit-identically — addresses, ports, timestamps and fingerprints
        (pinned by a hypothesis property test).  This is the unit the
        lazy capture source is built from.
        """
        return self.emit(view, window=(t0, t1)).sorted_by_time()

    def session_spans(self) -> np.ndarray:
        """Per-session [start, end) spans as an ``(n, 2)`` float array.

        The population-level interval index is built from these, so a
        windowed emission only touches scanners with overlapping
        sessions.
        """
        if not self.sessions:
            return np.empty((0, 2), dtype=np.float64)
        return np.array(
            [[s.start, s.end] for s in self.sessions], dtype=np.float64
        )

    # ------------------------------------------------------------------
    def _session_plan(
        self, session: ScanSession, view_ranges: np.ndarray
    ) -> tuple:
        """Deterministic generation plan for one session into one view.

        Returns ``(inter, hit_space, target_space, spans)`` where spans
        is the list of [start, end) generation sub-windows.  Non-RATE
        sessions are one span (COVERAGE/VERTICAL draw *distinct*
        targets, which cannot be split without breaking the
        enumerate-once semantics — but their in-view packet count is
        bounded by the view size, so one span is already small).  RATE
        sessions are a Poisson process, exactly decomposable, and are
        split so each span expects roughly
        :data:`RATE_SPAN_TARGET_PACKETS` packets.
        """
        inter = intersect_ranges(session.effective_targets(), view_ranges)
        hit_space = ranges_size(inter)
        if hit_space == 0:
            return inter, 0, 0, []
        target_space = session.target_space_size()
        if session.mode is not ScanMode.RATE:
            return inter, hit_space, target_space, [(session.start, session.end)]
        expected = (
            session.rate_pps * session.duration * hit_space / target_space
        )
        n_spans = max(1, int(math.ceil(expected / RATE_SPAN_TARGET_PACKETS)))
        if n_spans == 1:
            return inter, hit_space, target_space, [(session.start, session.end)]
        sub = session.duration / n_spans
        spans = [
            (session.start + j * sub, session.start + (j + 1) * sub)
            for j in range(n_spans)
        ]
        # Pin the last edge to the exact session end (float summation
        # may land a hair off; slicing contracts depend on exact edges).
        spans[-1] = (spans[-1][0], session.end)
        return inter, hit_space, target_space, spans

    def span_rngs(self, view_key: int, pairs: Sequence[tuple]) -> list:
        """Derive many span RNG streams in one vectorized pass.

        ``pairs`` is a sequence of ``(session_index, span_index)``
        tuples; the returned generators are bit-identical to
        ``np.random.default_rng((seed, view_key, session, span))`` per
        pair (see :mod:`repro.scanners.streams`), but the
        ``SeedSequence`` entropy mixing is amortized over the whole
        batch — the per-span fixed cost drops ~5x, which is what makes
        windowed emission touch tens of thousands of spans cheaply.
        """
        return span_generators(
            [(self.seed, view_key, index, span) for index, span in pairs]
        )

    def _emit_session_windowed(
        self,
        index: int,
        session: ScanSession,
        view_ranges: np.ndarray,
        view_key: int,
        window: Optional[tuple[float, float]],
    ) -> PacketBatch:
        """One session's packets clipped to ``window`` (exact slices)."""
        inter, hit_space, target_space, spans = self._session_plan(
            session, view_ranges
        )
        if hit_space == 0:
            return PacketBatch.empty()
        live = []
        for j, (s0, s1) in enumerate(spans):
            if window is not None:
                c0, c1 = max(s0, window[0]), min(s1, window[1])
                if c0 >= c1:
                    continue
            else:
                c0, c1 = s0, s1
            live.append((j, s0, s1, c0, c1))
        # One vectorized seed derivation for every span the window
        # touches, instead of a full SeedSequence chain per span.
        rngs = self.span_rngs(view_key, [(index, j) for j, *_ in live])
        parts = []
        for (j, s0, s1, c0, c1), rng in zip(live, rngs):
            batch = self._generate_span(
                session, index, j, s0, s1, inter, hit_space, target_space,
                view_key, rng=rng,
            )
            if c0 > s0 or c1 < s1:
                # Boolean mask, not searchsorted: spans are kept in
                # generation order (unsorted), and masking preserves
                # that order — which is what makes a window slice equal
                # the restriction of the full concat.
                batch = batch.select((batch.ts >= c0) & (batch.ts < c1))
            if len(batch):
                parts.append(batch)
        return PacketBatch.concat(parts)

    def _generate_span(
        self,
        session: ScanSession,
        index: int,
        span_index: int,
        s0: float,
        s1: float,
        inter: np.ndarray,
        hit_space: int,
        target_space: int,
        view_key: int,
        rng: Optional[np.random.Generator] = None,
    ) -> PacketBatch:
        """Generate one full [s0, s1) span of a session, unsorted.

        The RNG stream is keyed by (scanner seed, view, session, span),
        so a span regenerates bit-identically no matter which query
        window asked for it.  Rows stay in generation order; callers
        sort once per capture window, never per span.  ``rng`` lets
        batched callers (:meth:`span_rngs`) hand in the pre-derived
        stream; when omitted the span derives its own, identically.
        """
        if rng is None:
            rng = np.random.default_rng(
                (self.seed, view_key, index, span_index)
            )
        if session.mode is ScanMode.COVERAGE:
            dst, dport = self._coverage_hits(
                session, inter, hit_space, 1.0, rng
            )
        elif session.mode is ScanMode.RATE:
            dst, dport = self._rate_hits(
                session, inter, hit_space, target_space, s1 - s0, rng
            )
        else:
            dst, dport = self._vertical_hits(
                session, inter, hit_space, target_space, 1.0, rng
            )
        count = len(dst)
        if count == 0:
            return PacketBatch.empty()
        ts = s0 + rng.random(count) * (s1 - s0)
        if session.proto is Protocol.ICMP_ECHO:
            dport = np.zeros(count, dtype=np.uint16)
        ipid = self._fingerprint(session.tool, dst, dport, rng)
        src = np.full(count, self.src, dtype=np.uint32)
        proto = np.full(count, session.proto.value, dtype=np.uint8)
        return PacketBatch(
            ts=ts, src=src, dst=dst, dport=dport, proto=proto, ipid=ipid
        )

    def _coverage_hits(self, session, inter, hit_space, time_fraction, rng):
        p_hit = min(session.coverage * time_fraction, 1.0)
        dsts = []
        ports = []
        for port in session.ports:
            k = int(rng.binomial(hit_space, p_hit))
            if k == 0:
                continue
            offsets = sample_distinct_offsets(rng, hit_space, k)
            addrs = _offsets_to_addrs(inter, offsets)
            if session.probes_per_target > 1:
                addrs = np.repeat(addrs, session.probes_per_target)
            dsts.append(addrs)
            ports.append(np.full(len(addrs), port, dtype=np.uint16))
        if not dsts:
            return np.empty(0, np.uint32), np.empty(0, np.uint16)
        return np.concatenate(dsts), np.concatenate(ports)

    def _rate_hits(self, session, inter, hit_space, target_space, span, rng):
        lam = session.rate_pps * span * hit_space / target_space
        k = int(rng.poisson(lam))
        if k == 0:
            return np.empty(0, np.uint32), np.empty(0, np.uint16)
        dst = _sample_addrs_with_replacement(rng, inter, k)
        if len(session.ports) == 1:
            dport = np.full(k, session.ports[0], dtype=np.uint16)
        else:
            idx = rng.choice(len(session.ports), size=k, p=session.port_weights)
            dport = session.ports[idx]
        return dst, dport

    def _vertical_hits(
        self, session, inter, hit_space, target_space, time_fraction, rng
    ):
        p_view = hit_space / target_space
        n_effective = session.n_targets * time_fraction
        k = int(rng.binomial(int(round(n_effective)), p_view)) if n_effective >= 1 else int(
            rng.random() < n_effective * p_view
        )
        k = min(k, hit_space)
        if k == 0:
            return np.empty(0, np.uint32), np.empty(0, np.uint16)
        offsets = sample_distinct_offsets(rng, hit_space, k)
        addrs = _offsets_to_addrs(inter, offsets)
        dst = np.repeat(addrs, len(session.ports) * session.probes_per_target)
        dport = np.tile(
            np.repeat(session.ports, session.probes_per_target), k
        )
        return dst, dport

    @staticmethod
    def _fingerprint(tool, dst, dport, rng):
        if tool is Tool.ZMAP:
            return zmap_ipid(len(dst))
        if tool is Tool.MASSCAN:
            return masscan_ipid(dst, dport)
        return random_ipid(rng, len(dst))

    # ------------------------------------------------------------------
    # Analytic emission paths (flows and packet-stream monitors).
    #
    # Per-packet emission is only affordable for the (small) darknet
    # view.  The ISP substrates instead consume expected-rate math:
    # ``count_rows`` yields per-day, per-port packet counts for the
    # NetFlow path, and ``accumulate_stream`` adds per-second Poisson
    # packet counts for the mirrored-stream monitors.  Both derive from
    # the same sessions, so all vantage points stay mutually consistent.
    # ------------------------------------------------------------------
    def _session_view_total(self, session: ScanSession, view_ranges) -> float:
        """Expected packets a session sends into a view over its life."""
        inter = intersect_ranges(session.effective_targets(), view_ranges)
        hit_space = ranges_size(inter)
        if hit_space == 0:
            return 0.0
        target_space = session.target_space_size()
        if session.mode is ScanMode.COVERAGE:
            return (
                hit_space
                * min(session.coverage, 1.0)
                * len(session.ports)
                * session.probes_per_target
            )
        if session.mode is ScanMode.RATE:
            return session.rate_pps * session.duration * hit_space / target_space
        return (
            session.n_targets
            * (hit_space / target_space)
            * len(session.ports)
            * session.probes_per_target
        )

    def cost_estimate(self, *, day_seconds: float = 86_400.0) -> float:
        """Predicted relative flow-synthesis cost of this scanner (cheap).

        The flow-synthesis planner
        (:func:`repro.core.schedule.plan_contiguous`) calls this once
        per scanner to cut the population into cost-capped slices, so
        it must be orders of magnitude cheaper than the work it
        predicts — a few float operations per session, no RNG, no array
        allocation.

        The unit is (day, port) count cells: the cells the scanner
        materializes plus the calibrated per-scanner and per-session
        fixed costs (:data:`FLOW_SCANNER_BASE_COST`,
        :data:`FLOW_SESSION_BASE_COST`) — a 100k-pps single-port
        scanner is heavy in packets but trivial in flow cells.  The
        fixed costs keep the total positive even for an idle scanner.
        """
        cost = FLOW_SCANNER_BASE_COST
        for session in self.sessions:
            days = math.ceil(session.duration / day_seconds)
            cost += FLOW_SESSION_BASE_COST + float(
                len(session.ports)
            ) * max(days, 1)
        return cost

    def count_rows(
        self,
        view: View,
        window: tuple,
        day_seconds: float,
        rng: np.random.Generator,
    ):
        """Per-day, per-service packet counts sent into ``view``.

        Yields ``(day_index, port, proto_value, count)`` tuples with
        Poisson-sampled counts; used by the NetFlow exporter, which
        applies 1:1000 packet sampling on top.

        Args:
            view: monitored region.
            window: [start, end) restriction in seconds.
            day_seconds: day length for day indexing.
            rng: random stream for count draws.
        """
        view_ranges = view.ranges()
        rows = []
        for session in self.sessions:
            total = self._session_view_total(session, view_ranges)
            if total <= 0:
                continue
            w0 = max(session.start, window[0])
            w1 = min(session.end, window[1])
            if w0 >= w1:
                continue
            first_day = int(w0 // day_seconds)
            last_day = int((w1 - 1e-9) // day_seconds)
            for day in range(first_day, last_day + 1):
                d0 = max(w0, day * day_seconds)
                d1 = min(w1, (day + 1) * day_seconds)
                frac = (d1 - d0) / session.duration
                expected = total * frac
                if expected <= 0:
                    continue
                if len(session.ports) == 1:
                    count = int(rng.poisson(expected))
                    if count:
                        rows.append(
                            (day, int(session.ports[0]), session.proto.value, count)
                        )
                elif session.mode is ScanMode.VERTICAL:
                    # Every sampled target receives the full port set, so
                    # all ports share one target count.
                    per_port = expected / len(session.ports)
                    k = int(rng.poisson(per_port))
                    if k:
                        for port in session.ports:
                            rows.append((day, int(port), session.proto.value, k))
                else:
                    weights = (
                        session.port_weights
                        if session.port_weights is not None
                        else np.full(len(session.ports), 1.0 / len(session.ports))
                    )
                    counts = rng.poisson(expected * weights)
                    for port, count in zip(session.ports, counts):
                        if count:
                            rows.append(
                                (day, int(port), session.proto.value, int(count))
                            )
        return rows

    def count_columns(
        self,
        view: View,
        window: tuple,
        day_seconds: float,
        rng: np.random.Generator,
    ) -> tuple:
        """Columnar :meth:`count_rows`: per-day, per-service counts as arrays.

        Returns aligned ``(day, port, proto, count)`` arrays — the same
        rows :meth:`count_rows` yields, in the same order, from the same
        random stream.  The bit-identity contract is exact: for a given
        ``rng`` state both methods consume the stream identically (all
        of a session's Poisson draws happen in day-major, then
        port-major order, whether drawn scalar-by-scalar or as one
        batched call), so the columnar flow-synthesis path can be
        checked row-for-row against the loop reference.

        Args:
            view: monitored region.
            window: [start, end) restriction in seconds.
            day_seconds: day length for day indexing.
            rng: random stream for count draws.
        """
        view_ranges = view.ranges()
        day_parts: list = []
        port_parts: list = []
        proto_parts: list = []
        count_parts: list = []
        for session in self.sessions:
            total = self._session_view_total(session, view_ranges)
            if total <= 0:
                continue
            w0 = max(session.start, window[0])
            w1 = min(session.end, window[1])
            if w0 >= w1:
                continue
            first_day = int(w0 // day_seconds)
            last_day = int((w1 - 1e-9) // day_seconds)
            days = np.arange(first_day, last_day + 1, dtype=np.int64)
            d0 = np.maximum(w0, days * day_seconds)
            d1 = np.minimum(w1, (days + 1) * day_seconds)
            expected = total * (d1 - d0) / session.duration
            # The loop skips zero-expectation days *before* drawing, so
            # the filter must happen before the batched draw too.
            positive = expected > 0
            days = days[positive]
            expected = expected[positive]
            if len(days) == 0:
                continue
            ports = session.ports
            n_ports = len(ports)
            if n_ports == 1:
                counts = rng.poisson(expected)
                day_col = days
                port_col = np.full(len(days), ports[0], dtype=np.uint16)
            elif session.mode is ScanMode.VERTICAL:
                # One target count per day, shared by the whole port set.
                shared = rng.poisson(expected / n_ports)
                day_col = np.repeat(days, n_ports)
                port_col = np.tile(ports, len(days))
                counts = np.repeat(shared, n_ports)
            else:
                weights = (
                    session.port_weights
                    if session.port_weights is not None
                    else np.full(n_ports, 1.0 / n_ports)
                )
                # (days, ports) in C order == the loop's per-day vectors.
                counts = rng.poisson(expected[:, None] * weights).ravel()
                day_col = np.repeat(days, n_ports)
                port_col = np.tile(ports, len(days))
            keep = counts > 0
            if not keep.any():
                continue
            day_parts.append(day_col[keep])
            port_parts.append(port_col[keep])
            count_parts.append(counts[keep].astype(np.int64))
            proto_parts.append(
                np.full(int(keep.sum()), session.proto.value, dtype=np.uint8)
            )
        if not day_parts:
            return (
                np.empty(0, dtype=np.int64),
                np.empty(0, dtype=np.uint16),
                np.empty(0, dtype=np.uint8),
                np.empty(0, dtype=np.int64),
            )
        return (
            np.concatenate(day_parts),
            np.concatenate(port_parts),
            np.concatenate(proto_parts),
            np.concatenate(count_parts),
        )

    def accumulate_stream(
        self,
        accumulator: np.ndarray,
        view: View,
        window: tuple,
        rng: np.random.Generator,
        rate_scale: float = 1.0,
    ) -> None:
        """Add this scanner's per-second packet counts to a monitor.

        Args:
            accumulator: int64 array of per-second counts; index 0 is
                ``window[0]``.
            view: monitored region.
            window: [start, end) covered by the accumulator.
            rng: random stream for Poisson draws.
            rate_scale: multiplier on the emission rate — used when the
                monitor only mirrors part of the view's traffic (e.g.
                one of several ingress routers).
        """
        if rate_scale <= 0:
            return
        view_ranges = view.ranges()
        horizon = len(accumulator)
        for session in self.sessions:
            total = self._session_view_total(session, view_ranges) * rate_scale
            if total <= 0:
                continue
            w0 = max(session.start, window[0])
            w1 = min(session.end, window[1])
            if w0 >= w1:
                continue
            rate = total / session.duration
            i0 = max(int(w0 - window[0]), 0)
            i1 = min(int(np.ceil(w1 - window[0])), horizon)
            if i1 <= i0:
                continue
            accumulator[i0:i1] += rng.poisson(rate, i1 - i0)

    # ------------------------------------------------------------------
    def first_activity(self) -> float:
        """Timestamp of the scanner's earliest session."""
        if not self.sessions:
            raise ValueError("scanner has no sessions")
        return min(s.start for s in self.sessions)

    def last_activity(self) -> float:
        """Timestamp of the scanner's latest session end."""
        if not self.sessions:
            raise ValueError("scanner has no sessions")
        return max(s.end for s in self.sessions)

    def distinct_ports(self) -> int:
        """Number of distinct ports across all sessions."""
        if not self.sessions:
            return 0
        return len(np.unique(np.concatenate([s.ports for s in self.sessions])))


def emit_population(
    scanners: Sequence[Scanner],
    view: View,
    window: Optional[tuple[float, float]] = None,
) -> PacketBatch:
    """Emit and time-sort packets of many scanners into one view."""
    batches = [scanner.emit(view, window) for scanner in scanners]
    return PacketBatch.concat(batches).sorted_by_time()
