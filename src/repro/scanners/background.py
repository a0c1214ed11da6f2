"""Internet background radiation: small scans, misconfigurations,
DDoS backscatter and spoofed scans.

The darknet's source population is dominated by hosts that never come
near the aggressive thresholds: small scans covering well under 10% of
the dark space (where TCP/445 traffic lives, per Durumeric et al.),
misconfigured hosts that send a handful of stray packets, *backscatter*
from victims of spoofed-source DDoS attacks (SYN-ACK/RST replies that
land in the dark space), and scans launched with spoofed sources.  The
first two supply the body of the ECDFs that Definitions 2 and 3 cut
the tail from; the last two are the false-positive hazards the paper's
methodology is designed to resist (§7: "quality lists ... minimizing
false positives due to spoofing or misconfigurations").
"""

from __future__ import annotations

import numpy as np

from repro.fingerprint import Tool
from repro.scanners.base import ScanMode, ScanSession, Scanner
from repro.scanners.ports import SMALL_SCAN_PROFILE, PortProfile


def build_small_scanners(
    rng: np.random.Generator,
    sources: np.ndarray,
    duration: float,
    *,
    profile: PortProfile = SMALL_SCAN_PROFILE,
    coverage_low: float = 3e-4,
    coverage_high: float = 5e-2,
    seed_base: int = 0,
) -> list:
    """Single-session scans far below the dispersion threshold."""
    log_lo, log_hi = np.log(coverage_low), np.log(coverage_high)
    scanners = []
    for i, src in enumerate(sources):
        port, proto = profile.sample(rng)
        coverage = float(np.exp(rng.uniform(log_lo, log_hi)))
        span = rng.uniform(600.0, 0.02 * duration)
        start = rng.uniform(0.0, max(duration - span, 1.0))
        tool = Tool.ZMAP if rng.random() < 0.1 else Tool.OTHER
        session = ScanSession(
            start=start,
            duration=span,
            ports=np.array([port], dtype=np.uint16),
            proto=proto,
            tool=tool,
            mode=ScanMode.COVERAGE,
            coverage=coverage,
        )
        scanners.append(
            Scanner(
                src=int(src),
                behavior="small-scan",
                sessions=[session],
                seed=seed_base + i,
            )
        )
    return scanners


def build_misconfigured_hosts(
    rng: np.random.Generator,
    sources: np.ndarray,
    duration: float,
    dark_ranges: np.ndarray,
    *,
    packets_mean: float = 3.0,
    seed_base: int = 0,
) -> list:
    """Hosts leaking a few stray packets toward specific dark addresses.

    A misconfigured host repeatedly contacts one wrong destination; the
    telescope only ever sees the hosts whose stray target happens to be
    dark.  We therefore materialize exactly that visible sub-population:
    each source targets a single address drawn from ``dark_ranges`` and
    sends roughly ``packets_mean`` packets to it.  These sources produce
    the one-packet-event mass real telescopes record, and contribute
    nothing to the other monitored networks (their targets are dark by
    construction).
    """
    from repro.net.prefix import sample_ranges
    from repro.packet import Protocol

    scanners = []
    targets = sample_ranges(rng, dark_ranges, len(sources))
    for i, (src, target) in enumerate(zip(sources, targets)):
        span = rng.uniform(60.0, max(0.05 * duration, 120.0))
        start = rng.uniform(0.0, max(duration - span, 1.0))
        port = int(rng.integers(1024, 65536))
        proto = Protocol.TCP_SYN if rng.random() < 0.7 else Protocol.UDP
        n_packets = max(1.0, rng.poisson(packets_mean))
        session = ScanSession(
            start=start,
            duration=span,
            ports=np.array([port], dtype=np.uint16),
            proto=proto,
            tool=Tool.OTHER,
            mode=ScanMode.RATE,
            rate_pps=n_packets / span,
            target_ranges=np.array(
                [[int(target), int(target) + 1]], dtype=np.int64
            ),
        )
        scanners.append(
            Scanner(
                src=int(src),
                behavior="misconfig",
                sessions=[session],
                seed=seed_base + i,
            )
        )
    return scanners


def build_backscatter_victims(
    rng: np.random.Generator,
    sources: np.ndarray,
    duration: float,
    *,
    attack_pps_low: float = 2e5,
    attack_pps_high: float = 8e6,
    attack_minutes_low: float = 5.0,
    attack_minutes_high: float = 120.0,
    seed_base: int = 0,
) -> list:
    """Victims of spoofed-source DDoS attacks.

    An attacked server answers every spoofed SYN with a SYN-ACK toward
    the (uniformly random) forged source — so the telescope receives a
    slice of the victim's replies proportional to the dark fraction of
    the address space (the classic backscatter inference of Moore et
    al.).  Backscatter events can touch *many* distinct dark addresses
    at high rate — dispersion-level coverage! — which is precisely why
    the detection pipeline must key on scanning packet types only; see
    the ``build_events`` filter and the spoofing tests.
    """
    from repro.packet import Protocol

    scanners = []
    for i, src in enumerate(sources):
        span = rng.uniform(attack_minutes_low, attack_minutes_high) * 60.0
        span = min(span, duration * 0.5)
        start = rng.uniform(0.0, max(duration - span, 1.0))
        rate = float(
            np.exp(rng.uniform(np.log(attack_pps_low), np.log(attack_pps_high)))
        )
        # Victims answer on their service port; the reply's destination
        # port (the spoofed SYN's ephemeral source port) is modeled by
        # the session port for simplicity.
        port = int(rng.choice([80, 443, 53, 25565, 22]))
        proto = Protocol.TCP_SYNACK if rng.random() < 0.8 else Protocol.TCP_RST
        session = ScanSession(
            start=start,
            duration=span,
            ports=np.array([port], dtype=np.uint16),
            proto=proto,
            tool=Tool.OTHER,
            mode=ScanMode.RATE,
            rate_pps=rate,
        )
        scanners.append(
            Scanner(
                src=int(src),
                behavior="backscatter-victim",
                sessions=[session],
                seed=seed_base + i,
            )
        )
    return scanners


class SpoofedScan:
    """A scan launched with forged, rotating source addresses.

    Each probe carries a different spoofed source, so the telescope
    records a crowd of one-packet "sources" — none of which can ever
    cross an aggressive threshold.  The object quacks like a
    :class:`Scanner` for the telescope's emission path; its nominal
    ``src`` is a sentinel (the true origin is unobservable, which is
    the point).
    """

    behavior = "spoofed-scan"
    org = None

    def __init__(
        self,
        *,
        start: float,
        duration: float,
        coverage: float,
        dport: int,
        spoof_ranges: np.ndarray,
        seed: int = 0,
    ):
        if not 0 < coverage <= 1:
            raise ValueError("coverage must be in (0, 1]")
        self.src = 0  # sentinel: the true source is forged away
        self.start = start
        self.duration = duration
        self.coverage = coverage
        self.dport = dport
        self.spoof_ranges = spoof_ranges
        self.seed = seed
        self.sessions: list = []  # no genuine sessions to account

    def emit(self, view, window=None):
        """Probes into ``view`` with per-packet spoofed sources."""
        import zlib

        from repro.net.prefix import (
            ranges_size,
            sample_distinct_offsets,
            sample_ranges,
        )
        from repro.packet import PacketBatch, Protocol
        from repro.scanners.base import _offsets_to_addrs

        rng = np.random.default_rng(
            (self.seed, zlib.crc32(view.name.encode("utf-8")))
        )
        w0, w1 = self.start, self.start + self.duration
        if window is not None:
            w0, w1 = max(w0, window[0]), min(w1, window[1])
            if w0 >= w1:
                return PacketBatch.empty()
        fraction = (w1 - w0) / self.duration
        view_ranges = view.ranges()
        size = ranges_size(view_ranges)
        k = int(rng.binomial(size, min(self.coverage * fraction, 1.0)))
        if k == 0:
            return PacketBatch.empty()
        offsets = sample_distinct_offsets(rng, size, k)
        dst = _offsets_to_addrs(view_ranges, offsets)
        src = sample_ranges(rng, self.spoof_ranges, k)
        ts = w0 + rng.random(k) * (w1 - w0)
        return PacketBatch(
            ts=ts,
            src=src,
            dst=dst,
            dport=np.full(k, self.dport, dtype=np.uint16),
            proto=np.full(k, Protocol.TCP_SYN.value, dtype=np.uint8),
            ipid=rng.integers(0, 65536, size=k, dtype=np.uint16),
        )

    def cost_estimate(self, *, day_seconds=86_400.0):
        """Predicted flow-synthesis cost (same protocol as
        :meth:`repro.scanners.base.Scanner.cost_estimate`): a spoofed
        scan never produces flow cells, so it costs the per-scanner
        fixed floor."""
        from repro.scanners.base import FLOW_SCANNER_BASE_COST

        return FLOW_SCANNER_BASE_COST

    def count_rows(self, view, window, day_seconds, rng):
        """Spoofed probes never join the per-source flow accounting."""
        return []

    def count_columns(self, view, window, day_seconds, rng):
        """Columnar twin of :meth:`count_rows` — also empty."""
        return (
            np.empty(0, dtype=np.int64),
            np.empty(0, dtype=np.uint16),
            np.empty(0, dtype=np.uint8),
            np.empty(0, dtype=np.int64),
        )

    def accumulate_stream(self, accumulator, view, window, rng, rate_scale=1.0):
        """No per-source stream attribution for forged addresses."""
        return None
