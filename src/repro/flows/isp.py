"""Monitored-network models: the Merit-like ISP and the campus network.

An :class:`ISPNetwork` ties together a transit view (the address space
whose traffic crosses the monitored border routers — the ISP's lit
space plus, for the telescope operator, the dark space), the routing
policy that assigns each external source to an ingress router, and a
legitimate-traffic model per router.

It produces the two ISP datasets of the paper: sampled NetFlow
(``collect_scanner_flows``) and router-day total-packet counters
(``router_day_totals``), which together feed the Table 2/4/8 impact
analyses.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Dict, Optional, Sequence

import numpy as np

from repro.core.telemetry import PipelineTelemetry
from repro.flows.netflow import NetflowExporter
from repro.flows.router import RoutingPolicy
from repro.flows.synthesis import flow_base_seed, synthesize_flow_columns
from repro.net.asn import ASType, AutonomousSystem
from repro.net.internet import Internet, with_systems
from repro.net.prefix import Prefix, PrefixSet
from repro.scanners.base import Scanner, View
from repro.sim.clock import SimClock
from repro.traffic.cache import ContentCacheModel
from repro.traffic.legit import DiurnalTrafficModel


@dataclass
class ISPNetwork:
    """One monitored network with border routers and NetFlow export.

    Attributes:
        name: network label ("merit", "campus").
        transit_view: address space whose traffic transits the border.
        lit_slash24s: number of announced /24s, used by the Figure 2
            per-/24 normalization (includes dark space for the ISP,
            mirroring how the paper counts the operator's /24s).
        policy: source-to-router assignment.
        traffic_models: per-router legitimate traffic models.
        internet: address plan for source-country lookups.
        monitored_router: index of the router whose mirror feeds the
            packet-stream station (Merit's station covers one major
            core router; the campus station covers its only border).
    """

    name: str
    transit_view: View
    lit_slash24s: int
    policy: RoutingPolicy
    traffic_models: Sequence[DiurnalTrafficModel]
    internet: Internet
    monitored_router: int = 0
    #: number of destination blocks the ISP's space is split into for
    #: ingress selection (BGP picks the entry point per prefix, so one
    #: source's traffic fans out across routers).
    dst_blocks: int = 8

    def __post_init__(self) -> None:
        if len(self.traffic_models) != len(self.policy.routers):
            raise ValueError("need one traffic model per router")
        if not 0 <= self.monitored_router < len(self.policy.routers):
            raise ValueError("monitored_router out of range")

    @property
    def router_count(self) -> int:
        """Number of monitored border routers."""
        return len(self.policy.routers)

    def router_names(self) -> list:
        """Router display names, ordered by index."""
        return [r.name for r in self.policy.routers]

    # ------------------------------------------------------------------
    def assign_router(self, src: int) -> int:
        """Primary ingress router of one external source (block 0)."""
        country = self._country_of(src)
        return self.policy.router_of(src, country)

    def router_mix(self, src: int) -> np.ndarray:
        """Per-router share of this source's traffic to the ISP."""
        country = self._country_of(src)
        block_size = self.transit_view.size / self.dst_blocks
        return self.policy.router_mix(
            src, country, [block_size] * self.dst_blocks
        )

    def router_share(self, src: int, router: int) -> float:
        """Share of the source's ISP-bound traffic entering ``router``."""
        return float(self.router_mix(src)[router])

    def router_mix_many(
        self,
        sources: np.ndarray,
        countries: Optional[Sequence[str]] = None,
    ) -> np.ndarray:
        """Per-router traffic shares for many sources at once.

        Row ``i`` equals ``router_mix(sources[i])``; countries are
        looked up in bulk unless the caller already has them.
        """
        sources = np.asarray(sources, dtype=np.uint32)
        if countries is None:
            countries = self._countries_of(sources)
        block_size = self.transit_view.size / self.dst_blocks
        return self.policy.router_mix_matrix(
            sources, countries, [block_size] * self.dst_blocks
        )

    def _country_of(self, src: int) -> str:
        system = self.internet.registry.lookup_one(int(src))
        return system.country if system is not None else "??"

    def _countries_of(self, sources: np.ndarray) -> list:
        return self.internet.registry.countries(sources)

    # ------------------------------------------------------------------
    def collect_scanner_flows(
        self,
        scanners: Sequence[Scanner],
        window: tuple,
        clock: SimClock,
        rng: np.random.Generator,
        exporter: Optional[NetflowExporter] = None,
        *,
        workers: Optional[int] = None,
        telemetry: Optional[PipelineTelemetry] = None,
        retry=None,
        checkpoint_dir=None,
    ) -> tuple:
        """Simulate the scanners' transit traffic and export NetFlow.

        Columnar throughout: router mixes for the whole population come
        from one vectorized pass, each scanner's count rows and router
        splits are batched draws from its own derived stream
        (:mod:`repro.flows.synthesis`), per-cell true totals are one
        grouped aggregation, and the exporter applies a single binomial
        over the true-count column.  ``rng`` is consumed exactly once —
        for the flow base seed — so the result is bit-identical for any
        worker count and for the scalar loop reference.

        Args:
            scanners: sources to materialize at the routers (typically
                the detected AH plus acknowledged scanners; the rest of
                the Internet's scanning is folded into the traffic
                models' floor).
            window: [start, end) collection period.
            clock: day calendar.
            rng: random stream (one draw: the flow base seed).
            exporter: NetFlow sampling config (default 1:1000).
            workers: shard synthesis across this many worker processes
                (contiguous population slices, merged in order); ``None``
                or 1 synthesizes serially.  Results are identical.
            telemetry: optional gauge sink; a "flows" stage plus
                per-worker synthesis throughput is recorded.
            retry: per-shard :class:`~repro.core.faults.RetryPolicy`
                for the parallel path.
            checkpoint_dir: persist finished flow-shard states here so
                an interrupted collection resumes without re-synthesis
                (forces the sharded code path even for 1 worker).

        Returns:
            ``(flow_table, true_totals)`` where ``true_totals`` maps
            ``(router, day)`` to the scanners' true (unsampled) packet
            counts — the piece of the router totals the scanners are
            responsible for.
        """
        exporter = exporter or NetflowExporter()
        t0 = time.perf_counter()
        base = flow_base_seed(rng)
        scanners = list(scanners)
        sources = np.array([int(s.src) for s in scanners], dtype=np.uint32)
        countries = self._countries_of(sources)
        mixes = self.router_mix_many(sources, countries)
        day_seconds = clock.seconds_per_day
        if (workers is not None and workers > 1) or checkpoint_dir is not None:
            from repro.parallel import parallel_flow_columns

            columns = parallel_flow_columns(
                scanners,
                mixes,
                self.transit_view,
                window,
                day_seconds,
                base,
                workers=workers if workers is not None else 1,
                telemetry=telemetry,
                retry=retry,
                checkpoint_dir=checkpoint_dir,
            )
        else:
            columns = synthesize_flow_columns(
                scanners, mixes, self.transit_view, window, day_seconds, base
            )
        true_totals = columns.true_totals()
        table = exporter.export_columns(columns, base)
        if telemetry is not None:
            telemetry.stage("flows").add(
                len(scanners), len(table), time.perf_counter() - t0
            )
        return table, true_totals

    def router_day_totals(
        self,
        days: Sequence[int],
        scanner_true_totals: Dict[tuple, int],
        clock: SimClock,
        rng: np.random.Generator,
    ) -> Dict[tuple, int]:
        """Total packets each router processed on each day.

        The denominator of every impact percentage: legitimate traffic
        from the per-router models plus the scanners' true counts.
        """
        totals: Dict[tuple, int] = {}
        for day in days:
            for router in range(self.router_count):
                legit = self.traffic_models[router].daily_total(day, clock, rng)
                scan = scanner_true_totals.get((router, day), 0)
                totals[(router, day)] = legit + scan
        return totals


def build_merit_like(
    internet: Internet,
    dark_prefix: Prefix,
    *,
    lit_prefix_length: int = 17,
    asn: int = 237,
    cache_fraction: float = 0.45,
    router_border_pps: Sequence[float] = (520.0, 860.0, 840.0),
    monitored_router: int = 0,
) -> tuple:
    """Carve the telescope operator's ISP out of the address plan.

    Args:
        internet: the synthetic Internet (its allocator is advanced).
        dark_prefix: the telescope prefix, which lives inside this ISP
            and whose traffic transits the same border routers.
        lit_prefix_length: size of the ISP's lit (user) address block.
        asn: the ISP's AS number.
        cache_fraction: share of user demand served by in-net caches
            (content caching shrinks the border denominator — §4).
        router_border_pps: target mean *border* pps per router; the
            model's demand base is back-computed through the cache.
        monitored_router: router whose mirror feeds the stream station.

    Returns:
        ``(network, internet)`` with the ISP registered in the plan.
    """
    lit = internet.allocator.allocate(lit_prefix_length)
    system = AutonomousSystem(
        asn=asn,
        org="telescope-operator-isp",
        country="US",
        as_type=ASType.EDU,
        prefixes=(lit, dark_prefix),
    )
    internet = with_systems(internet, [system])
    policy = RoutingPolicy.default_three_router()
    cache = ContentCacheModel(cache_fraction)
    models = tuple(
        DiurnalTrafficModel(
            base_pps=border / cache.border_factor(),
            cache=cache,
            floor_pps=15.0,
        )
        for border in router_border_pps
    )
    view = View(name="merit-transit", prefixes=PrefixSet([lit, dark_prefix]))
    network = ISPNetwork(
        name="merit",
        transit_view=view,
        lit_slash24s=PrefixSet([lit, dark_prefix]).slash24s(),
        policy=policy,
        traffic_models=models,
        internet=internet,
        monitored_router=monitored_router,
    )
    return network, internet


def build_campus_like(
    internet: Internet,
    *,
    prefix_length: int = 19,
    asn: int = 104,
    border_pps: float = 3_600.0,
) -> tuple:
    """Carve the campus network (CU-like) out of the address plan.

    The campus has a single monitored border, no in-network content
    caches (all user demand crosses the border), and a much smaller
    address footprint — the combination behind the paper's Figure 1/2
    contrast with the ISP.
    """
    lit = internet.allocator.allocate(prefix_length)
    system = AutonomousSystem(
        asn=asn,
        org="campus-university",
        country="US",
        as_type=ASType.EDU,
        prefixes=(lit,),
    )
    internet = with_systems(internet, [system])
    policy = RoutingPolicy.single_router("Campus-Border")
    models = (
        DiurnalTrafficModel(
            base_pps=border_pps,
            cache=ContentCacheModel(0.0),
            floor_pps=3.0,
            # Campus populations have sharper day/night and weekend
            # swings than a statewide ISP.
            diurnal_amplitude=0.45,
            weekend_factor=0.55,
        ),
    )
    view = View(name="campus-transit", prefixes=PrefixSet([lit]))
    network = ISPNetwork(
        name="campus",
        transit_view=view,
        lit_slash24s=PrefixSet([lit]).slash24s(),
        policy=policy,
        traffic_models=models,
        internet=internet,
        monitored_router=0,
    )
    return network, internet
