"""Command-line driver: ``repro-scanners``.

Subcommands:

* ``summary`` — run a scenario and print the Table-1-style dataset
  description plus the AH population per definition.
* ``impact`` — the Table 2 network-impact rows for a flows scenario.
* ``blocklist`` — emit a daily AH blocklist (the paper's operational
  deliverable).
* ``trends`` — the Figure 3 daily time series.
* ``ports`` — the Figure 4 top-ports ranking.
* ``churn`` / ``report`` / ``mitigation`` — churn statistics, the full
  study report, and the border-blocking simulation.
* ``serve`` — the always-on multi-tenant ingestion service
  (:mod:`repro.serve`); unlike the study subcommands it runs no
  scenario, it listens for npz chunks and answers AH queries live.

Every study subcommand accepts ``--scenario`` with one of: ``tiny``,
``darknet-2021``, ``darknet-2022``, ``flows-week``, ``flows-day``,
``stream-72h``.
"""

from __future__ import annotations

import argparse
import sys
from typing import Optional

from repro.analysis.tables import format_table, render_count, render_percent
from repro.core.pipeline import StudyReport, run_study
from repro.scanners.ports import service_label
from repro.packet import Protocol
from repro.sim.scenario import (
    Scenario,
    darknet_year_scenario,
    flows_day_scenario,
    flows_week_scenario,
    stream_72h_scenario,
    tiny_scenario,
)

_SCENARIOS = {
    "tiny": tiny_scenario,
    "darknet-2021": lambda: darknet_year_scenario(2021),
    "darknet-2022": lambda: darknet_year_scenario(2022),
    "flows-week": flows_week_scenario,
    "flows-day": flows_day_scenario,
    "stream-72h": stream_72h_scenario,
}


def _scenario(name: str) -> Scenario:
    if name.endswith(".json"):
        from repro.sim.config_file import load_scenario

        return load_scenario(name)
    try:
        return _SCENARIOS[name]()
    except KeyError:
        raise SystemExit(
            f"unknown scenario {name!r}; choose from {sorted(_SCENARIOS)} "
            "or pass a .json scenario file"
        )


def _cmd_summary(report: StudyReport) -> None:
    summary = report.dataset_summary()
    print(f"Scenario: {report.result.scenario.name}")
    print(
        format_table(
            ["metric", "value"],
            [
                ("darknet packets", f"{summary['packets']:,}"),
                ("source IPs", f"{summary['source_ips']:,}"),
                ("dark IPs", f"{summary['dark_size']:,}"),
                ("events", f"{summary['events']:,}"),
                ("days", summary["days"]),
            ],
            align_right=False,
        )
    )
    rows = []
    for definition, result in sorted(report.detections.items()):
        rows.append(
            (
                f"Definition {definition}",
                len(result),
                f"{result.threshold:.0f}",
            )
        )
    print()
    print(format_table(["definition", "AH sources", "threshold"], rows))
    print(f"\nJaccard(def1, def2) = {report.definition_jaccard():.2f}")
    telemetry = report.result.telemetry
    if telemetry is not None:
        print()
        print(
            format_table(
                ["gauge", "value"],
                telemetry.summary_rows(),
                title="Streaming pipeline telemetry",
                align_right=False,
            )
        )


def _cmd_impact(report: StudyReport) -> None:
    cells = report.impact_cells(definition=1)
    clock = report.clock
    by_day: dict = {}
    for cell in cells:
        by_day.setdefault(cell.day, {})[cell.router] = cell
    routers = sorted({c.router for c in cells})
    headers = ["Date"] + [f"Router-{r + 1} pkts/pcnt" for r in routers]
    rows = []
    for day in sorted(by_day):
        row = [clock.label(day)]
        for router in routers:
            cell = by_day[day].get(router)
            if cell is None:
                row.append("-")
            else:
                row.append(
                    f"{render_count(cell.ah_packets)} ({render_percent(cell.fraction)})"
                )
        rows.append(row)
    print(
        format_table(
            headers, rows, title="Network impact of definition-1 AH", align_right=False
        )
    )


def _cmd_blocklist(report: StudyReport, day: Optional[int]) -> None:
    if day is None:
        day = report.result.scenario.days - 1
    blocklist = report.daily_blocklist(day)
    print(blocklist.render())
    print(
        f"# {len(blocklist)} entries "
        f"({len(blocklist.non_acknowledged())} non-acknowledged)",
        file=sys.stderr,
    )


def _cmd_trends(report: StudyReport) -> None:
    points = report.temporal_trends()
    rows = [
        (
            report.clock.label(p.day),
            p.daily_new_ah,
            p.active_ah,
            p.all_daily_sources,
            f"{p.ah_packets:,}",
            f"{p.total_packets:,}",
            render_percent(p.ah_packet_share, 1),
        )
        for p in points
    ]
    print(
        format_table(
            ["day", "daily AH", "active AH", "all sources", "AH pkts", "all pkts", "share"],
            rows,
            title="Temporal trends (definition 1)",
        )
    )


def _cmd_churn(report: StudyReport) -> None:
    from repro.core.churn import churn_summary, staleness, survival_curve

    detection = report.detections[1]
    summary = churn_summary(detection)
    curve = survival_curve(detection, max_days=7)
    rows = [
        ("days compared", summary["days"]),
        ("mean retention", render_percent(summary["mean_retention"], 1)),
        ("mean day-over-day Jaccard", f"{summary['mean_jaccard']:.2f}"),
        ("mean new AH per day", f"{summary['mean_arrivals']:.0f}"),
    ]
    rows += [
        (f"P(active after {k}d)", render_percent(float(v), 1))
        for k, v in enumerate(curve)
    ]
    rows += [
        (f"freshness @ {d}-day refresh", render_percent(staleness(detection, d), 1))
        for d in (1, 3, 7)
    ]
    print(
        format_table(
            ["metric", "value"],
            rows,
            title="AH list churn (definition 1)",
            align_right=False,
        )
    )


def _cmd_mitigation(report: StudyReport, lag: int, max_entries: Optional[int]) -> None:
    from repro.core.mitigation import simulate_blocking, summarize

    flows, totals = report.result.collect_flows()
    flow_days = report.result.scenario.flow_days
    blocklists = {
        day: report.daily_blocklist(day) for day in range(max(flow_days) + 1)
    }
    cells = simulate_blocking(
        flows,
        totals,
        blocklists,
        report.detections[1].sources,
        lag_days=lag,
        max_entries=max_entries,
    )
    rows = [
        (
            report.clock.label(cell.day),
            f"Router-{cell.router + 1}",
            f"{cell.blocked_packets:,}",
            render_percent(cell.ah_coverage, 1),
            render_percent(cell.relief, 2),
        )
        for cell in cells
    ]
    print(
        format_table(
            ["day", "router", "blocked pkts", "AH coverage", "router relief"],
            rows,
            title=(
                "Border blocklist deployment "
                f"(non-ACKed AH, lag={lag}d, "
                f"entries={'all' if max_entries is None else max_entries})"
            ),
            align_right=False,
        )
    )
    summary = summarize(cells)
    print(
        f"\nOverall: {summary['blocked_packets']:,} packets blocked — "
        f"{render_percent(summary['ah_coverage'], 1)} of AH traffic, "
        f"{render_percent(summary['relief'], 2)} of all router packets."
    )


def _cmd_ports(report: StudyReport) -> None:
    rows = []
    for row in report.top_ports():
        rows.append(
            (
                service_label(row.port, Protocol(row.proto)),
                f"{row.packets:,}",
                render_percent(row.zmap_packets / row.packets, 1),
                render_percent(row.masscan_packets / row.packets, 1),
                render_percent(row.other_packets / row.packets, 1),
            )
        )
    print(
        format_table(
            ["service", "packets", "zmap", "masscan", "other"],
            rows,
            title="Top-25 ports targeted by definition-1 AH",
        )
    )


def build_parser() -> argparse.ArgumentParser:
    """Construct the argument parser (exposed for tests/docs)."""
    parser = argparse.ArgumentParser(
        prog="repro-scanners",
        description="Aggressive Internet-wide scanner study (CoNEXT'23 reproduction)",
    )
    parser.add_argument(
        "--scenario",
        default="tiny",
        help=(
            f"scenario preset ({', '.join(sorted(_SCENARIOS))}) "
            "or a path to a .json scenario file"
        ),
    )
    parser.add_argument(
        "--mode",
        choices=("batch", "streaming"),
        default="batch",
        help=(
            "batch: events + detection over the whole capture at once; "
            "streaming: lazily generated chunked capture -> incremental "
            "detection (same results; the capture is never materialized, "
            "so memory stays bounded; telemetry in the summary)"
        ),
    )
    parser.add_argument(
        "--chunk-hours",
        type=float,
        default=None,
        metavar="H",
        help="streaming chunk size in simulated hours (default: 1)",
    )
    parser.add_argument(
        "--workers",
        type=int,
        default=None,
        metavar="N",
        help=(
            "shard work across N worker processes; in streaming mode "
            "each worker generates (or, with --capture-dir, replays) "
            "and detects its own source shard, and in any mode — batch "
            "included — the ISP flow synthesis behind impact/mitigation "
            "shards its scanner population across the same pool "
            "(results are identical for any N)"
        ),
    )
    parser.add_argument(
        "--capture-dir",
        default=None,
        metavar="DIR",
        help=(
            "detect over a save_packets_chunked directory instead of "
            "generating the capture (streaming mode only); every chunk "
            "archive is digest-verified against the directory manifest "
            "before use (see --on-corrupt for handling damaged chunks)"
        ),
    )
    parser.add_argument(
        "--resume",
        default=None,
        metavar="DIR",
        dest="checkpoint_dir",
        help=(
            "checkpoint finished shard states under DIR and resume from "
            "them: re-running after a crash re-executes only the missing "
            "shards (results identical to an uninterrupted run); forces "
            "the sharded detection path even with one worker, and in "
            "any mode — batch included — the flow synthesis checkpoints "
            "its shards under DIR/flows"
        ),
    )
    parser.add_argument(
        "--shard-retries",
        type=int,
        default=None,
        metavar="N",
        help=(
            "retry a failed shard up to N times (with backoff) before "
            "giving up; also re-runs shards lost to worker-process "
            "crashes (default policy: 2)"
        ),
    )
    parser.add_argument(
        "--on-corrupt",
        choices=("raise", "quarantine"),
        default="raise",
        help=(
            "what to do with a damaged chunk archive under --capture-dir: "
            "raise (default) fails naming the file; quarantine skips it, "
            "detects over the survivors and accounts it in the run-health "
            "telemetry"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("summary", help="dataset + detection summary")
    sub.add_parser("impact", help="Table 2 network impact (flows scenarios)")
    block = sub.add_parser("blocklist", help="daily AH blocklist")
    block.add_argument("--day", type=int, default=None, help="day index")
    sub.add_parser("trends", help="Figure 3 time series")
    sub.add_parser("ports", help="Figure 4 top ports")
    sub.add_parser("churn", help="AH list churn / blocklist freshness")
    sub.add_parser("report", help="full study report (all analyses)")
    mitigation = sub.add_parser(
        "mitigation", help="simulate border blocking (flows scenarios)"
    )
    mitigation.add_argument("--lag", type=int, default=1, help="list deployment lag, days")
    mitigation.add_argument(
        "--max-entries", type=int, default=None, help="filter size cap"
    )
    serve = sub.add_parser(
        "serve",
        help="run the always-on multi-tenant ingestion service",
        description=(
            "Listen for npz packet chunks (repro.serve wire format) for "
            "any number of tenants and answer live AH queries; the "
            "study-wide flags above do not apply to this subcommand."
        ),
    )
    serve.add_argument(
        "--host", default="127.0.0.1", help="bind address (default: %(default)s)"
    )
    serve.add_argument(
        "--port",
        type=int,
        default=8377,
        help="TCP port; 0 picks a free one (default: %(default)s)",
    )
    serve.add_argument(
        "--unix-socket",
        default=None,
        metavar="PATH",
        help="listen on a local socket at PATH instead of TCP",
    )
    serve.add_argument(
        "--snapshot-dir",
        default=None,
        metavar="DIR",
        help=(
            "persist tenant registrations and periodic engine snapshots "
            "under DIR; a restarted server restores every tenant from "
            "its last verified snapshot (no DIR: everything is lost on "
            "exit)"
        ),
    )
    serve.add_argument(
        "--ingest-threads",
        type=int,
        default=2,
        metavar="N",
        help="thread-pool size for CPU-bound chunk folding (default: 2)",
    )
    serve.add_argument(
        "--fold-processes",
        type=int,
        default=None,
        metavar="N",
        help=(
            "fold-worker processes shared by all tenants; 0 folds "
            "in-process on the ingest threads (default: auto-size to "
            "the machine)"
        ),
    )
    serve.add_argument(
        "--journal-fsync",
        choices=("always", "batch", "off"),
        default="batch",
        help=(
            "write-ahead journal fsync policy: 'always' survives power "
            "loss, 'batch' (default) survives any process crash with "
            "fsyncs amortized, 'off' relies on the page cache"
        ),
    )
    serve.add_argument(
        "--no-journal",
        action="store_true",
        help=(
            "disable the write-ahead chunk journal (202 acks are no "
            "longer crash-durable; chunks since the last snapshot are "
            "lost on a crash)"
        ),
    )
    return parser


def main(argv: Optional[list] = None) -> int:
    """CLI entry point; returns the process exit code."""
    args = build_parser().parse_args(argv)
    if args.command == "serve":
        # The service runs no study: dispatch before the study-flag
        # validation and the run_study call.
        if args.ingest_threads < 1:
            raise SystemExit("--ingest-threads must be >= 1")
        if args.fold_processes is not None and args.fold_processes < 0:
            raise SystemExit("--fold-processes must be >= 0")
        from repro.serve.server import run_server

        def _announce(address):
            host, port = address
            print(f"repro-serve listening on {host}:{port}", flush=True)

        run_server(
            snapshot_dir=args.snapshot_dir,
            host=args.host,
            port=args.port,
            unix_socket=args.unix_socket,
            ingest_threads=args.ingest_threads,
            fold_processes=args.fold_processes,
            journal=not args.no_journal,
            journal_fsync=args.journal_fsync,
            ready=None if args.unix_socket else _announce,
        )
        return 0
    chunk_seconds = (
        args.chunk_hours * 3_600.0 if args.chunk_hours is not None else None
    )
    if args.chunk_hours is not None and args.mode != "streaming":
        raise SystemExit("--chunk-hours requires --mode streaming")
    if args.chunk_hours is not None and args.chunk_hours <= 0:
        raise SystemExit("--chunk-hours must be positive")
    if args.workers is not None and args.workers < 1:
        raise SystemExit("--workers must be >= 1")
    if args.capture_dir is not None and args.mode != "streaming":
        raise SystemExit("--capture-dir requires --mode streaming")
    if args.on_corrupt != "raise" and args.capture_dir is None:
        raise SystemExit("--on-corrupt only applies with --capture-dir")
    if args.shard_retries is not None and args.shard_retries < 0:
        raise SystemExit("--shard-retries must be >= 0")
    from repro.core.faults import ChunkCorruptionError, FaultError

    try:
        report = run_study(
            _scenario(args.scenario),
            mode=args.mode,
            chunk_seconds=chunk_seconds,
            workers=args.workers,
            capture_dir=args.capture_dir,
            checkpoint_dir=args.checkpoint_dir,
            shard_retries=args.shard_retries,
            on_corrupt=args.on_corrupt,
        )
    except ChunkCorruptionError as exc:
        raise SystemExit(
            f"{exc}\n(use --on-corrupt quarantine to skip damaged chunks "
            "and continue)"
        )
    except FaultError as exc:
        hint = (
            ""
            if args.checkpoint_dir is not None
            else "\n(re-run with --resume DIR to make the run resumable)"
        )
        raise SystemExit(f"{exc}{hint}")
    if args.command == "summary":
        _cmd_summary(report)
    elif args.command == "impact":
        _cmd_impact(report)
    elif args.command == "blocklist":
        _cmd_blocklist(report, args.day)
    elif args.command == "trends":
        _cmd_trends(report)
    elif args.command == "ports":
        _cmd_ports(report)
    elif args.command == "churn":
        _cmd_churn(report)
    elif args.command == "report":
        from repro.core.report import render_full_report

        print(render_full_report(report))
    elif args.command == "mitigation":
        _cmd_mitigation(report, args.lag, args.max_entries)
    return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
