"""One process of an offline workload (study-serial, detect-sharded).

The harness (``run.py``) spawns this program and times it: the program
prints ``PERFBENCH-READY`` once ``repro`` is imported and the scenario
is constructed (the end of set-up), then runs the workload once through
the public entry points and prints one ``PERFBENCH-RESULT`` JSON line.

Modes:

* ``run`` — the workload: ``run_study(..., mode="streaming")`` plus
  NetFlow and the paper tables (study-serial), or
  ``run_scenario(..., mode="streaming", workers=2)`` (detect-sharded).
* ``setup`` — exit right after the ready line (extra set-up samples).
* ``reference`` — the output oracle: ``run_study(..., mode="batch")``,
  which runs batch ``build_events`` + ``detect_all`` over the
  materialized capture, and the paper tables computed from it.

``--trace-dir DIR`` records spans around every layer call (see
``tracing.py``); forked shard workers append theirs to the same
directory.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time
from pathlib import Path

import benchlib
import tracing

#: The paper tables study-serial computes after detection:
#: Tables 2-8, Figure 3 trends and Figure 4 top ports.
TABLES = (
    ("impact_cells", (1, 2, 3)),
    ("protocol_table", None),
    ("acked_impact_table", None),
    ("origins_table", (1,)),
    ("acked_validation_table", None),
    ("definition_overlap_table", None),
    ("router_coverage_table", None),
    ("temporal_trends", (1, 2, 3)),
    ("top_ports", (1,)),
)


def _tables(report, tracer) -> list:
    out = []
    for method, definitions in TABLES:
        fn = getattr(report, method)
        calls = [(d,) for d in definitions] if definitions else [()]
        for args in calls:
            if tracer is None:
                value = fn(*args)
            else:
                with tracer.span(f"core.pipeline.{method}"):
                    value = fn(*args)
            out.append([method, list(args), benchlib.canon(value)])
    return out


def _peak_rss_mib() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def _reference(scenario) -> dict:
    from repro import run_study

    report = run_study(scenario, mode="batch")
    result = report.result
    summary = benchlib.detection_summary(len(result.events), result.detections)
    summary["packets"] = len(result.capture)
    summary["tables"] = benchlib.digest(_tables(report, None))
    return summary


def _run(workload: str, scenario, tracer) -> dict:
    from repro import run_scenario, run_study

    t0 = time.perf_counter()
    if workload == "study-serial":
        report = run_study(scenario, mode="streaming")
        result = report.result
        tables = _tables(report, tracer)
    else:
        result = run_scenario(
            scenario, mode="streaming", workers=benchlib.SHARDED_WORKERS
        )
        tables = None
    wall = time.perf_counter() - t0
    telemetry = result.telemetry
    summary = benchlib.detection_summary(len(result.events), result.detections)
    return {
        "wall_s": wall,
        "peak_rss_mb": _peak_rss_mib(),
        "summary": summary,
        "digest": benchlib.digest([summary, tables]),
        "tables": None if tables is None else benchlib.digest(tables),
        "packets": telemetry.total_packets,
        "peak_open_flows": telemetry.peak_open_flows,
        "workers": [w.as_dict() for w in telemetry.worker_stats],
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=benchlib.OFFLINE_WORKLOADS)
    parser.add_argument("--scenario-seed", type=int, required=True)
    parser.add_argument("--size", choices=("full", "toy"), default="full")
    parser.add_argument(
        "--mode", choices=("run", "setup", "reference"), default="run"
    )
    parser.add_argument("--trace-dir", default=None)
    args = parser.parse_args(argv)

    benchlib.use_source()
    import repro  # noqa: F401 — set-up includes the package import

    scenario = benchlib.offline_scenario(args.scenario_seed, args.size)
    print(benchlib.READY, flush=True)
    if args.mode == "setup":
        return 0
    if args.mode == "reference":
        out = _reference(scenario)
    else:
        tracer = None
        if args.trace_dir is not None:
            tracer = tracing.Tracer()
            tracing.install_offline(tracer, args.trace_dir)
        out = _run(args.workload, scenario, tracer)
        if tracer is not None:
            tracer.uninstall()
            tracer.dump(Path(args.trace_dir) / f"main-{os.getpid()}.jsonl")
            out["pid"] = os.getpid()
    print(benchlib.RESULT + json.dumps(out), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
