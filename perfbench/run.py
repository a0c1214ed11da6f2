"""The repository benchmark: one command for every workload.

    python3 perfbench/run.py --workload study-serial --seed 0 --seconds 45 --trace 0

Workloads (see perfbench/README.md for why each was chosen):

* ``study-serial`` — flows-day scenario, serial streaming detection,
  NetFlow collection and the paper tables.
* ``detect-sharded`` — the same scenario, detection only, two shard
  workers.
* ``serve-mixed`` — the ``repro.cli serve`` subprocess under
  closed-loop chunk ingest plus scheduled AH queries, SIGKILL and
  recovery.  Not in BENCHMARK.json: on a shared host its ``wall_s`` is
  not steady enough to gate a change (see the README); its last line
  holds every metric it measured.

With ``--trace 0`` the run measures the end-to-end metrics; with
``--trace 1`` it measures the per-layer ledger from a separate traced
pass.  Every run checks the program's outputs against the oracle,
prints each metric with its unit, writes a result file with provenance
under ``perfbench/results/`` and prints one JSON object as its last
line.  It exits non-zero when any output check fails.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import benchlib
import tracing

PROGRAM = benchlib.BENCH_DIR / "offline_program.py"
#: a whole run must end well inside 180 s.
PROCESS_TIMEOUT = 170.0
#: nominal seconds one offline repetition takes on two cores, process
#: start and set-up included; see run_offline.
NOMINAL_REP_SECONDS = {"study-serial": 4.5, "detect-sharded": 3.75}
#: reference programs run at once, outside any timed region.
REFERENCE_PROCESSES = 2

# ----------------------------------------------------------------------
# Offline workloads
# ----------------------------------------------------------------------
def spawn_program(
    workload: str, scenario_seed: int, size: str, mode: str, trace_dir=None
) -> dict:
    """Run offline_program.py once; time spawn → ready; parse its result."""
    cmd = [
        sys.executable,
        str(PROGRAM),
        "--workload",
        workload,
        "--scenario-seed",
        str(scenario_seed),
        "--size",
        size,
        "--mode",
        mode,
    ]
    if trace_dir is not None:
        cmd += ["--trace-dir", str(trace_dir)]
    t0 = time.perf_counter()
    proc = subprocess.Popen(
        cmd, stdout=subprocess.PIPE, text=True, env=benchlib.child_env()
    )
    timer = threading.Timer(PROCESS_TIMEOUT, proc.kill)
    timer.start()
    setup_s = result = None
    try:
        for line in proc.stdout:
            if line.startswith(benchlib.READY) and setup_s is None:
                setup_s = time.perf_counter() - t0
            elif line.startswith(benchlib.RESULT):
                result = json.loads(line[len(benchlib.RESULT):])
        code = proc.wait()
    finally:
        timer.cancel()
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if code != 0 or setup_s is None or (mode != "setup" and result is None):
        raise RuntimeError(f"{' '.join(cmd)} failed with exit code {code}")
    return {"setup_s": setup_s, "result": result}


def offline_reference(scenario_seed: int, size: str) -> dict:
    key = benchlib.input_key(benchlib.offline_scenario(scenario_seed, size))
    return benchlib.cached_json(
        f"reference-{size}-{scenario_seed}-{key}.json",
        lambda: spawn_program(
            "study-serial", scenario_seed, size, "reference"
        )["result"],
    )


def _check_offline(ref: dict, result: dict, label: str) -> list:
    problems = benchlib.check_summary(ref, result["summary"], label)
    if result["tables"] is not None and result["tables"] != ref["tables"]:
        problems.append(f"{label}: paper tables differ from the reference")
    return problems


def run_offline(workload: str, seed: int, seconds: float, trace: bool, size: str) -> dict:
    benchlib.use_source()
    scenario_seeds = benchlib.offline_scenario_seeds(seed)
    problems = []
    if not trace:
        # Uncached references take about 3 s each; compute two at a time.
        with ThreadPoolExecutor(REFERENCE_PROCESSES) as pool:
            refs = dict(
                zip(
                    scenario_seeds,
                    pool.map(lambda s: offline_reference(s, size), scenario_seeds),
                )
            )
        # The repetition count depends on --seconds only, never on how
        # fast this commit runs, so two commits measure the same inputs.
        rounds = max(
            1,
            round(seconds / (len(scenario_seeds) * NOMINAL_REP_SECONDS[workload])),
        )
        runs = [
            (s, spawn_program(workload, s, size, "run"))
            for _ in range(rounds)
            for s in scenario_seeds
        ]
        setups = [r["setup_s"] for _, r in runs]
        while len(setups) < benchlib.MIN_SETUP_SAMPLES:
            setups.append(
                spawn_program(workload, scenario_seeds[0], size, "setup")["setup_s"]
            )
        failed = 0
        digests = {}
        for i, (s, r) in enumerate(runs):
            label = f"{workload} scenario {s} repetition {i}"
            issues = _check_offline(refs[s], r["result"], label)
            digest = digests.setdefault(s, r["result"]["digest"])
            if r["result"]["digest"] != digest:
                issues.append(f"{label}: output digest differs from its first run")
            failed += bool(issues)
            problems += issues
        walls = [r["result"]["wall_s"] for _, r in runs]
        return {
            "metrics": {
                "setup_s": benchlib.median(setups),
                "wall_s": benchlib.median(walls),
                "peak_rss_mb": benchlib.median(
                    r["result"]["peak_rss_mb"] for _, r in runs
                ),
                "error_rate": failed / len(runs),
            },
            "info": {
                "repetitions": len(runs),
                "scenario_seeds": scenario_seeds,
                "wall_s_each": [round(w, 3) for w in walls],
                "setup_samples": len(setups),
                "packets_each": [r["result"]["packets"] for _, r in runs[: len(scenario_seeds)]],
                "digests": digests,
            },
            "attempted": len(runs),
            "failed": failed,
            "problems": problems,
            "ledger": {},
        }

    trace_dir = benchlib.WORK_DIR / f"trace-{os.getpid()}"
    shutil.rmtree(trace_dir, ignore_errors=True)
    trace_dir.mkdir(parents=True)
    scenario_seed = scenario_seeds[0]
    ref = offline_reference(scenario_seed, size)
    try:
        plain = spawn_program(workload, scenario_seed, size, "run")["result"]
        traced = spawn_program(
            workload, scenario_seed, size, "run", trace_dir
        )["result"]
        spans, counters = tracing.load_dumps(trace_dir)
    finally:
        shutil.rmtree(trace_dir, ignore_errors=True)
    failed = 0
    for label, result in (("untraced", plain), ("traced", traced)):
        issues = _check_offline(ref, result, f"{workload} {label}")
        failed += bool(issues)
        problems += issues
    if plain["digest"] != traced["digest"]:
        problems.append("traced and untraced runs produced different outputs")
        failed += 1
    if traced["workers"] and all(s[5] == traced["pid"] for s in spans):
        problems.append("shard workers left no spans; the ledger is incomplete")
        failed += 1
    ls = tracing.layer_seconds(spans)
    workers = traced["workers"]
    busy = [w["seconds"] for w in workers]
    derived = counters["scanners.spans_derived"]
    wall = traced["wall_s"]
    gaps = tracing.critical_path(spans, traced["pid"], wall)
    metrics = {
        "error_rate": failed / 4,
        "sim.world_s": ls.get("sim.world", 0.0),
        "scanners.emit_s": ls.get("scanners.emit", 0.0),
        "scanners.spans_derived": derived,
        "scanners.span_yield": (
            counters["scanners.spans_emitted"] / derived if derived else 0.0
        ),
        "telescope.capture_s": ls.get("telescope.capture", 0.0),
        "core.streaming.build_s": ls.get("core.streaming.build", 0.0),
        "core.streaming.peak_open_flows": traced["peak_open_flows"],
        "core.ecdf.add_s": ls.get("core.ecdf.add", 0.0),
        "core.streaming.dispersion_s": ls.get("core.streaming.dispersion", 0.0),
        "core.streaming.portday_s": ls.get("core.streaming.portday", 0.0),
        "core.streaming.finish_s": ls.get("core.streaming.finish", 0.0),
        "parallel.worker_busy_max_s": max(busy, default=0.0),
        "parallel.worker_spread": (
            max(busy) / min(busy) if busy and min(busy) > 0 else 0.0
        ),
        "parallel.merge_s": ls.get("parallel.merge", 0.0),
        "parallel.handoff_s": gaps["handoff_s"],
        "parallel.tasks_stolen": sum(w["stolen_tasks"] for w in workers),
        "io.shm.handoff_mb": counters["io.shm.handoff_bytes"] / tracing.MIB,
        "flows.collect_s": ls.get("flows.collect", 0.0),
        "core.impact_s": ls.get("core.impact", 0.0),
        "core.characterize_s": ls.get("core.characterize", 0.0),
        "core.validation_s": ls.get("core.validation", 0.0),
        "trace.overhead_ratio": wall / plain["wall_s"],
        "trace.unaccounted_ratio": (gaps["main_s"] + gaps["task_s"]) / wall,
    }
    return {
        "metrics": metrics,
        "info": {
            "traced_wall_s": wall,
            "untraced_wall_s": plain["wall_s"],
            "spans": len(spans),
            "unaccounted_main_s": gaps["main_s"],
            "unaccounted_task_s": gaps["task_s"],
            "scenario_seed": scenario_seed,
            "packets": traced["packets"],
            "digests": {str(scenario_seed): traced["digest"]},
        },
        "attempted": 4,
        "failed": failed,
        "problems": problems,
        "ledger": {name: round(v, 6) for name, v in sorted(ls.items())},
    }


# ----------------------------------------------------------------------
def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Run one benchmark workload and print its metrics."
    )
    parser.add_argument("--workload", required=True, choices=benchlib.WORKLOADS)
    parser.add_argument("--seed", type=int, default=benchlib.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--size",
        choices=("full", "toy"),
        default="full",
        help="toy inputs for the benchmark's self-test",
    )
    parser.add_argument(
        "--results-dir",
        default=None,
        help="where to write the result file (default perfbench/results)",
    )
    args = parser.parse_args(argv)
    benchlib.require_source()
    spec = benchlib.load_benchmark_spec()
    units = benchlib.metric_units()
    command = [Path(sys.executable).name, *sys.argv]

    trace = bool(args.trace)
    if args.workload == "serve-mixed":
        import serve_mixed

        outcome = serve_mixed.run(args.seed, args.seconds, trace, args.size)
        units = serve_mixed.UNITS
        wanted = list(outcome["metrics"])
    else:
        outcome = run_offline(
            args.workload, args.seed, args.seconds, trace, args.size
        )
        wanted = [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]
    metrics = {
        name: {"value": float(outcome["metrics"][name]), "unit": units[name]}
        for name in wanted
    }

    for problem in outcome["problems"]:
        print(f"CHECK FAILED: {problem}")
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}")
    for name, value in outcome["metrics"].items():
        print(f"  {name} = {value:.6g} {units.get(name, '')}".rstrip())
    for name, value in outcome["info"].items():
        shown = f"{value:.6g}" if isinstance(value, float) else value
        print(f"  (info) {name} = {shown}")

    correct = outcome["failed"] == 0
    result = {
        "workload": args.workload,
        "trace": args.trace,
        "seconds": args.seconds,
        "size": args.size,
        "correct": correct,
        "attempted": outcome["attempted"],
        "failed": outcome["failed"],
        "metrics": {
            name: {"value": value, "unit": units.get(name, "")}
            for name, value in outcome["metrics"].items()
        },
        "info": outcome["info"],
        "problems": outcome["problems"],
        "ledger": outcome["ledger"],
        "provenance": benchlib.provenance(args.seed, command),
    }
    path = benchlib.write_result(result, args.results_dir)
    print(f"  result file: {path.relative_to(benchlib.ROOT) if path.is_relative_to(benchlib.ROOT) else path}")
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": outcome["attempted"],
                "failed": outcome["failed"],
                "metrics": metrics,
            }
        )
    )
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
