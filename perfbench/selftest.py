"""Self-test of the benchmark at toy size (about two minutes on two cores).

    python3 perfbench/selftest.py

Checks, on toy inputs (``--size toy``: the tiny scenario):

1. every workload, untraced and traced, exits 0 and prints as its last
   line exactly the keys ``correct``/``attempted``/``failed``/``metrics``
   with exactly the end-to-end (``--trace 0``) or per-layer
   (``--trace 1``) metrics of BENCHMARK.json, each with its unit
   (serve-mixed, which BENCHMARK.json does not name: its own metrics);
2. the oracle catches a wrong AH set: with one definition-1 source
   removed from the cached reference, a run reports a failed check,
   ``correct: false``, and exits non-zero — for an offline workload and
   for serve-mixed; likewise for a wrong paper-table digest
   (study-serial);
3. traced and untraced runs produce the same output digest;
4. in a directory holding only BENCHMARK.json and the benchmark's own
   files, the command exits non-zero without printing a result.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys

import benchlib
import serve_mixed

SEED = 0
failures = []


def check(condition: bool, message: str) -> None:
    print(("ok    " if condition else "FAIL  ") + message, flush=True)
    if not condition:
        failures.append(message)


def run(workload: str, trace: int, cwd=benchlib.ROOT, results=None) -> tuple:
    results = results or benchlib.WORK_DIR / "selftest-results"
    proc = subprocess.run(
        [
            sys.executable,
            "perfbench/run.py",
            "--workload", workload,
            "--seed", str(SEED),
            "--seconds", "1",
            "--trace", str(trace),
            "--size", "toy",
            "--results-dir", str(results),
        ],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=180,
    )
    lines = proc.stdout.strip().splitlines()
    try:
        last = json.loads(lines[-1]) if lines else None
    except ValueError:
        last = None
    return proc.returncode, last, proc.stdout + proc.stderr


def latest_result(workload: str, trace: int) -> dict:
    results = benchlib.WORK_DIR / "selftest-results"
    files = sorted(
        results.glob(f"{workload}-seed{SEED}-trace{trace}-*.json"),
        key=lambda p: p.stat().st_mtime,
    )
    return json.loads(files[-1].read_text())


def cache_file(prefix: str):
    """The cached reference whose name starts with ``prefix``."""
    (path,) = benchlib.CACHE_DIR.glob(f"{prefix}-*.json")
    return path


def corrupt(cache_name: str, tenant=None) -> None:
    path = cache_file(cache_name)
    data = json.loads(path.read_text())
    target = data[tenant] if tenant else data
    target["ah"]["1"] = target["ah"]["1"][1:]
    path.write_text(json.dumps(data))


def main() -> int:
    benchlib.require_source()
    spec = benchlib.load_benchmark_spec()
    wanted = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    serve_units = list(serve_mixed.UNITS.items())
    serve_wanted = {0: dict(serve_units[:8]), 1: dict(serve_units)}
    shutil.rmtree(benchlib.WORK_DIR / "selftest-results", ignore_errors=True)
    for path in benchlib.CACHE_DIR.glob("*-toy-*.json"):
        path.unlink()
    offline_cache = f"reference-toy-{benchlib.offline_scenario_seeds(SEED)[0]}"

    for workload in benchlib.WORKLOADS:
        for trace in (0, 1):
            code, last, output = run(workload, trace)
            label = f"{workload} --trace {trace}"
            check(code == 0, f"{label} exits 0")
            if last is None:
                check(False, f"{label} prints a JSON last line\n{output[-2000:]}")
                continue
            check(
                set(last) == {"correct", "attempted", "failed", "metrics"},
                f"{label} prints exactly the four result keys",
            )
            check(last["correct"] and last["failed"] == 0, f"{label} outputs are correct")
            got = {k: v.get("unit") for k, v in last["metrics"].items()}
            named = serve_wanted if workload == "serve-mixed" else wanted
            check(got == named[trace], f"{label} emits every named metric with its unit")
            check(
                all(isinstance(v["value"], float) for v in last["metrics"].values()),
                f"{label} metric values are numbers",
            )
        if workload in benchlib.OFFLINE_WORKLOADS:
            plain = latest_result(workload, 0)["info"]["digests"]
            traced = latest_result(workload, 1)["info"]["digests"]
            check(
                all(plain[k] == v for k, v in traced.items()),
                f"{workload} traced and untraced output digests match",
            )

    corrupt(offline_cache)
    code, last, _ = run("study-serial", 0)
    check(
        code != 0 and last is not None and not last["correct"] and last["failed"] > 0,
        "oracle catches a wrong AH set (study-serial)",
    )
    cache_file(offline_cache).unlink()

    run("study-serial", 0)  # recomputes the reference
    path = cache_file(offline_cache)
    data = json.loads(path.read_text())
    data["tables"] = "0" * 64
    path.write_text(json.dumps(data))
    code, last, _ = run("study-serial", 0)
    check(
        code != 0 and last is not None and not last["correct"] and last["failed"] > 0,
        "oracle catches a wrong paper table (study-serial)",
    )
    path.unlink()

    corrupt("serve-toy-0", tenant=benchlib.SERVE_TENANTS[0])
    code, last, _ = run("serve-mixed", 0)
    check(
        code != 0 and last is not None and not last["correct"] and last["failed"] > 0,
        "oracle catches a wrong AH set (serve-mixed)",
    )
    cache_file("serve-toy-0").unlink()

    bare = benchlib.WORK_DIR / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(benchlib.BENCHMARK_JSON, bare / "BENCHMARK.json")
    shutil.copytree(
        benchlib.BENCH_DIR,
        bare / "perfbench",
        ignore=shutil.ignore_patterns(".cache", ".work", "results", "__pycache__"),
    )
    code, last, _ = run("study-serial", 0, cwd=bare, results=bare / "results")
    check(code != 0 and last is None, "without the program source: non-zero exit, no result")
    shutil.rmtree(bare, ignore_errors=True)
    shutil.rmtree(benchlib.WORK_DIR / "selftest-results", ignore_errors=True)

    print(f"\n{len(failures)} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
