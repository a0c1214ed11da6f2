"""Compare benchmark result sets.

    python3 perfbench/compare.py PARENT_RESULTS [CHANGE_RESULTS]

Each argument is a result file or a directory of them (as written by
``run.py`` under ``perfbench/results/``).  Every result must carry its
provenance (``measured: true``, host, commit, seed, command); a file
without it is refused, so nothing is ever compared with a hand-written
target.

With one set, prints per workload and end-to-end metric the median,
quartiles and spread (interquartile range over median) against the
metric's bound.  With two, also the pairs the change won and a verdict
by the rule the benchmark documents:

* ``improved`` — the change won at least 9/10 of the pairs (ties count
  for neither) and the medians differ by more than the parent's own
  interquartile range;
* ``no worse`` — the change's median is within the bound of the
  parent's, and the parent's spread is within the bound;
* ``unresolved`` — the parent's spread is wider than the bound (unless
  every change run beats every parent run);
* ``worse`` — the change's median is worse by more than the bound.

Every other metric of untraced runs (serve latencies, error_rate) and
the per-layer metrics of traced runs are listed as medians, without a
verdict, as are the metrics of a workload BENCHMARK.json does not name
(serve-mixed).  Exit code: 0, or 2 when a result is refused.
"""

from __future__ import annotations

import argparse
import json
import sys
from collections import defaultdict
from pathlib import Path

import benchlib


def refuse(message: str):
    sys.stderr.write(f"compare: {message}\n")
    raise SystemExit(2)


def load_set(path: str) -> list:
    root = Path(path)
    files = sorted(root.glob("*.json")) if root.is_dir() else [root]
    results = []
    for file in files:
        data = json.loads(file.read_text())
        missing = benchlib.missing_provenance(data)
        if missing:
            refuse(f"refusing {file}: no provenance field(s) {', '.join(missing)}")
        results.append(data)
    if not results:
        refuse(f"no result files under {path}")
    commits = {r["provenance"]["commit"] for r in results}
    if len(commits) > 1:
        refuse(f"refusing {path}: results from several commits {sorted(commits)}")
    return results


def _values(results, workload, metric, trace=0):
    rows = [
        r
        for r in results
        if r["workload"] == workload and r["trace"] == trace
        and metric in r["metrics"]
    ]
    rows.sort(key=lambda r: r["provenance"].get("finished_at", ""))
    return [(r["provenance"]["seed"], r["metrics"][metric]["value"]) for r in rows]


def _units(results, workload, trace) -> dict:
    """Metric name -> unit, in first-seen order, for one workload."""
    units = {}
    for r in results:
        if r["workload"] == workload and r["trace"] == trace:
            for name, metric in r["metrics"].items():
                units.setdefault(name, metric["unit"])
    return units


def _better(a: float, b: float, direction: str) -> bool:
    return a < b if direction == "lower" else a > b


def verdict(parent, change, bound: float, direction: str) -> tuple:
    """``(verdict, wins, pairs)`` for two lists of ``(seed, value)``."""
    by_seed = defaultdict(list)
    for seed, value in parent:
        by_seed[seed].append(value)
    pairs = []
    for seed, value in change:
        if by_seed.get(seed):
            pairs.append((by_seed[seed].pop(0), value))
    wins = sum(1 for p, c in pairs if _better(c, p, direction))
    p_vals = [v for _, v in parent]
    c_vals = [v for _, v in change]
    q1, p_med, q3 = benchlib.quartiles(p_vals)
    c_med = benchlib.median(c_vals)
    spread = (q3 - q1) / p_med if p_med else float("inf")
    if pairs and wins >= 0.9 * len(pairs) and abs(c_med - p_med) > (q3 - q1) \
            and _better(c_med, p_med, direction):
        return "improved", wins, len(pairs)
    if all(_better(c, p, direction) for c in c_vals for p in p_vals):
        return "no worse", wins, len(pairs)
    if spread > bound:
        return "unresolved", wins, len(pairs)
    worse_by = (c_med - p_med) / p_med if direction == "lower" else (p_med - c_med) / p_med
    if worse_by <= bound:
        return "no worse", wins, len(pairs)
    return "worse", wins, len(pairs)


def _fmt(x: float) -> str:
    return f"{x:.4g}"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent")
    parser.add_argument("change", nargs="?")
    args = parser.parse_args(argv)
    spec = benchlib.load_benchmark_spec()
    parent = load_set(args.parent)
    change = load_set(args.change) if args.change else None

    def describe(name, results):
        prov = results[0]["provenance"]
        host = prov["host"]
        print(
            f"{name}: {len(results)} results, commit {prov['commit'][:20]}, "
            f"{host['cores']} cores, Python {host['python']}, "
            f"numpy {host['numpy']}"
        )

    describe("parent", parent)
    if change is not None:
        describe("change", change)
    for label, results in (("parent", parent), ("change", change or [])):
        attempted = sum(r["attempted"] for r in results)
        failed = sum(r["failed"] for r in results)
        if results:
            print(f"{label}: {failed} of {attempted} operations failed")

    workloads = [w["name"] for w in spec["workloads"]]
    workloads += sorted({r["workload"] for r in parent} - set(workloads))
    for workload in workloads:
        print(f"\n## {workload}")
        for m in spec["end_to_end"]:
            name, bound, direction = m["name"], m["bound"], m["better"]
            p = _values(parent, workload, name)
            if not p:
                continue
            q1, med, q3 = benchlib.quartiles([v for _, v in p])
            spread = (q3 - q1) / med if med else float("inf")
            line = (
                f"  {name} [{m['unit']}] parent n={len(p)} median {_fmt(med)} "
                f"q1 {_fmt(q1)} q3 {_fmt(q3)} spread {spread:.3f} "
                f"(bound {bound}, {'ok' if spread <= bound else 'TOO WIDE'}"
                f"{', steady' if spread < bound / 3 else ''})"
            )
            if change is not None:
                c = _values(change, workload, name)
                if c:
                    cq1, cmed, cq3 = benchlib.quartiles([v for _, v in c])
                    result, wins, pairs = verdict(p, c, bound, direction)
                    line += (
                        f"\n      change n={len(c)} median {_fmt(cmed)} "
                        f"q1 {_fmt(cq1)} q3 {_fmt(cq3)} "
                        f"({(cmed - med) / med:+.1%}); pairs won "
                        f"{wins}/{pairs}; verdict: {result}"
                    )
            print(line)
        bounded = {m["name"] for m in spec["end_to_end"]}
        for name, unit in _units(parent, workload, 0).items():
            if name in bounded:
                continue
            p = _values(parent, workload, name)
            q1, med, q3 = benchlib.quartiles([v for _, v in p])
            line = (
                f"  {name} [{unit}] (unbounded) parent n={len(p)} "
                f"median {_fmt(med)} q1 {_fmt(q1)} q3 {_fmt(q3)}"
            )
            c = _values(change, workload, name) if change else []
            if c:
                line += f" -> change median {_fmt(benchlib.median(v for _, v in c))}"
            print(line)
        layer_rows = []
        for name, unit in _units(parent, workload, 1).items():
            p = _values(parent, workload, name, trace=1)
            row = f"  {name} [{unit}] {_fmt(benchlib.median(v for _, v in p))}"
            if change is not None:
                c = _values(change, workload, name, trace=1)
                if c:
                    row += f" -> {_fmt(benchlib.median(v for _, v in c))}"
            layer_rows.append(row)
        if layer_rows:
            print("  per-layer medians (traced runs):")
            print("\n".join(layer_rows))
    return 0


if __name__ == "__main__":
    sys.exit(main())
