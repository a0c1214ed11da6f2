"""Shared pieces of the repository benchmark: paths, workload inputs,
the output oracle, statistics, provenance and result files.

Every workload's inputs derive from the ``--seed`` the benchmark is
given; the program under test only ever sees the generated inputs.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
BENCH_DIR = ROOT / "perfbench"
CACHE_DIR = BENCH_DIR / ".cache"
WORK_DIR = BENCH_DIR / ".work"
RESULTS_DIR = BENCH_DIR / "results"
BENCHMARK_JSON = ROOT / "BENCHMARK.json"

WORKLOADS = ("study-serial", "detect-sharded", "serve-mixed")
OFFLINE_WORKLOADS = ("study-serial", "detect-sharded")

#: ``--seed n`` runs the flows-day preset at the ``OFFLINE_SCENARIOS``
#: scenario seeds ``OFFLINE_BASE_SEED + OFFLINE_SCENARIOS * n + k``, one
#: per repetition, so seed 0 starts with the preset's own default.  The
#: run reports the median over these scenarios: one scenario's cost
#: varies by up to 30% between seeds, the median of six far less.
OFFLINE_BASE_SEED = 31_023
OFFLINE_SCENARIOS = 6
#: The flows-day preset at /19 takes about a minute per study on two
#: cores.  A /22 telescope with the population scaled by a further 0.3
#: takes about 4 s, so a 45 s run repeats each scenario twice.  On a shared
#: 2-core host the speed drifted by up to 20% within a minute, and the
#: median of many short repetitions is far steadier than that of two
#: long ones.
OFFLINE_PREFIX_LENGTH = 22
OFFLINE_POPULATION_SCALE = 0.3
_POPULATION_COUNTS = (
    "n_sweepers",
    "n_mirai_aggressive",
    "n_mirai_small",
    "n_omniscanners",
    "n_multiport",
    "n_small_scanners",
    "n_misconfig",
)
#: shard workers of the detect-sharded workload.
SHARDED_WORKERS = 2

#: serve-mixed replays tiny-scenario captures of two telescopes.  Its
#: repetition ``k`` at ``--seed n`` gives tenant ``i`` the scenario seed
#: ``SERVE_BASE_SEEDS[i] + SERVE_SCENARIOS * n + k``: like the offline
#: workloads, a run reports the median over several inputs.
SERVE_BASE_SEEDS = (1_234, 777)
SERVE_SCENARIOS = 8
SERVE_TENANTS = ("merit", "campus")
SERVE_DAYS = 2
#: 1,700-second wire chunks: two two-day captures give about 204 POSTs
#: per repetition (over 1,000 per run, so the ack p99 has more than ten
#: samples beyond it), and 102 chunks per tenant is not a multiple of the
#: 16-chunk snapshot cadence, so recovery always has a journal suffix to
#: replay.  Longer chunks mean fewer round trips per packet, which makes
#: the closed-loop ingest less sensitive to a host's CPU steal.
SERVE_CHUNK_SECONDS = 1700.0
#: event and packet budgets each tenant's capture is cut to, below the
#: smallest totals of any seed tried (see serve_mixed.py).
SERVE_EVENTS_PER_TENANT = 2_500
SERVE_PACKETS_PER_TENANT = 75_000

#: set-up is sampled at least this many times per run (median reported).
MIN_SETUP_SAMPLES = 5

DEFAULT_SEED = 0

READY = "PERFBENCH-READY"
RESULT = "PERFBENCH-RESULT "


def require_source() -> None:
    """Exit non-zero, printing no result, when the program is absent."""
    if not (SRC / "repro" / "__init__.py").is_file():
        sys.stderr.write(
            f"perfbench: no program source at {SRC}; run from the root "
            "of a repository checkout\n"
        )
        raise SystemExit(2)


def use_source() -> None:
    """Make ``import repro`` resolve to this checkout's sources."""
    require_source()
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    return env


# ----------------------------------------------------------------------
# Workload inputs
# ----------------------------------------------------------------------
def offline_scenario_seeds(seed: int) -> List[int]:
    """The scenario seeds one offline run cycles through."""
    first = OFFLINE_BASE_SEED + OFFLINE_SCENARIOS * seed
    return list(range(first, first + OFFLINE_SCENARIOS))


def offline_scenario(scenario_seed: int, size: str = "full"):
    """The offline workloads' scenario at one scenario seed."""
    from repro.sim.scenario import flows_day_scenario, tiny_scenario

    if size == "toy":
        return tiny_scenario(seed=scenario_seed, days=2)
    scenario = flows_day_scenario(
        seed=scenario_seed,
        dark_prefix_length=OFFLINE_PREFIX_LENGTH,
    )
    population = dataclasses.replace(
        scenario.population,
        **{
            name: max(
                1,
                round(getattr(scenario.population, name) * OFFLINE_POPULATION_SCALE),
            )
            for name in _POPULATION_COUNTS
        },
    )
    return dataclasses.replace(scenario, population=population)


def serve_scenarios(offset: int, size: str = "full") -> Dict[str, object]:
    """Tenant id -> the scenario whose capture that tenant replays."""
    from repro.sim.scenario import tiny_scenario

    days = 1 if size == "toy" else SERVE_DAYS
    return {
        tenant: tiny_scenario(seed=base + offset, days=days)
        for tenant, base in zip(SERVE_TENANTS, SERVE_BASE_SEEDS)
    }


# ----------------------------------------------------------------------
# Output oracle
# ----------------------------------------------------------------------
def detection_summary(events: int, detections) -> dict:
    """The compared output: event count and AH sets of definitions 1-3."""
    return {
        "events": int(events),
        "ah": {
            str(d): sorted(int(s) for s in detections[d].sources)
            for d in (1, 2, 3)
        },
    }


def check_summary(reference: dict, observed: dict, label: str) -> List[str]:
    """Mismatches between an observed output and its reference."""
    problems = []
    if "events" in reference and observed.get("events") != reference["events"]:
        problems.append(
            f"{label}: {observed.get('events')} events, reference "
            f"{reference['events']}"
        )
    for d in ("1", "2", "3"):
        want = reference["ah"][d]
        got = observed.get("ah", {}).get(d)
        if got != want:
            missing = len(set(want) - set(got or ()))
            extra = len(set(got or ()) - set(want))
            problems.append(
                f"{label}: AH definition {d} differs from the reference "
                f"({missing} missing, {extra} extra)"
            )
    return problems


def canon(obj):
    """A JSON-able, order-independent form of an analysis result."""
    import numpy as np

    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return {
            f.name: canon(getattr(obj, f.name))
            for f in dataclasses.fields(obj)
        }
    if isinstance(obj, dict):
        return sorted(
            ([canon(k), canon(v)] for k, v in obj.items()), key=repr
        )
    if isinstance(obj, (set, frozenset)):
        return sorted((canon(x) for x in obj), key=repr)
    if isinstance(obj, (list, tuple)):
        return [canon(x) for x in obj]
    if isinstance(obj, np.ndarray):
        return canon(obj.tolist())
    if isinstance(obj, np.generic):
        return canon(obj.item())
    if isinstance(obj, float):
        return repr(obj)
    if obj is None or isinstance(obj, (bool, int, str)):
        return obj
    return {type(obj).__name__: canon(vars(obj))}


def digest(obj) -> str:
    return hashlib.sha256(
        json.dumps(obj, sort_keys=True, separators=(",", ":")).encode()
    ).hexdigest()


def input_key(*parts) -> str:
    """A short digest of a cached value's inputs, part of its cache
    name, so a change to how the inputs are made never reads a stale
    reference."""
    h = hashlib.sha256()
    for part in parts:
        h.update(part if isinstance(part, (bytes, bytearray)) else repr(part).encode())
    return h.hexdigest()[:16]


def cached_json(name: str, compute):
    """Load ``name`` from the benchmark cache or compute and store it."""
    path = CACHE_DIR / name
    if path.is_file():
        try:
            return json.loads(path.read_text())
        except ValueError:
            pass
    value = compute()
    CACHE_DIR.mkdir(parents=True, exist_ok=True)
    tmp = path.with_suffix(f".tmp{os.getpid()}")
    tmp.write_text(json.dumps(value))
    os.replace(tmp, path)
    return value


# ----------------------------------------------------------------------
# Statistics
# ----------------------------------------------------------------------
def median(values) -> float:
    return float(statistics.median(values))


def quartiles(values) -> tuple:
    """``(q1, median, q3)`` as ``statistics.quantiles(n=4)`` gives them."""
    values = list(values)
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def percentile(samples, fraction: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(samples)
    rank = min(len(ordered) - 1, int(fraction * len(ordered)))
    return ordered[rank]


def supported_percentile(n: int) -> Optional[float]:
    """The highest of p50/p90/p99/p99.9 with >= 10 samples beyond it."""
    best = None
    for p in (0.5, 0.9, 0.99, 0.999):
        if n * (1.0 - p) >= 10:
            best = p
    return best


def peak_rss_mib_of_tree(pid: int) -> float:
    """Highest VmHWM among ``pid`` and its live descendants (MiB)."""
    best = 0.0
    for p in [pid, *descendants(pid)]:
        try:
            for line in Path(f"/proc/{p}/status").read_text().splitlines():
                if line.startswith("VmHWM:"):
                    best = max(best, int(line.split()[1]) / 1024.0)
        except OSError:
            continue
    return best


def descendants(pid: int) -> List[int]:
    found, frontier = [], [pid]
    while frontier:
        current = frontier.pop()
        try:
            tasks = os.listdir(f"/proc/{current}/task")
        except OSError:
            continue
        for task in tasks:
            try:
                text = Path(
                    f"/proc/{current}/task/{task}/children"
                ).read_text()
            except OSError:
                continue
            for child in text.split():
                found.append(int(child))
                frontier.append(int(child))
    return found


def wait_gone(pids, timeout: float = 10.0) -> None:
    """Wait until none of ``pids`` exists (or is only a zombie)."""
    deadline = time.monotonic() + timeout
    pending = list(pids)
    while pending and time.monotonic() < deadline:
        alive = []
        for pid in pending:
            try:
                state = Path(f"/proc/{pid}/stat").read_text().split(")")[-1]
            except OSError:
                continue
            if state.split()[0] != "Z":
                alive.append(pid)
        pending = alive
        if pending:
            time.sleep(0.02)


# ----------------------------------------------------------------------
# Provenance and result files
# ----------------------------------------------------------------------
def source_sha256() -> str:
    """Content hash of the program sources (the checkout may not be a
    git repository, so this identifies the code measured)."""
    h = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def git_commit() -> Optional[str]:
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def provenance(seed: int, command: List[str]) -> dict:
    import numpy

    sources = source_sha256()
    return {
        "measured": True,
        "host": {
            "cores": os.cpu_count(),
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "machine": platform.machine(),
            "system": platform.system(),
        },
        "commit": git_commit() or f"src-sha256:{sources}",
        "source_sha256": sources,
        "seed": seed,
        "command": command,
        "finished_at": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
    }


PROVENANCE_FIELDS = ("measured", "host", "commit", "seed", "command")


def missing_provenance(result: dict) -> List[str]:
    prov = result.get("provenance") or {}
    missing = [f for f in PROVENANCE_FIELDS if f not in prov]
    if prov.get("measured") is not True and "measured" not in missing:
        missing.append("measured")
    host = prov.get("host") or {}
    for key in ("cores", "python", "numpy"):
        if key not in host:
            missing.append(f"host.{key}")
    return missing


def write_result(result: dict, out_dir: Optional[Path] = None) -> Path:
    out_dir = Path(out_dir) if out_dir is not None else RESULTS_DIR
    out_dir.mkdir(parents=True, exist_ok=True)
    stamp = time.strftime("%Y%m%dT%H%M%S", time.gmtime())
    name = (
        f"{result['workload']}-seed{result['provenance']['seed']}"
        f"-trace{result['trace']}-{stamp}-{os.getpid()}.json"
    )
    path = out_dir / name
    path.write_text(json.dumps(result, indent=2, sort_keys=True) + "\n")
    return path


def load_benchmark_spec() -> dict:
    return json.loads(BENCHMARK_JSON.read_text())


def metric_units() -> Dict[str, str]:
    spec = load_benchmark_spec()
    return {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
