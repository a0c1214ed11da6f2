"""The serve-mixed workload: the real ``repro.cli serve`` subprocess
under mixed ingest and query load, then SIGKILL and recovery.

It is not in BENCHMARK.json: on a shared host its ``wall_s`` moves with
the hypervisor's steal time far more than the offline workloads' do, so
it cannot gate a change (see README.md).  It runs with the same command
and reports every metric below.

Load: this process is the load generator.  One thread sends both
tenants' wire chunks closed-loop and round-robin over one connection
(the next POST goes only after the previous 202, sleeping through 429s);
a second thread, on its own connection, asks for a tenant's AH sets on
a fixed schedule and times each query from when it was due.  After the
final ``/sync`` the whole server process group is SIGKILLed, a new
server restores every tenant from the same snapshot directory (snapshot
plus journal-suffix replay), and the answers are checked again.

The traced run repeats the HTTP iteration for the server's own counters
(``GET /health``) and then drives the serve layers in-process with the
same payloads and ``TenantConfig`` — journal admission, pooled folds,
periodic snapshots, the HTTP run's queries at the same points of the
chunk stream, crash and restore-with-replay — with spans around each
layer call.
"""

from __future__ import annotations

import os
import shutil
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import Dict, List

import benchlib
import tracing

ANNOUNCE = "repro-serve listening on "
BOOT_TIMEOUT = 60.0
#: unit of every metric this workload reports; untraced runs report the
#: first eight.
UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "peak_rss_mb": "MiB",
    "error_rate": "ratio",
    "ack_p50_ms": "ms",
    "ack_p99_ms": "ms",
    "query_p50_ms": "ms",
    "recover_s": "s",
    "io.packetlog.decode_s": "s",
    "io.packetlog.wire_mb": "MiB",
    "serve.journal.append_s": "s",
    "serve.journal.fsyncs": "count",
    "serve.server.rejected_ratio": "ratio",
    "serve.tenants.queue_wait_s": "s",
    "serve.tenants.coalesce_mean": "count",
    "serve.tenants.fold_s": "s",
    "serve.foldpool.fold_s": "s",
    "serve.foldpool.ipc_mb": "MiB",
    "core.engine.snapshot_s": "s",
    "core.engine.snapshots": "count",
    "core.engine.state_mb": "MiB",
    "core.engine.query_s": "s",
    "core.engine.queries": "count",
    "core.engine.restore_s": "s",
    "serve.journal.replay_s": "s",
    "serve.journal.replay_records": "count",
    "trace.overhead_ratio": "ratio",
}
#: the query poller asks every QUERY_PERIOD seconds, alternating tenants.
#: A chosen, unmeasured rate (see README.md, "Why a fixed query rate").
QUERY_PERIOD = 0.5
#: nominal seconds of one repetition on two cores: boot, load, check,
#: and building its pair of captures.
NOMINAL_REP_SECONDS = 5.0
#: HTTP repetitions of a traced run: over 1,000 POSTs, for the ack p99.
TRACED_REPETITIONS = 5


# ----------------------------------------------------------------------
# Inputs and oracle
# ----------------------------------------------------------------------
def _fixed_size_capture(packets, timeout: float, seed: int):
    """Keep whole sources, in a seed-keyed random order, within a fixed
    budget of darknet events and packets per tenant.

    A tenant's state, and with it snapshot and query cost, grows with its
    events, and fold cost with its packets.  The tiny scenario's event
    count varies sixfold between seeds, a few sources holding thousands
    of events each.  Filling the same budgets for every seed keeps the
    work the service does comparable across seeds, while which sources,
    packets and detections it sees still change with the seed.
    """
    import numpy as np

    from repro import build_events

    events = build_events(packets, timeout)
    sources, n_events = np.unique(events.src, return_counts=True)
    ordered = np.sort(packets.src)
    n_packets = np.searchsorted(ordered, sources, side="right") - np.searchsorted(
        ordered, sources, side="left"
    )
    chosen = []
    used_events = used_packets = 0
    for i in np.random.default_rng(seed).permutation(len(sources)):
        if (
            used_events + n_events[i] <= benchlib.SERVE_EVENTS_PER_TENANT
            and used_packets + n_packets[i] <= benchlib.SERVE_PACKETS_PER_TENANT
        ):
            chosen.append(sources[i])
            used_events += int(n_events[i])
            used_packets += int(n_packets[i])
    keep = np.isin(packets.src, np.array(chosen, dtype=packets.src.dtype))
    return packets.select(keep)


def build_inputs(offset: int, size: str) -> tuple:
    """``(order, configs)``: the round-robin POST order of
    ``(tenant, n_packets, payload)`` and each tenant's TenantConfig."""
    from repro.serve.loadgen import chunk_payloads
    from repro.serve.tenants import TenantConfig
    from repro.sim.runner import build_world

    payloads: Dict[str, list] = {}
    configs = {}
    for tenant, scenario in benchlib.serve_scenarios(offset, size).items():
        _, telescope, _, capture, _, _, timeout = build_world(scenario)
        packets = _fixed_size_capture(capture.packets, timeout, scenario.seed)
        payloads[tenant] = list(
            chunk_payloads(packets, benchlib.SERVE_CHUNK_SECONDS)
        )
        configs[tenant] = TenantConfig(
            timeout=timeout,
            dark_size=telescope.size,
            detection=scenario.detection,
            day_seconds=scenario.clock.seconds_per_day,
        )
    order = []
    longest = max(len(p) for p in payloads.values())
    for i in range(longest):
        for tenant in benchlib.SERVE_TENANTS:
            if i < len(payloads[tenant]):
                n_packets, blob = payloads[tenant][i]
                order.append((tenant, n_packets, blob))
    return order, configs


def reference(order, configs, tracer=None) -> dict:
    """Offline serial DetectionEngine per tenant over the same payloads."""
    from repro.core.engine import DetectionEngine
    from repro.io.packetlog import packets_from_npz_bytes

    engines = {
        tenant: DetectionEngine(
            cfg.timeout, cfg.dark_size, cfg.detection, cfg.day_seconds
        )
        for tenant, cfg in configs.items()
    }
    packets = dict.fromkeys(configs, 0)
    for tenant, n_packets, blob in order:
        if tracer is None:
            batch = packets_from_npz_bytes(blob)
        else:
            with tracer.span("io.packetlog.decode"):
                batch = packets_from_npz_bytes(blob)
        engines[tenant].ingest(batch)
        packets[tenant] += n_packets
    out = {}
    for tenant, engine in engines.items():
        events, detections = engine.finish()
        out[tenant] = benchlib.detection_summary(len(events), detections)
        out[tenant]["packets"] = packets[tenant]
    return out


def _served_summary(payload: dict) -> dict:
    return {
        "events": payload["events"],
        "ah": {
            d: payload["detections"][d]["sources"] for d in ("1", "2", "3")
        },
    }


# ----------------------------------------------------------------------
# The server subprocess
# ----------------------------------------------------------------------
class Server:
    """``python -m repro.cli serve`` in its own process group."""

    def __init__(self, snapshot_dir: Path):
        self.snapshot_dir = snapshot_dir
        self.proc = None
        self.address = None
        self.output: List[str] = []

    def start(self) -> None:
        self.proc = subprocess.Popen(
            [
                sys.executable,
                "-m",
                "repro.cli",
                "serve",
                "--port",
                "0",
                "--snapshot-dir",
                str(self.snapshot_dir),
            ],
            cwd=benchlib.ROOT,
            env=benchlib.child_env(),
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            text=True,
            start_new_session=True,
        )
        ready = threading.Event()

        def watch():
            for line in self.proc.stdout:
                self.output.append(line.rstrip())
                if line.startswith(ANNOUNCE) and not ready.is_set():
                    host, _, port = line[len(ANNOUNCE):].strip().rpartition(":")
                    self.address = (host, int(port))
                    ready.set()
            ready.set()

        threading.Thread(target=watch, daemon=True).start()
        if not ready.wait(BOOT_TIMEOUT) or self.address is None:
            self.kill()
            tail = "\n".join(self.output[-20:])
            raise RuntimeError(f"serve subprocess never announced:\n{tail}")

    def peak_rss_mib(self) -> float:
        return benchlib.peak_rss_mib_of_tree(self.proc.pid)

    def kill(self) -> None:
        """SIGKILL the server and its fold workers; wait for all."""
        if self.proc is None:
            return
        pids = [self.proc.pid, *benchlib.descendants(self.proc.pid)]
        try:
            os.killpg(self.proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        self.proc.wait(timeout=30)
        benchlib.wait_gone(pids)
        self.proc = None


class Poller(threading.Thread):
    """AH queries on a fixed schedule, timed from each due time.

    ``progress()`` is the number of chunks acknowledged so far; each
    query records it with its tenant, so the traced in-process pass can
    issue the same queries at the same points of the chunk stream.
    """

    def __init__(self, address, tenants, progress):
        super().__init__(daemon=True)
        self.address = address
        self.tenants = tenants
        self.progress = progress
        self.stop = threading.Event()
        self.latencies: List[float] = []
        self.schedule: List[tuple] = []
        self.max_lateness = 0.0
        self.attempted = 0
        self.failed = 0

    def run(self) -> None:
        from repro.serve.client import ServeClient, ServeError

        client = ServeClient(*self.address, timeout=60.0)
        t0 = time.perf_counter()
        k = 0
        try:
            while not self.stop.is_set():
                due = t0 + k * QUERY_PERIOD
                now = time.perf_counter()
                if now < due:
                    if self.stop.wait(due - now):
                        break
                    now = time.perf_counter()
                self.max_lateness = max(self.max_lateness, now - due)
                tenant = self.tenants[k % len(self.tenants)]
                self.schedule.append((self.progress(), tenant))
                self.attempted += 1
                try:
                    client.query_ah(tenant)
                    self.latencies.append(time.perf_counter() - due)
                except (ServeError, OSError):
                    self.failed += 1
                k += 1
        finally:
            client.close()


def _recover(server: Server, configs, ref, problems: List[str]) -> tuple:
    """SIGKILL → restart on the same snapshot directory → check again.

    Returns ``(recover_s, /health after restart, peak RSS, failed checks)``.
    """
    from repro.serve.client import ServeClient

    t_kill = time.perf_counter()
    server.kill()
    server.start()
    recover_s = time.perf_counter() - t_kill
    failed = 0
    with ServeClient(*server.address, timeout=60.0) as client:
        restored = client.health()
        for tenant in configs:
            got = _served_summary(client.query_ah(tenant))
            issues = benchlib.check_summary(ref[tenant], got, f"{tenant} after recovery")
            seen = restored["tenants"].get(tenant, {}).get("packets")
            if seen != ref[tenant]["packets"]:
                issues.append(
                    f"{tenant} after recovery: {seen} packets, "
                    f"expected {ref[tenant]['packets']}"
                )
            failed += bool(issues)
            problems += issues
    return recover_s, restored, server.peak_rss_mib(), failed


def http_iteration(order, configs, ref, snapshot_dir: Path, recover: bool) -> dict:
    """One boot → load → sync → check → SIGKILL, and with ``recover``
    (the run's last repetition) restart on the same snapshot directory
    and check again."""
    from repro.serve.client import ServeClient, ServeError

    shutil.rmtree(snapshot_dir, ignore_errors=True)
    problems: List[str] = []
    attempted = failed = rejected = 0
    server = Server(snapshot_dir)
    t_spawn = time.perf_counter()
    server.start()
    try:
        client = ServeClient(*server.address, timeout=60.0)
        for tenant, cfg in configs.items():
            client.create_tenant(tenant, cfg)
        setup_s = time.perf_counter() - t_spawn

        acks: List[float] = []
        poller = Poller(server.address, list(configs), lambda: len(acks))
        poller.start()
        t_first = time.perf_counter()
        for tenant, _, blob in order:
            attempted += 1
            sent = time.perf_counter()
            try:
                rejected += client.ingest_blocking(tenant, blob)
            except (ServeError, OSError) as exc:
                failed += 1
                problems.append(f"POST {tenant} chunk failed: {exc}")
                continue
            acks.append(time.perf_counter() - sent)
        for tenant in configs:
            client.sync(tenant)
        wall_s = time.perf_counter() - t_first
        poller.stop.set()
        poller.join(timeout=120)
        attempted += poller.attempted
        failed += poller.failed

        for tenant in configs:
            attempted += 1
            got = _served_summary(client.query_ah(tenant))
            issues = benchlib.check_summary(ref[tenant], got, f"{tenant} after sync")
            failed += bool(issues)
            problems += issues
        health = client.health()
        peak_rss = server.peak_rss_mib()
        client.close()

        recover_s = restored = None
        if recover:
            recover_s, restored, peak, bad = _recover(server, configs, ref, problems)
            attempted += len(configs)
            failed += bad
            peak_rss = max(peak_rss, peak)
    finally:
        server.kill()
    shutil.rmtree(snapshot_dir, ignore_errors=True)
    return {
        "setup_s": setup_s,
        "wall_s": wall_s,
        "recover_s": recover_s,
        "peak_rss_mb": peak_rss,
        "acks": acks,
        "queries": poller.latencies,
        "query_schedule": poller.schedule,
        "query_max_lateness_s": poller.max_lateness,
        "posts": len(order),
        "rejected": rejected,
        "attempted": attempted,
        "failed": failed,
        "problems": problems,
        "health": health,
        "restored": restored,
    }


def setup_sample(configs, snapshot_dir: Path) -> float:
    """Spawn → announced → tenants registered, then SIGKILL."""
    from repro.serve.client import ServeClient

    shutil.rmtree(snapshot_dir, ignore_errors=True)
    server = Server(snapshot_dir)
    t_spawn = time.perf_counter()
    try:
        server.start()
        with ServeClient(*server.address, timeout=60.0) as client:
            for tenant, cfg in configs.items():
                client.create_tenant(tenant, cfg)
        return time.perf_counter() - t_spawn
    finally:
        server.kill()
        shutil.rmtree(snapshot_dir, ignore_errors=True)


# ----------------------------------------------------------------------
# In-process pass (traced run)
# ----------------------------------------------------------------------
def inprocess_pass(
    order, configs, ref, queries, snapshot_dir: Path, tracer=None
) -> dict:
    """The serve layers without HTTP: admit, fold, snapshot, and query
    where the HTTP run did (``queries``: its ``(chunks acknowledged,
    tenant)`` schedule), then drop everything unsnapshotted and restore
    with replay."""
    from repro.serve.foldpool import FoldPool, auto_processes
    from repro.serve.tenants import TenantRegistry

    shutil.rmtree(snapshot_dir, ignore_errors=True)
    problems: List[str] = []
    with FoldPool(auto_processes()) as pool:
        registry = TenantRegistry(snapshot_dir)
        registry.attach_pool(pool)
        for tenant, cfg in configs.items():
            registry.create(tenant, cfg)
        pending = iter(queries)
        due = next(pending, None)
        t0 = time.perf_counter()
        for done, (tenant, _, blob) in enumerate(order, start=1):
            owner = registry.get(tenant)
            seq, _ = owner.accept_chunk(blob)
            owner.ingest_payloads([blob], last_seq=seq)
            while due is not None and due[0] <= done:
                registry.get(due[1]).query()
                due = next(pending, None)
        wall = time.perf_counter() - t0
        for tenant in configs:
            query = registry.get(tenant).query()
            got = benchlib.detection_summary(query.events, query.detections)
            problems += benchlib.check_summary(ref[tenant], got, f"{tenant} in-process")
        # A crash: nothing after the last periodic snapshot is saved.
        registry.close_journals()
        restored = TenantRegistry(snapshot_dir)
        restored.attach_pool(pool)
        restored.restore_all()
        for tenant in configs:
            query = restored.get(tenant).query()
            got = benchlib.detection_summary(query.events, query.detections)
            problems += benchlib.check_summary(ref[tenant], got, f"{tenant} in-process restore")
        restored.close_journals()
    shutil.rmtree(snapshot_dir, ignore_errors=True)
    return {"wall_s": wall, "problems": problems}


# ----------------------------------------------------------------------
# Workload entry
# ----------------------------------------------------------------------
def _serve_counters(health: dict) -> dict:
    tenants = health["tenants"].values()
    folds = sum(t["serve"]["folds"] for t in tenants)
    folded_chunks = sum(
        int(chunks) * count
        for t in tenants
        for chunks, count in t["serve"]["coalesce_histogram"].items()
    )
    return {
        "queue_wait_s": sum(t["serve"]["queue_wait_seconds"] for t in tenants),
        "coalesce_mean": folded_chunks / folds if folds else 0.0,
        "fold_s": sum(t["serve"]["fold_seconds"] for t in tenants),
        "journal_fsyncs": sum(
            t["journal"]["fsyncs"] for t in tenants if t["journal"]
        ),
        "replayed": sum(t["serve"]["replayed_chunks"] for t in tenants),
    }


def run(seed: int, seconds: float, trace: bool, size: str) -> dict:
    """Run the workload; returns the harness outcome dict."""
    benchlib.use_source()
    work = benchlib.WORK_DIR / f"serve-{os.getpid()}"
    # The repetition count depends on --seconds alone, never on how fast
    # a commit runs, so two commits replay the same inputs.
    count = TRACED_REPETITIONS if trace else min(
        benchlib.SERVE_SCENARIOS, max(1, round(seconds / NOMINAL_REP_SECONDS))
    )
    inputs = []
    for offset in range(benchlib.SERVE_SCENARIOS * seed, benchlib.SERVE_SCENARIOS * seed + count):
        order, configs = build_inputs(offset, size)
        key = benchlib.input_key(
            *(part for tenant, _, blob in order for part in (tenant, blob)),
            *configs.items(),
        )
        ref = benchlib.cached_json(
            f"serve-{size}-{offset}-{key}.json",
            lambda: reference(order, configs),
        )
        inputs.append((order, configs, ref))
    iterations = []
    try:
        for i, (order, configs, ref) in enumerate(inputs):
            iterations.append(
                http_iteration(
                    order, configs, ref, work / "snap", recover=i == count - 1
                )
            )
        setups = [it["setup_s"] for it in iterations]
        while not trace and len(setups) < benchlib.MIN_SETUP_SAMPLES:
            setups.append(setup_sample(inputs[0][1], work / "snap"))
        if trace:
            order, configs, ref = inputs[0]
            queries = iterations[0]["query_schedule"]
            untraced = inprocess_pass(
                order, configs, ref, queries, work / "inproc"
            )
            tracer = tracing.Tracer()
            tracing.install_serve(tracer)
            try:
                traced_ref = reference(order, configs, tracer)
                traced = inprocess_pass(
                    order, configs, ref, queries, work / "inproc", tracer
                )
            finally:
                tracer.uninstall()
    finally:
        shutil.rmtree(work, ignore_errors=True)

    problems = [p for it in iterations for p in it["problems"]]
    attempted = sum(it["attempted"] for it in iterations)
    failed = sum(it["failed"] for it in iterations)
    acks = [a for it in iterations for a in it["acks"]]
    queries = [q for it in iterations for q in it["queries"]]
    posts = sum(it["posts"] for it in iterations)
    rejected = sum(it["rejected"] for it in iterations)
    metrics = {
        "setup_s": benchlib.median(setups),
        "wall_s": benchlib.median(it["wall_s"] for it in iterations),
        "peak_rss_mb": max(it["peak_rss_mb"] for it in iterations),
        "error_rate": failed / attempted,
        "ack_p50_ms": 1e3 * benchlib.percentile(acks, 0.50),
        "ack_p99_ms": 1e3 * benchlib.percentile(acks, 0.99),
        "query_p50_ms": 1e3 * benchlib.percentile(queries, 0.50),
        "recover_s": iterations[-1]["recover_s"],
    }
    p_ack = benchlib.supported_percentile(len(acks))
    p_query = benchlib.supported_percentile(len(queries))
    info = {
        "repetitions": len(iterations),
        "wall_s_each": [round(it["wall_s"], 3) for it in iterations],
        "setup_samples": len(setups),
        "ack_samples": len(acks),
        "query_samples": len(queries),
        "posts": posts,
        "query_max_lateness_s": max(it["query_max_lateness_s"] for it in iterations),
        f"ack_p{p_ack * 100:g}_ms": 1e3 * benchlib.percentile(acks, p_ack),
    }
    if p_query is not None:
        info[f"query_p{p_query * 100:g}_ms"] = 1e3 * benchlib.percentile(
            queries, p_query
        )
    ledger = {}
    if trace:
        problems += traced["problems"] + untraced["problems"]
        attempted += 2
        failed += bool(traced["problems"]) + bool(untraced["problems"])
        if traced_ref != ref:
            problems.append("traced reference pass differs from the cached reference")
            failed += 1
        attempted += 1
        ls = tracing.layer_seconds(tracer.spans)
        counters = tracer.counters
        served = _serve_counters(iterations[0]["health"])
        replayed = _serve_counters(iterations[-1]["restored"])["replayed"]
        layer = {
            "io.packetlog.decode_s": ls.get("io.packetlog.decode", 0.0),
            "io.packetlog.wire_mb": sum(len(b) for _, _, b in order) / tracing.MIB,
            "serve.journal.append_s": ls.get("serve.journal.append", 0.0),
            "serve.journal.fsyncs": served["journal_fsyncs"],
            "serve.server.rejected_ratio": rejected / posts,
            "serve.tenants.queue_wait_s": served["queue_wait_s"],
            "serve.tenants.coalesce_mean": served["coalesce_mean"],
            "serve.tenants.fold_s": served["fold_s"],
            "serve.foldpool.fold_s": ls.get("serve.foldpool.fold", 0.0),
            "serve.foldpool.ipc_mb": counters["serve.foldpool.ipc_bytes"] / tracing.MIB,
            "core.engine.snapshot_s": ls.get("core.engine.snapshot", 0.0),
            "core.engine.snapshots": counters["core.engine.snapshots"],
            "core.engine.state_mb": counters["core.engine.state_bytes"] / tracing.MIB,
            "core.engine.query_s": ls.get("core.engine.query", 0.0),
            "core.engine.queries": tracing.span_count(tracer.spans, "core.engine.query"),
            "core.engine.restore_s": ls.get("core.engine.restore", 0.0),
            "serve.journal.replay_s": ls.get("serve.journal.replay", 0.0),
            "serve.journal.replay_records": replayed,
            "trace.overhead_ratio": traced["wall_s"] / untraced["wall_s"],
        }
        metrics.update(layer)
        ledger = {name: round(value, 6) for name, value in sorted(ls.items())}
    return {
        "metrics": metrics,
        "info": info,
        "attempted": attempted,
        "failed": failed,
        "problems": problems,
        "ledger": ledger,
    }
