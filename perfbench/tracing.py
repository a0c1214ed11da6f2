"""Span tracing for the benchmark's traced runs.

The benchmark records spans from its own files: :class:`Tracer` wraps
the public functions and methods of each layer (``repro.sim``,
``repro.scanners``, ``repro.core.*``, ``repro.parallel``, ``repro.io``,
``repro.serve``...) so every call into a layer leaves a span with its
name, start, end and parent.  Spans stay in memory and are written out
when the run ends.  Nothing under ``src/`` changes, and untraced runs
install nothing.

Shard workers of the detect-sharded workload are forked (the default
start method on Linux), so they inherit the patches; each appends its
spans to the trace directory after every task.
"""

from __future__ import annotations

import functools
import inspect
import itertools
import json
import os
import threading
import time
from collections import Counter, defaultdict
from contextlib import contextmanager
from pathlib import Path
from typing import Dict, List

MIB = float(2**20)


class Tracer:
    """In-memory span recorder plus the patches that feed it."""

    def __init__(self) -> None:
        #: (id, parent id or -1, name, start, end, pid)
        self.spans: List[tuple] = []
        self.counters: Counter = Counter()
        self._ids = itertools.count()
        self._local = threading.local()
        self._patches: List[tuple] = []
        self._pid = os.getpid()

    # ------------------------------------------------------------------
    def adopt(self) -> None:
        """Start afresh in a forked child: drop the parent's spans,
        counters and open-span stack inherited with the fork."""
        if os.getpid() != self._pid:
            self._pid = os.getpid()
            self.spans = []
            self.counters = Counter()
            self._local = threading.local()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, name: str):
        stack = self._stack()
        parent = stack[-1] if stack else -1
        sid = next(self._ids)
        stack.append(sid)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            stack.pop()
            self.spans.append((sid, parent, name, start, end, self._pid))

    # ------------------------------------------------------------------
    def wrap(self, owner, attr: str, name: str, after=None) -> None:
        """Record a span around every call of ``owner.attr``.

        ``after(tracer, args, result)`` runs outside the span, so its
        bookkeeping is not charged to the layer.
        """
        raw = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        kind = type(raw) if isinstance(raw, (classmethod, staticmethod)) else None
        func = raw.__func__ if kind is not None else raw
        tracer = self

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            with tracer.span(name):
                result = func(*args, **kwargs)
            if after is not None:
                after(tracer, args, result)
            return result

        setattr(owner, attr, kind(wrapper) if kind is not None else wrapper)
        self._patches.append((owner, attr, raw))

    def wrap_iter(self, owner, attr: str, name: str, on_exhaust=None) -> None:
        """Record a span around every ``next()`` of a generator method."""
        raw = owner.__dict__[attr]
        tracer = self

        @functools.wraps(raw)
        def wrapper(obj, *args, **kwargs):
            iterator = raw(obj, *args, **kwargs)
            while True:
                with tracer.span(name):
                    try:
                        item = next(iterator)
                    except StopIteration:
                        break
                yield item
            if on_exhaust is not None:
                on_exhaust(tracer, obj)

        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, raw))

    def wrap_module(self, module, group: str) -> None:
        """Wrap every public function defined in ``module``."""
        for attr, value in list(vars(module).items()):
            if (
                not attr.startswith("_")
                and inspect.isfunction(value)
                and value.__module__ == module.__name__
            ):
                self.wrap(module, attr, f"{group}.{attr}")

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, raw = self._patches.pop()
            setattr(owner, attr, raw)

    # ------------------------------------------------------------------
    def dump(self, path: Path) -> None:
        """Append the recorded spans and counters to ``path`` and clear."""
        with open(path, "a") as handle:
            handle.write(
                json.dumps(
                    {"spans": self.spans, "counters": dict(self.counters)}
                )
                + "\n"
            )
        self.spans = []
        self.counters = Counter()


def load_dumps(directory: Path) -> tuple:
    """All spans and summed counters appended under ``directory``."""
    spans: List[tuple] = []
    counters: Counter = Counter()
    for path in sorted(Path(directory).glob("*.jsonl")):
        for line in path.read_text().splitlines():
            record = json.loads(line)
            spans.extend(tuple(s) for s in record["spans"])
            counters.update(record["counters"])
    return spans, counters


# ----------------------------------------------------------------------
# Patch sets
# ----------------------------------------------------------------------
def _count_emitter(tracer: Tracer, emitter) -> None:
    tracer.counters["scanners.spans_derived"] += emitter.spans_derived
    tracer.counters["scanners.spans_emitted"] += emitter.spans_emitted


def _count_shm(tracer: Tracer, args, result) -> None:
    tracer.counters["io.shm.handoff_bytes"] += sum(
        batch.nbytes for batches in args[0] for batch in batches
    )


def install_detection(tracer: Tracer) -> None:
    """Spans of the generation and streaming-detection layers (the part
    of the offline pipeline that also runs inside shard workers)."""
    from repro.core.ecdf import StreamingECDF
    from repro.core.streaming import (
        DispersionState,
        PortDayState,
        StreamingDetector,
        StreamingEventBuilder,
    )
    from repro.scanners.lazy import PopulationEmitter

    tracer.wrap(PopulationEmitter, "__init__", "scanners.emitter_init")
    tracer.wrap_iter(
        PopulationEmitter, "__iter__", "scanners.emit", _count_emitter
    )
    tracer.wrap(StreamingDetector, "add_batch", "core.streaming.detect")
    tracer.wrap(StreamingEventBuilder, "add_batch", "core.streaming.build")
    tracer.wrap(StreamingECDF, "add", "core.ecdf.add")
    tracer.wrap(DispersionState, "update", "core.streaming.dispersion")
    tracer.wrap(PortDayState, "update", "core.streaming.portday")
    tracer.wrap(StreamingDetector, "finish", "core.streaming.finish")


def install_offline(tracer: Tracer, trace_dir) -> None:
    """Spans of every layer the offline workloads call, including the
    shard workers they fork."""
    import repro.core.characterize
    import repro.core.impact
    import repro.core.validation
    import repro.parallel
    import repro.sim.runner
    from repro.core.engine import DetectionEngine
    from repro.core.streaming import StreamingDetector
    from repro.flows.isp import ISPNetwork
    from repro.scanners.base import Scanner
    from repro.telescope.darknet import Telescope

    for attr in (
        "build_internet",
        "build_merit_like",
        "build_campus_like",
        "build_population",
    ):
        tracer.wrap(repro.sim.runner, attr, f"sim.world.{attr}")
    install_detection(tracer)
    tracer.wrap(Telescope, "capture", "telescope.capture")
    tracer.wrap(DetectionEngine, "ingest", "core.engine.ingest")
    tracer.wrap(DetectionEngine, "finish", "core.engine.finish")
    # Shard detector states merge only on the parallel path (task folds
    # in the parent, then the engine's finish).
    tracer.wrap(StreamingDetector, "merge", "parallel.merge")
    tracer.wrap(
        repro.parallel, "parallel_generate_detect", "parallel.generate_detect"
    )
    tracer.wrap(repro.parallel, "run_sharded", "parallel.run_sharded")
    tracer.wrap(repro.parallel, "plan_grouped", "core.schedule.plan")
    for cls in _defining_classes(Scanner, "cost_estimate"):
        tracer.wrap(cls, "cost_estimate", "core.schedule.cost")
    trace_worker_tasks(tracer, trace_dir)
    tracer.wrap(
        repro.parallel, "share_shard_batches", "io.shm.share", _count_shm
    )
    tracer.wrap(ISPNetwork, "collect_scanner_flows", "flows.collect")
    tracer.wrap_module(repro.core.impact, "core.impact")
    tracer.wrap_module(repro.core.characterize, "core.characterize")
    tracer.wrap_module(repro.core.validation, "core.validation")


def _defining_classes(base: type, attr: str) -> List[type]:
    """``base`` and its subclasses that define ``attr`` themselves."""
    found, frontier = [], [base]
    while frontier:
        cls = frontier.pop()
        if attr in cls.__dict__ and cls not in found:
            found.append(cls)
        frontier.extend(cls.__subclasses__())
    return found


def trace_worker_tasks(tracer: Tracer, trace_dir) -> None:
    """Wrap the shard-worker body: each task runs under a
    ``parallel.task`` span, and a forked worker appends its spans to
    ``trace_dir`` when the task ends."""
    import repro.parallel

    task = repro.parallel._run_shard_lazy
    owner_pid = os.getpid()

    @functools.wraps(task)
    def traced_task(*args, **kwargs):
        tracer.adopt()
        with tracer.span("parallel.task"):
            result = task(*args, **kwargs)
        if os.getpid() != owner_pid:
            tracer.dump(Path(trace_dir) / f"worker-{os.getpid()}.jsonl")
        return result

    repro.parallel._run_shard_lazy = traced_task
    tracer._patches.append((repro.parallel, "_run_shard_lazy", task))


def _payload_bytes(value) -> int:
    if isinstance(value, (bytes, bytearray, memoryview)):
        return len(value)
    if isinstance(value, (list, tuple)):
        return sum(_payload_bytes(v) for v in value)
    return 0


def _count_fold(tracer: Tracer, args, result) -> None:
    requests = args[1]
    tracer.counters["serve.foldpool.ipc_bytes"] += sum(
        _payload_bytes(request[3]) for request in requests
    )


def _count_collect(tracer: Tracer, args, result) -> None:
    tracer.counters["serve.foldpool.ipc_bytes"] += _payload_bytes(result)


def _count_snapshot(tracer: Tracer, args, result) -> None:
    tracer.counters["core.engine.snapshots"] += 1
    tracer.counters["core.engine.state_bytes"] = len(result)


def _count_replay(tracer: Tracer, args, result) -> None:
    tracer.counters["serve.journal.replay_records"] += int(result)


def install_serve(tracer: Tracer) -> None:
    """Spans of the serve layers driven in-process."""
    from repro.core.engine import DetectionEngine
    from repro.serve.foldpool import FoldPool
    from repro.serve.journal import ChunkJournal
    from repro.serve.tenants import Tenant

    tracer.wrap(Tenant, "accept_chunk", "serve.tenants.admit")
    tracer.wrap(ChunkJournal, "append", "serve.journal.append")
    tracer.wrap(Tenant, "ingest_payloads", "serve.tenants.fold")
    tracer.wrap(FoldPool, "fold_many", "serve.foldpool.fold", _count_fold)
    tracer.wrap(FoldPool, "collect", "serve.foldpool.collect", _count_collect)
    tracer.wrap(DetectionEngine, "snapshot", "core.engine.snapshot", _count_snapshot)
    tracer.wrap(DetectionEngine, "query", "core.engine.query")
    tracer.wrap(DetectionEngine, "restore", "core.engine.restore")
    tracer.wrap(Tenant, "replay_journal", "serve.journal.replay", _count_replay)


# ----------------------------------------------------------------------
# Ledger arithmetic
# ----------------------------------------------------------------------
def layer_seconds(spans: List[tuple]) -> Dict[str, float]:
    """Busy seconds per span-name prefix, counting nested spans of the
    same prefix once: for every prefix of every span name (``a``,
    ``a.b``, ``a.b.c``) the outermost spans carrying it are summed."""
    by_id = {(s[5], s[0]): s for s in spans}
    totals: Dict[str, float] = defaultdict(float)
    for sid, parent, name, start, end, pid in spans:
        parts = name.split(".")
        ancestors = set()
        p = parent
        while p != -1:
            ancestor = by_id.get((pid, p))
            if ancestor is None:
                break
            a_parts = ancestor[2].split(".")
            for i in range(1, len(a_parts) + 1):
                ancestors.add(".".join(a_parts[:i]))
            p = ancestor[1]
        for i in range(1, len(parts) + 1):
            prefix = ".".join(parts[:i])
            if prefix not in ancestors:
                totals[prefix] += end - start
    return dict(totals)


#: spans around orchestration, not layer work: they are transparent to
#: the unaccounted-time ledger, which counts only the layer spans in them.
ORCHESTRATION = frozenset(
    {"parallel.generate_detect", "parallel.run_sharded", "parallel.task"}
)


def _layer_roots(spans: List[tuple], pid: int) -> List[tuple]:
    """``(span, inside run_sharded)`` for the outermost layer spans of
    ``pid``: spans not in ORCHESTRATION whose ancestors all are."""
    by_id = {s[0]: s for s in spans if s[5] == pid}
    roots = []
    for span in by_id.values():
        if span[2] in ORCHESTRATION:
            continue
        sharded = False
        parent = by_id.get(span[1])
        while parent is not None and parent[2] in ORCHESTRATION:
            sharded = sharded or parent[2] == "parallel.run_sharded"
            parent = by_id.get(parent[1])
        if parent is None:
            roots.append((span, sharded))
    return roots


def critical_path(spans: List[tuple], main_pid: int, wall: float) -> Dict[str, float]:
    """Where the traced wall time goes that no layer span covers.

    * ``main_s``: main-process time outside ``parallel.run_sharded``
      not covered by an outermost layer span.
    * ``task_s``: on the worker with the most task time, the
      ``parallel.task`` time not covered by a layer span in it.
    * ``handoff_s``: ``run_sharded`` time beyond that worker's task
      time: pool start, shipping tasks and results, waiting.

    ``main_s + task_s`` is the unaccounted time; ``handoff_s`` is the
    parallel layer's hand-off, reported on its own.
    """
    sharded = sum(
        s[4] - s[3]
        for s in spans
        if s[5] == main_pid and s[2] == "parallel.run_sharded"
    )
    main_layer = sum(
        s[4] - s[3] for s, inside in _layer_roots(spans, main_pid) if not inside
    )
    busiest = 0.0, 0.0
    for pid in {s[5] for s in spans} - {main_pid}:
        task = sum(
            s[4] - s[3] for s in spans if s[5] == pid and s[2] == "parallel.task"
        )
        layer = sum(s[4] - s[3] for s, _ in _layer_roots(spans, pid))
        busiest = max(busiest, (task, layer))
    task, layer = busiest
    return {
        "main_s": wall - sharded - main_layer,
        "task_s": task - layer,
        "handoff_s": max(0.0, sharded - task),
    }


def span_count(spans: List[tuple], name: str) -> int:
    return sum(1 for s in spans if s[2] == name)
