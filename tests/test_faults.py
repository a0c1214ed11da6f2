"""Tests for the fault-tolerant execution layer (repro.core.faults).

The contract under test everywhere: *faults change when work happens,
never what is computed*.  Injected kills, worker-process aborts,
corrupt checkpoints and interrupted runs must all converge to results
bit-identical to a fault-free serial run.
"""

import dataclasses
import json
import pickle
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.faults import (
    CheckpointStore,
    ChunkCorruptionError,
    FaultPlan,
    InjectedFault,
    RetryPolicy,
    ShardFailedError,
    atomic_write_bytes,
    retryable,
    run_sharded,
    sha256_hex,
)
from repro.core.schedule import plan_contiguous
from repro.core.telemetry import PipelineTelemetry, RunHealth
from repro.io.packetlog import save_packets_chunked
from repro.parallel import (
    parallel_detect,
    parallel_detect_directory,
    parallel_flow_columns,
    resume_run,
)
from tests.test_parallel import _CONFIG, _DARK_SIZE, _random_capture, _reference
from tests.test_streaming import (
    _assert_detections_identical,
    _assert_tables_identical,
)

#: Zero-sleep policy for tests: full retry logic, no wall-clock cost.
_FAST = RetryPolicy(max_retries=2, backoff_seconds=0.0)

_NO_SLEEP = {"sleep": lambda seconds: None}


class TestRetryPolicy:
    def test_backoff_grows_and_caps(self):
        policy = RetryPolicy(
            backoff_seconds=0.1, backoff_factor=2.0, max_backoff_seconds=0.35
        )
        assert policy.backoff(1) == pytest.approx(0.1)
        assert policy.backoff(2) == pytest.approx(0.2)
        assert policy.backoff(3) == pytest.approx(0.35)  # capped, not 0.4
        assert policy.backoff(0) == 0.0

    def test_validation(self):
        with pytest.raises(ValueError):
            RetryPolicy(max_retries=-1)
        with pytest.raises(ValueError):
            RetryPolicy(backoff_seconds=-0.1)
        with pytest.raises(ValueError):
            RetryPolicy(backoff_factor=0.5)
        with pytest.raises(ValueError):
            RetryPolicy(watchdog_seconds=0.0)


class TestFaultPlan:
    def test_from_seed_deterministic(self):
        a = FaultPlan.from_seed(7, 8, kills=3)
        b = FaultPlan.from_seed(7, 8, kills=3)
        assert a == b
        assert len(a.kill) == 3
        assert all(0 <= shard < 8 for shard in a.kill)

    def test_kill_fails_first_attempts_only(self):
        plan = FaultPlan(kill={2: 2})
        with pytest.raises(InjectedFault):
            plan.apply(2, 0, in_process=True)
        with pytest.raises(InjectedFault):
            plan.apply(2, 1, in_process=True)
        plan.apply(2, 2, in_process=True)  # budget spent: runs clean
        plan.apply(0, 0, in_process=True)  # other shards untouched

    def test_abort_downgraded_in_process(self):
        # A hard os._exit would kill the test runner; in-process it must
        # degrade to an ordinary raise.
        plan = FaultPlan(abort={0: 1})
        with pytest.raises(InjectedFault, match="in-process"):
            plan.apply(0, 0, in_process=True)

    def test_validation(self):
        with pytest.raises(ValueError):
            FaultPlan.from_seed(0, 4, mode="melt")
        with pytest.raises(ValueError):
            FaultPlan.from_seed(0, 4, kills=5)

    def test_plan_is_picklable(self):
        plan = FaultPlan.from_seed(3, 4)
        assert pickle.loads(pickle.dumps(plan)) == plan


class TestAtomicWrite:
    def test_roundtrip_and_digest(self, tmp_path):
        path = tmp_path / "blob.bin"
        digest = atomic_write_bytes(path, b"payload")
        assert path.read_bytes() == b"payload"
        assert digest == sha256_hex(b"payload")

    def test_no_tmp_leftover(self, tmp_path):
        atomic_write_bytes(tmp_path / "blob.bin", b"x" * 1024)
        leftovers = [p.name for p in tmp_path.iterdir() if p.name != "blob.bin"]
        assert leftovers == []

    def test_overwrite_is_atomic_replace(self, tmp_path):
        path = tmp_path / "blob.bin"
        atomic_write_bytes(path, b"old")
        atomic_write_bytes(path, b"new")
        assert path.read_bytes() == b"new"


class TestCheckpointStore:
    def test_save_load_roundtrip(self, tmp_path):
        store = CheckpointStore(tmp_path / "run")
        store.save("detect", 3, b"state-bytes")
        assert store.load("detect", 3) == b"state-bytes"
        assert store.load("detect", 4) is None

    def test_corrupt_payload_discarded_and_counted(self, tmp_path):
        health = RunHealth()
        store = CheckpointStore(tmp_path / "run", health)
        path = store.save("detect", 0, b"good")
        raw = bytearray(path.read_bytes())
        raw[-1] ^= 0xFF
        path.write_bytes(bytes(raw))
        assert store.load("detect", 0) is None
        assert health.checkpoint_corrupt == 1

    def test_truncated_checkpoint_discarded(self, tmp_path):
        store = CheckpointStore(tmp_path / "run")
        path = store.save("detect", 0, b"a longer payload")
        path.write_bytes(path.read_bytes()[:-5])
        assert store.load("detect", 0) is None

    def test_foreign_file_discarded(self, tmp_path):
        store = CheckpointStore(tmp_path / "run")
        store.path_for("detect", 0).write_bytes(b"not a checkpoint at all")
        assert store.load("detect", 0) is None

    def test_require_meta_adopts_then_enforces(self, tmp_path):
        store = CheckpointStore(tmp_path / "run")
        store.require_meta({"kind": "detect", "workers": 2})
        store.require_meta({"kind": "detect", "workers": 2})  # idempotent
        with pytest.raises(ValueError, match="workers"):
            store.require_meta({"kind": "detect", "workers": 4})


def _double(value):
    """Top-level (picklable) worker for run_sharded tests."""
    return value * 2


class TestRunSharded:
    def test_ordered_results(self):
        out = run_sharded(
            _double, [(i,) for i in range(5)], use_processes=False, **_NO_SLEEP
        )
        assert out == [0, 2, 4, 6, 8]

    def test_retry_recovers_and_is_counted(self):
        health = RunHealth()
        out = run_sharded(
            _double,
            [(i,) for i in range(4)],
            policy=_FAST,
            plan=FaultPlan(kill={1: 2}),
            use_processes=False,
            health=health,
            **_NO_SLEEP,
        )
        assert out == [0, 2, 4, 6]
        assert health.retries == 2

    def test_budget_exhaustion_raises_shard_failed(self):
        with pytest.raises(ShardFailedError) as excinfo:
            run_sharded(
                _double,
                [(i,) for i in range(3)],
                policy=RetryPolicy(max_retries=1, backoff_seconds=0.0),
                plan=FaultPlan(kill={2: 5}),
                use_processes=False,
                **_NO_SLEEP,
            )
        assert excinfo.value.shard == 2
        assert isinstance(excinfo.value.cause, InjectedFault)

    def test_non_retryable_surfaces_immediately(self):
        def poisoned(value):
            raise ChunkCorruptionError(f"corrupt packet chunk chunk-{value}")

        health = RunHealth()
        with pytest.raises(ChunkCorruptionError, match="chunk-0"):
            run_sharded(
                poisoned,
                [(0,)],
                policy=_FAST,
                use_processes=False,
                health=health,
                **_NO_SLEEP,
            )
        assert health.retries == 0
        assert not retryable(ChunkCorruptionError("x"))

    def test_submit_order_reorders_execution_not_results(self):
        submitted = []

        def tracking(value):
            submitted.append(value)
            return value * 2

        out = run_sharded(
            tracking,
            [(i,) for i in range(4)],
            use_processes=False,
            submit_order=[3, 1, 0, 2],
            **_NO_SLEEP,
        )
        assert out == [0, 2, 4, 6]
        assert submitted == [3, 1, 0, 2]

    def test_submit_order_must_be_permutation(self):
        for bad in ([0, 1], [0, 0, 1, 2], [0, 1, 2, 4]):
            with pytest.raises(ValueError, match="permutation"):
                run_sharded(
                    _double,
                    [(i,) for i in range(4)],
                    use_processes=False,
                    submit_order=bad,
                    **_NO_SLEEP,
                )

    def test_checkpoints_skip_finished_shards(self, tmp_path):
        health = RunHealth()
        store = CheckpointStore(tmp_path / "run", health)
        run_sharded(
            _double,
            [(i,) for i in range(3)],
            use_processes=False,
            store=store,
            health=health,
            **_NO_SLEEP,
        )
        assert health.checkpoint_writes == 3

        calls = []

        def recording(value):
            calls.append(value)
            return value * 2

        out = run_sharded(
            recording,
            [(i,) for i in range(3)],
            use_processes=False,
            store=store,
            health=health,
            **_NO_SLEEP,
        )
        assert out == [0, 2, 4]
        assert calls == []  # every shard came off disk
        assert health.checkpoint_hits == 3

    def test_corrupt_checkpoint_reruns_shard(self, tmp_path):
        health = RunHealth()
        store = CheckpointStore(tmp_path / "run", health)
        run_sharded(
            _double, [(i,) for i in range(2)], use_processes=False,
            store=store, **_NO_SLEEP,
        )
        victim = store.path_for("shard", 1)
        victim.write_bytes(victim.read_bytes()[:-3])
        out = run_sharded(
            _double, [(i,) for i in range(2)], use_processes=False,
            store=store, health=health, **_NO_SLEEP,
        )
        assert out == [0, 2]
        assert health.checkpoint_hits == 1
        assert health.checkpoint_corrupt == 1

    def test_incompatible_checkpoint_state_reruns_shard(self, tmp_path):
        health = RunHealth()
        store = CheckpointStore(tmp_path / "run", health)
        store.save("shard", 0, b"intact but unloadable")

        def strict_loads(payload):
            raise ValueError("state version mismatch")

        out = run_sharded(
            _double, [(5,)], use_processes=False, store=store,
            health=health, loads=strict_loads, **_NO_SLEEP,
        )
        assert out == [10]
        assert health.checkpoint_corrupt == 1
        assert health.checkpoint_hits == 0


class TestProcessPoolRecovery:
    """Real worker processes: hard aborts must respawn, not wedge."""

    def test_hard_abort_respawns_pool_and_recovers(self):
        health = RunHealth()
        out = run_sharded(
            _double,
            [(i,) for i in range(3)],
            policy=RetryPolicy(max_retries=2, backoff_seconds=0.0),
            plan=FaultPlan(abort={1: 1}),
            use_processes=True,
            max_workers=2,
            health=health,
        )
        assert out == [0, 2, 4]
        assert health.respawns >= 1
        assert health.retries >= 1

    def test_hard_abort_with_no_budget_fails_loudly(self):
        with pytest.raises(ShardFailedError):
            run_sharded(
                _double,
                [(i,) for i in range(2)],
                policy=RetryPolicy(max_retries=0, backoff_seconds=0.0),
                plan=FaultPlan(abort={0: 1}),
                use_processes=True,
                max_workers=2,
            )

    def test_injected_kill_across_processes(self):
        health = RunHealth()
        out = run_sharded(
            _double,
            [(i,) for i in range(4)],
            policy=_FAST,
            plan=FaultPlan(kill={0: 1, 3: 1}),
            use_processes=True,
            max_workers=2,
            health=health,
        )
        assert out == [0, 2, 4, 6]
        assert health.retries == 2


# ----------------------------------------------------------------------
# Identity under faults — the tentpole property.
# ----------------------------------------------------------------------

_BATCH = _random_capture(97, n=6_000)
_REF_EVENTS, _REF_DETECTIONS = _reference(_BATCH)


def _chunks():
    return (c for _, _, c in _BATCH.iter_time_chunks(3_600.0))


class TestFaultedDetectionIdentity:
    @settings(deadline=None, max_examples=16)
    @given(workers=st.integers(1, 8), victim=st.integers(0, 7))
    def test_kill_any_shard_retry_identical(self, workers, victim):
        """Crashing any single shard, any worker count: retry converges
        to the fault-free serial result, bit-identical."""
        plan = FaultPlan(kill={victim % workers: 1})
        result = parallel_detect(
            _chunks(),
            600.0,
            _DARK_SIZE,
            _CONFIG,
            workers=workers,
            use_processes=False,
            retry=RetryPolicy(max_retries=1, backoff_seconds=0.0),
            fault_plan=plan,
        )
        _assert_tables_identical(result.events, _REF_EVENTS)
        _assert_detections_identical(result.detections, _REF_DETECTIONS)

    @settings(deadline=None, max_examples=12)
    @given(workers=st.integers(1, 8), victim=st.integers(0, 7))
    def test_interrupt_then_resume_identical(self, workers, victim):
        """Kill with a zero retry budget (the run dies mid-flight), then
        resume into the same checkpoint directory: only missing shards
        re-run and the merged result is bit-identical to serial."""
        victim %= workers
        telemetry = PipelineTelemetry(chunk_seconds=3_600.0)
        with tempfile.TemporaryDirectory() as run_dir:
            with pytest.raises(ShardFailedError):
                parallel_detect(
                    _chunks(),
                    600.0,
                    _DARK_SIZE,
                    _CONFIG,
                    workers=workers,
                    use_processes=False,
                    retry=RetryPolicy(max_retries=0, backoff_seconds=0.0),
                    fault_plan=FaultPlan(kill={victim: 1}),
                    checkpoint_dir=run_dir,
                )
            result = parallel_detect(
                _chunks(),
                600.0,
                _DARK_SIZE,
                _CONFIG,
                workers=workers,
                use_processes=False,
                telemetry=telemetry,
                checkpoint_dir=run_dir,
            )
        # The serial in-process pass runs shards in index order, so the
        # interrupted run checkpointed exactly the shards before the
        # victim — the resume must reload precisely those.
        assert telemetry.health.checkpoint_hits == victim
        _assert_tables_identical(result.events, _REF_EVENTS)
        _assert_detections_identical(result.detections, _REF_DETECTIONS)

    def test_checkpoint_meta_mismatch_refuses_resume(self, tmp_path):
        parallel_detect(
            _chunks(), 600.0, _DARK_SIZE, _CONFIG,
            workers=2, use_processes=False,
            checkpoint_dir=tmp_path / "run",
        )
        with pytest.raises(ValueError, match="workers"):
            parallel_detect(
                _chunks(), 600.0, _DARK_SIZE, _CONFIG,
                workers=4, use_processes=False,
                checkpoint_dir=tmp_path / "run",
            )

    def test_shm_segment_unlinked_when_run_fails(self):
        """Even a run that dies with retries exhausted unlinks its
        shared-memory segment — the try/finally owns the lease."""
        import repro.io.shm as shm_module
        import repro.parallel as parallel_module

        if not shm_module.shared_memory_available():
            pytest.skip("platform has no usable shared memory")
        created = []
        original = shm_module.share_shard_batches

        def recording(shards, label="detect"):
            handles, lease = original(shards, label)
            created.append(lease.name)
            return handles, lease

        parallel_module.share_shard_batches = recording
        try:
            with pytest.raises(ShardFailedError):
                parallel_detect(
                    _chunks(), 600.0, _DARK_SIZE, _CONFIG,
                    workers=2, use_processes=False, shm=True,
                    fault_plan=FaultPlan(kill={0: 5}),
                    retry=RetryPolicy(max_retries=1, backoff_seconds=0.0),
                )
        finally:
            parallel_module.share_shard_batches = original
        from multiprocessing import shared_memory

        assert created
        for name in created:
            with pytest.raises(FileNotFoundError):
                shared_memory.SharedMemory(name=name)


class TestDirectoryFaults:
    @pytest.fixture()
    def capture_dir(self, tmp_path):
        save_packets_chunked(_BATCH, tmp_path / "cap", 50_000.0)
        return tmp_path / "cap"

    def test_faulted_directory_run_identical(self, capture_dir):
        result = parallel_detect_directory(
            capture_dir, 600.0, _DARK_SIZE, _CONFIG,
            workers=3, use_processes=False,
            retry=_FAST, fault_plan=FaultPlan(kill={2: 1}),
        )
        _assert_tables_identical(result.events, _REF_EVENTS)
        _assert_detections_identical(result.detections, _REF_DETECTIONS)

    def test_corrupt_chunk_strict_raises_with_path(self, capture_dir):
        victim = sorted(capture_dir.glob("chunk-*.npz"))[1]
        victim.write_bytes(b"garbage, not an archive")
        with pytest.raises(ChunkCorruptionError, match=victim.name):
            parallel_detect_directory(
                capture_dir, 600.0, _DARK_SIZE, _CONFIG,
                workers=2, use_processes=False, retry=_FAST,
            )

    def test_corrupt_chunk_quarantined_and_accounted(self, capture_dir):
        from repro.core.events import build_events
        from repro.core.detection import detect_all
        from repro.io.packetlog import load_packets_npz
        from repro.packet import PacketBatch

        paths = sorted(capture_dir.glob("chunk-*.npz"))
        victim = paths[1]
        victim.write_bytes(b"garbage, not an archive")

        telemetry = PipelineTelemetry(chunk_seconds=50_000.0)
        result = parallel_detect_directory(
            capture_dir, 600.0, _DARK_SIZE, _CONFIG,
            workers=2, use_processes=False,
            telemetry=telemetry, on_corrupt="quarantine",
        )
        assert telemetry.health.quarantined_chunks == [str(victim)]
        rows = dict(telemetry.summary_rows())
        assert rows["quarantined chunks"] == "1"
        assert rows["quarantined"] == str(victim)

        survivors = PacketBatch.concat(
            [load_packets_npz(p) for p in paths if p != victim]
        )
        ref_events = build_events(survivors, 600.0)
        ref_detections = detect_all(ref_events, _DARK_SIZE, _CONFIG)
        _assert_tables_identical(result.events, ref_events)
        _assert_detections_identical(result.detections, ref_detections)

    def test_resume_run_completes_interrupted_directory_run(
        self, capture_dir, tmp_path
    ):
        run_dir = tmp_path / "run"
        with pytest.raises(ShardFailedError):
            parallel_detect_directory(
                capture_dir, 600.0, _DARK_SIZE, _CONFIG,
                workers=3, use_processes=False,
                retry=RetryPolicy(max_retries=0, backoff_seconds=0.0),
                fault_plan=FaultPlan(kill={1: 1}),
                checkpoint_dir=run_dir,
            )
        telemetry = PipelineTelemetry(chunk_seconds=50_000.0)
        result = resume_run(
            run_dir, use_processes=False, telemetry=telemetry
        )
        assert telemetry.health.checkpoint_hits == 1
        _assert_tables_identical(result.events, _REF_EVENTS)
        _assert_detections_identical(result.detections, _REF_DETECTIONS)

    def test_resume_run_rejects_non_run_directory(self, tmp_path):
        with pytest.raises(FileNotFoundError, match="run.json"):
            resume_run(tmp_path)

    def test_resume_run_rejects_non_directory_kind(self, tmp_path):
        parallel_detect(
            _chunks(), 600.0, _DARK_SIZE, _CONFIG,
            workers=2, use_processes=False,
            checkpoint_dir=tmp_path / "run",
        )
        with pytest.raises(ValueError, match="detect"):
            resume_run(tmp_path / "run")


class TestFlowShardFaults:
    def test_faulted_flow_synthesis_identical(self, tmp_path):
        from repro.sim.runner import run_scenario
        from repro.sim.scenario import tiny_scenario

        result = run_scenario(tiny_scenario(), mode="batch")
        scanners = result.flow_scanners()
        sources = np.array([int(s.src) for s in scanners], dtype=np.uint32)
        countries = result.merit._countries_of(sources)
        mixes = result.merit.router_mix_many(sources, countries)
        window = (0.0, 2 * result.clock.seconds_per_day)
        base = 1234567

        serial = parallel_flow_columns(
            scanners, mixes, result.merit.transit_view, window,
            result.clock.seconds_per_day, base,
            workers=1, use_processes=False,
        )
        run_dir = tmp_path / "flows"
        with pytest.raises(ShardFailedError):
            parallel_flow_columns(
                scanners, mixes, result.merit.transit_view, window,
                result.clock.seconds_per_day, base,
                workers=3, use_processes=False,
                retry=RetryPolicy(max_retries=0, backoff_seconds=0.0),
                fault_plan=FaultPlan(kill={2: 1}),
                checkpoint_dir=run_dir,
            )
        telemetry = PipelineTelemetry(chunk_seconds=3_600.0)
        resumed = parallel_flow_columns(
            scanners, mixes, result.merit.transit_view, window,
            result.clock.seconds_per_day, base,
            workers=3, use_processes=False,
            telemetry=telemetry, checkpoint_dir=run_dir,
        )
        # In-process runs execute the tasks in the plan's submit order,
        # so the interrupted run checkpointed exactly the tasks ahead of
        # the victim (task 2) in that order.
        plan = plan_contiguous([s.cost_estimate() for s in scanners], 3)
        ahead = plan.submit_order().index(2)
        assert ahead > 0
        assert telemetry.health.checkpoint_hits == ahead
        for name in ("router", "day", "src", "dport", "proto", "true"):
            assert np.array_equal(
                getattr(serial, name), getattr(resumed, name)
            )


class TestScheduledFaults:
    """The fixed shard layouts keep the whole fault-tolerance contract:
    packet-weighted detection tasks and stealable flow slices still
    converge to the serial result under kills, interrupts and resumes,
    and a checkpoint written under the retired ``schedule`` option
    refuses to resume."""

    @settings(deadline=None, max_examples=12)
    @given(workers=st.integers(1, 6), victim=st.integers(0, 5))
    def test_scheduled_kill_retry_identical(self, workers, victim):
        plan = FaultPlan(kill={victim % workers: 1})
        result = parallel_detect(
            _chunks(),
            600.0,
            _DARK_SIZE,
            _CONFIG,
            workers=workers,
            use_processes=False,
            retry=RetryPolicy(max_retries=1, backoff_seconds=0.0),
            fault_plan=plan,
        )
        _assert_tables_identical(result.events, _REF_EVENTS)
        _assert_detections_identical(result.detections, _REF_DETECTIONS)

    def test_scheduled_interrupt_resume_identical(self, tmp_path):
        run_dir = tmp_path / "run"
        with pytest.raises(ShardFailedError):
            parallel_detect(
                _chunks(), 600.0, _DARK_SIZE, _CONFIG,
                workers=3, use_processes=False,
                retry=RetryPolicy(max_retries=0, backoff_seconds=0.0),
                fault_plan=FaultPlan(kill={1: 1}),
                checkpoint_dir=run_dir,
            )
        telemetry = PipelineTelemetry(chunk_seconds=3_600.0)
        result = parallel_detect(
            _chunks(), 600.0, _DARK_SIZE, _CONFIG,
            workers=3, use_processes=False,
            telemetry=telemetry, checkpoint_dir=run_dir,
        )
        # The plan is a pure function of the shards' packet counts, so
        # the resume re-derives it and reloads every task that finished
        # before the injected kill.
        assert telemetry.health.checkpoint_hits >= 1
        _assert_tables_identical(result.events, _REF_EVENTS)
        _assert_detections_identical(result.detections, _REF_DETECTIONS)

    def test_legacy_schedule_checkpoint_refuses_resume(self, tmp_path):
        # A run.json as runs with a ``schedule`` option recorded it: the
        # key no longer matches the run parameters, so both a rerun into
        # the directory and resume_run must refuse instead of merging.
        save_packets_chunked(_BATCH, tmp_path / "cap", 50_000.0)
        run_dir = tmp_path / "run"
        run_dir.mkdir()
        legacy = {
            "kind": "directory",
            "directory": str(tmp_path / "cap"),
            "workers": 2,
            "schedule": "stealing",
            "timeout": 600.0,
            "dark_size": _DARK_SIZE,
            "day_seconds": 86_400.0,
            "config": dataclasses.asdict(_CONFIG),
        }
        (run_dir / "run.json").write_text(
            json.dumps(legacy, indent=2, sort_keys=True)
        )
        with pytest.raises(ValueError, match="schedule"):
            parallel_detect_directory(
                tmp_path / "cap", 600.0, _DARK_SIZE, _CONFIG,
                workers=2, use_processes=False, checkpoint_dir=run_dir,
            )
        with pytest.raises(ValueError, match="schedule"):
            resume_run(run_dir, use_processes=False)
        assert json.loads((run_dir / "run.json").read_text()) == legacy

    def test_scheduled_flow_kill_retry_identical(self):
        from repro.flows.synthesis import synthesize_flow_columns
        from repro.sim.runner import run_scenario
        from repro.sim.scenario import tiny_scenario

        result = run_scenario(tiny_scenario(), mode="batch")
        scanners = result.flow_scanners()
        sources = np.array([int(s.src) for s in scanners], dtype=np.uint32)
        mixes = result.merit.router_mix_many(sources)
        window = (0.0, 2 * result.clock.seconds_per_day)
        day_seconds = result.clock.seconds_per_day
        base = 424242
        serial = synthesize_flow_columns(
            scanners, mixes, result.merit.transit_view, window,
            day_seconds, base,
        )
        faulted = parallel_flow_columns(
            scanners, mixes, result.merit.transit_view, window,
            day_seconds, base,
            workers=3, use_processes=False,
            retry=RetryPolicy(max_retries=1, backoff_seconds=0.0),
            fault_plan=FaultPlan(kill={0: 1}),
        )
        for name in ("router", "day", "src", "dport", "proto", "true"):
            assert np.array_equal(
                getattr(serial, name), getattr(faulted, name)
            ), name


class TestRunHealthTelemetry:
    def test_health_rows_only_when_events(self):
        telemetry = PipelineTelemetry(chunk_seconds=3_600.0)
        rows = dict(telemetry.summary_rows())
        assert "shard retries" not in rows
        telemetry.health.retries = 3
        telemetry.health.record_quarantine("/cap/chunk-00001.npz")
        rows = dict(telemetry.summary_rows())
        assert rows["shard retries"] == "3"
        assert "chunk-00001.npz" in rows["quarantined"]

    def test_health_in_as_dict(self):
        telemetry = PipelineTelemetry(chunk_seconds=3_600.0)
        telemetry.health.respawns = 1
        payload = telemetry.as_dict()
        assert payload["health"]["respawns"] == 1

    def test_record_quarantine_dedupes(self):
        health = RunHealth()
        health.record_quarantine("/a")
        health.record_quarantine("/a")
        health.record_quarantine("/b")
        assert health.quarantined_chunks == ["/a", "/b"]
        assert health.quarantined == 2
        assert health.any_events()
