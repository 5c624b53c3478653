"""Batch replay engine: grouping, engines, per-cell error contract."""

import pickle

import pytest

from repro.trace import (
    BATCH_GENERAL,
    BATCH_SPECIALIZED,
    SEQUENTIAL,
    ArtifactStore,
    BatchCellError,
    SweepTask,
    capture_trace,
    group_by_trace,
    replay_engine,
    replay_trace,
    run_batch_group,
    run_task,
)
from repro.apps import Variant
from repro.experiments.config import experiment_config

SCALE = 0.05


def _trace(app="health", scale=SCALE, seed=1):
    trace, _ = capture_trace(
        app, Variant.N, experiment_config(32), scale=scale, seed=seed
    )
    return trace


class TestGrouping:
    def test_group_by_trace_partitions_on_trace_key(self):
        tasks = [
            SweepTask("health", "N", 32, SCALE, 1),
            SweepTask("mst", "N", 32, SCALE, 1),
            SweepTask("health", "N", 64, SCALE, 1),
            SweepTask("health", "L", 32, SCALE, 1),
        ]
        groups = group_by_trace(tasks)
        # health/N shares one stream across line sizes; health/L and mst
        # are their own groups.  Insertion order is preserved.
        assert list(groups) == [
            tasks[0].key(),
            tasks[1].key(),
            tasks[3].key(),
        ]
        assert groups[tasks[0].key()] == [tasks[0], tasks[2]]

    def test_mixed_key_group_is_rejected(self, tmp_path):
        tasks = [
            SweepTask("health", "N", 32, SCALE, 1),
            SweepTask("mst", "N", 32, SCALE, 1),
        ]
        with pytest.raises(ValueError, match="trace keys"):
            run_batch_group(tasks, ArtifactStore(tmp_path))


class TestEngines:
    def test_replay_engine_specializes_plain_configs(self):
        trace = _trace()
        result, engine = replay_engine(trace, experiment_config(64))
        assert engine == BATCH_SPECIALIZED
        reference = replay_trace(trace, experiment_config(64))
        assert result.stats.dump() == reference.stats.dump()

    def test_replay_engine_falls_back_for_uncovered_features(self):
        from dataclasses import replace

        trace = _trace()
        config = replace(experiment_config(64), timeline_interval=500)
        result, engine = replay_engine(trace, config)
        assert engine == BATCH_GENERAL
        reference = replay_trace(trace, config)
        assert result.stats.dump() == reference.stats.dump()


class TestRunBatchGroup:
    def test_cold_group_captures_once_then_replays(self, tmp_path):
        store = ArtifactStore(tmp_path)
        tasks = [
            SweepTask("health", "N", size, SCALE, 1) for size in (32, 64, 128)
        ]
        outcomes = run_batch_group(tasks, store)
        assert [o.how for o in outcomes] == ["captured", "replayed", "replayed"]
        # The capturing cell rides the group's drive too, so its label
        # names the replay engine that produced its stats.
        assert [o.engine for o in outcomes] == [
            BATCH_SPECIALIZED,
            BATCH_SPECIALIZED,
            BATCH_SPECIALIZED,
        ]
        # Each outcome matches the sequential single-cell path bit for bit.
        for task, outcome in zip(tasks, outcomes):
            reference, _ = run_task(task, ArtifactStore(tmp_path / "ref"))
            assert outcome.result.stats.dump() == reference.stats.dump()

    def test_warm_store_serves_cached_cells(self, tmp_path):
        store = ArtifactStore(tmp_path)
        tasks = [SweepTask("health", "N", size, SCALE, 1) for size in (32, 64)]
        run_batch_group(tasks, store)
        again = run_batch_group(tasks, store)
        assert [o.how for o in again] == ["cached", "cached"]
        assert all(o.engine == SEQUENTIAL for o in again)

    def test_events_cells_run_sequentially(self, tmp_path):
        store = ArtifactStore(tmp_path)
        tasks = [
            SweepTask("health", "N", 32, SCALE, 1),
            SweepTask("health", "N", 64, SCALE, 1, events_capacity=256),
        ]
        outcomes = run_batch_group(tasks, store)
        # The event stream only exists during direct execution, so the
        # events cell re-captures even though the group's trace is warm.
        assert outcomes[1].engine == SEQUENTIAL
        assert outcomes[1].how == "captured"

    def test_storeless_group_replays_from_shared_trace(self):
        tasks = [SweepTask("health", "N", size, SCALE, 1) for size in (32, 64)]
        outcomes = run_batch_group(tasks, store=None)
        assert [o.how for o in outcomes] == ["captured", "replayed"]


class _Exploder:
    """Stand-in task whose config() raises (mirrors test_sweep's)."""

    app = "mst"
    variant = "N"
    line_size = 64
    scale = SCALE
    seed = 1
    events_capacity = 0

    def key(self):
        return SweepTask("mst", "N", 64, SCALE, 1).key()

    def config(self):
        raise RuntimeError("boom")


class TestErrorContract:
    def test_failure_names_the_cell_and_chains_the_cause(self, tmp_path):
        with pytest.raises(BatchCellError) as excinfo:
            run_batch_group([_Exploder()], ArtifactStore(tmp_path))
        assert "mst/64B/N" in str(excinfo.value)
        assert "boom" in str(excinfo.value)
        assert isinstance(excinfo.value.__cause__, RuntimeError)

    def test_collect_errors_keeps_the_rest_of_the_group_running(self, tmp_path):
        store = ArtifactStore(tmp_path)
        good = SweepTask("mst", "N", 32, SCALE, 1)
        outcomes = run_batch_group(
            [_Exploder(), good], store, collect_errors=True
        )
        assert outcomes[0].how == "failed"
        assert outcomes[0].result is None
        assert "boom" in outcomes[0].error.message
        assert outcomes[1].how == "captured"
        assert outcomes[1].result is not None

    def test_batch_cell_error_survives_pickling(self):
        task = SweepTask("mst", "N", 64, SCALE, 1)
        error = BatchCellError(task, "cell went sideways")
        clone = pickle.loads(pickle.dumps(error))
        assert clone.task == task
        assert clone.message == "cell went sideways"
        assert str(clone) == "cell went sideways"
