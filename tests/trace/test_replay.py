"""Replay fidelity: a replayed run's stats equal a direct run's, exactly.

This is the contract the whole subsystem rests on (and what lets the
experiment runner substitute replays for simulations): every counter in
:class:`~repro.core.stats.MachineStats` -- cycles, per-level miss
classes, forwarding and relocation activity, speculation and prefetch
accounting -- must match the direct run bit-for-bit, including across
line sizes for line-size-insensitive streams.
"""

import pytest

from repro.apps import get_application
from repro.apps.base import Variant
from repro.experiments.config import experiment_config
from repro.trace import TraceReplayError, capture_trace, replay_trace

SCALE = 0.1
CAPTURE_LINE = 64


def _direct(app, variant, line_size):
    application = get_application(app, scale=SCALE, seed=1)
    return application.run(variant, experiment_config(line_size))


@pytest.fixture(scope="module")
def traces():
    """One captured trace per (app, variant), at line size 64."""
    captured = {}
    for app in ("health", "mst"):
        for variant in (Variant.N, Variant.L):
            trace, _ = capture_trace(
                app, variant, experiment_config(CAPTURE_LINE), SCALE, seed=1
            )
            captured[(app, variant)] = trace
    return captured


@pytest.mark.parametrize("app", ["health", "mst"])
@pytest.mark.parametrize("variant", [Variant.N, Variant.L])
@pytest.mark.parametrize("line_size", [32, 128])
def test_replay_matches_direct_across_line_sizes(traces, app, variant, line_size):
    trace = traces[(app, variant)]
    replayed = replay_trace(trace, experiment_config(line_size))
    direct = _direct(app, variant, line_size)
    assert replayed.stats.dump() == direct.stats.dump()
    assert replayed.checksum == direct.checksum
    assert replayed.extras == direct.extras


def test_replay_same_config_is_identity(traces):
    trace = traces[("health", Variant.L)]
    config = experiment_config(CAPTURE_LINE)
    replayed = replay_trace(trace, config)
    direct = _direct("health", Variant.L, CAPTURE_LINE)
    assert replayed.stats.dump() == direct.stats.dump()


def test_replay_prefetch_variant():
    """PERF exercises the prefetcher + speculator paths during replay."""
    config = experiment_config(CAPTURE_LINE)
    trace, _ = capture_trace("smv", Variant.PERF, config, SCALE, seed=1)
    replayed = replay_trace(trace, config)
    direct = _direct("smv", Variant.PERF, CAPTURE_LINE)
    assert replayed.stats.dump() == direct.stats.dump()


def test_sensitive_trace_rejects_other_line_size():
    """BH streams depend on line size; replaying across sizes must fail."""
    config = experiment_config(CAPTURE_LINE)
    trace, _ = capture_trace("bh", Variant.L, config, 0.05, seed=1)
    assert trace.line_size_sensitive
    with pytest.raises(TraceReplayError, match="line-size-sensitive"):
        replay_trace(trace, experiment_config(32))
    # ... but the capturing size itself is fine.
    replay_trace(trace, config)


def test_resolved_decode_is_deterministic(traces):
    """Two independent decodes of one trace yield identical chunks.

    v3 dropped the in-memory resolved-stream memo (streaming replay
    holds one chunk at a time), so determinism of the decode itself is
    the invariant repeated replays rest on.
    """
    from repro.trace.replay import iter_resolved_chunks

    trace = traces[("mst", Variant.N)]
    first = [
        (c.kinds, list(c.ops), c.extras) for c in iter_resolved_chunks(trace)
    ]
    second = [
        (c.kinds, list(c.ops), c.extras) for c in iter_resolved_chunks(trace)
    ]
    assert first == second
    assert sum(len(k) for k, _, _ in first) > 0


def test_resolved_stream_never_leaks_across_traces(traces):
    """Two traces replayed in one process must never serve each other's
    stream -- a leak would silently replay the wrong stream for every
    cell of the second trace."""
    health = traces[("health", Variant.N)]
    mst = traces[("mst", Variant.N)]
    config = experiment_config(32)
    replayed_health = replay_trace(health, config)
    replayed_mst = replay_trace(mst, config)
    # Each replay reflects its own stream, not the other's.
    assert replayed_mst.stats.dump() == _direct(
        "mst", Variant.N, 32
    ).stats.dump()
    assert replayed_health.stats.dump() != replayed_mst.stats.dump()


class TestResolvedSidecar:
    """The on-disk resolved-stream cache next to store-managed traces."""

    def _stored_trace(self, tmp_path, app="mst", variant=Variant.N):
        from repro.trace.store import ArtifactStore, trace_key

        store = ArtifactStore(tmp_path)
        trace, _ = capture_trace(
            app, variant, experiment_config(CAPTURE_LINE), 0.05, seed=1
        )
        key = trace_key(app, variant.value, 0.05, 1, None)
        store.save_trace(key, trace)
        return store, key, trace

    def test_capturing_cell_writes_no_sidecar_later_loads_do(
        self, tmp_path, monkeypatch
    ):
        """The replay that answers a freshly captured cell decodes the
        stream once and writes no sidecar; the first replay of a copy
        loaded from the store writes one, and the next load is served
        from it without decoding the columns."""
        from repro.trace import replay as replay_mod
        from repro.trace.store import ArtifactStore
        from repro.trace.sweep import SweepTask, run_task

        store = ArtifactStore(tmp_path)
        task = SweepTask("mst", "N", 32, 0.05, 1)
        _, how = run_task(task, store)
        key = task.key()
        sidecar = store.resolved_path(key)
        assert how == "captured" and store.has_trace(key)
        assert not sidecar.exists()

        reference = replay_trace(store.load_trace(key), experiment_config(64))
        assert sidecar.exists()

        def _no_decode(*args, **kwargs):
            raise AssertionError("decoded the columns despite a sidecar")

        monkeypatch.setattr(replay_mod, "_decode_chunks", _no_decode)
        served = replay_trace(store.load_trace(key), experiment_config(64))
        assert served.stats.dump() == reference.stats.dump()

    def test_capturing_group_writes_no_sidecar_later_replays_do(
        self, tmp_path
    ):
        """Same rule for a batch group: its one drive answers every cell,
        the capturing one included, without a sidecar; a later replay of
        the same trace object writes it."""
        from repro.trace.batch import run_batch_group
        from repro.trace.store import ArtifactStore
        from repro.trace.sweep import SweepTask

        store = ArtifactStore(tmp_path)
        tasks = [SweepTask("mst", "N", size, 0.05, 1) for size in (32, 64)]
        traces = {}
        outcomes = run_batch_group(tasks, store, traces)
        key = tasks[0].key()
        assert [o.how for o in outcomes] == ["captured", "replayed"]
        assert store.has_trace(key)
        assert not store.resolved_path(key).exists()
        replay_trace(traces[key], experiment_config(128))
        assert store.resolved_path(key).exists()

    def test_sidecar_load_is_exact(self, tmp_path):
        store, key, trace = self._stored_trace(tmp_path)
        reference = replay_trace(trace, experiment_config(32))  # warms it
        fresh = store.load_trace(key)  # new object: decode via sidecar hit
        replayed = replay_trace(fresh, experiment_config(32))
        assert replayed.stats.dump() == reference.stats.dump()
        assert replayed.checksum == reference.checksum

    def test_corrupt_sidecar_redecodes_and_rewrites(self, tmp_path):
        store, key, trace = self._stored_trace(tmp_path)
        reference = replay_trace(trace, experiment_config(32))
        sidecar = store.resolved_path(key)
        sidecar.write_bytes(b"\x00garbage, not marshal")
        fresh = store.load_trace(key)
        replayed = replay_trace(fresh, experiment_config(32))
        assert replayed.stats.dump() == reference.stats.dump()
        # The decode rewrote a valid sidecar over the corrupt one.
        assert sidecar.read_bytes() != b"\x00garbage, not marshal"
        again = store.load_trace(key)
        assert replay_trace(
            again, experiment_config(32)
        ).stats.dump() == reference.stats.dump()

    def test_foreign_sidecar_is_rejected(self, tmp_path):
        """A sidecar whose payload digest belongs to another trace must
        never be served -- the store orphans it on recapture."""
        store, key, mst = self._stored_trace(tmp_path)
        replay_trace(mst, experiment_config(32))  # writes mst's sidecar
        _, health_key, health = self._stored_trace(
            tmp_path, app="health"
        )
        # Plant mst's sidecar where health's should live.
        store.resolved_path(health_key).write_bytes(
            store.resolved_path(key).read_bytes()
        )
        fresh = store.load_trace(health_key)
        replayed = replay_trace(fresh, experiment_config(32))
        direct = get_application("health", scale=0.05, seed=1).run(
            Variant.N, experiment_config(32)
        )
        assert replayed.stats.dump() == direct.stats.dump()
