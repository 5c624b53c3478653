"""The on-disk artifact store: keys, round-trips, corruption handling."""

import json
import os
import threading
import time
from dataclasses import replace

import pytest

from repro.apps.base import Variant
from repro.experiments.config import experiment_config
from repro.trace import (
    ArtifactStore,
    LockTimeout,
    capture_trace,
    config_fingerprint,
    replay_trace,
    trace_key,
)
from repro.trace.store import STALE_AFTER_SECONDS, _atomic_write


class TestKeys:
    def test_trace_key_is_stable(self):
        assert trace_key("mst", "N", 0.5, 1, None) == trace_key(
            "mst", "N", 0.5, 1, None
        )

    def test_trace_key_separates_identities(self):
        base = trace_key("mst", "N", 0.5, 1, None)
        assert trace_key("health", "N", 0.5, 1, None) != base
        assert trace_key("mst", "L", 0.5, 1, None) != base
        assert trace_key("mst", "N", 0.25, 1, None) != base
        assert trace_key("mst", "N", 0.5, 2, None) != base
        assert trace_key("mst", "N", 0.5, 1, 64) != base

    def test_config_fingerprint_tracks_every_field(self):
        config = experiment_config(64)
        assert config_fingerprint(config) == config_fingerprint(
            experiment_config(64)
        )
        assert config_fingerprint(config) != config_fingerprint(
            experiment_config(32)
        )
        tweaked = replace(config, speculation_window=config.speculation_window + 1)
        assert config_fingerprint(tweaked) != config_fingerprint(config)


class TestStore:
    def test_trace_roundtrip(self, tmp_path):
        store = ArtifactStore(tmp_path)
        trace, _ = capture_trace(
            "mst", Variant.N, experiment_config(64), 0.05, seed=1
        )
        key = trace_key("mst", "N", 0.05, 1, None)
        assert store.load_trace(key) is None
        store.save_trace(key, trace)
        assert store.has_trace(key)
        assert store.load_trace(key) == trace

    def test_corrupt_trace_is_a_miss(self, tmp_path):
        store = ArtifactStore(tmp_path)
        key = trace_key("mst", "N", 0.05, 1, None)
        store.trace_path(key).write_bytes(b"not a trace at all")
        assert store.load_trace(key) is None

    def test_result_roundtrip(self, tmp_path):
        store = ArtifactStore(tmp_path)
        config = experiment_config(64)
        trace, _ = capture_trace("mst", Variant.N, config, 0.05, seed=1)
        result = replay_trace(trace, config)
        fingerprint = config_fingerprint(config)
        assert store.load_result(trace.content_hash, fingerprint) is None
        store.save_result(trace.content_hash, fingerprint, result)
        loaded = store.load_result(trace.content_hash, fingerprint)
        assert loaded is not None
        assert loaded.app == result.app
        assert loaded.variant == result.variant
        assert loaded.checksum == result.checksum
        assert loaded.extras == result.extras
        assert loaded.stats.dump() == result.stats.dump()

    def test_corrupt_result_is_a_miss(self, tmp_path):
        store = ArtifactStore(tmp_path)
        store.result_path("a" * 64, "b" * 64).write_text("{]")
        assert store.load_result("a" * 64, "b" * 64) is None


class TestConcurrency:
    """Advisory capture locks and stale-artifact sweeping."""

    def test_capture_lock_creates_and_releases(self, tmp_path):
        store = ArtifactStore(tmp_path)
        key = "k" * 64
        with store.capture_lock(key) as path:
            assert path.exists()
            owner = json.loads(path.read_text())
            assert owner["pid"] == os.getpid()
        assert not store.lock_path(key).exists()

    def test_capture_lock_released_on_error(self, tmp_path):
        store = ArtifactStore(tmp_path)
        with pytest.raises(RuntimeError):
            with store.capture_lock("k" * 64):
                raise RuntimeError("capture blew up")
        assert not store.lock_path("k" * 64).exists()

    def test_live_contender_times_out(self, tmp_path):
        store = ArtifactStore(tmp_path)
        key = "k" * 64
        with store.capture_lock(key):
            with pytest.raises(LockTimeout):
                with store.capture_lock(key, timeout=0.2, poll_interval=0.01):
                    pass  # pragma: no cover - lock must not be granted

    def test_dead_owner_lock_is_broken(self, tmp_path):
        store = ArtifactStore(tmp_path)
        key = "k" * 64
        # Forge a lock owned by a pid that cannot be alive.
        store.lock_path(key).write_text(
            json.dumps({"pid": 2**22 + 1, "acquired": time.time()})
        )
        with store.capture_lock(key, timeout=1.0, poll_interval=0.01) as path:
            assert json.loads(path.read_text())["pid"] == os.getpid()

    def test_aged_lock_is_broken_even_with_live_owner(self, tmp_path):
        store = ArtifactStore(tmp_path, stale_after=0.05)
        key = "k" * 64
        path = store.lock_path(key)
        path.write_text(json.dumps({"pid": os.getpid(), "acquired": 0}))
        old = time.time() - 10.0
        os.utime(path, (old, old))
        with store.capture_lock(key, timeout=1.0, poll_interval=0.01):
            pass

    def test_atomic_write_leaves_no_tmp_on_failure(self, tmp_path, monkeypatch):
        store = ArtifactStore(tmp_path)
        target = store.traces_dir / "x.trace"

        def _fail_replace(src, dst):
            raise OSError("disk full")

        monkeypatch.setattr(os, "replace", _fail_replace)
        with pytest.raises(OSError, match="disk full"):
            _atomic_write(target, b"payload")
        monkeypatch.undo()
        # The failed write left neither the target nor any temp file.
        assert list(store.traces_dir.iterdir()) == []

    def test_concurrent_result_writers_never_tear(self, tmp_path):
        """Many threads overwriting one result key: readers always see
        a complete JSON document (atomic replace), never a torn file."""
        store = ArtifactStore(tmp_path)
        config = experiment_config(32)
        trace, _ = capture_trace("health", Variant.N, config, 0.05, seed=1)
        result = replay_trace(trace, config)
        fingerprint = config_fingerprint(config)
        stop = threading.Event()
        errors: list[Exception] = []

        def _writer():
            while not stop.is_set():
                try:
                    store.save_result(trace.content_hash, fingerprint, result)
                except Exception as exc:  # pragma: no cover
                    errors.append(exc)

        threads = [threading.Thread(target=_writer) for _ in range(4)]
        for thread in threads:
            thread.start()
        try:
            deadline = time.monotonic() + 0.5
            while time.monotonic() < deadline:
                loaded = store.load_result(trace.content_hash, fingerprint)
                assert loaded is not None
                assert loaded.checksum == result.checksum
        finally:
            stop.set()
            for thread in threads:
                thread.join()
        assert not errors

    def test_sweep_stale_removes_aged_tmp_and_dead_locks(self, tmp_path):
        store = ArtifactStore(tmp_path)
        aged_tmp = store.traces_dir / "x.trace.tmp123-0"
        aged_tmp.write_bytes(b"junk")
        old = time.time() - 2 * STALE_AFTER_SECONDS
        os.utime(aged_tmp, (old, old))
        fresh_tmp = store.results_dir / "y.json.tmp123-1"
        fresh_tmp.write_bytes(b"inflight")
        dead_lock = store.lock_path("d" * 64)
        dead_lock.write_text(
            json.dumps({"pid": 2**22 + 1, "acquired": time.time()})
        )
        real_trace = store.traces_dir / "z.trace"
        real_trace.write_bytes(b"committed")
        os.utime(real_trace, (old, old))

        removed = store.sweep_stale()
        assert removed == 2
        assert not aged_tmp.exists()
        assert not dead_lock.exists()
        assert fresh_tmp.exists()  # in-flight writer, not ours to kill
        assert real_trace.exists()  # committed artifacts are never swept

    def test_sweep_stale_keeps_live_fresh_lock(self, tmp_path):
        store = ArtifactStore(tmp_path)
        with store.capture_lock("k" * 64):
            assert store.sweep_stale() == 0
            assert store.lock_path("k" * 64).exists()
