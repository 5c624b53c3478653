"""The corpus layer: manifest, warm probes, dedup, eviction, migration.

Everything here sits on top of the plain key/value store contract
(tested in test_store.py): ``corpus.json`` bookkeeping, the serve tier's
:meth:`content_hash_for` probe, hardlink dedup across seeds, LRU
size-budget eviction, v2 -> v3 in-place migration, orphaned-sidecar
sweeping, and the ``python -m repro corpus`` CLI over all of it.
"""

import json
import os
import time

import pytest

from repro.apps import get_application
from repro.apps.base import Variant
from repro.experiments.config import experiment_config
from repro.trace import (
    ArtifactStore,
    Trace,
    capture_trace,
    peek_version,
    replay_trace,
    trace_key,
)
from repro.trace.format import FORMAT_VERSION, encode_v2
from repro.trace.replay import iter_resolved_chunks

SCALE = 0.05


@pytest.fixture(scope="module")
def captured():
    """The trace, and the direct run its replays must reproduce."""
    config = experiment_config(64)
    trace, _ = capture_trace("mst", Variant.N, config, SCALE, seed=1)
    direct = get_application("mst", scale=SCALE, seed=1).run(Variant.N, config)
    return trace, direct


def _key(seed=1, app="mst", variant="N"):
    return trace_key(app, variant, SCALE, seed, None)


def _save(store, trace, seed=1, app="mst", variant="N"):
    key = _key(seed, app, variant)
    store.save_trace(key, trace)
    return key


def _age(store, key, seconds):
    """Push a stored trace (and sidecar) back in LRU time."""
    then = time.time() - seconds
    os.utime(store.trace_path(key), (then, then))
    sidecar = store.resolved_path(key)
    if sidecar.exists():
        os.utime(sidecar, (then, then))


class TestManifest:
    def test_save_trace_writes_a_manifest_row(self, tmp_path, captured):
        trace, _ = captured
        store = ArtifactStore(tmp_path)
        key = _save(store, trace)
        entry = store.read_manifest()["entries"][key]
        assert entry["content_hash"] == trace.content_hash
        assert entry["stream_sha256"] == trace.stream_sha256
        assert entry["app"] == "mst"
        assert entry["event_count"] == trace.event_count
        assert entry["format"] == FORMAT_VERSION
        assert entry["bytes"] == store.trace_path(key).stat().st_size

    def test_corrupt_manifest_is_an_empty_one(self, tmp_path):
        store = ArtifactStore(tmp_path)
        store.manifest_path().write_text("{]")
        assert store.read_manifest()["entries"] == {}

    def test_content_hash_for_answers_from_the_manifest(
        self, tmp_path, captured
    ):
        trace, _ = captured
        store = ArtifactStore(tmp_path)
        key = _save(store, trace)
        assert store.content_hash_for(key) == trace.content_hash

    def test_content_hash_for_heals_a_missing_row(self, tmp_path, captured):
        """No manifest row: the answer comes from the footer (two seeks)
        and the row is written back."""
        trace, _ = captured
        store = ArtifactStore(tmp_path)
        key = _save(store, trace)
        store.manifest_path().unlink()
        assert store.content_hash_for(key) == trace.content_hash
        assert (
            store.read_manifest()["entries"][key]["content_hash"]
            == trace.content_hash
        )

    def test_content_hash_for_heals_v2_files(self, tmp_path, captured):
        trace, _ = captured
        store = ArtifactStore(tmp_path)
        key = _key()
        store.trace_path(key).write_bytes(encode_v2(trace))
        assert store.content_hash_for(key) == trace.content_hash

    def test_content_hash_for_misses(self, tmp_path, captured):
        trace, _ = captured
        store = ArtifactStore(tmp_path)
        assert store.content_hash_for(_key()) is None
        # A manifest row whose trace was evicted is also a miss.
        key = _save(store, trace)
        store.trace_path(key).unlink()
        assert store.content_hash_for(key) is None


class TestDedup:
    def test_identical_streams_share_the_trace_file(self, tmp_path, captured):
        trace, _ = captured
        store = ArtifactStore(tmp_path)
        first = _save(store, trace, seed=1)
        second = _save(store, trace, seed=2)
        assert first != second
        assert (
            store.trace_path(first).stat().st_ino
            == store.trace_path(second).stat().st_ino
        )

    def test_matching_stream_digest_shares_the_sidecar(
        self, tmp_path, captured
    ):
        trace, _ = captured
        store = ArtifactStore(tmp_path)
        first = _save(store, trace, seed=1)
        loaded = store.load_trace(first)
        list(iter_resolved_chunks(loaded))  # warm the sidecar
        assert store.resolved_path(first).exists()
        second = _save(store, trace, seed=2)
        assert store.resolved_path(second).exists()
        assert (
            store.resolved_path(first).stat().st_ino
            == store.resolved_path(second).stat().st_ino
        )
        # The shared sidecar actually serves the second key's replays.
        replayed = replay_trace(
            store.load_trace(second), experiment_config(32)
        )
        reference = replay_trace(trace, experiment_config(32))
        assert replayed.stats.dump() == reference.stats.dump()


class TestGc:
    def test_evicts_oldest_first_until_under_budget(self, tmp_path, captured):
        trace, _ = captured
        store = ArtifactStore(tmp_path)
        old, new = _key(1), _key(2)
        store.save_trace(old, trace)
        # Distinct bytes for the second key (different header -> no
        # content-hash dedup): tweak the seed field.
        other = Trace.from_bytes(trace.to_bytes())
        other.seed = 2
        store.save_trace(new, other)
        _age(store, old, 3600)
        size = store.trace_path(new).stat().st_size
        report = store.gc(size)
        assert report["evicted"] == [old]
        assert not store.has_trace(old)
        assert store.has_trace(new)
        assert old not in store.read_manifest()["entries"]
        assert new in store.read_manifest()["entries"]
        assert report["after_bytes"] <= size

    def test_load_bumps_the_lru_clock(self, tmp_path, captured):
        trace, _ = captured
        store = ArtifactStore(tmp_path)
        hot, cold = _key(1), _key(2)
        store.save_trace(hot, trace)
        other = Trace.from_bytes(trace.to_bytes())
        other.seed = 2
        store.save_trace(cold, other)
        for key in (hot, cold):
            _age(store, key, 3600)
        store.load_trace(hot)  # touch: now newest despite earlier save
        report = store.gc(store.trace_path(hot).stat().st_size)
        assert report["evicted"] == [cold]
        assert store.has_trace(hot)

    def test_eviction_takes_the_sidecar_too(self, tmp_path, captured):
        trace, _ = captured
        store = ArtifactStore(tmp_path)
        key = _save(store, trace)
        list(iter_resolved_chunks(store.load_trace(key)))
        assert store.resolved_path(key).exists()
        store.gc(0)
        assert not store.has_trace(key)
        assert not store.resolved_path(key).exists()

    def test_dry_run_removes_nothing(self, tmp_path, captured):
        trace, _ = captured
        store = ArtifactStore(tmp_path)
        key = _save(store, trace)
        report = store.gc(0, dry_run=True)
        assert report["evicted"] == [key]
        assert report["dry_run"]
        assert store.has_trace(key)
        assert key in store.read_manifest()["entries"]

    def test_hardlinked_copies_are_charged_once(self, tmp_path, captured):
        """Two keys sharing one inode fit a budget sized for one copy."""
        trace, _ = captured
        store = ArtifactStore(tmp_path)
        first = _save(store, trace, seed=1)
        second = _save(store, trace, seed=2)  # hardlinked to first
        size = store.trace_path(first).stat().st_size
        report = store.gc(size)
        assert report["total_bytes"] == size  # one inode, counted once
        assert report["evicted"] == []
        assert store.has_trace(first) and store.has_trace(second)

    def test_evicted_trace_recaptures_transparently(self, tmp_path):
        from repro.trace.sweep import SweepTask, run_task

        store = ArtifactStore(tmp_path)
        task = SweepTask(
            app="mst", variant="N", line_size=64, scale=SCALE, seed=1
        )
        first, how_first = run_task(task, store, {})
        assert how_first == "captured"
        store.gc(0)
        assert not store.has_trace(task.key())
        again, how_again = run_task(task, store, {})
        assert how_again == "captured"  # transparent recapture
        assert again.stats.dump() == first.stats.dump()


class TestMigrate:
    def test_v2_file_upgrades_in_place(self, tmp_path, captured):
        trace, _ = captured
        store = ArtifactStore(tmp_path)
        legacy = store.trace_path("0ldkey")
        legacy.write_bytes(encode_v2(trace))
        report = store.migrate()
        assert [entry["version"] for entry in report["migrated"]] == [2]
        assert not report["failed"]
        assert not legacy.exists()
        new_key = report["migrated"][0]["to"]
        assert peek_version(store.trace_path(new_key)) == FORMAT_VERSION
        upgraded = store.load_trace(new_key)
        assert upgraded == trace
        assert list(upgraded.events()) == list(trace.events())

    def test_migrated_replay_is_bit_exact(self, tmp_path, captured):
        trace, result = captured
        store = ArtifactStore(tmp_path)
        store.trace_path("0ldkey").write_bytes(encode_v2(trace))
        new_key = store.migrate()["migrated"][0]["to"]
        replayed = replay_trace(
            store.load_trace(new_key), experiment_config(64)
        )
        assert replayed.stats.dump() == result.stats.dump()
        assert replayed.checksum == result.checksum

    def test_current_files_are_skipped(self, tmp_path, captured):
        trace, _ = captured
        store = ArtifactStore(tmp_path)
        _save(store, trace)
        report = store.migrate()
        assert report["current"] == 1
        assert not report["migrated"] and not report["failed"]

    def test_garbled_file_is_reported_not_deleted(self, tmp_path):
        store = ArtifactStore(tmp_path)
        bad = store.trace_path("garbled")
        bad.write_bytes(b"RTRC\x09not really a trace")
        report = store.migrate()
        assert "garbled.trace" in report["failed"]
        assert "version 9" in report["failed"]["garbled.trace"]
        assert bad.exists()


class TestSweepOrphans:
    def test_orphaned_sidecar_is_reaped(self, tmp_path, captured):
        """A ``.resolved`` whose parent trace is gone is removed even
        when fresh -- nothing can ever validate it again."""
        trace, _ = captured
        store = ArtifactStore(tmp_path)
        key = _save(store, trace)
        list(iter_resolved_chunks(store.load_trace(key)))
        sidecar = store.resolved_path(key)
        assert sidecar.exists()
        store.trace_path(key).unlink()  # orphan it
        removed = store.sweep_stale()
        assert removed == 1
        assert not sidecar.exists()

    def test_paired_sidecar_survives(self, tmp_path, captured):
        trace, _ = captured
        store = ArtifactStore(tmp_path)
        key = _save(store, trace)
        list(iter_resolved_chunks(store.load_trace(key)))
        assert store.sweep_stale() == 0
        assert store.resolved_path(key).exists()


class TestCorpusCli:
    def _seed_store(self, tmp_path, captured):
        trace, _ = captured
        store = ArtifactStore(tmp_path)
        _save(store, trace)
        return store

    def test_ls_and_stat(self, tmp_path, captured, capsys):
        from repro.__main__ import main

        self._seed_store(tmp_path, captured)
        assert main(["corpus", "ls", "--trace-dir", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "mst" in out
        assert main(
            ["corpus", "stat", "--trace-dir", str(tmp_path), "--json"]
        ) == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["traces"] == 1
        assert summary["format_versions"] == {str(FORMAT_VERSION): 1}
        assert len(summary["entries"]) == 1
        entry = summary["entries"][0]
        assert entry["key"] == _key()
        digest = entry["stream_digest"]
        assert isinstance(digest, str) and len(digest) == 64
        assert set(digest) <= set("0123456789abcdef")

    def test_gc_subcommand(self, tmp_path, captured, capsys):
        from repro.__main__ import main

        store = self._seed_store(tmp_path, captured)
        code = main(
            ["corpus", "gc", "--budget", "0", "--trace-dir", str(tmp_path)]
        )
        assert code == 0
        assert "evicted 1" in capsys.readouterr().out
        assert not store.has_trace(_key())

    def test_gc_rejects_bad_budget(self, tmp_path, capsys):
        from repro.__main__ import main

        code = main(
            ["corpus", "gc", "--budget", "lots", "--trace-dir", str(tmp_path)]
        )
        assert code == 2
        assert "invalid byte budget" in capsys.readouterr().err

    def test_migrate_subcommand(self, tmp_path, captured, capsys):
        from repro.__main__ import main

        trace, _ = captured
        store = ArtifactStore(tmp_path)
        store.trace_path("0ldkey").write_bytes(encode_v2(trace))
        assert main(["corpus", "migrate", "--trace-dir", str(tmp_path)]) == 0
        assert "migrated 1" in capsys.readouterr().out

    def test_migrate_reports_garbled_files(self, tmp_path, capsys):
        from repro.__main__ import main

        store = ArtifactStore(tmp_path)
        store.trace_path("bad").write_bytes(b"RTRC\x07junk")
        assert main(["corpus", "migrate", "--trace-dir", str(tmp_path)]) == 1
        err = capsys.readouterr().err
        assert "bad.trace" in err and "version 7" in err
