"""Content-hash-keyed on-disk cache of traces and replayed results.

Layout under the store root::

    traces/<trace-key>.trace      one captured stream per workload identity
    traces/<trace-key>.resolved   decoded-stream sidecar (pure cache)
    results/<trace-hash>-<config-hash>.json   one replayed result per cell
    corpus.json                   the corpus manifest (see below)

*Trace keys* identify a workload -- ``(format version, app, variant,
scale, seed[, line size for line-size-sensitive apps])`` -- and name the
file to look in before capturing.  *Result keys* bind an exact trace
content hash to an exact machine-config fingerprint, so a result can
only ever be served for the identical stream on the identical machine:
edit anything (app code changes the stream, config changes the
fingerprint, a format bump changes both) and the stale entry simply
stops being found.

All writes are atomic (unique temp file + ``os.replace``), so concurrent
sweep workers -- and the long-lived serve processes of
:mod:`repro.serve`, which share one store across a process pool -- never
observe torn files; corrupt or unreadable entries are treated as misses
and recaptured.  Two further concurrency facilities support multi-writer
stores:

* :meth:`ArtifactStore.capture_lock` -- an advisory per-trace-key file
  lock so exactly one process captures a given stream; losers wait and
  find the trace warm.  Locks left by dead or wedged processes are
  *stale* (owner pid gone, or older than the stale threshold) and are
  broken automatically.
* :meth:`ArtifactStore.sweep_stale` -- removes orphaned ``.tmp`` files,
  stale locks, and ``.resolved`` sidecars whose parent trace is gone;
  services run it at startup.

**Capacity management** (the corpus layer).  ``corpus.json`` is a
persistent manifest mapping every saved trace key to its identity row
(content hash, stream digest, workload fields, event/chunk counts, byte
size).  It is written under an advisory lock by :meth:`save_trace` --
the only regular writer -- and *healed* lazily: a missing or stale row
is reconstructed from the trace file's footer on demand, so the
manifest can never serve wrong answers, only slow ones.  On top of it:

* :meth:`ArtifactStore.content_hash_for` answers the serve tier's warm
  probes (is this cell's result addressable?) from the manifest, with a
  two-seek footer read (:func:`repro.trace.format.load_index`) as the
  healing fallback -- no full trace load either way;
* :meth:`ArtifactStore.gc` evicts least-recently-*used* traces (their
  sidecars with them) until the corpus fits a byte budget -- every
  successful :meth:`load_trace` bumps the file's mtime, making mtime the
  LRU clock, and hardlinked duplicates are charged once (inode-aware);
  evicted traces recapture transparently on next use;
* :meth:`save_trace` dedups across workloads: a new trace whose
  *content hash* matches an existing entry shares that entry's file via
  hardlink, and one whose *stream digest* matches (same reference
  stream from a different seed or app revision) shares the decoded
  sidecar -- the dominant artifact -- the same way;
* :meth:`ArtifactStore.migrate` upgrades every non-v3 trace file in
  place (re-keying it, since the format version is part of the key).
"""

from __future__ import annotations

import contextlib
import hashlib
import itertools
import json
import os
import time
from dataclasses import asdict
from pathlib import Path

from repro.apps.base import AppResult, Variant
from repro.core.debug import get_logger
from repro.core.machine import MachineConfig
from repro.core.stats import MachineStats
from repro.trace.format import (
    FORMAT_VERSION,
    Trace,
    TraceFormatError,
    load_index,
    peek_version,
)

_log = get_logger("trace.store")

#: A lock or temp file untouched for this long is presumed abandoned.
STALE_AFTER_SECONDS = 900.0

_tmp_counter = itertools.count()


#: Manifest schema version (the ``version`` field of ``corpus.json``).
_MANIFEST_VERSION = 1

#: Pseudo trace key naming the manifest's advisory write lock.
_MANIFEST_LOCK = "corpus-manifest"


class LockTimeout(TimeoutError):
    """A capture lock could not be acquired within the deadline."""


def trace_key(
    app: str,
    variant: str,
    scale: float,
    seed: int,
    line_size: int | None,
    adapt: str | None = None,
) -> str:
    """Stable identity of a captured stream (hex digest).

    ``line_size`` must be the capture line size for line-size-sensitive
    apps and ``None`` otherwise (their streams are line-size-invariant).

    ``adapt`` is the config fingerprint of an adaptive cell (``None``
    for plain cells, which keeps every pre-existing key unchanged).  An
    adaptive run's engine issues its own references, so the stream is a
    function of the *entire* machine config, not just the workload
    identity — each adaptive config gets a private stream that replays
    only under the exact capture config.
    """
    identity: dict = {
        "format": FORMAT_VERSION,
        "app": app,
        "variant": variant,
        "scale": scale,
        "seed": seed,
        "line_size": line_size,
    }
    if adapt is not None:
        identity["adapt"] = adapt
    canonical = json.dumps(identity, sort_keys=True)
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def config_fingerprint(config: MachineConfig) -> str:
    """Stable hash of every field of a machine config (hex digest)."""
    canonical = json.dumps(asdict(config), sort_keys=True)
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def _atomic_write(path: Path, data: bytes) -> None:
    # The temp name is unique per (pid, in-process counter) so threads
    # of one process never collide on it; a failed write leaves nothing
    # behind for readers and nothing permanent for sweep_stale to find.
    tmp = path.with_name(f"{path.name}.tmp{os.getpid()}-{next(_tmp_counter)}")
    try:
        tmp.write_bytes(data)
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            tmp.unlink()
        raise


def _pid_alive(pid: int) -> bool:
    """Best-effort liveness probe of a lock owner on this host."""
    if pid <= 0:
        return False
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except (PermissionError, OSError):
        return True
    return True


class ArtifactStore:
    """Filesystem-backed trace and result cache."""

    def __init__(
        self,
        root: str | os.PathLike,
        stale_after: float = STALE_AFTER_SECONDS,
    ) -> None:
        self.root = Path(root)
        self.stale_after = stale_after
        self.traces_dir = self.root / "traces"
        self.results_dir = self.root / "results"
        self.locks_dir = self.root / "locks"
        self.traces_dir.mkdir(parents=True, exist_ok=True)
        self.results_dir.mkdir(parents=True, exist_ok=True)
        self.locks_dir.mkdir(parents=True, exist_ok=True)

    # -- traces ---------------------------------------------------------
    def trace_path(self, key: str) -> Path:
        return self.traces_dir / f"{key}.trace"

    def resolved_path(self, key: str) -> Path:
        """Where the decoded resolved-chunk sidecar for ``key`` lives.

        The sidecar is a pure cache maintained by :func:`repro.trace.
        replay.iter_resolved_chunks`: it is validated against the
        trace's stream digest on load, so a recaptured trace silently
        orphans the old sidecar (which is then overwritten on the next
        decode) rather than ever serving a stale stream.
        """
        return self.traces_dir / f"{key}.resolved"

    def has_trace(self, key: str) -> bool:
        return self.trace_path(key).exists()

    def load_trace(self, key: str) -> Trace | None:
        path = self.trace_path(key)
        try:
            trace = Trace.load(path)
        except FileNotFoundError:
            return None
        except (TraceFormatError, OSError) as exc:
            _log.warning("discarding unreadable trace %s: %s", path.name, exc)
            return None
        # mtime is the corpus LRU clock (see gc); touching on every load
        # keeps hot traces out of eviction order without a manifest
        # write on the read path.
        with contextlib.suppress(OSError):
            os.utime(path)
        trace._resolved_path = self.resolved_path(key)
        return trace

    def save_trace(self, key: str, trace: Trace) -> Path:
        path = self.trace_path(key)
        _atomic_write(path, trace.to_bytes())
        # Later replays of this object warm the sidecar for everyone
        # else.  Capture saves only after the replay that answers the
        # capturing cell, so that one decode writes none.
        trace._resolved_path = self.resolved_path(key)
        self._register_trace(key, trace, path)
        return path

    def _register_trace(self, key: str, trace: Trace, path: Path) -> None:
        """Record ``key`` in the manifest and dedup against the corpus.

        Two dedup levels, both hardlinks (free on filesystems without
        link support -- the ``OSError`` is swallowed and the copies
        simply stay independent):

        * identical **content hash** (same workload identity *and*
          stream): the trace bytes are deterministic, so the new file is
          replaced with a link to the existing one;
        * identical **stream digest** only (the same reference stream
          captured under a different seed or identity): the decoded
          sidecar -- which derives from the stream alone and validates
          against its digest, not the header -- is shared instead.
        """
        try:
            size = path.stat().st_size
        except OSError:
            size = 0
        entry = {
            "content_hash": trace.content_hash,
            "stream_sha256": trace.stream_sha256,
            "app": trace.app,
            "variant": trace.variant,
            "scale": trace.scale,
            "seed": trace.seed,
            "line_size": trace.line_size,
            "line_size_sensitive": trace.line_size_sensitive,
            "event_count": trace.event_count,
            "chunks": len(trace.chunks),
            "bytes": size,
            "format": FORMAT_VERSION,
            "saved_at": time.time(),
        }

        def mutate(entries: dict) -> None:
            for other_key, other in entries.items():
                if other_key == key:
                    continue
                if other.get("content_hash") == entry["content_hash"]:
                    self._try_link(self.trace_path(other_key), path)
                if other.get("stream_sha256") == entry["stream_sha256"]:
                    self._try_link(
                        self.resolved_path(other_key), self.resolved_path(key)
                    )
            entries[key] = entry

        self._update_manifest(mutate)

    def _try_link(self, src: Path, dst: Path) -> None:
        """Replace ``dst`` with a hardlink to ``src``, best-effort."""
        try:
            src_stat = src.stat()
        except OSError:
            return
        with contextlib.suppress(OSError):
            if dst.exists() and dst.stat().st_ino == src_stat.st_ino:
                return
            tmp = dst.with_name(
                f"{dst.name}.tmp{os.getpid()}-{next(_tmp_counter)}"
            )
            os.link(src, tmp)
            os.replace(tmp, dst)
            _log.info("deduplicated %s -> %s", dst.name, src.name)

    # -- corpus manifest ------------------------------------------------
    def manifest_path(self) -> Path:
        return self.root / "corpus.json"

    def read_manifest(self) -> dict:
        """The manifest as a dict; an empty one if missing/corrupt."""
        try:
            data = json.loads(self.manifest_path().read_text())
            if isinstance(data, dict) and isinstance(data.get("entries"), dict):
                return data
        except (OSError, ValueError):
            pass
        return {"version": _MANIFEST_VERSION, "entries": {}}

    def _update_manifest(self, mutate) -> None:
        """Read-modify-write the manifest under its advisory lock.

        Best-effort: a wedged lock means this update is skipped (the
        manifest heals lazily from trace footers), never that a capture
        blocks on bookkeeping.
        """
        try:
            with self.capture_lock(_MANIFEST_LOCK, timeout=10.0):
                manifest = self.read_manifest()
                manifest["version"] = _MANIFEST_VERSION
                mutate(manifest["entries"])
                _atomic_write(
                    self.manifest_path(),
                    json.dumps(manifest, sort_keys=True, indent=1).encode(
                        "utf-8"
                    ),
                )
        except LockTimeout:
            _log.warning("corpus manifest lock busy; skipping update")

    def content_hash_for(self, key: str) -> str | None:
        """The content hash of the stored trace for ``key``, or None.

        This is the serve tier's warm probe: manifest row first (O(1),
        no trace I/O beyond an existence check), footer read second
        (two seeks, no chunk data), full load only for legacy v2 files
        -- healing the manifest row whenever it had to go to disk.
        """
        path = self.trace_path(key)
        entry = self.read_manifest()["entries"].get(key)
        if entry is not None and "content_hash" in entry:
            if path.exists():
                return entry["content_hash"]
            return None  # evicted since the row was written
        try:
            content_hash = load_index(path).content_hash
        except FileNotFoundError:
            return None
        except TraceFormatError:
            trace = self.load_trace(key)
            if trace is None:
                return None
            content_hash = trace.content_hash
        self._update_manifest(
            lambda entries: entries.setdefault(key, {}).update(
                content_hash=content_hash
            )
        )
        return content_hash

    def corpus_status(self) -> list[dict]:
        """One row per trace on disk, manifest-enriched, LRU-ordered.

        Rows carry ``key``, ``bytes``, ``mtime``, ``inode``, ``links``
        from the filesystem plus whatever identity fields the manifest
        has; sidecar size rides in ``resolved_bytes``.  Ordered oldest
        (next to evict) first.
        """
        entries = self.read_manifest()["entries"]
        rows = []
        for path in sorted(self.traces_dir.glob("*.trace")):
            key = path.stem
            try:
                st = path.stat()
            except OSError:
                continue
            row = {
                "key": key,
                "bytes": st.st_size,
                "mtime": st.st_mtime,
                "inode": st.st_ino,
                "links": st.st_nlink,
                "resolved_bytes": 0,
            }
            with contextlib.suppress(OSError):
                sidecar_stat = self.resolved_path(key).stat()
                row["resolved_bytes"] = sidecar_stat.st_size
                row["resolved_inode"] = sidecar_stat.st_ino
                row["mtime"] = max(row["mtime"], sidecar_stat.st_mtime)
            row.update(entries.get(key, {}))
            rows.append(row)
        rows.sort(key=lambda row: (row["mtime"], row["key"]))
        return rows

    def gc(self, budget_bytes: int, dry_run: bool = False) -> dict:
        """Evict least-recently-used traces until the corpus fits.

        ``budget_bytes`` bounds the summed size of trace files plus
        sidecars, counting each inode once (hardlinked dedup copies are
        free until their last reference goes).  Eviction removes the
        trace file, its sidecar, and its manifest row; results are NOT
        touched (they are keyed by content hash and stay servable for a
        recaptured identical stream).  Returns a report dict; with
        ``dry_run`` nothing is removed but the report shows what would
        be.
        """
        rows = self.corpus_status()
        inode_size: dict[int, int] = {}
        inode_refs: dict[int, set[str]] = {}
        key_inodes: dict[str, list[int]] = {}
        for row in rows:
            inodes = [(row["inode"], row["bytes"])]
            if "resolved_inode" in row:
                inodes.append((row["resolved_inode"], row["resolved_bytes"]))
            key_inodes[row["key"]] = [ino for ino, _ in inodes]
            for ino, size in inodes:
                inode_size[ino] = size
                inode_refs.setdefault(ino, set()).add(row["key"])
        total = sum(inode_size.values())
        freed = 0
        evicted: list[str] = []
        for row in rows:  # oldest first
            if total - freed <= budget_bytes:
                break
            key = row["key"]
            for ino in key_inodes[key]:
                refs = inode_refs[ino]
                refs.discard(key)
                if not refs:
                    freed += inode_size[ino]
            evicted.append(key)
        if not dry_run and evicted:
            for key in evicted:
                with contextlib.suppress(OSError):
                    self.trace_path(key).unlink()
                with contextlib.suppress(OSError):
                    self.resolved_path(key).unlink()
                _log.info("evicted trace %s", key)
            self._update_manifest(
                lambda entries: [entries.pop(key, None) for key in evicted]
            )
        return {
            "budget_bytes": budget_bytes,
            "total_bytes": total,
            "after_bytes": total - freed,
            "freed_bytes": freed,
            "evicted": evicted,
            "kept": len(rows) - len(evicted),
            "dry_run": dry_run,
        }

    def migrate(self) -> dict:
        """Upgrade every non-v3 trace file to format v3, re-keying it.

        The format version is part of the trace key, so an upgraded
        trace lands under a *new* key (file, sidecar, and manifest row
        of the old key are removed -- the old v1 sidecar layout is
        unreadable now anyway).  Unreadable files are reported, not
        deleted.  Returns ``{"migrated": [...], "current": n,
        "failed": {name: error}}``.
        """
        migrated: list[dict] = []
        failed: dict[str, str] = {}
        current = 0
        for path in sorted(self.traces_dir.glob("*.trace")):
            try:
                version = peek_version(path)
            except (TraceFormatError, OSError) as exc:
                failed[path.name] = str(exc)
                continue
            if version == FORMAT_VERSION:
                current += 1
                continue
            try:
                trace = Trace.load(path)
            except (TraceFormatError, OSError) as exc:
                failed[path.name] = str(exc)
                continue
            old_key = path.stem
            new_key = trace_key(
                trace.app,
                trace.variant,
                trace.scale,
                trace.seed,
                trace.line_size if trace.line_size_sensitive else None,
            )
            self.save_trace(new_key, trace)
            if new_key != old_key:
                with contextlib.suppress(OSError):
                    path.unlink()
                with contextlib.suppress(OSError):
                    self.resolved_path(old_key).unlink()
                self._update_manifest(
                    lambda entries, stale=old_key: entries.pop(stale, None)
                )
            migrated.append(
                {"from": old_key, "to": new_key, "version": version}
            )
        return {"migrated": migrated, "current": current, "failed": failed}

    # -- results --------------------------------------------------------
    def result_path(self, trace_hash: str, config_hash: str) -> Path:
        return self.results_dir / f"{trace_hash[:24]}-{config_hash[:24]}.json"

    def load_result(self, trace_hash: str, config_hash: str) -> AppResult | None:
        path = self.result_path(trace_hash, config_hash)
        try:
            payload = json.loads(path.read_text())
            return AppResult(
                app=payload["app"],
                variant=Variant(payload["variant"]),
                checksum=payload["checksum"],
                stats=MachineStats.parse(payload["stats"]),
                extras=payload["extras"],
                timeline=payload.get("timeline"),
            )
        except FileNotFoundError:
            return None
        except (KeyError, ValueError, TypeError, OSError) as exc:
            _log.warning("discarding unreadable result %s: %s", path.name, exc)
            return None

    def save_result(
        self, trace_hash: str, config_hash: str, result: AppResult
    ) -> Path:
        payload = {
            "app": result.app,
            "variant": result.variant.value,
            "checksum": result.checksum,
            "extras": result.extras,
            "stats": result.stats.dump(),
            # Sound to cache: the config fingerprint covers the timeline
            # knobs, so a cached entry only ever answers a cell asking
            # for the same sampling configuration.
            "timeline": result.timeline,
        }
        path = self.result_path(trace_hash, config_hash)
        _atomic_write(path, json.dumps(payload, sort_keys=True).encode("utf-8"))
        return path

    # -- concurrency ----------------------------------------------------
    def lock_path(self, key: str) -> Path:
        return self.locks_dir / f"{key}.lock"

    @contextlib.contextmanager
    def capture_lock(
        self,
        key: str,
        timeout: float | None = None,
        poll_interval: float = 0.05,
    ):
        """Advisory exclusive lock over capturing one trace key.

        Creation is atomic (``O_CREAT | O_EXCL``); the file records the
        owning pid and acquisition time.  Contenders poll, breaking the
        lock if its owner died or it exceeded ``stale_after`` seconds --
        a crashed capturer never wedges the store.  ``timeout`` bounds
        the wait (default: ``stale_after`` plus slack, so a live owner
        is always outwaited or declared stale before giving up).
        """
        if timeout is None:
            timeout = self.stale_after + 60.0
        path = self.lock_path(key)
        deadline = time.monotonic() + timeout
        while True:
            try:
                fd = os.open(path, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
            except FileExistsError:
                if self._break_if_stale(path):
                    continue
                if time.monotonic() >= deadline:
                    raise LockTimeout(
                        f"capture lock {path.name} held past {timeout:.0f}s"
                    ) from None
                time.sleep(poll_interval)
                continue
            with os.fdopen(fd, "w") as handle:
                json.dump({"pid": os.getpid(), "acquired": time.time()}, handle)
            break
        try:
            yield path
        finally:
            with contextlib.suppress(OSError):
                path.unlink()

    def _break_if_stale(self, path: Path) -> bool:
        """Remove ``path`` if its owner is gone or it aged out."""
        try:
            age = time.time() - path.stat().st_mtime
        except OSError:
            return True  # vanished underneath us -- effectively broken
        owner_dead = False
        try:
            owner = json.loads(path.read_text()).get("pid")
            owner_dead = isinstance(owner, int) and not _pid_alive(owner)
        except (OSError, ValueError):
            # Unreadable content: age alone decides.
            pass
        if owner_dead or age > self.stale_after:
            _log.warning(
                "breaking stale lock %s (age %.0fs, owner %s)",
                path.name,
                age,
                "dead" if owner_dead else "unknown",
            )
            with contextlib.suppress(OSError):
                path.unlink()
            return True
        return False

    def sweep_stale(self, max_age: float | None = None) -> int:
        """Remove abandoned temp files, stale locks, and orphaned
        sidecars; returns the count.

        Safe to run concurrently with writers: only artifacts older than
        ``max_age`` (default ``stale_after``) go, and in-flight temp
        files are by definition fresh.  Orphaned ``.resolved`` sidecars
        -- whose parent ``.trace`` is gone, so nothing can ever validate
        or serve them -- are removed regardless of age: a recapture
        always rewrites the sidecar from scratch, so there is no
        in-flight state to protect.
        """
        if max_age is None:
            max_age = self.stale_after
        cutoff = time.time() - max_age
        removed = 0
        for path in self.traces_dir.glob("*.resolved"):
            if not path.with_suffix(".trace").exists():
                with contextlib.suppress(OSError):
                    path.unlink()
                    removed += 1
                    _log.info("swept orphaned sidecar %s", path.name)
        candidates = [
            path
            for directory in (self.traces_dir, self.results_dir)
            for path in directory.glob("*.tmp*")
        ]
        candidates += list(self.locks_dir.glob("*.lock"))
        for path in candidates:
            try:
                stale = path.stat().st_mtime < cutoff
            except OSError:
                continue
            if path.suffix == ".lock" and not stale:
                # A fresh lock might still be orphaned by a dead owner.
                stale = self._break_if_stale(path)
                if stale:
                    removed += 1
                continue
            if stale:
                with contextlib.suppress(OSError):
                    path.unlink()
                    removed += 1
                    _log.info("swept stale artifact %s", path.name)
        return removed
