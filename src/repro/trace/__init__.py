"""Reference-trace capture and replay (the ``repro.trace`` subsystem).

The simulator is trace-driven at heart: an application's *reference
stream* -- the ordered sequence of loads, stores, allocations, prefetches
and relocation events it issues against the :class:`~repro.core.machine.
Machine` -- fully determines every statistic the experiments report.  For
a given ``(app, variant, scale, seed)`` that stream is identical across
cache line sizes and machine configurations (BH is the one exception: it
parameterises its clustering by line size, and is declared so in
``repro.apps.base.LINE_SIZE_SENSITIVE_APPS``).

This package exploits that invariance end to end:

* :mod:`repro.trace.recorder` -- capture the canonical event stream while
  an application runs, via the machine's observer hook;
* :mod:`repro.trace.format` -- a chunked columnar binary trace format
  (fixed-event-count chunks, per-column varint/delta encoding and zlib
  compression, a footer index for random access, content-hashed) with
  save/load round-trip and streaming decode; legacy v2 files load
  transparently;
* :mod:`repro.trace.replay` -- drive any :class:`MachineConfig` from a
  trace, chunk by chunk, reproducing a direct run's
  :class:`MachineStats` *exactly*;
* :mod:`repro.trace.store` -- a content-hash-keyed on-disk artifact cache
  of traces and replayed results with a persistent corpus manifest,
  LRU/size-budget eviction, and cross-seed dedup, so repeated sweeps
  skip both capture and replay when nothing changed;
* :mod:`repro.trace.kernels` -- exec-specialized per-config replay
  kernels: the replay loop compiled with the machine shape baked in as
  literals, bit-identical to the general path by contract;
* :mod:`repro.trace.cells` -- sweep cells without the engine: cell
  identity, grouping by trace key, and the cached-result probe that
  answers a fully cached group before any engine module loads;
* :mod:`repro.trace.batch` -- batch multi-config replay: decode one
  trace, drive N configs through the shared resolved stream;
* :mod:`repro.trace.sweep` -- a parallel sweep executor sharding batch
  groups (one per trace key) across a process pool.

The exact-fidelity requirement makes this a correctness tool as well as
a performance win: any divergence between a replayed and a direct run
exposes hidden state the event stream failed to capture.
"""

from repro._lazy import lazy_exports

# Re-exported lazily: the light modules (cells, format, store) must be
# importable without loading the engine behind them (DESIGN.md §5l).
__getattr__, __dir__ = lazy_exports(globals(), {
    "repro.trace.batch": ("BatchCellError", "replay_engine", "run_batch_group"),
    "repro.trace.cells": (
        "BATCH_GENERAL",
        "BATCH_SPECIALIZED",
        "SEQUENTIAL",
        "BatchOutcome",
        "SweepTask",
        "group_by_trace",
    ),
    "repro.trace.format": (
        "FORMAT_VERSION",
        "Chunk",
        "Trace",
        "TraceFormatError",
        "TraceIndex",
        "load_index",
        "peek_version",
    ),
    "repro.trace.kernels": (
        "SpecializationError",
        "SpecializedSession",
        "replay_specialized",
        "specializable",
    ),
    "repro.trace.recorder": ("TraceRecorder", "capture_trace"),
    "repro.trace.replay": (
        "ReplaySession",
        "ResolvedChunk",
        "SidecarError",
        "TraceReplayError",
        "drive_sessions",
        "iter_resolved_chunks",
        "replay_trace",
        "resolved_stream",
    ),
    "repro.trace.store": (
        "ArtifactStore",
        "LockTimeout",
        "config_fingerprint",
        "trace_key",
    ),
    "repro.trace.sweep": ("SweepError", "execute_sweep", "run_task"),
})

__all__ = [
    "ArtifactStore",
    "BATCH_GENERAL",
    "BATCH_SPECIALIZED",
    "BatchCellError",
    "BatchOutcome",
    "Chunk",
    "FORMAT_VERSION",
    "LockTimeout",
    "ReplaySession",
    "ResolvedChunk",
    "SEQUENTIAL",
    "SidecarError",
    "SpecializationError",
    "SpecializedSession",
    "SweepError",
    "SweepTask",
    "Trace",
    "TraceFormatError",
    "TraceIndex",
    "TraceRecorder",
    "TraceReplayError",
    "capture_trace",
    "config_fingerprint",
    "drive_sessions",
    "execute_sweep",
    "group_by_trace",
    "iter_resolved_chunks",
    "load_index",
    "peek_version",
    "replay_engine",
    "replay_specialized",
    "replay_trace",
    "resolved_stream",
    "run_batch_group",
    "run_task",
    "specializable",
    "trace_key",
]
