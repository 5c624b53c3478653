"""Batch multi-config replay: decode each chunk once, simulate many configs.

The sweep's unit of work used to be the *cell* -- each cell loaded (or
captured) its trace, decoded the payload, and replayed.  The natural
unit is the *trace*: every cell sharing a trace key can run against one
decode of the stream.  Since format v3 the decode itself is chunked
(:func:`repro.trace.replay.iter_resolved_chunks`), so the group loop
interleaves at chunk granularity: decode one chunk, drive **every**
config's session over it, drop it, pull the next.  Resident memory is
one resolved chunk plus N session states -- O(chunk), not O(trace) --
however many configs share the stream.  This module is that grouping
layer:

* :func:`group_by_trace` (from :mod:`repro.trace.cells`) partitions
  sweep tasks into per-trace-key groups (insertion-ordered, so progress
  output stays deterministic);
* :func:`run_batch_group` executes one group end to end -- capture the
  stream if it is missing, answer cached cells from the store (through
  the probe in :mod:`repro.trace.cells`), then
  build one replay session per remaining config (the capturing cell's
  included) and drive them all through one streaming decode;
* :func:`replay_engine` / :func:`_session_for` pick the per-config
  engine: the exec-specialized kernel session
  (:class:`~repro.trace.kernels.SpecializedSession`) when the config is
  inside the specializer's feature matrix, the general
  :class:`~repro.trace.replay.ReplaySession` otherwise.  Both are
  bit-identical by contract; the engine label is diagnostics, not
  semantics.

The engine label travels with every outcome (``"sequential"``,
``"batch+general"``, ``"batch+specialized"``) so manifests and progress
logs can say which code path produced each cell -- the parity suite
makes the labels interchangeable, the labels make the claim auditable.

Error contract: :class:`BatchCellError` names the exact failing cell
inside a group and is pickle-safe (its ``args`` are plain data), so a
process-pool worker can raise it across the pipe without losing the
cell identity.  ``collect_errors=True`` switches to per-cell error
outcomes instead -- the serve tier folds multiple queued jobs into one
batch and must fail them individually, not collectively.  A failure
*inside one session* mid-stream fails only that cell; the other
sessions keep consuming chunks.  A failure in the shared decode fails
every cell still riding it (there is no stream left to finish them).

Setting the ``REPRO_BATCH_MATERIALIZE`` environment variable makes each
group materialise its full resolved stream up front -- the pre-v3
O(trace) residency -- before streaming normally.  It exists purely as
the control arm of the peak-RSS benchmark (``BENCH_PR8.json``); never
set it otherwise.
"""

from __future__ import annotations

import contextlib
import os
import time as _time
from typing import NamedTuple

from repro.apps.base import AppResult, Variant
from repro.core.config import MachineConfig
from repro.trace.cells import (
    BATCH_GENERAL,
    BATCH_SPECIALIZED,
    SEQUENTIAL,
    BatchOutcome,
    cached_outcome,
    probe_group,
)
from repro.trace.format import Trace
from repro.trace.kernels import (
    SpecializedSession,
    replay_specialized,
    specializable,
)
from repro.trace.replay import (
    MAX_CHUNK_SPANS,
    ReplaySession,
    SidecarError,
    _decode_chunks,
    iter_resolved_chunks,
    replay_trace,
    resolved_stream,
)
from repro.trace.store import ArtifactStore, config_fingerprint

class BatchCellError(RuntimeError):
    """One cell of a batch group failed; names the cell, pickles cleanly.

    ``args`` carries only the task and a rendered message (no exception
    object with a custom constructor), so the error crosses a process
    pool's result pipe intact -- the collector on the other side still
    knows exactly which cell inside the batch failed.
    """

    def __init__(self, task, message: str) -> None:
        super().__init__(task, message)
        self.task = task
        self.message = message

    def __str__(self) -> str:
        return self.message


def replay_engine(
    trace: Trace, config: MachineConfig, *, tracer=None, on_window=None
) -> tuple[AppResult, str]:
    """Replay through the best engine for ``config``.

    Returns ``(result, engine)`` where ``engine`` is
    :data:`BATCH_SPECIALIZED` when the config fits the specializer's
    feature matrix and :data:`BATCH_GENERAL` otherwise.  Results are
    bit-identical either way (enforced by the parity suites).
    ``tracer`` and ``on_window`` reach the general path only (see
    :func:`repro.trace.replay.replay_trace`); a specializable config
    samples no timeline.
    """
    if specializable(config):
        return replay_specialized(trace, config), BATCH_SPECIALIZED
    result = replay_trace(trace, config, tracer=tracer, on_window=on_window)
    return result, BATCH_GENERAL


def _session_for(trace: Trace, config: MachineConfig, on_window=None):
    """Build the best chunk-consuming session for ``config``.

    ``on_window`` only reaches the general session: the specializer's
    feature matrix requires ``timeline_interval == 0``, so a config
    with windows to stream always takes the general path anyway.
    """
    if specializable(config):
        return SpecializedSession(trace, config), BATCH_SPECIALIZED
    return ReplaySession(trace, config, on_window=on_window), BATCH_GENERAL


def run_batch_group(
    tasks: list,
    store: ArtifactStore | None = None,
    traces: dict[str, Trace] | None = None,
    collect_errors: bool = False,
    *,
    tracers=None,
    on_window=None,
    probed: list[BatchOutcome | None] | None = None,
) -> list[BatchOutcome]:
    """Execute one trace-sharing group of cells; one decode, N configs.

    All tasks must share a trace key.  The group runs in two phases.

    **Resolve**: first :func:`repro.trace.cells.probe_group` loads the
    group's trace and answers every cached cell from the store --
    unless the caller already did and hands its answers in as
    ``probed`` (with the trace, if any, in ``traces``).  Then, per
    remaining cell, in task order:

    * events cells (``events_capacity > 0``) always run direct -- replay
      cannot reproduce the discrete event stream -- via the sequential
      single-cell executor;
    * if the group's trace is missing everywhere, the first such cell
      captures it.  Capture normally runs on the timing-free machine,
      so that cell then gets a replay session like the rest (``how``
      stays ``"captured"``); a timed capture (adaptive configs) answers
      its cell with its direct run; the cells after it are probed
      against the fresh trace's content hash;
    * everything else gets a replay session (specialized kernel or
      general path, per config).

    **Drive**: every session consumes the trace's resolved chunks in
    lockstep -- one chunk decoded (or sidecar-served), all sessions run
    over it, then the next -- and finally each session's ``finish()``
    produces and persists its cell's result.  A freshly captured trace
    is saved after its drive, so that drive writes no ``.resolved``
    sidecar: a group answered in the capturing process decodes its
    stream once and never reads the sidecar back.

    With ``collect_errors=False`` (batch sweeps) the first failing cell
    raises :class:`BatchCellError`; with ``collect_errors=True`` (the
    serve tier) each failure becomes an error outcome and the remaining
    cells still run.

    ``tracers`` (``{task: Tracer}``), when given, records each cell's
    phases as spans into that cell's causal tree -- capture, cache
    probe, the shared drive (one ``replay.run`` span per cell with
    capped per-chunk children), result writes.  ``on_window`` is called
    as ``on_window(task, window_dict)`` for every timeline window a
    cell's session closes while the drive runs.  Both default to
    ``None`` and add nothing to the chunk loop when absent.
    """
    # Deferred import: sweep imports this module for its batch path.
    # Capture goes through the sweep module's name, like run_task's.
    from repro.trace.sweep import capture_trace, run_task

    keys = {task.key() for task in tasks}
    if len(keys) > 1:
        raise ValueError(
            f"batch group spans {len(keys)} trace keys {sorted(keys)}; "
            "group_by_trace() the tasks first"
        )
    outcomes: dict[int, BatchOutcome] = {}
    key = next(iter(keys)) if keys else None
    if traces is None:
        traces = {}

    def fail(position, task, exc) -> None:
        error = BatchCellError(
            task,
            f"batch cell {task.app}/{task.line_size}B/{task.variant} "
            f"(scale={task.scale}, seed={task.seed}) failed: "
            f"{type(exc).__name__}: {exc}",
        )
        error.__cause__ = exc
        if not collect_errors:
            raise error from exc
        outcomes[position] = BatchOutcome(
            task, None, "failed", SEQUENTIAL, error=error
        )

    def _tracer(task):
        return tracers.get(task) if tracers is not None else None

    def _window_cb(task):
        if on_window is None:
            return None
        return lambda window, _task=task: on_window(_task, window)

    if probed is None:
        probed = probe_group(tasks, store, traces, tracers)
    trace: Trace | None = traces.get(key)
    # With no trace to probe against, the cells were not probed; once
    # this call captures, results stored under the fresh trace's
    # content hash (which capture reproduces) still answer.
    unprobed = trace is None
    pending: list[_Cell] = []
    #: ``(position, task, tracer)`` of the cell that captured the
    #: stream functionally; the trace is saved after the drive.
    capturer = None
    for position, task in enumerate(tasks):
        if probed[position] is not None:
            outcomes[position] = probed[position]
            continue
        try:
            tracer = _tracer(task)
            config = task.config()
            if config.events_capacity > 0:
                # Direct re-capture; never touches the shared stream.
                result, how = run_task(
                    task, store, traces,
                    tracer=tracer, on_window=_window_cb(task),
                )
                outcomes[position] = BatchOutcome(
                    task, result, how, SEQUENTIAL
                )
                continue
            if trace is None:
                # An events cell's direct run may have captured it.
                trace = traces.get(key)
            fingerprint = config_fingerprint(config)
            if trace is None:
                # First cold cell captures for the whole group.
                with _span(tracer, "trace.capture"):
                    trace, direct = capture_trace(
                        task.app,
                        Variant(task.variant),
                        config,
                        task.scale,
                        task.seed,
                        on_window=_window_cb(task),
                    )
                traces[key] = trace
                if direct is not None:
                    # A timed capture's direct run answers its cell.
                    _save_capture(store, key, trace, tracer)
                    _save_result(store, trace, fingerprint, direct, tracer)
                    outcomes[position] = BatchOutcome(
                        task, direct, "captured", SEQUENTIAL
                    )
                    continue
                # A functional capture has no timed result: the cell
                # joins the group's drive like any replayed cell.
                capturer = (position, task, tracer)
                how = "captured"
            else:
                if unprobed:
                    cached = cached_outcome(
                        task, trace, fingerprint, store, tracer
                    )
                    if cached is not None:
                        outcomes[position] = cached
                        continue
                how = "replayed"
            session, engine = _session_for(
                trace, config, on_window=_window_cb(task)
            )
            pending.append(
                _Cell(position, task, fingerprint, session, engine, tracer, how)
            )
        except Exception as exc:
            fail(position, task, exc)

    if pending:
        if os.environ.get("REPRO_BATCH_MATERIALIZE"):
            # Benchmark control arm only: recreate the pre-v3 whole-trace
            # residency so the RSS delta of streaming is measurable.
            trace._bench_materialized = resolved_stream(trace)
        _drive_pending(trace, pending, outcomes, store, fail)
        if os.environ.get("REPRO_BATCH_MATERIALIZE"):
            trace._bench_materialized = None
    if capturer is not None:
        # Saved only now because saving attaches the sidecar path: the
        # drive that answered the capturing cell decoded the stream
        # without writing a sidecar.  Later loads, and later replays of
        # this object, write it as usual.
        position, task, tracer = capturer
        try:
            _save_capture(store, key, trace, tracer)
        except Exception as exc:
            fail(position, task, exc)
    return [outcomes[position] for position in sorted(outcomes)]


class _Cell(NamedTuple):
    """One replay cell riding a group's drive."""

    position: int
    task: object
    fingerprint: str
    session: object
    engine: str
    tracer: object
    #: ``"captured"`` for the cell whose run captured the stream.
    how: str


def _span(tracer, name: str):
    return tracer.span(name) if tracer is not None else contextlib.nullcontext()


def _save_capture(store, key: str, trace: Trace, tracer) -> None:
    if store is not None:
        with _span(tracer, "store.trace_write"):
            store.save_trace(key, trace)


def _save_result(store, trace: Trace, fingerprint: str, result, tracer) -> None:
    if store is not None:
        with _span(tracer, "store.result_write"):
            store.save_result(trace.content_hash, fingerprint, result)


def _drive_pending(trace, pending, outcomes, store, fail) -> None:
    """Stream the trace's chunks through every pending session."""
    live = list(pending)
    # Traced cells get one open `replay.run` span spanning the whole
    # drive, with capped per-chunk child records; untraced cells pay a
    # single `is None` check per (session, chunk).
    open_spans: dict[int, tuple] = {}
    chunk_tallies: dict[int, list] = {}
    for entry in live:
        position, tracer = entry.position, entry.tracer
        if tracer is not None:
            open_spans[position] = (tracer, tracer.begin("replay.run"))
            chunk_tallies[position] = [0, 0, 0.0]  # chunks, entries, secs

    def feed(chunks) -> None:
        nonlocal live
        for index, chunk in enumerate(chunks):
            kept = []
            for entry in live:
                position, session, tracer = (
                    entry.position, entry.session, entry.tracer
                )
                try:
                    if tracer is None:
                        session.run_chunk(chunk)
                    else:
                        started = _time.perf_counter()
                        session.run_chunk(chunk)
                        seconds = _time.perf_counter() - started
                        tally = chunk_tallies[position]
                        tally[0] += 1
                        tally[1] += chunk.n
                        tally[2] += seconds
                        if tally[0] <= MAX_CHUNK_SPANS:
                            tracer.record(
                                f"replay.chunk[{index}]",
                                seconds,
                                metrics={"entries": chunk.n},
                            )
                except Exception as exc:
                    fail(position, entry.task, exc)
                else:
                    kept.append(entry)
            live = kept
            if not live:
                return

    decode_failed = False
    try:
        try:
            try:
                feed(iter_resolved_chunks(trace))
            except SidecarError:
                # The sidecar went bad after chunks were already
                # consumed: drop it, rewind every surviving session, and
                # re-run the stream from the raw columns (which rewrites
                # the sidecar).
                path = getattr(trace, "_resolved_path", None)
                if path is not None:
                    with contextlib.suppress(OSError):
                        path.unlink()
                for entry in live:
                    entry.session.reset()
                feed(_decode_chunks(trace, path))
        except BatchCellError:
            raise
        except Exception as exc:
            # The shared decode itself failed; every session still
            # riding it loses its stream mid-flight and cannot produce
            # a result.
            for entry in live:
                fail(entry.position, entry.task, exc)
            decode_failed = True
    finally:
        # Close every traced cell's drive span -- also on the raising
        # paths, so a worker's partial trace still assembles into a
        # well-formed tree.
        for position, (tracer, record) in open_spans.items():
            tally = chunk_tallies[position]
            tracer.record(
                "replay.chunks",
                tally[2],
                metrics={"chunks": tally[0], "entries": tally[1]},
            )
            tracer.end(record)
    if decode_failed:
        return

    for entry in live:
        try:
            result = entry.session.finish()
            _save_result(store, trace, entry.fingerprint, result, entry.tracer)
        except Exception as exc:
            fail(entry.position, entry.task, exc)
        else:
            outcomes[entry.position] = BatchOutcome(
                entry.task, result, entry.how, entry.engine
            )
