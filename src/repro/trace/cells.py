"""Sweep cells without the engine: identity, grouping and the cached probe.

Everything a fully cached artifact needs to know about its cells lives
here, in a module that imports no part of the simulator (DESIGN.md
§5l):

* :class:`SweepTask` -- one cell of a sweep matrix, with its trace key
  and machine config;
* :func:`group_by_trace` -- cells partitioned by the stream they share;
* :func:`probe_group` -- the one cached-cell probe.
  :class:`~repro.experiments.runner.ExperimentRunner` probes each group
  before it imports the engine, and a group with any miss goes whole
  to :func:`repro.trace.batch.run_batch_group` together with the probe's
  answers, so no stored file is read twice; ``run_batch_group`` probes
  through the same function when no answers are handed in;
* :class:`BatchOutcome` and the engine labels it carries, and the
  per-cell progress line.

:mod:`repro.trace.sweep` still provides :class:`SweepTask` under its
old name; process pools pickle it by this module's path.
"""

from __future__ import annotations

import logging
from contextlib import nullcontext
from dataclasses import dataclass, replace

from repro.adapt.config import DEFAULT_HEATMAP_REGION, AdaptConfig
from repro.apps.base import AppResult, Variant, stream_depends_on_line_size
from repro.obs.logging import get_logger, log_event
from repro.trace.format import Trace
from repro.trace.store import ArtifactStore, config_fingerprint, trace_key

_log = get_logger("trace.sweep")

#: Engine labels recorded per cell (manifests, progress logs, metrics).
SEQUENTIAL = "sequential"
BATCH_GENERAL = "batch+general"
BATCH_SPECIALIZED = "batch+specialized"


@dataclass(frozen=True)
class SweepTask:
    """One cell of a sweep matrix (picklable, hashable)."""

    app: str
    variant: str
    line_size: int
    scale: float = 1.0
    seed: int = 1
    #: Timeline sampling interval for this cell (0 = off).  Part of the
    #: machine config, not the workload identity: the trace key ignores
    #: it (one stream serves sampled and unsampled cells alike) while
    #: the config fingerprint separates their cached results.
    timeline_interval: int = 0
    events_capacity: int = 0
    #: L1 miss-path mechanism and sizing knobs (see
    #: :mod:`repro.cache.misspath`).  Like the timeline knobs these are
    #: machine config, not workload identity: the trace key ignores them
    #: (one captured stream replays under every mechanism) while the
    #: config fingerprint keeps their cached results apart.  With
    #: ``mechanism="none"`` the sizing knobs are ignored entirely, so a
    #: baseline cell's config -- and thus its fingerprint -- is identical
    #: no matter which knob values rode along.
    mechanism: str = "none"
    vc_entries: int = 8
    mc_entries: int = 8
    sb_count: int = 4
    sb_depth: int = 4
    #: Adaptive relocation policy (:class:`repro.adapt.AdaptConfig`) or
    #: ``None``.  Unlike every knob above, adapt is *workload identity*:
    #: the engine issues its own references, so the trace key folds in
    #: the full config fingerprint (see :func:`repro.trace.store.trace_key`)
    #: and each adaptive config captures/replays its own private stream.
    adapt: "AdaptConfig | None" = None
    #: Heatmap region granularity (bytes); machine config, not workload
    #: identity for plain cells (the sampler never issues references).
    heatmap_region: int = DEFAULT_HEATMAP_REGION

    def key(self) -> str:
        """Trace key this cell's stream lives under."""
        if self.adapt is not None:
            # Engine references depend on the whole config; pin the
            # stream to it (line size included -- it shifts window
            # contents and hence decision points).
            return trace_key(
                self.app,
                self.variant,
                self.scale,
                self.seed,
                self.line_size,
                adapt=config_fingerprint(self.config()),
            )
        sensitive = stream_depends_on_line_size(self.app, Variant(self.variant))
        return trace_key(
            self.app,
            self.variant,
            self.scale,
            self.seed,
            self.line_size if sensitive else None,
        )

    def config(self):
        from repro.experiments.config import experiment_config

        config = experiment_config(self.line_size)
        if self.timeline_interval or self.events_capacity:
            config = replace(
                config,
                timeline_interval=self.timeline_interval,
                events_capacity=self.events_capacity,
            )
        if self.mechanism != "none":
            config = replace(
                config,
                hierarchy=replace(
                    config.hierarchy,
                    mechanism=self.mechanism,
                    vc_entries=self.vc_entries,
                    mc_entries=self.mc_entries,
                    sb_count=self.sb_count,
                    sb_depth=self.sb_depth,
                ),
            )
        if self.heatmap_region != DEFAULT_HEATMAP_REGION:
            config = replace(config, heatmap_region_bytes=self.heatmap_region)
        if self.adapt is not None:
            config = replace(config, adapt=self.adapt)
        return config


@dataclass
class BatchOutcome:
    """One cell's result within a batch group."""

    task: SweepTask
    result: AppResult | None
    #: ``"captured"`` / ``"replayed"`` / ``"cached"`` (run_task's word).
    how: str
    #: Which engine produced the result (``SEQUENTIAL`` etc.).
    engine: str
    #: Set instead of ``result`` when ``collect_errors=True``
    #: (a :class:`repro.trace.batch.BatchCellError`).
    error: Exception | None = None


def group_by_trace(tasks) -> dict[str, list]:
    """Partition tasks into per-trace-key groups, insertion-ordered."""
    groups: dict[str, list] = {}
    for task in tasks:
        groups.setdefault(task.key(), []).append(task)
    return groups


def cached_outcome(
    task: SweepTask,
    trace: Trace,
    fingerprint: str,
    store: ArtifactStore | None,
    tracer=None,
) -> BatchOutcome | None:
    """The cell's stored result as a ``"cached"`` outcome, or ``None``."""
    if store is None:
        return None
    span = tracer.span if tracer is not None else (lambda name: nullcontext())
    with span("store.result_probe"):
        cached = store.load_result(trace.content_hash, fingerprint)
    if cached is None:
        return None
    return BatchOutcome(task, cached, "cached", SEQUENTIAL)


def probe_group(
    tasks: list[SweepTask],
    store: ArtifactStore | None,
    traces: dict[str, Trace],
    tracers=None,
) -> list[BatchOutcome | None]:
    """Answer each cell of one trace group from the store, in task order.

    The group's trace comes from ``traces``, else from the store (then
    kept in ``traces``), loaded and verified in full: a manifest's
    ``trace_hashes`` read it.  Each cell's stored result is then read
    once; ``None`` marks a cell the engine must run, and every cell is
    ``None`` when the trace itself is missing or unreadable.
    ``tracers`` (``{task: Tracer}``) records each cell's probe span.
    """
    if not tasks:
        return []
    key = tasks[0].key()
    trace = traces.get(key)
    if trace is None and store is not None:
        trace = store.load_trace(key)
        if trace is not None:
            traces[key] = trace
    if trace is None:
        return [None] * len(tasks)
    outcomes: list[BatchOutcome | None] = []
    for task in tasks:
        try:
            fingerprint = config_fingerprint(task.config())
        except Exception:
            # A miss: the engine builds the config again and reports
            # the failure against its cell.
            outcomes.append(None)
            continue
        tracer = tracers.get(task) if tracers is not None else None
        outcomes.append(cached_outcome(task, trace, fingerprint, store, tracer))
    return outcomes


def batch_label(key: str, group: list[SweepTask]) -> str:
    """Short human-readable tag for one batch group's progress lines."""
    return f"{key.split('-')[0]}[{len(group)}]"


def log_progress(
    task: SweepTask,
    result: AppResult,
    how: str,
    engine: str | None = None,
    batch: str | None = None,
) -> None:
    """One progress line per completed cell (shared with the runner).

    Grouped execution still reports cell by cell -- ``batch`` merely
    tags the line with the group the cell ran in, and ``engine`` with
    the replay engine that produced it.
    """
    fields = {
        "how": how,
        "app": task.app,
        "variant": task.variant,
        "line_size": task.line_size,
        "cycles": round(result.stats.cycles),
    }
    if engine and engine != SEQUENTIAL:
        fields["engine"] = engine
    if batch:
        fields["batch"] = batch
    log_event(_log, logging.INFO, "cell complete", **fields)
