"""Per-layer spans recorded from outside the program.

The traced run wraps the public entry points of each ``repro`` layer
(capture, chunk sealing, store I/O, decode, kernels, batch groups, the
experiment runner, manifest build and validate) with a timer that
records one span per call: name, start, end, parent span and the run id
shared by every process of one benchmark run.  Spans stay in memory and
are written out when the process ends.  Nothing under ``src/`` changes;
an untraced run installs no wrapper at all.

A wrapper target that does not exist in the program under test (a layer
a later change removed or renamed) is skipped and listed in
``SpanLog.missing``, so its metrics read 0 with a recorded reason
instead of crashing the benchmark.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import time
from typing import Any, Callable, Iterator


class SpanLog:
    """In-memory span recorder for one process of a traced run."""

    def __init__(self, run_id: str, process: str) -> None:
        self.run_id = run_id
        self.process = process
        self.spans: list[dict[str, Any]] = []
        self.counts: dict[str, int] = {}
        self.missing: list[str] = []
        self._stack: list[dict[str, Any]] = []
        self._next = 0

    def open(self, name: str) -> dict[str, Any]:
        self._next += 1
        span = {
            "name": name,
            "id": f"{self.process}:{self._next}",
            "parent": self._stack[-1]["id"] if self._stack else None,
            "run_id": self.run_id,
            "start": time.monotonic(),
            "end": None,
        }
        self._stack.append(span)
        self.spans.append(span)
        return span

    def close(self, span: dict[str, Any], **attrs: Any) -> None:
        span["end"] = time.monotonic()
        if attrs:
            span["attrs"] = attrs
        # Pop through the span even if an inner one leaked open.
        while self._stack:
            if self._stack.pop() is span:
                break

    @contextlib.contextmanager
    def span(self, name: str) -> Iterator[dict[str, Any]]:
        record = self.open(name)
        try:
            yield record
        finally:
            self.close(record)

    def count(self, name: str, n: int = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + n

    def dump(self) -> dict[str, Any]:
        return {
            "run_id": self.run_id,
            "process": self.process,
            "clock": "monotonic",
            "spans": self.spans,
            "counts": self.counts,
            "missing": self.missing,
        }


def _timed(log: SpanLog, name: str, fn: Callable, attrs=None) -> Callable:
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        span = log.open(name)
        try:
            out = fn(*args, **kwargs)
        except BaseException:
            log.close(span, raised=True)
            raise
        log.close(span, **(attrs(out, args) if attrs else {}))
        return out

    return wrapper


def _timed_iter(log: SpanLog, name: str, fn: Callable) -> Callable:
    """Time each ``next()`` of a generator function; the consumer's work
    between items is not part of the span."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs) -> Iterator:
        items = iter(fn(*args, **kwargs))
        while True:
            span = log.open(name)
            try:
                item = next(items)
            except StopIteration:
                log.close(span, empty=True)
                return
            log.close(span, entries=getattr(item, "n", 0))
            yield item

    return wrapper


def _counted_iter(log: SpanLog, name: str, fn: Callable) -> Callable:
    @functools.wraps(fn)
    def wrapper(*args, **kwargs) -> Iterator:
        for item in fn(*args, **kwargs):
            log.count(name)
            yield item

    return wrapper


def _chunk_attrs(chunk, _args) -> dict:
    return {
        "raw_bytes": sum(chunk.raw_lens),
        "packed_bytes": sum(len(column) for column in chunk.data),
    }


def _trace_attrs(trace, _args) -> dict:
    return {"events": trace.event_count}


def _capture_attrs(out, _args) -> dict:
    return {"events": out[0].event_count}


def _result_read_attrs(result, _args) -> dict:
    return {"hit": result is not None}


def _path_bytes(path, _args) -> dict:
    try:
        return {"bytes": path.stat().st_size}
    except (AttributeError, OSError):
        return {}


def _session_chunk_attrs(_out, args) -> dict:
    return {"entries": args[1].n}


class Installer:
    """Replaces module and class attributes with timed wrappers for the
    rest of the process's life."""

    def __init__(self, log: SpanLog) -> None:
        self.log = log

    def _target(self, module: str, qualname: str):
        try:
            owner = importlib.import_module(module)
        except ImportError:
            return None, None
        parts = qualname.split(".")
        for part in parts[:-1]:
            owner = getattr(owner, part, None)
            if owner is None:
                return None, None
        return owner, parts[-1]

    def patch(self, module: str, qualname: str, make: Callable) -> None:
        owner, attr = self._target(module, qualname)
        if owner is None or attr not in vars(owner):
            self.log.missing.append(f"{module}.{qualname}")
            return
        raw = vars(owner)[attr]
        if isinstance(raw, classmethod):
            wrapped = classmethod(make(raw.__func__))
        else:
            wrapped = make(raw)
        setattr(owner, attr, wrapped)

    def timed(self, module: str, qualname: str, name: str, attrs=None) -> None:
        self.patch(module, qualname, lambda fn: _timed(self.log, name, fn, attrs))


def install(log: SpanLog) -> None:
    """Wrap every layer entry point the benchmark attributes time to."""
    inst = Installer(log)
    # trace.recorder / core: capture is called by name from the sweep.
    inst.timed("repro.trace.sweep", "capture_trace", "recorder.capture",
               _capture_attrs)
    # trace.format
    inst.timed("repro.trace.recorder", "make_chunk", "format.chunk_seal",
               _chunk_attrs)
    inst.timed("repro.trace.format", "Trace.load", "format.trace_load",
               _trace_attrs)
    # trace.store
    store = "repro.trace.store"
    inst.timed(store, "ArtifactStore.load_trace", "store.trace_read")
    inst.timed(store, "ArtifactStore.save_trace", "store.trace_write",
               _path_bytes)
    inst.timed(store, "ArtifactStore.load_result", "store.result_read",
               _result_read_attrs)
    inst.timed(store, "ArtifactStore.save_result", "store.result_write",
               _path_bytes)
    # trace.replay: decode is a generator consumed by the batch drive.
    inst.patch("repro.trace.batch", "iter_resolved_chunks",
               lambda fn: _timed_iter(log, "replay.decode", fn))
    inst.patch("repro.trace.replay", "_iter_sidecar_chunks",
               lambda fn: _counted_iter(log, "replay.decode.sidecar_chunks", fn))
    inst.timed("repro.trace.replay", "ReplaySession.run_chunk",
               "replay.general", _session_chunk_attrs)
    # trace.kernels
    inst.patch("repro.trace.kernels", "compiled_kernel",
               lambda fn: _compile_wrapper(log, fn))
    inst.timed("repro.trace.kernels", "SpecializedSession.run_chunk",
               "kernels.run", _session_chunk_attrs)
    # trace.batch
    inst.timed("repro.trace.sweep", "run_batch_group", "batch.group",
               lambda out, args: {"cells": len(args[0])})
    # experiments
    inst.timed("repro.experiments.runner", "ExperimentRunner.prime", "runner")
    inst.timed("repro.experiments.runner", "ExperimentRunner.run", "runner")
    # obs.manifest: build validates internally, through the module global.
    for module in ("repro.obs", "repro.obs.manifest"):
        inst.timed(module, "build_manifest", "manifest.build")
        inst.timed(module, "validate_manifest", "manifest.validate")


def _compile_wrapper(log: SpanLog, fn: Callable) -> Callable:
    cache = getattr(importlib.import_module("repro.trace.kernels"),
                    "_KERNEL_CACHE", None)

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        before = len(cache) if cache is not None else -1
        span = log.open("kernels.compile")
        try:
            return fn(*args, **kwargs)
        finally:
            hit = cache is not None and len(cache) == before
            log.close(span, hit=hit)

    return wrapper


# ----------------------------------------------------------------------
# Aggregation
# ----------------------------------------------------------------------
def outermost(spans: list[dict]) -> dict[str, list[dict]]:
    """Spans by name, dropping any span nested inside one of its own name
    (``runner.run`` inside ``runner.prime``), so busy time is not counted
    twice."""
    by_id = {span["id"]: span for span in spans}
    out: dict[str, list[dict]] = {}
    for span in spans:
        parent = by_id.get(span["parent"])
        nested = False
        while parent is not None:
            if parent["name"] == span["name"]:
                nested = True
                break
            parent = by_id.get(parent["parent"])
        if not nested and span["end"] is not None:
            out.setdefault(span["name"], []).append(span)
    return out


def busy(groups: dict[str, list[dict]], name: str) -> float:
    return sum(span["end"] - span["start"] for span in groups.get(name, ()))


def attr_sum(groups: dict[str, list[dict]], name: str, key: str) -> float:
    return sum(span.get("attrs", {}).get(key, 0) for span in groups.get(name, ()))


def attr_true(groups: dict[str, list[dict]], name: str, key: str) -> int:
    return sum(1 for span in groups.get(name, ()) if span.get("attrs", {}).get(key))
