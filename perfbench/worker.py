"""Child process of the benchmark: one fresh interpreter per operation.

``python perfbench/worker.py SPEC.json`` runs one job described by the
JSON spec and writes its result to ``spec["out"]``:

* ``sweep``   -- the 42-cell Figure-5 matrix through ``execute_sweep``
  (batch mode, one process) on the store at ``spec["store"]``; with
  ``clear_results`` the cached results are removed first, so a warm
  store is replayed rather than read back; with ``build`` the sweep is
  run twice (the second pass writes any missing decode sidecar) and the
  results are removed afterwards, leaving the warm corpus;
* ``collect`` -- read the 42 cells back from a store every one of which
  must already be cached, plus the event counts of the listed traces;
* ``cli``     -- ``python -m repro`` with the layer wrappers installed,
  timing the import of ``repro.__main__``.

With ``traced`` the layer wrappers of :mod:`layers` record spans.  The
wall time, ready time (after imports and store preparation) and the
process's own peak RSS (``VmHWM``) are reported for the parent.
"""

from __future__ import annotations

import json
import os
import random
import sys
import time
from contextlib import nullcontext
from pathlib import Path

import gate
import layers

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
#: The benchmark seed whose per-app seeds are the paper's ``APP_SEEDS``.
DEFAULT_SEED = 0
#: Set-ups per run; ``setup_s`` is their median.
SETUPS = 3
#: Per-operation timeout (seconds); an operation past it counts as failed.
OP_TIMEOUT = 120.0


def app_seeds(seed: int) -> dict[str, int]:
    """Per-app workload seeds: the paper's for the default benchmark seed,
    derived from ``seed`` otherwise."""
    from repro.apps import FIGURE5_APPS
    from repro.experiments.config import APP_SEEDS

    if seed == DEFAULT_SEED:
        return {app: APP_SEEDS[app] for app in FIGURE5_APPS}
    return {
        app: random.Random(f"perfbench:{seed}:{app}").randrange(1, 1 << 30)
        for app in FIGURE5_APPS
    }


def fig5_cells(seed: int, scale: float) -> list[dict]:
    """The 42 cells of Figure 5 as serve-style job specs."""
    from repro.apps import FIGURE5_APPS
    from repro.experiments.config import line_sizes_for

    seeds = app_seeds(seed)
    return [
        {"app": app, "variant": variant, "line_size": line_size,
         "scale": scale, "seed": seeds[app]}
        for app in FIGURE5_APPS
        for line_size in line_sizes_for(app)
        for variant in ("N", "L")
    ]


def cell_id(cell) -> str:
    """``app/lineB/variant`` of a job-spec dict or a ``SweepTask``."""
    if isinstance(cell, dict):
        return f"{cell['app']}/{cell['line_size']}B/{cell['variant']}"
    return f"{cell.app}/{cell.line_size}B/{cell.variant}"


def cell_info(result, how: str, engine: str) -> dict:
    """What the gate and the ``sim.*`` metrics need from one cell."""
    stats = result.stats
    return {
        "digest": gate.stats_digest(stats.dump()),
        "checksum": result.checksum,
        "refs": stats.loads.count + stats.stores.count,
        "cycles": stats.cycles,
        "l1_miss": stats.load_misses + stats.store_misses,
        "l2_miss": stats.l2_misses,
        "fwd_refs": stats.loads.forwarded + stats.stores.forwarded,
        "how": how,
        "engine": engine,
    }


def peak_rss_kb(pid: int | str = "self") -> int:
    """``VmHWM`` of a live process; 0 once it has exited."""
    try:
        with open(f"/proc/{pid}/status") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


def corpus_bytes(store: Path) -> dict[str, int]:
    """On-disk bytes of a store by kind, each inode counted once (the
    store hardlinks duplicate streams)."""
    seen: set[tuple[int, int]] = set()
    sizes = {"trace": 0, "sidecar": 0, "result": 0}
    kinds = {"traces": {".trace": "trace", ".resolved": "sidecar"},
             "results": {".json": "result"}}
    for sub, suffixes in kinds.items():
        for path in (store / sub).glob("*"):
            kind = suffixes.get(path.suffix)
            if kind is None:
                continue
            stat = path.stat()
            if (stat.st_dev, stat.st_ino) not in seen:
                seen.add((stat.st_dev, stat.st_ino))
                sizes[kind] += stat.st_size
    return sizes


def _tasks(spec: dict) -> list:
    from repro.trace.sweep import SweepTask

    return [SweepTask(c["app"], c["variant"], c["line_size"], c["scale"],
                      c["seed"])
            for c in fig5_cells(spec["seed"], spec["scale"])]


def _cells(results: dict, engines: dict) -> dict[str, dict]:
    return {cell_id(task): cell_info(result, how, engines.get(task, ""))
            for task, (result, how) in results.items()}


def _clear_results(store_root: Path) -> None:
    for path in (store_root / "results").glob("*.json"):
        path.unlink()


def _sweep(spec: dict, log: layers.SpanLog | None) -> dict:
    from repro.trace.store import ArtifactStore
    from repro.trace.sweep import execute_sweep

    store_root = Path(spec["store"])
    if spec.get("clear_results"):
        _clear_results(store_root)
    tasks = _tasks(spec)
    store = ArtifactStore(store_root)
    ready = time.monotonic()
    passes = []
    for _ in range(2 if spec.get("build") else 1):
        engines: dict = {}
        started = time.monotonic()
        with log.span("sweep") if log is not None else nullcontext():
            results = execute_sweep(tasks, store, jobs=1, batch=True,
                                    engines=engines)
        passes.append({
            "seconds": time.monotonic() - started,
            "cells": _cells(results, engines),
        })
        if spec.get("build"):
            _clear_results(store_root)
    out = {"ready": ready, "passes": passes}
    if spec.get("direct_ref") and log is not None:
        _direct_ref(tasks, passes[0]["cells"], log)
    return out


def _direct_ref(tasks, cells: dict, log: layers.SpanLog) -> None:
    """Run the capturing cells again direct, with no observer installed:
    capture minus this is the recording overhead."""
    from repro.apps import get_application
    from repro.apps.base import Variant

    for task in tasks:
        if cells[cell_id(task)]["how"] != "captured":
            continue
        app = get_application(task.app, scale=task.scale, seed=task.seed)
        with log.span("core.direct_ref"):
            app.run(Variant(task.variant), task.config())


def _collect(spec: dict) -> dict:
    from repro.trace.format import load_index
    from repro.trace.store import ArtifactStore
    from repro.trace.sweep import execute_sweep

    tasks = _tasks(spec)
    engines: dict = {}
    results = execute_sweep(tasks, ArtifactStore(spec["store"]), jobs=1,
                            batch=True, engines=engines)
    events = 0
    for name in spec.get("count_events", ()):
        events += load_index(Path(spec["store"]) / "traces" / name).event_count
    return {
        "cells": _cells(results, engines),
        "events": events,
    }


def _cli(spec: dict, log: layers.SpanLog) -> dict:
    with log.span("cli.import"):
        import repro.__main__ as entry
    layers.install(log)
    with open(spec["stdout"], "w") as handle:
        saved, sys.stdout = sys.stdout, handle
        try:
            with log.span("cli.main"):
                code = entry.main(spec["argv"])
        finally:
            sys.stdout = saved
    return {"exit_code": code}


def main(argv: list[str]) -> int:
    spec = json.loads(Path(argv[1]).read_text())
    log = None
    if spec.get("traced"):
        log = layers.SpanLog(spec["run_id"], spec["process"])
    if spec["mode"] == "cli":
        out = _cli(spec, log)
    else:
        if log is not None:
            layers.install(log)
        out = _sweep(spec, log) if spec["mode"] == "sweep" else _collect(spec)
    out["peak_rss_kb"] = peak_rss_kb()
    if log is not None:
        out["trace"] = log.dump()
    tmp = spec["out"] + ".tmp"
    Path(tmp).write_text(json.dumps(out))
    os.replace(tmp, spec["out"])
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
