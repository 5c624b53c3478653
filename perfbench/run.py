"""The repository benchmark: host time of the simulator, end to end and
per layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout (``src/repro`` must exist).  The
workloads, metrics and the layer -> end-to-end -> workload prediction
table are described in ``BENCHMARK.json`` and ``perfbench/predictions.json``.

Every timing is host time, quoted at reference-host speed: the parent
times a fixed calibration loop between operations and divides each
operation's time by how much slower than the reference the host ran
around it (:class:`HostSpeed`).  Simulated statistics are a correctness
identity checked by :mod:`gate`, never a metric: the model is
unvalidated in absolute terms, and simulated caches start empty in
every cell.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs the same
workload with the layer wrappers of :mod:`layers` on every other
operation, prints the per-layer metrics plus the tracing overhead, and
writes the spans to ``.perfbench_work/out/``.  The last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics``.  A run whose outputs fail the gate prints ``correct: false``
and exits 1.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
import uuid
from pathlib import Path

import gate
import layers
import worker
from worker import OP_TIMEOUT, ROOT, SETUPS, SRC, corpus_bytes

WORK = ROOT / ".perfbench_work"
WORKER = Path(worker.__file__).resolve()

#: Workload scale of every Figure-5 cell: small enough that a full set of
#: benchmark runs fits an hour, large enough that capture still dominates
#: the cold sweep and the kernel the warm one.
SCALE = 0.1
#: Host-speed calibration: iterations of the reference loop, and the time
#: it takes on the reference host that normalized times are quoted for.
CAL_ITERATIONS = 600_000
CAL_REFERENCE_S = 0.100


def calibration_loop(iterations: int = CAL_ITERATIONS) -> int:
    """Fixed interpreter work: integer arithmetic, list and dict stores."""
    table: dict[int, int] = {}
    slots = [0] * 64
    total = 0
    for i in range(iterations):
        total += i & 63
        slots[i & 63] = total
        table[i & 255] = slots[(i * 7) & 63]
    return total


class HostSpeed:
    """How fast the host runs right now, relative to the reference host.

    Shared hosts change speed by up to 2x within tens of seconds as other
    tenants come and go, and every wall time moves with them.  The parent
    times :func:`calibration_loop` between operations, while no child
    runs; an operation's factor is the mean of the samples just before and
    after it, over :data:`CAL_REFERENCE_S`.  Dividing a time by its factor
    quotes it at reference-host speed, which removes the shared factor and
    leaves what the program changed.
    """

    def __init__(self) -> None:
        self._last = self._sample()
        self.samples = [self._last]
        self.factors: list[float] = []

    @staticmethod
    def _sample() -> float:
        started = time.perf_counter()
        calibration_loop()
        return time.perf_counter() - started

    def factor(self) -> float:
        """The factor of the operation that has just ended."""
        after = self._sample()
        self.samples.append(after)
        factor = (self._last + after) / 2 / CAL_REFERENCE_S
        self._last = after
        self.factors.append(factor)
        return factor


class OpFailed(RuntimeError):
    """One workload operation raised, was refused, or timed out."""


# ----------------------------------------------------------------------
# Run context
# ----------------------------------------------------------------------
class Run:
    """State of one benchmark run: its scratch directory, child processes,
    operation log and the cell sources the gate compares."""

    def __init__(self, args: argparse.Namespace) -> None:
        self.workload = args.workload
        self.seed = args.seed
        #: Seed of the Figure-5 cells simulated: the CLI has no seed flag
        #: and always simulates the paper's.
        self.cell_seed = (worker.DEFAULT_SEED if args.workload == "cli_cached"
                          else args.seed)
        self.seconds = args.seconds
        self.scale = args.scale
        self.traced = bool(args.trace)
        self.run_id = uuid.uuid4().hex[:12]
        self.dir = WORK / f"{self.workload}-s{self.seed}-{self.run_id}"
        (self.dir / "tmp").mkdir(parents=True)
        tempfile.tempdir = str(self.dir / "tmp")
        self.env = dict(os.environ, PYTHONPATH=str(SRC),
                        TMPDIR=str(self.dir / "tmp"))
        self._n = 0
        #: ``(traced, seconds)`` per operation, at reference-host speed
        #: (like every time below).
        self.ops: list[tuple[bool, float]] = []
        #: Wall time of each untraced operation including process start.
        self.walls: list[float] = []
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.setup: list[float] = []
        self.rss_kb: list[int] = []
        #: Every source of the 42 Figure-5 cells seen in this run.
        self.sources: list[tuple[str, dict]] = []
        #: Span dumps of the traced operations (one per child process).
        self.traces: list[dict] = []
        #: Cells of the traced operations (engine labels, refs).
        self.traced_cells: list[dict] = []
        self.extra_spans: list[dict] = []
        self.layer: dict[str, float] = {}
        #: End-to-end metrics a workload computes itself (serve_mix).
        self.e2e: dict[str, float] | None = None
        self.absent: dict[str, str] = {}
        #: Span names seen in the traced operations.
        self.traced_layers: set[str] = set()
        self.store: Path | None = None
        self.refs = 0
        self.speed = HostSpeed()

    def fresh_dir(self, stem: str) -> Path:
        self._n += 1
        path = self.dir / f"{stem}{self._n}"
        path.mkdir()
        return path

    def fail(self, message: str) -> None:
        self.failed += 1
        self.errors.append(message)
        print(f"perfbench: operation failed: {message}", file=sys.stderr)

    def worker(self, mode: str, traced: bool = False, **spec) -> dict:
        """Run one job in a fresh interpreter; raises :class:`OpFailed`."""
        self._n += 1
        name = f"w{self._n}"
        spec.update(mode=mode, seed=self.cell_seed, scale=self.scale,
                    run_id=self.run_id, process=name, traced=traced,
                    out=str(self.dir / f"{name}.out.json"))
        spec_path = self.dir / f"{name}.spec.json"
        spec_path.write_text(json.dumps(spec))
        spawned = time.monotonic()
        try:
            proc = subprocess.run(
                [sys.executable, str(WORKER), str(spec_path)],
                cwd=ROOT, env=self.env, stdout=subprocess.DEVNULL,
                stderr=subprocess.PIPE, text=True, timeout=OP_TIMEOUT,
            )
        except subprocess.TimeoutExpired as exc:
            raise OpFailed(f"{mode} worker timed out") from exc
        exited = time.monotonic()
        if proc.returncode != 0:
            tail = proc.stderr.strip().splitlines()[-3:]
            raise OpFailed(f"{mode} worker exit {proc.returncode}: {tail}")
        out = json.loads(Path(spec["out"]).read_text())
        out["spawned"], out["exited"] = spawned, exited
        if "trace" in out:
            self.traces.append(out["trace"])
        return out

    def keep_store(self, store: Path) -> None:
        """The latest store is measured at the end; drop the previous one."""
        if self.store is not None and self.store != store:
            shutil.rmtree(self.store, ignore_errors=True)
        self.store = store

    def measuring(self, started: float) -> bool:
        """Keep issuing operations until the window is spent; a traced run
        also needs at least one traced and one untraced operation."""
        if time.monotonic() - started < self.seconds:
            return True
        kinds = {traced for traced, _ in self.ops}
        return self.traced and len(kinds) < 2 and self.attempted < 4

    def next_traced(self) -> bool:
        return self.traced and self.attempted % 2 == 1


# ----------------------------------------------------------------------
# Shared measurements
# ----------------------------------------------------------------------
def median_ms(run: Run, traced: bool) -> float:
    values = [seconds for kind, seconds in run.ops if kind == traced]
    return statistics.median(values) * 1000.0 if values else 0.0


def run_sweeps(run: Run, clear_results: bool) -> None:
    """The measurement loop shared by the two Figure-5 workloads."""
    started = time.monotonic()
    direct_pending = run.workload == "fig5_cold"
    while run.measuring(started):
        traced = run.next_traced()
        run.attempted += 1
        if clear_results:
            store = run.store
        else:
            store = run.fresh_dir("store")
        try:
            out = run.worker(
                "sweep", traced=traced, store=str(store),
                clear_results=clear_results,
                direct_ref=traced and direct_pending,
            )
        except OpFailed as exc:
            run.fail(str(exc))
            continue
        factor = run.speed.factor()
        if traced:
            direct_pending = False
        if not clear_results:
            run.keep_store(store)
            run.setup.append((out["ready"] - out["spawned"]) / factor)
        sweep = out["passes"][0]
        run.ops.append((traced, sweep["seconds"] / factor))
        if traced:
            run.traced_cells.append(sweep["cells"])
        else:
            run.walls.append((out["exited"] - out["spawned"]) / factor)
            run.rss_kb.append(out["peak_rss_kb"])
        hows = {cell["how"] for cell in sweep["cells"].values()}
        expected = {"replayed"} if clear_results else {"captured", "replayed"}
        if hows != expected:
            run.fail(f"sweep cells answered as {sorted(hows)}, "
                     f"expected {sorted(expected)}")
            continue
        run.sources.append((f"sweep {run.attempted}", sweep["cells"]))


# ----------------------------------------------------------------------
# Workloads
# ----------------------------------------------------------------------
def fig5_cold(run: Run) -> None:
    """Empty store per sweep: capture, chunk sealing and store writes."""
    run_sweeps(run, clear_results=False)


def fig5_warm(run: Run) -> None:
    """Corpus built in set-up; every sweep replays it with results cleared."""
    for _ in range(SETUPS):
        store = run.fresh_dir("store")
        out = run.worker("sweep", store=str(store), build=True)
        run.setup.append((out["exited"] - out["spawned"]) / run.speed.factor())
        run.keep_store(store)
        cold, warm = out["passes"]
        run.sources += [("corpus build (cold)", cold["cells"]),
                        ("corpus build (warm)", warm["cells"])]
    run_sweeps(run, clear_results=True)


def serve_mix(run: Run) -> None:
    import serve_load

    serve_load.run_serve_mix(run)


def cli_cached(run: Run) -> None:
    """``python -m repro figure5 --format json`` against a cached store."""
    argv = ["figure5", "--format", "json", "--quiet",
            "--scale", str(run.scale)]
    reference = None
    for _ in range(SETUPS):
        store = run.fresh_dir("store")
        seconds, _, text = cli_invoke(run, argv + ["--trace-dir", str(store)],
                                      traced=False)
        run.setup.append(seconds / run.speed.factor())
        run.keep_store(store)
        if reference not in (None, cli_cells(text)):
            raise gate.GateError("cold CLI outputs differ between set-ups")
        reference = cli_cells(text)
    argv += ["--trace-dir", str(run.store)]
    outputs = []
    started = time.monotonic()
    while run.measuring(started):
        traced = run.next_traced()
        run.attempted += 1
        try:
            seconds, rss_kb, text = cli_invoke(run, argv, traced)
        except OpFailed as exc:
            run.fail(str(exc))
            continue
        seconds /= run.speed.factor()
        run.ops.append((traced, seconds))
        if not traced:
            run.walls.append(seconds)
            run.rss_kb.append(rss_kb)
        outputs.append(text)
    from repro.obs import validate_manifest

    for text in outputs:
        manifest = json.loads(text)["figure5"]
        validate_manifest(manifest)
        if cli_cells(text) != reference:
            raise gate.GateError("cached CLI output differs from the cold one")
    collected = run.worker("collect", store=str(run.store))["cells"]
    if {cell["how"] for cell in collected.values()} != {"cached"}:
        raise gate.GateError("the CLI's store is not fully cached")
    run.sources.append(("cli store", collected))


def cli_cells(text: str) -> dict:
    """Per-cell values of a figure5 JSON manifest (engine labels differ
    between cold and cached runs; values must not)."""
    manifest = json.loads(text)["figure5"]
    return {cell["id"]: cell["values"] for cell in manifest["cells"]}


def cli_invoke(run: Run, argv: list[str], traced: bool
               ) -> tuple[float, int, str]:
    """One CLI process; returns ``(seconds, peak RSS kB, stdout)``."""
    stdout_path = run.dir / "cli.stdout"
    if traced:
        out = run.worker("cli", traced=True, argv=argv,
                         stdout=str(stdout_path))
        if out["exit_code"] != 0:
            raise OpFailed(f"cli exit {out['exit_code']}")
        return (out["exited"] - out["spawned"], out["peak_rss_kb"],
                stdout_path.read_text())
    rss_kb = 0
    with open(stdout_path, "w") as handle:
        spawned = time.monotonic()
        proc = subprocess.Popen([sys.executable, "-m", "repro", *argv],
                                cwd=ROOT, env=run.env, stdout=handle,
                                stderr=subprocess.DEVNULL)
        try:
            # VmHWM is monotonic; the last read before exit is the peak to
            # within one poll interval.
            while proc.poll() is None:
                rss_kb = max(rss_kb, worker.peak_rss_kb(proc.pid))
                if time.monotonic() - spawned > OP_TIMEOUT:
                    raise OpFailed("cli timed out")
                time.sleep(0.005)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        seconds = time.monotonic() - spawned
    if proc.returncode != 0:
        raise OpFailed(f"cli exit {proc.returncode}")
    return seconds, rss_kb, stdout_path.read_text()


WORKLOADS = {
    "fig5_cold": fig5_cold,
    "fig5_warm": fig5_warm,
    "serve_mix": serve_mix,
    "cli_cached": cli_cached,
}


# ----------------------------------------------------------------------
# Metrics
# ----------------------------------------------------------------------
def end_to_end(run: Run) -> dict[str, float]:
    """The user-facing metrics, from the untraced operations."""
    if run.e2e is not None:
        return run.e2e
    p50 = statistics.median(s for traced, s in run.ops if not traced)
    return {
        "refs_per_s": run.refs / p50,
        "op_p50_ms": p50 * 1000.0,
        "ops_per_s": len(run.walls) / sum(run.walls),
        "peak_rss_mb": statistics.median(run.rss_kb) / 1024.0,
        "corpus_mb": sum(corpus_bytes(run.store).values()) / 1e6,
        "setup_s": statistics.median(run.setup),
    }


def sweep_layers(run: Run) -> dict[str, float]:
    """Per-layer metrics from the wrapper spans of the traced operations."""
    spans = [span for dump in run.traces for span in dump["spans"]]
    counts: dict[str, int] = {}
    for dump in run.traces:
        for name, value in dump["counts"].items():
            counts[name] = counts.get(name, 0) + value
    groups = layers.outermost(spans)
    run.traced_layers.update(groups)
    n = max(1, sum(1 for traced, _ in run.ops if traced))
    busy = lambda name: layers.busy(groups, name)  # noqa: E731
    calls = lambda name: len(groups.get(name, ()))  # noqa: E731
    ratio = lambda a, b: a / b if b else 0.0  # noqa: E731

    decode_chunks = sum(1 for span in groups.get("replay.decode", ())
                        if not span.get("attrs", {}).get("empty"))
    refs_by_engine: dict[str, int] = {}
    cells_by_engine: dict[str, int] = {}
    for cells in run.traced_cells:
        for cell in cells.values():
            refs_by_engine[cell["engine"]] = (
                refs_by_engine.get(cell["engine"], 0) + cell["refs"])
            cells_by_engine[cell["engine"]] = (
                cells_by_engine.get(cell["engine"], 0) + 1)
    n_cells = sum(cells_by_engine.values())
    capture_events = layers.attr_sum(groups, "recorder.capture", "events")
    raw = layers.attr_sum(groups, "format.chunk_seal", "raw_bytes")
    packed = layers.attr_sum(groups, "format.chunk_seal", "packed_bytes")
    return {
        "recorder.capture.busy_s": busy("recorder.capture") / n,
        "recorder.capture.ns_per_event":
            ratio(busy("recorder.capture") * 1e9, capture_events),
        "recorder.capture.share": ratio(busy("recorder.capture"), busy("sweep")),
        "core.direct_ref.busy_s": busy("core.direct_ref"),
        "format.chunk_seal.busy_s": busy("format.chunk_seal") / n,
        "format.compress_ratio": ratio(raw, packed),
        "format.trace_load.busy_s": busy("format.trace_load") / n,
        "store.trace_write.busy_s": busy("store.trace_write") / n,
        "store.trace_write.bytes":
            layers.attr_sum(groups, "store.trace_write", "bytes") / n,
        "store.trace_read.busy_s": busy("store.trace_read") / n,
        "store.result_write.busy_s": busy("store.result_write") / n,
        "store.result_read.busy_s": busy("store.result_read") / n,
        "store.result_read.hit_ratio": ratio(
            layers.attr_true(groups, "store.result_read", "hit"),
            calls("store.result_read")),
        "replay.decode.chunks": decode_chunks / n,
        "replay.decode.busy_s": busy("replay.decode") / n,
        "replay.decode.share": ratio(busy("replay.decode"), busy("sweep")),
        "replay.decode.sidecar_ratio": ratio(
            counts.get("replay.decode.sidecar_chunks", 0), decode_chunks),
        "replay.general.busy_s": busy("replay.general") / n,
        "replay.general.ns_per_ref": ratio(
            busy("replay.general") * 1e9, refs_by_engine.get("batch+general", 0)),
        "kernels.compile.calls": calls("kernels.compile") / n,
        "kernels.compile.busy_s": busy("kernels.compile") / n,
        "kernels.compile.hit_ratio": ratio(
            layers.attr_true(groups, "kernels.compile", "hit"),
            calls("kernels.compile")),
        "kernels.run.busy_s": busy("kernels.run") / n,
        "kernels.run.ns_per_ref": ratio(
            busy("kernels.run") * 1e9,
            refs_by_engine.get("batch+specialized", 0)),
        "kernels.run.share": ratio(busy("kernels.run"), busy("sweep")),
        "batch.groups": calls("batch.group") / n,
        "batch.specialized_ratio": ratio(
            cells_by_engine.get("batch+specialized", 0), n_cells),
        "sweep.busy_s": busy("sweep") / n,
        "runner.busy_s": busy("runner") / n,
        "cli.import_s": busy("cli.import") / n,
        "manifest.build.busy_s": busy("manifest.build") / n,
        "manifest.validate.calls": calls("manifest.validate") / n,
        "manifest.validate.busy_s": busy("manifest.validate") / n,
    }


#: Span behind a per-layer metric, where it is not the metric name minus
#: its last component.  A 0 whose span was never recorded gets a reason.
SPAN_OF = {
    "format.compress_ratio": "format.chunk_seal",
    "batch.groups": "batch.group",
    "batch.specialized_ratio": "batch.group",
    "runner.busy_s": "runner",
    "sweep.busy_s": "sweep",
    "cli.import_s": "cli.import",
}


def per_layer(run: Run, names: list[str], reference: dict) -> dict[str, float]:
    values = {name: 0.0 for name in names}
    values.update(sweep_layers(run) if run.traces else {})
    values.update(run.layer)
    sizes = corpus_bytes(run.store)
    values["store.corpus.trace_bytes"] = sizes["trace"]
    values["store.corpus.sidecar_bytes"] = sizes["sidecar"]
    values["store.corpus.result_bytes"] = sizes["result"]
    for key in ("refs", "cycles", "l1_miss", "l2_miss", "fwd_refs"):
        values[f"sim.{key}"] = sum(cell[key] for cell in reference.values())
    values["sim.digest"] = int(gate.matrix_digest(reference)[:13], 16)
    if run.workload != "serve_mix":
        untraced = median_ms(run, False)
        values["bench.tracing_overhead"] = (
            median_ms(run, True) / untraced - 1.0 if untraced else 0.0)
    else:
        run.absent["bench.tracing_overhead"] = (
            "serve spans are read from manifests the server emits anyway; "
            "the traced run installs no wrapper")
    missing = sorted({m for dump in run.traces for m in dump.get("missing", ())})
    for name, value in values.items():
        if value or name in run.absent or name in run.layer:
            continue
        span = SPAN_OF.get(name, name.rsplit(".", 1)[0])
        if span not in run.traced_layers:
            run.absent[name] = f"{span} not measured on {run.workload}" + (
                f"; wrapper targets missing: {missing}" if missing else "")
    return values


def fingerprint() -> dict:
    model = ""
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    commit = None
    try:
        # Only this checkout's own repository names the commit; a source
        # tree without one (or nested in another) has none.
        proc = subprocess.run(
            ["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT,
            capture_output=True, text=True, timeout=10,
        )
        lines = proc.stdout.split()
        if (proc.returncode == 0 and len(lines) == 2
                and Path(lines[0]).resolve() == ROOT):
            commit = lines[1]
    except (OSError, subprocess.SubprocessError):
        pass
    sha = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        sha.update(path.relative_to(SRC).as_posix().encode())
        sha.update(path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "cpu_model": model,
        "python": platform.python_version(),
        "commit": commit,
        "source_sha256": sha.hexdigest()[:16],
    }


# ----------------------------------------------------------------------
def parse_args(argv: list[str] | None, workloads: list[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads)
    parser.add_argument("--seed", type=int, default=worker.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--scale", type=float, default=SCALE,
        help="Figure-5 workload scale (the smoke tests shrink it; the "
             "pinned digests in golden.json hold for the default only)")
    args = parser.parse_args(argv)
    if args.seconds <= 0 or args.scale <= 0 or args.seed < 0:
        parser.error("--seconds and --scale must be > 0, --seed >= 0")
    return args


def main(argv: list[str] | None = None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    args = parse_args(argv, names)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program to measure: {SRC / 'repro'} is missing",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    run = Run(args)
    correct = True
    pinned = False
    try:
        try:
            WORKLOADS[run.workload](run)
            if not run.ops:
                raise OpFailed("no operation completed")
            pinned = gate.check_matrix(run.sources, run.cell_seed, run.scale)
        except gate.GateError as exc:
            correct = False
            run.errors.append(f"gate: {exc}")
            print(f"perfbench: CORRECTNESS GATE FAILED: {exc}", file=sys.stderr)
        except Exception as exc:  # a broken set-up fails the run, reported
            traceback.print_exc()
            run.fail(f"{type(exc).__name__}: {exc}")
        if run.failed:
            correct = False
        metrics: dict[str, dict] = {}
        if correct:
            reference = run.sources[0][1]
            run.refs = sum(cell["refs"] for cell in reference.values())
            declared = spec["per_layer" if args.trace else "end_to_end"]
            names = [m["name"] for m in declared]
            values = (per_layer(run, names, reference) if args.trace
                      else end_to_end(run))
            if list(values) != names:
                raise RuntimeError(f"metrics {list(values)} are not the ones "
                                   f"BENCHMARK.json declares: {names}")
            metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                       for m in declared}
        report = {
            "workload": run.workload, "seed": run.seed, "run_id": run.run_id,
            "scale": run.scale, "traced": run.traced,
            "fingerprint": fingerprint(), "golden_checked": pinned,
            "operations": len(run.ops), "errors": run.errors[:10],
            "host_factor": {
                "min": min(run.speed.factors, default=0.0),
                "median": statistics.median(run.speed.factors or [0.0]),
                "max": max(run.speed.factors, default=0.0),
            },
            "absent": run.absent,
        }
        out_dir = WORK / "out"
        out_dir.mkdir(parents=True, exist_ok=True)
        stem = f"{run.workload}-s{run.seed}-t{args.trace}-{run.run_id}"
        (out_dir / f"{stem}.json").write_text(json.dumps(
            {**report, "metrics": metrics, "ops": run.ops,
             "factors": run.speed.factors, "calibration_s": run.speed.samples,
             "peak_rss_kb": run.rss_kb},
            indent=1))
        if args.trace:
            spans = [s for dump in run.traces for s in dump["spans"]]
            (out_dir / f"{stem}.spans.json").write_text(json.dumps(
                {"run_id": run.run_id, "spans": spans + run.extra_spans}))
        for name, metric in metrics.items():
            print(f"  {name:34s} {metric['value']:>16.6g} {metric['unit']}",
                  file=sys.stderr)
        print("perfbench " + json.dumps(report))
        print(json.dumps({"correct": correct, "attempted": max(1, run.attempted),
                          "failed": run.failed, "metrics": metrics}))
        return 0 if correct else 1
    finally:
        shutil.rmtree(run.dir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
