"""The ``serve_mix`` workload: mixed closed-loop traffic against the
simulation service.

``python -m repro serve --port 0 --workers 1`` runs in its own process
(process group).  Set-up boots it to ``/healthz`` and answers the 42
Figure-5 cells through it, which leaves their traces and results in the
server's store.  The load process then drives it closed-loop with two
keep-alive connections on one asyncio loop, each waiting for its
manifest before sending the next request.  The requests are a pure
function of the benchmark seed and the request index:

* the hit connection asks for Figure-5 cells answered during set-up,
  served by the warm probe (result read, manifest build and validate,
  HTTP);
* the miss connection alternates, in seeded order, a replay -- a warm
  trace under a not-yet-run miss-path config (victim cache with a
  distinct entry count), which takes the general ``ReplaySession``
  interpreter in the worker -- and a capture of an app under a fresh
  seed (capture plus a store write).

Per-layer numbers come from the span tree each /v3 manifest carries and
from ``/metrics`` deltas over the window; the server is not wrapped.
"""

from __future__ import annotations

import asyncio
import json
import math
import os
import random
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import gate
import worker

#: The load pauses this often (seconds) for a host-speed sample.
PART_SECONDS = 3.0
#: Capture seeds start above every derived per-app seed.
CAPTURE_SEED_BASE = 1 << 30


class Server:
    """One ``repro serve`` process and its worker pool."""

    def __init__(self, env: dict, store: Path) -> None:
        self.env = env
        self.store = store
        self.proc: subprocess.Popen | None = None
        self.port = 0
        self._log = store.parent / f"{store.name}.serve.log"

    def start(self) -> None:
        with open(self._log, "w") as log:
            self.proc = subprocess.Popen(
                [sys.executable, "-m", "repro", "serve", "--port", "0",
                 "--workers", "1", "--trace-dir", str(self.store), "--quiet"],
                cwd=worker.ROOT, env=self.env,
                stdout=log, stderr=subprocess.STDOUT, start_new_session=True,
            )
        deadline = time.monotonic() + worker.OP_TIMEOUT
        while not self.port:
            text = self._log.read_text()
            if "listening on http://" in text:
                self.port = int(text.split("listening on http://", 1)[1]
                                .split()[0].rsplit(":", 1)[1])
                break
            if self.proc.poll() is not None or time.monotonic() > deadline:
                raise RuntimeError(f"server did not start: {text[-400:]}")
            time.sleep(0.01)
        status, body = asyncio.run(self.get("/healthz"))
        if status != 200 or body.get("status") != "ok":
            raise RuntimeError(f"/healthz answered {status} {body}")

    def client(self) -> "Client":
        return Client("127.0.0.1", self.port)

    async def get(self, path: str) -> tuple[int, dict]:
        client = self.client()
        try:
            return await client.request("GET", path)
        finally:
            await client.close()

    def pids(self) -> list[int]:
        """The server and every descendant (the worker pool)."""
        found = [self.proc.pid]
        for pid in found:
            for task in Path(f"/proc/{pid}/task").glob("*"):
                try:
                    found += [int(c) for c in (task / "children").read_text().split()]
                except OSError:
                    pass
        return found

    def stop(self) -> None:
        """Graceful drain; then make sure the whole group is gone."""
        if self.proc is None:
            return
        pids = self.pids() if self.proc.poll() is None else []
        try:
            self.proc.send_signal(signal.SIGTERM)
            self.proc.wait(timeout=30)
        except (subprocess.TimeoutExpired, ProcessLookupError):
            pass
        try:
            os.killpg(self.proc.pid, signal.SIGKILL)
        except (ProcessLookupError, PermissionError):
            pass
        self.proc.wait()
        deadline = time.monotonic() + 10
        for pid in pids:
            while Path(f"/proc/{pid}").exists() and time.monotonic() < deadline:
                time.sleep(0.01)
        self.proc = None


class Client:
    """One keep-alive HTTP/1.1 connection speaking JSON.

    The load process drives its connections from one asyncio loop rather
    than from threads: two client threads would hand the interpreter lock
    to each other in 5 ms slices while parsing manifests, which adds
    milliseconds of client-side noise to every few-millisecond hit.
    """

    def __init__(self, host: str, port: int) -> None:
        self.host = host
        self.port = port
        self._reader: asyncio.StreamReader | None = None
        self._writer: asyncio.StreamWriter | None = None

    async def request(self, method: str, path: str,
                      body: dict | None = None) -> tuple[int, dict]:
        return await asyncio.wait_for(self._request(method, path, body),
                                      worker.OP_TIMEOUT)

    async def _request(self, method: str, path: str,
                       body: dict | None) -> tuple[int, dict]:
        if self._writer is None:
            self._reader, self._writer = await asyncio.open_connection(
                self.host, self.port)
        payload = b"" if body is None else json.dumps(body).encode()
        self._writer.write(
            f"{method} {path} HTTP/1.1\r\nHost: {self.host}\r\n"
            f"Content-Type: application/json\r\n"
            f"Content-Length: {len(payload)}\r\n\r\n".encode() + payload)
        await self._writer.drain()
        status = int((await self._reader.readline()).split(b" ", 2)[1])
        length = 0
        while (line := await self._reader.readline()) not in (b"\r\n", b""):
            name, _, value = line.decode("latin-1").partition(":")
            if name.strip().lower() == "content-length":
                length = int(value)
        raw = await self._reader.readexactly(length) if length else b"{}"
        return status, json.loads(raw)

    async def answer(self, spec: dict) -> dict:
        """Submit one job and wait for its manifest; raises on any refusal."""
        status, body = await self.request("POST", "/jobs", spec)
        if status not in (200, 202):
            raise RuntimeError(f"submit refused: {status} {body.get('error')}")
        while body["state"] not in ("done", "failed"):
            status, body = await self.request(
                "GET", f"/jobs/{body['id']}?wait=30")
            if status != 200:
                raise RuntimeError(f"poll failed: {status}")
        if body["state"] != "done":
            raise RuntimeError(f"job failed: {body.get('error')}")
        return body["manifest"]

    async def close(self) -> None:
        if self._writer is not None:
            self._writer.close()
            try:
                await self._writer.wait_closed()
            except OSError:
                pass
            self._writer = None


class Sequence:
    """The seeded request streams: one of hits, one of misses.

    Each connection owns one stream.  Keeping the misses on their own
    connection keeps the worker busy for the whole window, so every hit
    is served beside a running simulation; with misses scattered among
    the hits, about half the hits would meet an idle worker and the hit
    median would sit between the two latency modes and jump from run to
    run.
    """

    def __init__(self, seed: int, cells: list[dict]) -> None:
        self.seed = seed
        self.cells = cells
        rng = random.Random(f"perfbench-serve:{seed}")
        self.hit_order = rng.sample(range(len(cells)), len(cells))
        self.replay_order = rng.sample(range(len(cells)), len(cells))
        self.apps = sorted({cell["app"] for cell in cells})
        self.issued = {"hit": 0, "miss": 0}

    def hit(self, index: int) -> tuple[str, dict]:
        return "hit", dict(self.cells[self.hit_order[index % len(self.cells)]])

    def miss(self, index: int) -> tuple[str, dict]:
        """A replay and a capture per pair, in seeded order."""
        pair, pos = divmod(index, 2)
        kinds = ["replay", "capture"]
        random.Random(f"perfbench-serve:{self.seed}:{pair}").shuffle(kinds)
        if kinds[pos] == "replay":
            spec = dict(self.cells[self.replay_order[pair % len(self.cells)]])
            spec.update(mechanism="victim_cache",
                        vc_entries=1 + pair // len(self.cells))
            return "replay", spec
        app = self.apps[pair % len(self.apps)]
        template = next(c for c in self.cells if c["app"] == app)
        spec = dict(template, seed=CAPTURE_SEED_BASE + pair,
                    variant="NL"[(pair // len(self.apps)) % 2])
        return "capture", spec

    def next(self, stream: str) -> tuple[str, dict]:
        index = self.issued[stream]
        self.issued[stream] += 1
        return getattr(self, stream)(index)


async def prime(server: Server, cells: list[dict]) -> dict[str, dict]:
    client = server.client()
    try:
        return {worker.cell_id(spec): await client.answer(spec)
                for spec in cells}
    finally:
        await client.close()


def drive(run, server: Server, sequence: Sequence) -> tuple[list, float]:
    """Closed loop until the window is spent, paused every
    :data:`PART_SECONDS` for a host-speed sample; returns the records and
    the window, both at reference-host speed."""
    records: list[tuple[str, float, dict | None, str | None]] = []
    window = 0.0
    started = time.monotonic()
    while time.monotonic() - started < run.seconds:
        remaining = run.seconds - (time.monotonic() - started)
        part, seconds = asyncio.run(_drive_part(
            server, sequence, min(PART_SECONDS, remaining)))
        factor = run.speed.factor()
        records += [(kind, s / factor, manifest, error)
                    for kind, s, manifest, error in part]
        window += seconds / factor
    return records, window


async def _drive_part(server: Server, sequence: Sequence, seconds: float
                      ) -> tuple[list, float]:
    records: list[tuple[str, float, dict | None, str | None]] = []
    started = time.monotonic()

    async def loop(stream: str) -> None:
        client = server.client()
        try:
            while time.monotonic() - started < seconds:
                kind, spec = sequence.next(stream)
                sent = time.monotonic()
                try:
                    manifest, error = await client.answer(spec), None
                except (OSError, RuntimeError, ValueError,
                        asyncio.IncompleteReadError,
                        asyncio.TimeoutError) as exc:
                    manifest, error = None, f"{kind}: {exc!r}"
                    await client.close()
                records.append((kind, time.monotonic() - sent, manifest, error))
        finally:
            await client.close()

    await asyncio.gather(loop("hit"), loop("miss"))
    return records, time.monotonic() - started


def serve_counters(server: Server) -> dict:
    _, body = asyncio.run(server.get("/metrics"))
    serve = body["metrics"]["serve"]
    return {
        "hit": serve["cache"]["hit"], "miss": serve["cache"]["miss"],
        "coalesced": serve["jobs"]["coalesced"],
        "batch_folded": serve["jobs"]["batch_folded"],
        "timeouts": serve["jobs"]["timeouts"],
        "restarts": serve["workers"]["restarts"],
    }


def refs_of(manifest: dict) -> int:
    ref = manifest["metrics"]["ref"]
    return ref["load"]["count"] + ref["store"]["count"]


def percentile(values: list[float], q: float) -> float:
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def run_serve_mix(run) -> None:
    cells = worker.fig5_cells(run.cell_seed, run.scale)
    server = None
    try:
        for _ in range(worker.SETUPS):
            if server is not None:
                server.stop()
                shutil.rmtree(server.store, ignore_errors=True)
            store = run.fresh_dir("store")
            started = time.monotonic()
            server = Server(run.env, store)
            server.start()
            primed = asyncio.run(prime(server, cells))
            run.setup.append((time.monotonic() - started) / run.speed.factor())
        run.store = server.store
        # Peak RSS is the footprint under the traffic mix, not set-up's.
        for pid in server.pids():
            Path(f"/proc/{pid}/clear_refs").write_text("5")
        before = serve_counters(server)
        traces_before = {p.name for p in (server.store / "traces").glob("*.trace")}
        records, window = drive(run, server, Sequence(run.cell_seed, cells))
        after = serve_counters(server)
        rss_kb = {pid: worker.peak_rss_kb(pid) for pid in server.pids()}
    finally:
        if server is not None:
            server.stop()
    new_traces = sorted({p.name for p in (run.store / "traces").glob("*.trace")}
                        - traces_before)
    collected = run.worker("collect", store=str(run.store),
                           count_events=new_traces)
    if {cell["how"] for cell in collected["cells"].values()} != {"cached"}:
        raise gate.GateError("serve store lost Figure-5 results")
    run.sources.append(("serve store", collected["cells"]))
    check_records(run, records, primed)
    summarize(run, records, window, rss_kb, before, after, collected["events"])


def check_records(run, records: list, primed: dict[str, dict]) -> None:
    """Count failures; validate every manifest; hits equal set-up answers."""
    from repro.obs import validate_manifest

    expected = {"hit": "cached", "replay": "replayed", "capture": "captured"}
    for manifest in primed.values():
        validate_manifest(manifest)
    for kind, _seconds, manifest, error in records:
        run.attempted += 1
        if error is not None:
            run.fail(error)
            continue
        validate_manifest(manifest)
        how = manifest["summary"]["how"]
        if how != expected[kind]:
            raise gate.GateError(f"{kind} request answered as {how!r}")
        if kind == "hit":
            cell = manifest["artifact"].split("/", 1)[1]
            reference = primed[cell]
            if (manifest["metrics"] != reference["metrics"]
                    or manifest["cells"][0]["checksum"]
                    != reference["cells"][0]["checksum"]):
                raise gate.GateError(f"hit {cell} differs from its set-up answer")


def summarize(run, records, window, rss_kb, before, after, events) -> None:
    ok = [(kind, s, m) for kind, s, m, error in records if error is None]
    by_kind: dict[str, list[float]] = {}
    for kind, seconds, _ in ok:
        by_kind.setdefault(kind, []).append(seconds * 1000.0)
    run.ops = [(False, seconds) for _, seconds, _ in ok]
    run.rss_kb = list(rss_kb.values())
    run.e2e = {
        "refs_per_s": sum(refs_of(m) for _, _, m in ok) / window,
        "op_p50_ms": statistics.median(s for _, s, _ in ok) * 1000.0,
        "ops_per_s": len(ok) / window,
        "peak_rss_mb": sum(rss_kb.values()) / 1024.0,
        "corpus_mb": sum(worker.corpus_bytes(run.store).values()) / 1e6,
        "setup_s": statistics.median(run.setup),
    }
    if not run.traced:
        return
    walls: dict[str, list[float]] = {}
    ipc: list[float] = []
    replay_refs = 0
    for kind, _, manifest in ok:
        named = {}
        for span in manifest["spans"]:
            walls.setdefault(span["name"], []).append(span["wall_seconds"])
            named[span["name"]] = span["wall_seconds"]
            run.extra_spans.append({
                "name": span["name"], "id": span.get("span_id"),
                "parent": span.get("parent_id"), "run_id": run.run_id,
                "trace_id": span.get("trace_id"), "clock": "epoch",
                "start": span["start"],
                "end": span["start"] + span["wall_seconds"],
            })
        if "serve.execute" in named and "worker.execute" in named:
            ipc.append(named["serve.execute"] - named["worker.execute"])
        if kind == "replay":
            replay_refs += refs_of(manifest)
    n = len(ok)
    total = lambda name: sum(walls.get(name, ()))  # noqa: E731
    median_ms = lambda xs: statistics.median(xs) * 1000.0 if xs else 0.0  # noqa: E731
    delta = {key: after[key] - before[key] for key in after}
    hits = by_kind.get("hit", [])
    run.layer.update({
        "recorder.capture.busy_s": total("trace.capture") / n,
        "recorder.capture.ns_per_event":
            total("trace.capture") * 1e9 / events if events else 0.0,
        "store.trace_write.busy_s": total("store.trace_write") / n,
        "store.trace_read.busy_s": total("trace.load") / n,
        "store.result_read.busy_s": total("store.result_probe") / n,
        "store.result_write.busy_s": total("store.result_write") / n,
        "replay.general.busy_s": total("replay.run") / n,
        "replay.general.ns_per_ref":
            total("replay.run") * 1e9 / replay_refs if replay_refs else 0.0,
        "serve.probe_ms": median_ms(walls.get("serve.probe", [])),
        "serve.queue_wait_ms": median_ms(walls.get("serve.queue.wait", [])),
        "serve.worker_ms": median_ms(walls.get("worker.execute", [])),
        "serve.ipc_ms": median_ms(ipc),
        "serve.cache_hit_ratio":
            delta["hit"] / (delta["hit"] + delta["miss"])
            if delta["hit"] + delta["miss"] else 0.0,
        "serve.coalesced": delta["coalesced"],
        "serve.batch_folded": delta["batch_folded"],
        "serve.timeouts": delta["timeouts"],
        "serve.worker_restarts": delta["restarts"],
        "serve.hits": len(hits),
        "serve.hit_p50_ms": statistics.median(hits) if hits else 0.0,
        "serve.hit_p99_ms": percentile(hits, 0.99) if hits else 0.0,
        "serve.replay_p50_ms": statistics.median(by_kind.get("replay", [0.0])),
        "serve.capture_p50_ms": statistics.median(by_kind.get("capture", [0.0])),
    })
    run.absent["store.result_read.hit_ratio"] = (
        "serve manifests time the result probe but do not say whether it hit; "
        "see serve.cache_hit_ratio")
    if len(hits) < 1000:
        run.absent["serve.hit_p99_ms"] = (
            f"only {len(hits)} hits: fewer than 10 lie beyond p99")
