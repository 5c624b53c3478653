"""Tests of the benchmark itself: ``python3 -m pytest perfbench/tests``.

The smoke runs use a tiny Figure-5 scale and a one-second window, so
they check plumbing, metric names and the correctness gate, not speed.
"""

from __future__ import annotations

import copy
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent.parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import gate  # noqa: E402
import layers  # noqa: E402
import serve_load  # noqa: E402
import worker  # noqa: E402

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in BENCH["workloads"]]


def _bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args], cwd=cwd,
        capture_output=True, text=True, timeout=300,
    )


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_prints_declared_metrics(workload, trace):
    proc = _bench("--workload", workload, "--seed", "1", "--seconds", "1",
                  "--trace", trace, "--scale", "0.02")
    assert proc.returncode == 0, proc.stderr[-2000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    declared = BENCH["per_layer" if trace == "1" else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in declared]
    for metric in declared:
        printed = result["metrics"][metric["name"]]
        assert printed["unit"] == metric["unit"]
        assert isinstance(printed["value"], (int, float))
    if trace == "0":
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_refuses_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _bench("--workload", WORKLOADS[0], "--seed", "1", "--seconds", "1",
                  "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def _cells() -> dict[str, dict]:
    cells = {}
    for app in ("health", "mst"):
        for line in (32, 64):
            for variant in "NL":
                cells[f"{app}/{line}B/{variant}"] = {
                    "digest": gate.stats_digest({"app": app, "line": line,
                                                 "variant": variant}),
                    "checksum": hash((app, line)) & 0xFFFF,
                }
    return cells


def test_gate_passes_identical_sources():
    cells = _cells()
    assert gate.check_matrix([("a", cells), ("b", copy.deepcopy(cells))],
                             seed=1, scale=0.5) is False


def test_gate_trips_on_injected_stats_mismatch():
    cells = _cells()
    tampered = copy.deepcopy(cells)
    tampered["mst/64B/L"]["digest"] = gate.stats_digest({"cycles": 1.0})
    with pytest.raises(gate.GateError, match="mst/64B/L digest"):
        gate.check_matrix([("a", cells), ("b", tampered)], seed=1, scale=0.5)


def test_gate_trips_on_checksum_change_across_variants():
    cells = _cells()
    cells["health/32B/L"]["checksum"] += 1
    with pytest.raises(gate.GateError, match="health/32B"):
        gate.check_matrix([("a", cells)], seed=1, scale=0.5)


def test_gate_trips_on_pinned_digest_mismatch():
    golden = json.loads(gate.GOLDEN_PATH.read_text())
    seed = next(iter(golden["matrix_digest"]))
    with pytest.raises(gate.GateError, match="pinned"):
        gate.check_golden(_cells(), int(seed), golden["scale"])


def test_default_seed_is_the_papers():
    from repro.experiments.config import APP_SEEDS

    seeds = worker.app_seeds(worker.DEFAULT_SEED)
    assert seeds == {app: APP_SEEDS[app] for app in seeds}
    assert worker.app_seeds(5) == worker.app_seeds(5) != seeds
    assert len(worker.fig5_cells(0, 0.1)) == 42


def test_serve_streams_are_seeded_and_unique():
    cells = worker.fig5_cells(2, 0.1)

    def streams(seed, cells):
        sequence = serve_load.Sequence(seed, cells)
        return ([sequence.next("hit") for _ in range(84)],
                [sequence.next("miss") for _ in range(120)])

    hits, misses = streams(2, cells)
    assert (hits, misses) == streams(2, cells)
    assert (hits, misses) != streams(3, worker.fig5_cells(3, 0.1))
    assert {kind for kind, _ in hits} == {"hit"}
    assert sorted(json.dumps(spec, sort_keys=True) for _, spec in hits[:42]) \
        == sorted(json.dumps(cell, sort_keys=True) for cell in cells)
    kinds = [kind for kind, _ in misses]
    assert kinds.count("replay") == kinds.count("capture") == 60
    for kind in ("replay", "capture"):
        specs = [json.dumps(spec, sort_keys=True)
                 for k, spec in misses if k == kind]
        assert len(set(specs)) == len(specs)


def test_outermost_drops_nested_spans_of_the_same_name():
    log = layers.SpanLog("run", "p")
    with log.span("runner"):
        with log.span("runner"):
            with log.span("manifest.build"):
                pass
    groups = layers.outermost(log.spans)
    assert len(groups["runner"]) == 1
    assert len(groups["manifest.build"]) == 1
    assert layers.busy(groups, "runner") >= layers.busy(groups, "manifest.build")
