"""The light front end never loads the engine (DESIGN.md §5l).

A fully cached artifact and the file-only subcommands run in a fresh
interpreter without bytecode caching (so every import compiles, as in a
clean checkout); afterwards no engine module may be in ``sys.modules``.
Needs nothing beyond pytest and the package itself.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import repro

SRC = str(Path(repro.__file__).resolve().parents[1])

#: Modules a light path must never import.
ENGINE_MODULES = (
    "repro.core.machine",
    "repro.core.hotpath",
    "repro.cache.hierarchy",
    "repro.cache.cache",
    "repro.trace.batch",
    "repro.trace.sweep",
    "repro.trace.replay",
    "repro.trace.kernels",
    "repro.trace.recorder",
    "multiprocessing",
    "concurrent.futures",
)

_LIGHT_SCRIPT = """
import contextlib, json, sys
from repro.__main__ import main

store, out = sys.argv[1], sys.argv[2]
runs = {
    "figure5": ["figure5", "--format", "json", "--quiet", "--scale", "0.02",
                "--trace-dir", store],
    "ls": ["corpus", "ls", "--trace-dir", store],
    "stat": ["corpus", "stat", "--json", "--trace-dir", store],
    "diff": ["timeline", "diff", out + "/manifest.json",
             out + "/manifest.json"],
}
for name, argv in runs.items():
    with open(f"{out}/{name}.out", "w") as handle:
        with contextlib.redirect_stdout(handle):
            code = main(argv)
    assert code == 0, (name, code)
print(json.dumps(sorted(sys.modules)), file=sys.stderr)
"""


def _env(**extra) -> dict:
    env = dict(os.environ, **extra)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    return env


def _cells(manifest: dict) -> list[dict]:
    """Manifest cells without the engine label (cold cells replay through
    a kernel; cached cells are read back)."""
    cells = []
    for entry in manifest["cells"]:
        entry = dict(entry)
        labels = dict(entry.get("labels", {}))
        labels.pop("engine", None)
        entry["labels"] = labels
        cells.append(entry)
    return cells


def test_cached_artifact_and_file_commands_stay_light(tmp_path):
    store = tmp_path / "store"
    cold = subprocess.run(
        [sys.executable, "-m", "repro", "figure5", "--format", "json",
         "--quiet", "--scale", "0.02", "--trace-dir", str(store)],
        capture_output=True, text=True, env=_env(), timeout=600,
    )
    assert cold.returncode == 0, cold.stderr
    cold_manifest = json.loads(cold.stdout)["figure5"]
    (tmp_path / "manifest.json").write_text(json.dumps(cold_manifest))

    light = subprocess.run(
        [sys.executable, "-c", _LIGHT_SCRIPT, str(store), str(tmp_path)],
        capture_output=True, text=True, timeout=600,
        env=_env(PYTHONDONTWRITEBYTECODE="1"),
    )
    assert light.returncode == 0, light.stderr
    modules = set(json.loads(light.stderr.strip().splitlines()[-1]))

    loaded = sorted(
        name for name in modules
        if name in ENGINE_MODULES
        or name == "repro.serve" or name.startswith("repro.serve.")
        or (name.startswith("repro.apps.") and name != "repro.apps.base")
    )
    assert loaded == []

    cached = json.loads((tmp_path / "figure5.out").read_text())["figure5"]
    assert {c["labels"]["engine"] for c in cached["cells"]} == {"sequential"}
    assert _cells(cached) == _cells(cold_manifest)
    # The simulated metric tree is the same; only the ``runs.*`` outcome
    # counters tell a cold run from a cached one.
    cold_runs = cold_manifest["metrics"].pop("runs")
    assert cached["metrics"].pop("runs")["cached"] == 42 == cold_runs["memoized"]
    assert cached["metrics"] == cold_manifest["metrics"]
    assert cached["summary"] == cold_manifest["summary"]
    assert cached["trace_hashes"] == cold_manifest["trace_hashes"]
    stat = json.loads((tmp_path / "stat.out").read_text())
    assert stat["traces"] == 16
