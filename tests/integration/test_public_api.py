"""The package re-exports stay whole, and the benchmark still finds every
layer it times.

The package ``__init__`` modules re-export lazily (DESIGN.md §5l); each
public name must still resolve, to the very object its defining module
holds.
"""

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

PACKAGES = ("repro", "repro.trace", "repro.obs", "repro.apps", "repro.adapt",
            "repro.opts")

ROOT = Path(__file__).resolve().parents[2]

#: Where each exported constant is defined (classes and functions name
#: their own module).
CONSTANTS = {
    "NULL": "repro.core.machine",
    "WORD_SIZE": "repro.core.memory",
    "FORMAT_VERSION": "repro.trace.format",
    "SEQUENTIAL": "repro.trace.cells",
    "BATCH_GENERAL": "repro.trace.cells",
    "BATCH_SPECIALIZED": "repro.trace.cells",
    "COUNTER": "repro.obs.registry",
    "EMPTY": "repro.obs.registry",
    "GAUGE": "repro.obs.registry",
    "HISTOGRAM": "repro.obs.registry",
    "MANIFEST_SCHEMA": "repro.obs.manifest",
    "MANIFEST_VERSION": "repro.obs.manifest",
    "APPLICATIONS": "repro.apps.base",
    "FIGURE5_APPS": "repro.apps",
    "PHASE_APPS": "repro.apps",
    "POLICIES": "repro.adapt.config",
}


@pytest.mark.parametrize("package", PACKAGES)
def test_every_public_name_resolves(package):
    module = importlib.import_module(package)
    assert module.__all__, package
    for name in module.__all__:
        value = getattr(module, name)
        home = CONSTANTS.get(name) or value.__module__
        assert getattr(importlib.import_module(home), name) is value, (
            f"{package}.{name}"
        )
        assert name in dir(module)


@pytest.mark.parametrize("package", PACKAGES)
def test_unknown_name_is_an_attribute_error(package):
    module = importlib.import_module(package)
    with pytest.raises(AttributeError, match="no_such_name"):
        module.no_such_name


@pytest.mark.parametrize("package", PACKAGES)
def test_star_import(package):
    namespace: dict = {}
    exec(f"from {package} import *", namespace)
    module = importlib.import_module(package)
    for name in module.__all__:
        assert namespace[name] is getattr(module, name)


def test_apps_registry_is_full_through_the_package():
    from repro.apps import APPLICATIONS

    assert len(APPLICATIONS) == 10
    assert {"bh", "health", "mst_phase", "smv"} <= set(APPLICATIONS)


_LAYERS_SCRIPT = """
import json, sys
sys.path.insert(0, sys.argv[1])
import layers
import repro.__main__
log = layers.SpanLog("test", "cli")
layers.install(log)
print(json.dumps(log.missing))
"""


def test_benchmark_layers_all_found():
    """Every ``(module, qualname)`` the benchmark's layer wrappers patch
    still exists once its module is imported.  The wrappers stay for the
    life of a process, so they are installed in a child (after importing
    the CLI, as the benchmark's CLI operation does); the benchmark
    itself is only read, never changed."""
    src = str(ROOT / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", _LAYERS_SCRIPT, str(ROOT / "perfbench")],
        capture_output=True, text=True, env=env, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == []
