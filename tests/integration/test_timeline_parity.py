"""Timeline invariants across execution modes (DESIGN.md §5d).

Three guarantees pinned here:

1. **Replay parity.**  A trace replay produces byte-for-byte the same
   window series and heatmap as the direct run of the same cell -- the
   timeline is built solely from replay-faithful metrics, and both paths
   tick at the same points (data references, at their initial address).
2. **Non-perturbation.**  Enabling the sampler (or the event stream,
   which forces the general path) never changes simulated statistics or
   application checksums.
3. **Persistence.**  Timeline payloads survive the on-disk result cache
   round-trip, and the experiment runner folds them into schema-valid
   ``/v2`` manifests.
"""

import pytest

from repro.apps import get_application
from repro.apps.base import Variant
from repro.cache.hierarchy import HierarchyConfig
from repro.core.machine import MachineConfig
from repro.experiments.config import APP_SEEDS
from repro.trace.recorder import capture_trace
from repro.trace.replay import replay_trace

SCALE = 0.05
INTERVAL = 500

CASES = [
    pytest.param("health", Variant.L, 32, id="health-L-32B"),
    pytest.param("health", Variant.N, 32, id="health-N-32B"),
    pytest.param("mst", Variant.L, 64, id="mst-L-64B"),
]


def _config(line_size, **overrides):
    return MachineConfig(
        hierarchy=HierarchyConfig(line_size=line_size), **overrides
    )


def _run_direct(app_name, variant, line_size, **overrides):
    app = get_application(app_name, scale=SCALE, seed=APP_SEEDS[app_name])
    return app.run(variant, _config(line_size, **overrides))


class TestReplayParity:
    @pytest.mark.parametrize("app_name,variant,line_size", CASES)
    def test_replay_reproduces_direct_timeline(self, app_name, variant, line_size):
        config = _config(line_size, timeline_interval=INTERVAL)
        trace, _ = capture_trace(
            app_name, variant, config, SCALE, APP_SEEDS[app_name]
        )
        replayed = replay_trace(trace, config)
        direct = _run_direct(
            app_name, variant, line_size, timeline_interval=INTERVAL
        )
        assert direct.timeline is not None
        assert replayed.timeline is not None
        assert direct.timeline["window_count"] > 1, "workload too small to window"
        assert replayed.timeline["windows"] == direct.timeline["windows"]
        assert replayed.timeline["heatmap"] == direct.timeline["heatmap"]
        assert replayed.timeline == direct.timeline
        # Replay parity of the stats themselves (incl. the chain-length
        # histogram now carried through the trace format).
        assert replayed.stats.dump() == direct.stats.dump()

    def test_forwarding_chases_visible_in_windows(self):
        """The L variant's chain walks must actually show up somewhere."""
        direct = _run_direct(
            "eqntott", Variant.L, 32, timeline_interval=INTERVAL
        )
        assert sum(direct.timeline["windows"]["chases"]) > 0
        heat = direct.timeline["heatmap"]["regions"]
        assert sum(entry["forwarded"] for entry in heat.values()) > 0


class TestNonPerturbation:
    @pytest.mark.parametrize("app_name,variant,line_size", CASES)
    def test_sampling_does_not_change_stats(self, app_name, variant, line_size):
        baseline = _run_direct(app_name, variant, line_size)
        sampled = _run_direct(
            app_name, variant, line_size, timeline_interval=INTERVAL
        )
        assert baseline.timeline is None
        assert sampled.checksum == baseline.checksum
        assert sampled.stats.dump() == baseline.stats.dump()

    def test_events_mode_stats_bit_exact(self):
        """Events force the general path; stats must not move."""
        baseline = _run_direct("eqntott", Variant.L, 32)
        evented = _run_direct(
            "eqntott", Variant.L, 32,
            timeline_interval=INTERVAL, events_capacity=256,
        )
        assert evented.checksum == baseline.checksum
        assert evented.stats.dump() == baseline.stats.dump()
        payload = evented.timeline["events"]
        assert payload["total"] > 0
        assert payload["counts"].get("fwd.walk", 0) > 0

    def test_chain_length_histogram_in_stats(self):
        result = _run_direct("eqntott", Variant.L, 32)
        hist = result.stats.forwarding_chain_hist
        assert hist, "L variant must walk forwarding chains"
        assert all(
            isinstance(hops, int) and hops >= 1 for hops in hist
        )
        snapshot = result.stats.to_snapshot()
        assert snapshot.get("fwd.chain_length") == hist


class TestPersistenceAndManifest:
    def test_result_cache_roundtrips_timeline(self, tmp_path):
        from repro.trace.store import ArtifactStore
        from repro.trace.sweep import SweepTask, run_task

        task = SweepTask(
            app="health", variant="L", line_size=32, scale=SCALE,
            seed=APP_SEEDS["health"], timeline_interval=INTERVAL,
        )
        store = ArtifactStore(str(tmp_path))
        first, how_first = run_task(task, store)
        assert how_first == "captured"
        second, how_second = run_task(task, store)
        assert how_second == "cached"
        assert second.timeline == first.timeline
        assert second.timeline is not None

    def test_sampled_and_unsampled_results_cached_separately(self, tmp_path):
        from repro.trace.store import ArtifactStore
        from repro.trace.sweep import SweepTask, run_task

        store = ArtifactStore(str(tmp_path))
        plain = SweepTask(
            app="health", variant="L", line_size=32, scale=SCALE,
            seed=APP_SEEDS["health"],
        )
        sampled = SweepTask(
            app="health", variant="L", line_size=32, scale=SCALE,
            seed=APP_SEEDS["health"], timeline_interval=INTERVAL,
        )
        run_task(plain, store)
        result, how = run_task(sampled, store)
        # Same trace (workload identity), different config fingerprint:
        # the sampled cell replays rather than hitting the plain result.
        assert how == "replayed"
        assert result.timeline is not None

    def test_events_cells_run_direct_even_with_warm_trace(self, tmp_path):
        """Replay can't observe discrete events, so --events re-runs direct."""
        from repro.trace.store import ArtifactStore
        from repro.trace.sweep import SweepTask, run_task

        store = ArtifactStore(str(tmp_path))
        plain = SweepTask(
            app="eqntott", variant="L", line_size=32, scale=SCALE,
            seed=APP_SEEDS["eqntott"],
        )
        run_task(plain, store)  # warms the trace
        evented = SweepTask(
            app="eqntott", variant="L", line_size=32, scale=SCALE,
            seed=APP_SEEDS["eqntott"],
            timeline_interval=INTERVAL, events_capacity=256,
        )
        result, how = run_task(evented, store)
        assert how == "captured"
        assert result.timeline["events"]["total"] > 0
        # And the direct re-run's result persists: next call is a hit.
        cached, how_cached = run_task(evented, store)
        assert how_cached == "cached"
        assert cached.timeline["events"] == result.timeline["events"]

    def test_runner_manifest_carries_timeline_section(self):
        from repro.experiments import ExperimentRunner
        from repro.obs import validate_manifest

        runner = ExperimentRunner(
            scale=SCALE, timeline_interval=INTERVAL, events_capacity=128
        )
        runner.run("health", Variant.L, 32)
        manifest = runner.manifest("probe")
        validate_manifest(manifest)
        cells = manifest["timeline"]["cells"]
        assert list(cells) == ["health/32B/L"]
        cell = cells["health/32B/L"]
        assert cell["sample_interval"] == INTERVAL
        assert cell["window_count"] == len(cell["windows"]["refs"])
        assert manifest["events"]["cells"]["health/32B/L"]["total"] > 0
        assert manifest["run"]["timeline_interval"] == INTERVAL

    def test_runner_without_timeline_omits_section(self):
        from repro.experiments import ExperimentRunner
        from repro.obs import validate_manifest

        runner = ExperimentRunner(scale=SCALE)
        runner.run("health", Variant.L, 32)
        manifest = runner.manifest("probe")
        validate_manifest(manifest)
        assert "timeline" not in manifest
        assert "events" not in manifest
