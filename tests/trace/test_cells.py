"""Cell identity without the engine: the line-size rule and the cached probe."""

import hashlib
import logging

import pytest

from repro.apps import APPLICATIONS, Variant
from repro.apps.base import LINE_SIZE_SENSITIVE_APPS, stream_depends_on_line_size
from repro.experiments.runner import ExperimentRunner, RunSpec, specs_for_artifacts
from repro.trace import ArtifactStore, SweepTask, run_batch_group
from repro.trace.cells import probe_group

#: Every artifact ``specs_for_artifacts`` expands (figure7's prefetching
#: variants and the adaptive cells included).
ARTIFACTS = ("table1", "figure5", "figure6", "figure7", "figure10", "misspath",
             "adapt")

#: sha256 over ``"<cell id> <trace key>"`` lines of every artifact's cells
#: at scale 1.0, in artifact then spec order, as the per-application
#: ``line_size_sensitive`` class attribute computed them before the rule
#: moved to ``repro.apps.base``.  It changes only if trace identity does
#: (the key schema or the trace format version).
KEYS_DIGEST = "f698e27d0c58a6caa41ba4e9ed037b9e5c6a93e5bfe2b4d8f84c8b03ddebcfa1"


class TestLineSizeRule:
    @pytest.mark.parametrize("app", sorted(APPLICATIONS))
    def test_light_rule_is_the_class_rule(self, app):
        cls = APPLICATIONS[app]
        for variant in Variant:
            assert stream_depends_on_line_size(app, variant) == (
                cls.stream_depends_on_line_size(variant)
            )

    def test_declared_apps_are_registered(self):
        assert LINE_SIZE_SENSITIVE_APPS <= set(APPLICATIONS)

    def test_trace_keys_match_the_pinned_keys(self):
        lines = [
            f"{spec.cell_id} {spec.task().key()}"
            for artifact in ARTIFACTS
            for spec in specs_for_artifacts([artifact], 1.0)
        ]
        assert len(lines) == 343
        digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
        assert digest == KEYS_DIGEST


class TestProbeGroup:
    SCALE = 0.03

    def _group(self):
        return [SweepTask("mst", "N", line_size, self.SCALE, 1)
                for line_size in (32, 64)]

    def test_answers_each_cached_cell_once(self, tmp_path):
        store = ArtifactStore(tmp_path)
        group = self._group()
        assert probe_group(group, store, {}) == [None, None]  # no trace yet
        ran = run_batch_group(group[:1], store)
        traces: dict = {}
        probed = probe_group(group, store, traces)
        assert probed[1] is None  # the 64 B cell misses
        assert (probed[0].how, probed[0].engine) == ("cached", "sequential")
        assert probed[0].result.stats.dump() == ran[0].result.stats.dump()
        # The trace was loaded (and kept) for the manifest's trace hashes.
        assert list(traces) == [group[0].key()]
        # Handed the probe's answers, the engine runs only the miss.
        rest = run_batch_group(group, store, traces, probed=probed)
        assert [o.how for o in rest] == ["cached", "replayed"]
        assert rest[0] is probed[0]
        assert [o.how for o in probe_group(group, store, {})] == ["cached"] * 2

    def test_no_store_means_no_answer(self):
        assert probe_group(self._group(), None, {}) == [None, None]


def test_unreadable_files_warn_once(tmp_path, caplog):
    """A partly cached group reads each stored file once, so an
    unreadable trace or result is reported once."""
    specs = [RunSpec.make("mst", Variant.N, size, 0.03) for size in (32, 64)]

    def prime():
        ExperimentRunner(scale=0.03, trace_dir=str(tmp_path)).prime(specs)

    prime()
    store = ArtifactStore(tmp_path)
    (key,) = {spec.task().key() for spec in specs}
    content_hash = store.load_trace(key).content_hash
    result = sorted((tmp_path / "results").glob("*.json"))[0]
    result.write_text("garbage")
    caplog.set_level(logging.WARNING, logger="repro")
    prime()
    assert _discards(caplog) == [f"result {result.name}"]
    caplog.clear()
    store.trace_path(key).write_bytes(b"garbage")
    prime()
    assert _discards(caplog) == [f"trace {store.trace_path(key).name}"]
    assert store.load_trace(key).content_hash == content_hash


def _discards(caplog) -> list[str]:
    return [
        " ".join(record.getMessage().split()[2:4]).rstrip(":")
        for record in caplog.records
        if record.getMessage().startswith("discarding unreadable")
    ]
