"""Request protocol of the simulation service: specs, validation, keys.

A *job spec* is the wire-level description of one simulation cell --
exactly the coordinates a :class:`~repro.trace.sweep.SweepTask` carries
(app, variant, line size, scale, seed, timeline knobs), arriving as a
JSON object.  Parsing is strict: unknown fields, unknown apps, variants
an app cannot run, and out-of-range numbers are all rejected with a
message naming the offending field, so a misdirected client learns what
it sent instead of what the simulator crashed on.

Each spec has a deterministic **job key** -- the SHA-256 of its canonical
identity JSON.  The key is what the service coalesces on: two requests
with the same key are the same simulation by construction (the trace key
and machine-config fingerprint downstream are both functions of the
spec), so they share one job, one queue slot, and one result.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, dataclass

from repro.adapt.config import (
    DEFAULT_HEATMAP_REGION,
    MAX_COOLDOWN,
    MAX_INTERVAL,
    MAX_PATIENCE,
    MIN_INTERVAL,
    POLICIES,
    AdaptConfig,
    heatmap_region_error,
)
from repro.apps import APPLICATIONS
from repro.apps.base import Variant
from repro.cache.misspath import KNOB_MECHANISMS, MECHANISMS
from repro.experiments.config import APP_SEEDS
from repro.trace.sweep import SweepTask

#: Fields a job payload may carry; everything else is rejected.
_FIELDS = {
    "app",
    "variant",
    "line_size",
    "scale",
    "seed",
    "timeline_interval",
    "events_capacity",
    "mechanism",
    "vc_entries",
    "mc_entries",
    "sb_count",
    "sb_depth",
    "adapt_policy",
    "adapt_interval",
    "adapt_miss_rate_threshold",
    "adapt_chase_rate_threshold",
    "adapt_patience",
    "adapt_cooldown",
    "adapt_epsilon",
    "heatmap_region",
}

_REQUIRED = {"app", "variant", "line_size"}

#: Guardrails on numeric knobs -- the service is long-lived and shared,
#: so one absurd request must not monopolise a worker for hours.
MAX_SCALE = 4.0
MAX_LINE_SIZE = 4096
MAX_MISSPATH_ENTRIES = 1024

#: Canonical sizing-knob defaults.  A knob a mechanism does not read is
#: *rejected* when supplied and pinned to its default otherwise, so two
#: payloads that mean the same simulation can never produce distinct
#: job keys (and thus duplicate jobs) through an ignored field.
_MISSPATH_DEFAULTS = {
    "vc_entries": 8,
    "mc_entries": 8,
    "sb_count": 4,
    "sb_depth": 4,
}

#: Adaptive-engine knob defaults (mirroring :class:`AdaptConfig`); each
#: knob is rejected without ``adapt_policy`` and pinned to its default
#: otherwise, for the same key-stability reason as the misspath knobs.
_ADAPT_DEFAULTS = {
    "adapt_interval": 2048,
    "adapt_miss_rate_threshold": 0.08,
    "adapt_chase_rate_threshold": 0.02,
    "adapt_patience": 2,
    "adapt_cooldown": 4,
    "adapt_epsilon": 0.1,
}


class ProtocolError(ValueError):
    """A job payload failed validation (maps to HTTP 400)."""


def _fail(field: str, message: str) -> None:
    raise ProtocolError(f"{field}: {message}")


@dataclass(frozen=True)
class JobSpec:
    """One validated simulation request (hashable, JSON-roundtrippable)."""

    app: str
    variant: str
    line_size: int
    scale: float = 1.0
    seed: int = 1
    timeline_interval: int = 0
    events_capacity: int = 0
    mechanism: str = "none"
    vc_entries: int = 8
    mc_entries: int = 8
    sb_count: int = 4
    sb_depth: int = 4
    adapt_policy: str | None = None
    adapt_interval: int = 2048
    adapt_miss_rate_threshold: float = 0.08
    adapt_chase_rate_threshold: float = 0.02
    adapt_patience: int = 2
    adapt_cooldown: int = 4
    adapt_epsilon: float = 0.1
    heatmap_region: int = DEFAULT_HEATMAP_REGION

    @classmethod
    def from_payload(cls, payload: object) -> "JobSpec":
        """Parse and validate a decoded JSON request body."""
        if not isinstance(payload, dict):
            raise ProtocolError("request body must be a JSON object")
        unknown = set(payload) - _FIELDS
        if unknown:
            raise ProtocolError(
                f"unknown field(s) {sorted(unknown)}; "
                f"allowed: {sorted(_FIELDS)}"
            )
        missing = _REQUIRED - set(payload)
        if missing:
            raise ProtocolError(f"missing required field(s) {sorted(missing)}")

        app = payload["app"]
        if app not in APPLICATIONS:
            _fail("app", f"unknown app {app!r}; known: {sorted(APPLICATIONS)}")
        variant = payload["variant"]
        valid_variants = {v.value for v in Variant}
        if not isinstance(variant, str) or variant not in valid_variants:
            _fail(
                "variant",
                f"unknown variant {variant!r}; known: {sorted(valid_variants)}",
            )
        line_size = payload["line_size"]
        if (
            isinstance(line_size, bool)
            or not isinstance(line_size, int)
            or line_size < 4
            or line_size > MAX_LINE_SIZE
            or line_size & (line_size - 1)
        ):
            _fail(
                "line_size",
                f"must be a power-of-two int in [4, {MAX_LINE_SIZE}], "
                f"got {line_size!r}",
            )
        scale = payload.get("scale", 1.0)
        if (
            isinstance(scale, bool)
            or not isinstance(scale, (int, float))
            or not scale > 0
            or scale > MAX_SCALE
        ):
            _fail("scale", f"must be a number in (0, {MAX_SCALE}], got {scale!r}")
        seed = payload.get("seed", APP_SEEDS.get(app, 1))
        if isinstance(seed, bool) or not isinstance(seed, int) or seed < 0:
            _fail("seed", f"must be a non-negative integer, got {seed!r}")
        for knob in ("timeline_interval", "events_capacity"):
            value = payload.get(knob, 0)
            if isinstance(value, bool) or not isinstance(value, int) or value < 0:
                _fail(knob, f"must be a non-negative integer, got {value!r}")
        mechanism = payload.get("mechanism", "none")
        if not isinstance(mechanism, str) or mechanism not in MECHANISMS:
            _fail(
                "mechanism",
                f"unknown mechanism {mechanism!r}; known: {list(MECHANISMS)}",
            )
        misspath_knobs = dict(_MISSPATH_DEFAULTS)
        for knob, users in KNOB_MECHANISMS.items():
            if knob not in payload:
                continue
            if mechanism not in users:
                _fail(
                    knob,
                    f"only meaningful with mechanism in {list(users)}, "
                    f"got mechanism={mechanism!r}",
                )
            value = payload[knob]
            if (
                isinstance(value, bool)
                or not isinstance(value, int)
                or value < 1
                or value > MAX_MISSPATH_ENTRIES
            ):
                _fail(
                    knob,
                    f"must be an integer in [1, {MAX_MISSPATH_ENTRIES}], "
                    f"got {value!r}",
                )
            misspath_knobs[knob] = value

        adapt_policy = payload.get("adapt_policy")
        if adapt_policy is not None and (
            not isinstance(adapt_policy, str) or adapt_policy not in POLICIES
        ):
            _fail(
                "adapt_policy",
                f"unknown policy {adapt_policy!r}; known: {list(POLICIES)}",
            )
        adapt_knobs = dict(_ADAPT_DEFAULTS)
        for knob in _ADAPT_DEFAULTS:
            if knob not in payload:
                continue
            if adapt_policy is None:
                _fail(knob, "only meaningful with adapt_policy set")
            value = payload[knob]
            if knob == "adapt_interval":
                if (
                    isinstance(value, bool)
                    or not isinstance(value, int)
                    or not MIN_INTERVAL <= value <= MAX_INTERVAL
                ):
                    _fail(
                        knob,
                        f"must be an integer in [{MIN_INTERVAL}, "
                        f"{MAX_INTERVAL}], got {value!r}",
                    )
            elif knob in ("adapt_patience", "adapt_cooldown"):
                bound = MAX_PATIENCE if knob == "adapt_patience" else MAX_COOLDOWN
                floor = 1 if knob == "adapt_patience" else 0
                if (
                    isinstance(value, bool)
                    or not isinstance(value, int)
                    or not floor <= value <= bound
                ):
                    _fail(
                        knob,
                        f"must be an integer in [{floor}, {bound}], "
                        f"got {value!r}",
                    )
            elif knob == "adapt_epsilon":
                if (
                    isinstance(value, bool)
                    or not isinstance(value, (int, float))
                    or not 0.0 <= value <= 1.0
                ):
                    _fail(knob, f"must be a number in [0, 1], got {value!r}")
                value = float(value)
            else:  # the two rate thresholds
                if (
                    isinstance(value, bool)
                    or not isinstance(value, (int, float))
                    or not 0.0 < value <= 1.0
                ):
                    _fail(knob, f"must be a number in (0, 1], got {value!r}")
                value = float(value)
            adapt_knobs[knob] = value

        heatmap_region = payload.get("heatmap_region", DEFAULT_HEATMAP_REGION)
        if heatmap_region != DEFAULT_HEATMAP_REGION:
            error = heatmap_region_error(heatmap_region)
            if error is not None:
                _fail("heatmap_region", error)
            if payload.get("timeline_interval", 0) == 0 and adapt_policy is None:
                _fail(
                    "heatmap_region",
                    "only meaningful with timeline_interval or adapt_policy",
                )

        return cls(
            app=app,
            variant=variant,
            line_size=line_size,
            scale=float(scale),
            seed=seed,
            timeline_interval=payload.get("timeline_interval", 0),
            events_capacity=payload.get("events_capacity", 0),
            mechanism=mechanism,
            adapt_policy=adapt_policy,
            heatmap_region=heatmap_region,
            **misspath_knobs,
            **adapt_knobs,
        )

    # ------------------------------------------------------------------
    @property
    def job_key(self) -> str:
        """Coalescing identity: SHA-256 of the canonical spec JSON.

        Two payloads with the same key describe the same simulation --
        every cache key downstream (trace key, config fingerprint) is a
        function of these fields.
        """
        canonical = json.dumps(asdict(self), sort_keys=True)
        return hashlib.sha256(canonical.encode("utf-8")).hexdigest()

    @property
    def cell_id(self) -> str:
        """Human-readable cell identity (matches RunSpec.cell_id)."""
        base = f"{self.app}/{self.line_size}B/{self.variant}"
        if self.mechanism != "none":
            base = f"{base}/{self.mechanism}"
        if self.adapt_policy is not None:
            base = f"{base}/{self.adapt_policy}"
        return base

    def task(self) -> SweepTask:
        """The sweep-executor cell this spec resolves to."""
        return SweepTask(
            app=self.app,
            variant=self.variant,
            line_size=self.line_size,
            scale=self.scale,
            seed=self.seed,
            timeline_interval=self.timeline_interval,
            events_capacity=self.events_capacity,
            mechanism=self.mechanism,
            vc_entries=self.vc_entries,
            mc_entries=self.mc_entries,
            sb_count=self.sb_count,
            sb_depth=self.sb_depth,
            adapt=self.adapt_config(),
            heatmap_region=self.heatmap_region,
        )

    def adapt_config(self) -> "AdaptConfig | None":
        """The engine config this spec resolves to (None when off)."""
        if self.adapt_policy is None:
            return None
        return AdaptConfig(
            policy=self.adapt_policy,
            interval=self.adapt_interval,
            miss_rate_threshold=self.adapt_miss_rate_threshold,
            chase_rate_threshold=self.adapt_chase_rate_threshold,
            patience=self.adapt_patience,
            cooldown=self.adapt_cooldown,
            epsilon=self.adapt_epsilon,
            seed=self.seed,
        )

    def to_dict(self) -> dict:
        return asdict(self)
