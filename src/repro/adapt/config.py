"""Configuration for the adaptive relocation engine.

``AdaptConfig`` is a frozen leaf dataclass so it can nest inside
``MachineConfig`` and flow through ``dataclasses.asdict`` into config
fingerprints unchanged — two runs with different policy knobs can never
alias in the trace/result cache.
"""

from __future__ import annotations

from dataclasses import dataclass

#: Known policy names, in the order they appear in experiment matrices.
POLICIES = ("threshold", "hysteresis", "epsilon_greedy")

#: Default heatmap region granularity (bytes); mirrored by
#: ``MachineConfig.heatmap_region_bytes``.
DEFAULT_HEATMAP_REGION = 64 * 1024

#: Bounds on a requested heatmap region.  Below 1 KB the heatmap of a
#: default-sized machine runs to tens of thousands of regions per
#: payload; above 1 GB every address falls in one region.
MIN_HEATMAP_REGION = 1 << 10
MAX_HEATMAP_REGION = 1 << 30


def heatmap_region_error(value) -> str | None:
    """Why ``value`` is not an acceptable heatmap region, or ``None``.

    The one rule both front ends (the CLI's ``--heatmap-region`` and
    the serve protocol's ``heatmap_region``) apply, so an input one
    accepts the other accepts too.
    """
    if (
        isinstance(value, bool)
        or not isinstance(value, int)
        or not MIN_HEATMAP_REGION <= value <= MAX_HEATMAP_REGION
        or value & (value - 1)
    ):
        return (
            f"must be a power of two in [{MIN_HEATMAP_REGION}, 2**30] "
            f"bytes, got {value!r}"
        )
    return None

#: Bounds for the serve-tier knob validation (shared so the CLI and the
#: HTTP protocol reject the same ranges).
MIN_INTERVAL = 64
MAX_INTERVAL = 1 << 20
MAX_PATIENCE = 64
MAX_COOLDOWN = 1024
MAX_ACTIONS_LIMIT = 256


@dataclass(frozen=True)
class AdaptConfig:
    """Knobs for one adaptive run.

    Attributes
    ----------
    policy:
        One of :data:`POLICIES`.
    interval:
        Window width (references) used when ``timeline_interval`` is not
        set explicitly; the engine always adopts whatever window width
        the machine's timeline ends up with.
    miss_rate_threshold:
        L1 miss-rate above which a window counts as "bad".
    chase_rate_threshold:
        Forwarding-chase rate (chases per reference) above which a
        window counts as "bad".
    decay:
        Exponential decay applied to per-region heat between windows
        (``heat = heat * decay + window_delta``).
    patience:
        Consecutive bad windows required before the hysteresis policy
        fires (threshold/epsilon-greedy fire immediately).
    cooldown:
        Windows to wait after executing a decision before another may
        fire (applies to every policy; damps thrash).
    epsilon:
        Exploration probability for the epsilon-greedy policy.
    seed:
        Seed for the epsilon-greedy policy's deterministic RNG.
    pool_bytes:
        Size of the relocation pool the engine lazily creates on its
        first executed decision.
    max_actions:
        Hard cap on executed decisions per run (bounds pool pressure).
    """

    policy: str = "hysteresis"
    interval: int = 2048
    miss_rate_threshold: float = 0.08
    chase_rate_threshold: float = 0.02
    decay: float = 0.5
    patience: int = 2
    cooldown: int = 4
    epsilon: float = 0.1
    seed: int = 1
    pool_bytes: int = 4 << 20
    max_actions: int = 8

    def __post_init__(self) -> None:
        if self.policy not in POLICIES:
            raise ValueError(
                f"unknown adapt policy {self.policy!r}; known: {list(POLICIES)}"
            )
        if not MIN_INTERVAL <= self.interval <= MAX_INTERVAL:
            raise ValueError(
                f"adapt interval must be in [{MIN_INTERVAL}, {MAX_INTERVAL}], "
                f"got {self.interval}"
            )
        for name in ("miss_rate_threshold", "chase_rate_threshold"):
            value = getattr(self, name)
            if not 0.0 < value <= 1.0:
                raise ValueError(f"{name} must be in (0, 1], got {value}")
        if not 0.0 < self.decay <= 1.0:
            raise ValueError(f"decay must be in (0, 1], got {self.decay}")
        if not 1 <= self.patience <= MAX_PATIENCE:
            raise ValueError(
                f"patience must be in [1, {MAX_PATIENCE}], got {self.patience}"
            )
        if not 0 <= self.cooldown <= MAX_COOLDOWN:
            raise ValueError(
                f"cooldown must be in [0, {MAX_COOLDOWN}], got {self.cooldown}"
            )
        if not 0.0 <= self.epsilon <= 1.0:
            raise ValueError(f"epsilon must be in [0, 1], got {self.epsilon}")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        if self.pool_bytes < 4096:
            raise ValueError(f"pool_bytes must be >= 4096, got {self.pool_bytes}")
        if not 1 <= self.max_actions <= MAX_ACTIONS_LIMIT:
            raise ValueError(
                f"max_actions must be in [1, {MAX_ACTIONS_LIMIT}], "
                f"got {self.max_actions}"
            )
