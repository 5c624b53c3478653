"""Common scaffolding for the eight Table 1 applications.

Every application is a transcription of the paper's benchmark onto the
simulated machine, runnable in the variants the evaluation compares:

========  ==========================================================
Variant   Meaning (Figures 5, 7, 10)
========  ==========================================================
``N``     Original program, no locality optimization, no prefetching.
``L``     With the layout optimization memory forwarding enables.
``NP``    Original program plus software prefetching.
``LP``    Layout optimization plus software prefetching.
``PERF``  Perfect forwarding (SMV only): relocation with all stray
          pointers magically updated -- the unachievable bound of
          Figure 10.
========  ==========================================================

Each run returns an :class:`AppResult` whose ``checksum`` must be
identical across variants of the same application at the same scale:
that equality is the end-to-end proof that data relocation under memory
forwarding preserved program semantics.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from enum import Enum
from typing import Any

from repro.core.machine import Machine, MachineConfig, MachineObserver
from repro.core.stats import MachineStats


class Variant(Enum):
    """Which combination of optimizations a run uses."""

    N = "N"        # no optimization
    L = "L"        # layout optimization (via memory forwarding)
    NP = "NP"      # prefetching only
    LP = "LP"      # layout optimization + prefetching
    PERF = "Perf"  # layout optimization with perfect forwarding

    @property
    def optimized(self) -> bool:
        return self in (Variant.L, Variant.LP, Variant.PERF)

    @property
    def prefetching(self) -> bool:
        return self in (Variant.NP, Variant.LP)


@dataclass
class AppResult:
    """Outcome of one application run."""

    app: str
    variant: Variant
    checksum: int
    stats: MachineStats
    extras: dict[str, Any] = field(default_factory=dict)
    #: Windowed time-series payload (``Timeline.to_payload``) when the
    #: run was configured with a non-zero ``timeline_interval``.
    timeline: dict[str, Any] | None = None

    @property
    def cycles(self) -> float:
        return self.stats.cycles


class Application(ABC):
    """One of the paper's benchmark applications.

    Subclasses define ``name``, ``description``, ``optimization`` (the
    Table 1 columns) and implement :meth:`execute`.

    Parameters
    ----------
    scale:
        Workload scale factor; 1.0 is the default benchmark size
        (scaled down from the paper per DESIGN.md), smaller values give
        fast unit-test workloads.
    seed:
        Workload randomness seed.  The same seed must produce the same
        checksum in every variant.
    """

    name: str = "app"
    description: str = ""
    optimization: str = ""
    #: True if the *optimized* variants' reference stream depends on the
    #: cache line size (the app reads
    #: ``machine.config.hierarchy.line_size`` to parameterise its layout
    #: optimization, as BH's subtree clustering does).
    line_size_sensitive: bool = False

    @classmethod
    def stream_depends_on_line_size(cls, variant: Variant) -> bool:
        """Whether this app's stream at ``variant`` varies with line size.

        Prefetching variants always do (every app's block prefetches step
        by one line); optimized variants do only for apps that declare
        :attr:`line_size_sensitive`.  Line-size-invariant streams are
        captured once and replayed at every line size; the rest need one
        trace per line size.
        """
        return variant.prefetching or (cls.line_size_sensitive and variant.optimized)

    def __init__(self, scale: float = 1.0, seed: int = 1) -> None:
        if scale <= 0:
            raise ValueError(f"scale must be positive, got {scale}")
        self.scale = scale
        self.seed = seed

    # ------------------------------------------------------------------
    def run(
        self,
        variant: Variant = Variant.N,
        config: MachineConfig | None = None,
        observer: "MachineObserver | None" = None,
        on_window=None,
        machine_class: type[Machine] = Machine,
    ) -> AppResult:
        """Execute the application on a fresh machine; returns the result.

        ``observer`` (if given) is installed on the machine before the
        workload starts, so it sees the complete event stream -- this is
        how ``repro.trace`` captures reference traces.  ``on_window``
        (if given, and if ``config`` samples a timeline) streams the
        sampler's per-window deltas live; it is ignored for untimed
        configs, so the default hot path is untouched.
        ``machine_class`` picks the machine: trace capture passes
        :class:`~repro.core.machine.FunctionalMachine`, whose result
        carries only the config-invariant stats.
        """
        supported = self.variants()
        if variant not in supported:
            raise ValueError(
                f"{self.name} does not support variant {variant.value}; "
                f"supported: {[v.value for v in supported]}"
            )
        machine = machine_class(config or MachineConfig())
        machine.observer = observer
        if on_window is not None and machine.timeline is not None:
            # Chain (never clobber): the adaptive engine may already be
            # listening on the same timeline.
            machine.timeline.add_on_window(on_window)
        checksum, extras = self.execute(machine, variant)
        timeline = None
        if machine.timeline is not None:
            machine.timeline.finish()
            timeline = machine.timeline.to_payload()
        if machine.adapt is not None:
            # Merged after finish() so the payload includes any window
            # closed by the trailing flush; rides extras so it persists
            # in captured traces and survives replay byte-for-byte.
            extras = {**extras, "adapt": machine.adapt.to_payload()}
        return AppResult(
            app=self.name,
            variant=variant,
            checksum=checksum,
            stats=machine.stats(),
            extras=extras,
            timeline=timeline,
        )

    def variants(self) -> tuple[Variant, ...]:
        """Variants this application supports (PERF is SMV-specific)."""
        return (Variant.N, Variant.L, Variant.NP, Variant.LP)

    @abstractmethod
    def execute(self, machine: Machine, variant: Variant) -> tuple[int, dict]:
        """Run the workload; returns ``(checksum, extras)``."""

    # ------------------------------------------------------------------
    def _scaled(self, value: int, minimum: int = 1) -> int:
        """Scale a workload parameter, keeping it at least ``minimum``."""
        return max(minimum, int(round(value * self.scale)))


#: Registry of all Table 1 applications, filled by repro.apps.__init__.
APPLICATIONS: dict[str, type[Application]] = {}


def register(cls: type[Application]) -> type[Application]:
    """Class decorator adding an application to the registry."""
    APPLICATIONS[cls.name] = cls
    return cls


def get_application(name: str, scale: float = 1.0, seed: int = 1) -> Application:
    """Instantiate a registered application by its Table 1 name."""
    try:
        cls = APPLICATIONS[name]
    except KeyError:
        raise ValueError(
            f"unknown application {name!r}; available: {sorted(APPLICATIONS)}"
        ) from None
    return cls(scale=scale, seed=seed)
