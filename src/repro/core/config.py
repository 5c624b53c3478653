"""Configuration of the simulated system: plain dataclasses, no engine.

:class:`MachineConfig` and :class:`HierarchyConfig` describe a machine
without building one.  They live in this leaf module, apart from
:mod:`repro.core.machine` and :mod:`repro.cache.hierarchy` (which
re-export them), so the code that only names a configuration -- cell
identity, config fingerprints, the result store, a fully cached
artifact run -- never imports the simulator itself (DESIGN.md §5l).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from repro.adapt.config import AdaptConfig
from repro.cpu.timing import TimingConfig


@dataclass
class HierarchyConfig:
    """Geometry and latency parameters of the modeled memory system.

    Defaults are the scaled configuration documented in DESIGN.md Section 5:
    a 4 KB 2-way L1 D-cache and a 16 KB 4-way unified L2, scaled down from
    the paper's machine in proportion to our reduced working sets so the
    applications run in the same miss regime (working sets comfortably
    exceed L2, as the paper's inputs exceeded its off-chip cache).
    """

    line_size: int = 32
    l1_size: int = 4 * 1024
    l1_assoc: int = 2
    l2_size: int = 16 * 1024
    l2_assoc: int = 4
    #: L2 line size; stays fixed while experiments sweep the L1 line size
    #: (as in an R10000-class machine: 32 B L1 lines, 128 B L2 lines).
    #: Never smaller than the L1 line.
    l2_line_size: int = 128
    l1_hit_latency: float = 1.0
    l2_hit_latency: float = 12.0
    memory_latency: float = 70.0
    #: Transfer bandwidth of the L1<->L2 interface: longer lines take
    #: longer to move, which is why long lines *hurt* when spatial
    #: locality is absent (the Figure 5 "N degrades with line size" shape).
    l1_bus_bytes_per_cycle: float = 16.0
    #: Transfer bandwidth of the L2<->memory interface.
    mem_bus_bytes_per_cycle: float = 8.0
    mshr_capacity: int = 8
    policy: str = "lru"
    #: L1 miss-path mechanism (:data:`repro.cache.misspath.MECHANISMS`).
    #: ``"none"`` keeps the exact baseline hierarchy -- no stage objects
    #: exist and the fused fast-path kernels stay eligible.
    mechanism: str = "none"
    #: Victim-cache entries (``victim_cache``/``combined``).
    vc_entries: int = 8
    #: Miss-cache entries (``miss_cache``).
    mc_entries: int = 8
    #: Stream-buffer count and per-buffer depth (``stream_buffers``/
    #: ``combined``).
    sb_count: int = 4
    sb_depth: int = 4
    #: Extra cycles (beyond the L1 hit latency) to serve a miss from a
    #: miss-path stage -- the local swap/refill cost, far below any L2
    #: round trip.
    misspath_hit_latency: float = 2.0

    @property
    def l2_fill_latency(self) -> float:
        """Latency of an L1 miss served by the L2 (incl. line transfer)."""
        return self.l2_hit_latency + self.line_size / self.l1_bus_bytes_per_cycle

    @property
    def full_miss_latency(self) -> float:
        """Latency of a miss that goes all the way to memory."""
        l2_line = max(self.l2_line_size, self.line_size)
        return (
            self.l2_fill_latency
            + self.memory_latency
            + l2_line / self.mem_bus_bytes_per_cycle
        )


@dataclass
class MachineConfig:
    """Configuration of the whole simulated system."""

    hierarchy: HierarchyConfig = field(default_factory=HierarchyConfig)
    timing: TimingConfig = field(default_factory=TimingConfig)
    #: Base of the application heap; low memory is reserved so NULL (0)
    #: never aliases a live object.
    heap_base: int = 0x10000
    heap_size: int = 24 << 20
    #: Region reserved for relocation pools, carved on demand.
    pool_region_size: int = 24 << 20
    hop_limit: int = 16
    #: Depth of the dependence-speculation store window (0 disables).
    speculation_window: int = 32
    #: Instruction cost of malloc bookkeeping (beyond per-byte clearing).
    malloc_base_cost: int = 16
    #: Instruction cost of the forwarding-aware free wrapper.
    free_base_cost: int = 8
    #: Largest block prefetch (lines) a single instruction may request.
    max_prefetch_block: int = 8
    #: Extra cycles charged to a user-level trap handler invocation.
    user_trap_cycles: float = 10.0
    #: Use the fused load/store fast path for unforwarded L1 hits.  The
    #: fast and general paths produce bit-identical statistics (enforced
    #: by the differential parity tests); this switch exists so those
    #: tests -- and any future debugging -- can force the general path.
    fast_path: bool = True
    #: Data references per timeline window; 0 (the default) disables the
    #: sampler entirely -- no wrapper closures, zero hot-path cost.
    timeline_interval: int = 0
    #: Capacity of the structured event ring; 0 (the default) disables
    #: event emission.  Enabling events forces the general reference
    #: path, because the fused kernels inline the cache internals some
    #: events come from (L2 inclusion victims).
    events_capacity: int = 0
    #: Heatmap region granularity (bytes, power of two) for the timeline
    #: sampler and the adaptive profile; the default matches the
    #: timeline's historical fixed 64 KB regions.
    heatmap_region_bytes: int = 64 * 1024
    #: Online adaptive relocation policy (:class:`repro.adapt.AdaptConfig`);
    #: ``None`` (the default) disables the engine entirely.  Configuring
    #: it implies a timeline (using ``adapt.interval`` as the window
    #: width when ``timeline_interval`` is 0) and forces the general
    #: reference path, mirroring the events gate.
    adapt: AdaptConfig | None = None

    def __post_init__(self) -> None:
        region = self.heatmap_region_bytes
        if region < 1 or region & (region - 1):
            raise ValueError(
                f"heatmap_region_bytes must be a power of two, got {region}"
            )

    @property
    def memory_size(self) -> int:
        return self.heap_base + self.heap_size + self.pool_region_size

    def with_line_size(self, line_size: int) -> "MachineConfig":
        """Copy of this config with a different cache line size."""
        return replace(self, hierarchy=replace(self.hierarchy, line_size=line_size))
