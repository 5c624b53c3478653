"""Memory Forwarding — reproduction of Luk & Mowry, ISCA 1999.

A simulation library for *memory forwarding*: a tagged-memory mechanism
that makes run-time data relocation always safe, enabling aggressive
cache-layout optimizations (list linearization, record packing, subtree
clustering, table merging) for pointer-heavy programs.

Quickstart::

    from repro import Machine, list_linearize

    m = Machine()
    # ... build a linked list on the simulated heap ...
    pool = m.create_pool(1 << 20)
    new_head, n = list_linearize(m, head_handle, next_offset=8,
                                 node_bytes=32, pool=pool)
    # stale pointers to old nodes still work -- they are forwarded.

See DESIGN.md for the system inventory and EXPERIMENTS.md for the
paper-versus-measured results of every table and figure.
"""

from repro._lazy import lazy_exports

__version__ = "1.0.0"

# Re-exported lazily: importing ``repro`` (which every ``repro.*``
# import does first) must not load the simulator (DESIGN.md §5l).
__getattr__, __dir__ = lazy_exports(globals(), {
    "repro.cache.hierarchy": ("AccessKind", "AccessResult", "MemoryHierarchy"),
    "repro.core.config": ("HierarchyConfig", "MachineConfig"),
    "repro.core.errors": (
        "AlignmentError",
        "AllocationError",
        "DoubleFreeError",
        "ForwardingCycleError",
        "HopLimitExceeded",
        "MemoryAccessError",
        "SimulationError",
    ),
    "repro.core.forwarding": ("ForwardingEngine", "ForwardingStats"),
    "repro.core.isa": ("ISAExtensions",),
    "repro.core.machine": ("NULL", "ForwardingEvent", "Machine"),
    "repro.core.memory": ("TaggedMemory", "WORD_SIZE"),
    "repro.core.pointer_ops": ("final_address", "ptr_eq", "ptr_ne"),
    "repro.core.relocate": ("list_linearize", "relocate"),
    "repro.core.stats": ("MachineStats",),
    "repro.core.traps": (
        "ChainedTrapHandler",
        "ForwardingProfiler",
        "PointerFixupTrap",
    ),
    "repro.cpu.timing": ("TimingConfig",),
    "repro.mem.pool": ("RelocationPool",),
})

__all__ = [
    "AccessKind",
    "AccessResult",
    "AlignmentError",
    "AllocationError",
    "ChainedTrapHandler",
    "DoubleFreeError",
    "ForwardingCycleError",
    "ForwardingEngine",
    "ForwardingEvent",
    "ForwardingProfiler",
    "ForwardingStats",
    "HierarchyConfig",
    "HopLimitExceeded",
    "ISAExtensions",
    "Machine",
    "MachineConfig",
    "MachineStats",
    "MemoryAccessError",
    "MemoryHierarchy",
    "NULL",
    "PointerFixupTrap",
    "RelocationPool",
    "SimulationError",
    "TaggedMemory",
    "TimingConfig",
    "WORD_SIZE",
    "final_address",
    "list_linearize",
    "ptr_eq",
    "ptr_ne",
    "relocate",
]
