"""Layout optimizations enabled by memory forwarding (Section 2.2).

=================  ====================================================
``linearize``      counter-triggered list linearization (VIS policy)
``packing``        record+satellite-array packing (Eqntott, Figure 8)
``clustering``     subtree clustering for trees (BH, Figure 9)
``merging``        parallel-table interleaving (Compress)
``coloring``       conflict-free placement into cache-set bands
``copying``        forwarding-backed tile relocation for blocked loops
=================  ====================================================
"""

from repro._lazy import lazy_exports

# Re-exported lazily: each optimization imports the machine.
__getattr__, __dir__ = lazy_exports(globals(), {
    "repro.opts.clustering": ("ClusteringResult", "cluster_subtrees"),
    "repro.opts.coloring": ("ColoredAllocator", "recolor"),
    "repro.opts.copying": ("RelocatedTile", "TiledMatrix", "tiled_matmul"),
    "repro.opts.linearize": ("ListLinearizer",),
    "repro.opts.merging": ("MergedTable", "merge_tables"),
    "repro.opts.packing": ("pack_pointer_table", "pack_record_with_array"),
})

__all__ = [
    "ClusteringResult",
    "ColoredAllocator",
    "ListLinearizer",
    "MergedTable",
    "RelocatedTile",
    "TiledMatrix",
    "cluster_subtrees",
    "merge_tables",
    "pack_pointer_table",
    "pack_record_with_array",
    "recolor",
    "tiled_matmul",
]
