"""BH: Barnes-Hut hierarchical N-body force calculation (Olden suite).

Bodies are inserted into a space-partitioning tree (a quadtree here; the
paper's octree differs only in fan-out).  The tree is built in body
insertion order -- effectively random with respect to space -- but the
force phase traverses it in a data-dependent order, so consecutive
visits jump across the heap.

The paper's optimization is **subtree clustering** (Figure 9): after the
tree is built, internal (cell) nodes are relocated so each cache line
holds the balanced top of a subtree.  Cells are ~88 B here (the paper's
were 78 B), so, as the paper notes, really meaningful clustering needs
256 B lines -- but packing cells contiguously already helps at smaller
line sizes.  Leaf bodies stay put (in Olden's BH they are accessed via a
separate linked list).

All coordinates and masses are integers (fixed point), keeping the
physics deterministic and the checksums variant-independent.
"""

from __future__ import annotations

from repro.apps.base import Application, Variant, register
from repro.core.machine import NULL, Machine
from repro.opts.clustering import cluster_subtrees
from repro.runtime.records import RecordLayout
from repro.runtime.rng import DeterministicRNG

#: Internal tree node ("cell"): bounding square plus four children.
#: 72 bytes -- close to the paper's 78-byte BH cells, so three nodes fit
#: in a 256 B line (the size the paper says meaningful clustering needs).
CELL = RecordLayout(
    "cell",
    [
        ("type", 4),   # 0 = cell (shared offset with BODY.type)
        ("cx", 4), ("cy", 4),        # square centre
        ("half", 4),                 # half side length
        ("mass", 8),
        ("x", 8), ("y", 8),          # centre of mass
        ("c0", 8), ("c1", 8), ("c2", 8), ("c3", 8),
    ],
)

BODY = RecordLayout(
    "body", [("type", 4), ("pad", 4), ("mass", 8), ("x", 8), ("y", 8), ("next", 8)]
)

_CHILDREN = ("c0", "c1", "c2", "c3")
_CHILD_OFFSETS = [CELL.offset(name) for name in _CHILDREN]

#: World is the square [0, 2**20) x [0, 2**20) (fixed-point units).
#: Coordinates stay non-negative: simulated memory words are unsigned.
_WORLD_SIZE = 1 << 20
_WORLD_HALF = _WORLD_SIZE >> 1

#: Opening criterion: approximate when (2*half)^2 < THETA_INV2 * dist2 is
#: false, i.e. recurse while the cell looks big.  THETA_INV2 = (1/theta)^2
#: with theta ~= 0.7.
_THETA_INV2 = 2


@register
class BH(Application):
    """The Olden ``bh`` benchmark on the simulated machine."""

    name = "bh"
    description = "Barnes-Hut N-body force calculation over a quadtree"
    optimization = "subtree clustering of internal tree nodes (once per build)"
    # Clustering granularity and prefetch distance follow the line size,
    # so BH's reference stream must be captured per line size: BH is in
    # repro.apps.base.LINE_SIZE_SENSITIVE_APPS.

    BODIES = 800
    FORCE_STEPS = 6
    SAMPLE_BODIES = 160    # bodies receiving forces per step
    WORK_PER_VISIT = 16
    PREFETCH_BLOCK = 2

    def execute(self, machine: Machine, variant: Variant) -> tuple[int, dict]:
        rng = DeterministicRNG(self.seed)
        count = self._scaled(self.BODIES, minimum=16)
        bodies = self._make_bodies(machine, rng, count)

        root_slot = machine.malloc(8)
        machine.store(root_slot, self._make_cell(machine, _WORLD_HALF, _WORLD_HALF, _WORLD_HALF))
        for body in bodies:
            self._insert(machine, machine.load(root_slot), body)
        self._summarize(machine, machine.load(root_slot))

        clustered = 0
        if variant.optimized:
            pool = machine.create_pool(8 << 20, "bh")
            # Below 256 B lines a cell (~88 B) fills a line by itself, so
            # clustering degenerates to contiguous packing in traversal
            # order -- exactly the paper's remark that BH needs 256 B lines
            # for *meaningful* clustering.
            line = machine.config.hierarchy.line_size
            result = cluster_subtrees(
                machine,
                root_slot,
                _CHILD_OFFSETS,
                CELL.size,
                pool,
                line,
                include=lambda mm, node: CELL.read(mm, node, "type") == 0,
            )
            clustered = result.nodes_moved

        checksum = 0
        steps = self._scaled(self.FORCE_STEPS)
        sample = min(len(bodies), self.SAMPLE_BODIES)
        for _ in range(steps):
            for body in bodies[:sample]:
                force = self._force_on(machine, variant, machine.load(root_slot), body)
                checksum = (checksum + force) % (1 << 61)
        return checksum, {"cells_clustered": clustered, "bodies": count}

    # ------------------------------------------------------------------
    # Tree construction
    # ------------------------------------------------------------------
    def _make_bodies(self, machine: Machine, rng: DeterministicRNG, count: int) -> list[int]:
        bodies = []
        for _ in range(count):
            body = BODY.alloc(machine)
            BODY.write(machine, body, "type", 1)
            BODY.write(machine, body, "mass", 1 + rng.randint(1 << 10))
            BODY.write(machine, body, "x", rng.randint(_WORLD_SIZE))
            BODY.write(machine, body, "y", rng.randint(_WORLD_SIZE))
            BODY.write(machine, body, "next", NULL)
            bodies.append(body)
        return bodies

    def _make_cell(self, machine: Machine, cx: int, cy: int, half: int) -> int:
        cell = CELL.alloc(machine)
        CELL.write(machine, cell, "type", 0)
        CELL.write(machine, cell, "cx", cx)
        CELL.write(machine, cell, "cy", cy)
        CELL.write(machine, cell, "half", half)
        return cell

    def _quadrant(self, machine: Machine, cell: int, x: int, y: int) -> int:
        machine.execute(4)
        cx = CELL.read(machine, cell, "cx")
        cy = CELL.read(machine, cell, "cy")
        return (1 if x >= cx else 0) | (2 if y >= cy else 0)

    def _child_center(self, machine: Machine, cell: int, quadrant: int) -> tuple[int, int, int]:
        cx = CELL.read(machine, cell, "cx")
        cy = CELL.read(machine, cell, "cy")
        half = CELL.read(machine, cell, "half") >> 1
        return (
            cx + (half if quadrant & 1 else -half),
            cy + (half if quadrant & 2 else -half),
            half,
        )

    def _insert(self, machine: Machine, cell: int, body: int) -> None:
        """Standard BH insertion: split leaves on collision."""
        m = machine
        x = BODY.read(m, body, "x")
        y = BODY.read(m, body, "y")
        while True:
            quadrant = self._quadrant(m, cell, x, y)
            slot = cell + _CHILD_OFFSETS[quadrant]
            child = m.load(slot)
            if child == NULL:
                m.store(slot, body)
                return
            if CELL.read(m, child, "type") == 1:
                # Occupied by a body: split into a sub-cell, reinsert both.
                ccx, ccy, chalf = self._child_center(m, cell, quadrant)
                if chalf == 0:
                    # Degenerate co-location: chain would not terminate;
                    # drop the lighter body into the same slot's list spot.
                    m.store(slot, body)
                    return
                sub = self._make_cell(m, ccx, ccy, chalf)
                m.store(slot, sub)
                self._insert(m, sub, child)
                cell = sub
                continue
            cell = child

    def _summarize(self, machine: Machine, node: int) -> tuple[int, int, int]:
        """Bottom-up pass computing each cell's mass and centre of mass."""
        m = machine
        if CELL.read(m, node, "type") == 1:
            return (
                BODY.read(m, node, "mass"),
                BODY.read(m, node, "x"),
                BODY.read(m, node, "y"),
            )
        total = 0
        wx = 0
        wy = 0
        for offset in _CHILD_OFFSETS:
            child = m.load(node + offset)
            if child != NULL:
                mass, x, y = self._summarize(m, child)
                total += mass
                wx += mass * x
                wy += mass * y
        if total:
            CELL.write(m, node, "mass", total)
            CELL.write(m, node, "x", wx // total)
            CELL.write(m, node, "y", wy // total)
        return total, (wx // total if total else 0), (wy // total if total else 0)

    # ------------------------------------------------------------------
    # Force phase (the measured traversal)
    # ------------------------------------------------------------------
    def _force_on(self, machine: Machine, variant: Variant, root: int, body: int) -> int:
        m = machine
        line = m.config.hierarchy.line_size
        prefetching = variant.prefetching
        bx = BODY.read(m, body, "x")
        by = BODY.read(m, body, "y")
        force = 0
        stack = [root]
        while stack:
            node = stack.pop()
            m.execute(self.WORK_PER_VISIT)
            if prefetching:
                if variant.optimized:
                    m.prefetch(node + line, self.PREFETCH_BLOCK)
            if node == body:
                continue
            if CELL.read(m, node, "type") == 1:
                mass = BODY.read(m, node, "mass")
                dx = BODY.read(m, node, "x") - bx
                dy = BODY.read(m, node, "y") - by
                dist2 = dx * dx + dy * dy + 1
                force += (mass << 40) // dist2
                continue
            mass = CELL.read(m, node, "mass")
            if mass == 0:
                continue
            dx = CELL.read(m, node, "x") - bx
            dy = CELL.read(m, node, "y") - by
            dist2 = dx * dx + dy * dy + 1
            size = CELL.read(m, node, "half") << 1
            if size * size < dist2 // _THETA_INV2:
                # Far enough: treat the cell as a point mass.
                force += (mass << 40) // dist2
                continue
            for offset in _CHILD_OFFSETS:
                child = m.load(node + offset)
                if child != NULL:
                    if prefetching and not variant.optimized:
                        m.prefetch(child, 1)
                    stack.append(child)
        return force % (1 << 61)
