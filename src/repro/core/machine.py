"""The simulated machine: tagged memory, forwarding, caches, and timing.

:class:`Machine` is the facade every application and optimization in this
reproduction programs against.  Its data-reference methods implement the
paper's semantics end to end:

1. a reference presents an **initial address**;
2. the forwarding engine chases any chain to the **final address**, with
   each hop performing a real (timed, cache-polluting) memory access;
3. the final access goes through the two-level cache hierarchy;
4. the timing model attributes the latency to graduation-slot categories;
5. the dependence speculator checks for initial/final address collisions.

The paper's ISA extensions (Figure 3) -- ``Read_FBit``,
``Unforwarded_Read`` and ``Unforwarded_Write`` -- are methods here too, so
software such as ``relocate()`` pays its costs through the same machinery.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, Protocol

from repro.cache.hierarchy import MemoryHierarchy
# MachineConfig lives in the light repro.core.config (DESIGN.md §5l);
# it stays importable from here.
from repro.core.config import MachineConfig
from repro.core.errors import DoubleFreeError, MemoryAccessError
from repro.core.forwarding import ForwardingEngine
from repro.core.hotpath import make_machine_ops, make_reference_kernel
from repro.core.memory import TaggedMemory, WORD_MASK, WORD_SIZE
from repro.core.stats import MachineStats, ReferenceLatencyStats, RelocationStats
from repro.cpu.prefetch import SoftwarePrefetcher
from repro.cpu.speculation import DependenceSpeculator
from repro.cpu.timing import TimingModel
from repro.mem.allocator import HeapAllocator
from repro.mem.pool import RelocationPool

#: The simulated NULL pointer.
NULL = 0


@dataclass(frozen=True)
class ForwardingEvent:
    """Passed to a user-level trap handler when a reference is forwarded.

    Mirrors the lightweight user-level trap of Section 3.2: the handler
    learns which initial address was stale and where the data now lives,
    so it can profile the miss or repair the offending pointer.
    """

    initial_address: int
    final_address: int
    hops: int
    is_write: bool


#: Signature of a user-level forwarding trap handler.
TrapHandler = Callable[["Machine", ForwardingEvent], None]


class MachineObserver(Protocol):
    """Instrumentation hook receiving the machine's canonical event stream.

    An observer sees every architectural event an application (or the
    relocation runtime acting on its behalf) issues against the machine:
    data references, ISA extensions, allocation, pool carving, relocation
    bookkeeping, and trap-handler installation.  The stream is *complete*
    in the sense that replaying it against a fresh :class:`Machine` -- via
    :mod:`repro.trace` -- reproduces every counter of
    :meth:`Machine.stats` exactly.

    Observation is passive: installing an observer must not change the
    simulation's behaviour or timing.  Events for operations that can
    trigger nested machine activity (a forwarded load entering a user
    trap handler, say) are emitted *before* the operation executes, so
    nested events appear after their cause in the stream.

    No event carries a cycle count or a cache outcome, so the stream
    does not depend on the timing model: :class:`FunctionalMachine`,
    which has none, emits exactly the events a :class:`Machine` with the
    same config emits, in the same order, and is what trace capture
    runs on.
    """

    def on_load(self, address: int, size: int) -> None: ...
    def on_store(self, address: int, value: int, size: int) -> None: ...
    def on_execute(self, instructions: int) -> None: ...
    def on_prefetch(self, address: int, lines: int) -> None: ...
    def on_read_fbit(self, address: int) -> None: ...
    def on_unforwarded_read(self, address: int) -> None: ...
    def on_unforwarded_write(self, address: int, value: int, fbit: int) -> None: ...
    def on_malloc(self, nbytes: int, align: int, address: int) -> None: ...
    def on_free(self, address: int) -> None: ...
    def on_create_pool(self, index: int, size: int, name: str) -> None: ...
    def on_pool_alloc(
        self, index: int, nbytes: int, align: int, address: int
    ) -> None: ...
    def on_raw_write(self, address: int, value: int) -> None: ...
    def on_note_relocation(self, relocations: int, words: int) -> None: ...
    def on_note_optimizer(self) -> None: ...
    def on_set_trap(self, installed: bool) -> None: ...


class Machine:
    """A complete simulated system instance.

    Data references run through a **fused fast path**: ``load`` and
    ``store`` are per-instance closures (built by
    :func:`repro.core.hotpath.make_machine_ops`) that, when no observer
    is installed and the referenced word's forwarding bit is clear, run
    the fbit check, the whole cache/MSHR/timing cost path, and the data
    access in a single frame over hot state bound to locals.  Every
    exception case -- an observer, a set forwarding bit, an address out
    of range -- falls back to the general path
    (:meth:`_load_general` / :meth:`_store_general`), which remains the
    readable reference implementation.  The two paths produce
    bit-identical :class:`MachineStats`; the differential parity tests
    enforce that invariant across every application and variant.
    """

    __slots__ = (
        "load",
        "store",
        "config",
        "memory",
        "forwarding",
        "hierarchy",
        "timing",
        "heap",
        "prefetcher",
        "speculator",
        "pools",
        "trap_handler",
        "observer",
        "load_latency",
        "store_latency",
        "relocation_stats",
        "_pool_bump",
        "_pool_limit",
        "_pool_region_base",
        "_hop_cycles",
        "_fast_enabled",
        "_kernel_load",
        "_kernel_store",
        "_registry",
        "events",
        "timeline",
        "adapt",
    )

    def __init__(self, config: MachineConfig | None = None) -> None:
        self._init_state(config)
        cfg = self.config
        self.hierarchy = MemoryHierarchy(cfg.hierarchy)
        self.timing = TimingModel(cfg.timing)
        self.prefetcher = SoftwarePrefetcher(self.hierarchy, cfg.max_prefetch_block)
        self.speculator = (
            DependenceSpeculator(cfg.speculation_window)
            if cfg.speculation_window > 0
            else None
        )
        # Per-reference latency accounting (Figure 10(c,d)).
        self.load_latency = ReferenceLatencyStats()
        self.store_latency = ReferenceLatencyStats()
        # Scratch accumulator filled by the per-hop callback.
        self._hop_cycles = 0.0
        self._fast_enabled = cfg.fast_path
        # Fused per-reference cost kernel (see repro.core.hotpath): all
        # components it closes over are allocated exactly once above and
        # only mutated in place for the machine's lifetime.
        self._kernel_load, self._kernel_store = make_reference_kernel(
            self.hierarchy,
            self.timing,
            self.speculator,
            self.load_latency,
            self.store_latency,
            self.forwarding.stats,
        )
        self.load, self.store = make_machine_ops(self)
        # Observability side-channels (DESIGN.md 5d).  Both default off;
        # neither adds a single instruction to the reference hot path
        # when disabled (no wrapper closures, no per-call flag tests
        # beyond those the ops already perform).
        if cfg.events_capacity > 0:
            from repro.obs.events import EventLog

            timing = self.timing
            self.events = EventLog(cfg.events_capacity, clock=lambda: timing.cycle)
            self.forwarding.events = self.events
            self.hierarchy.events = self.events
            # The fused kernels inline the L2 inclusion machinery that
            # cache.l2_victim events come from; force the (bit-identical)
            # general path so no event is lost.
            self._fast_enabled = False
        # The adaptive engine feeds off timeline windows: configuring it
        # implies a timeline (at ``adapt.interval`` when no explicit
        # ``timeline_interval`` is set).
        interval = cfg.timeline_interval
        if interval == 0 and cfg.adapt is not None:
            interval = cfg.adapt.interval
        if interval > 0:
            from repro.obs.timeline import Timeline

            timing = self.timing
            self.timeline = Timeline(
                interval,
                self.metrics,
                mshr=self.hierarchy.mshr,
                clock=lambda: timing.cycle,
                events=self.events,
                region_bytes=cfg.heatmap_region_bytes,
            )
            self._wrap_references_with_timeline()
        if cfg.adapt is not None:
            from repro.adapt.engine import AdaptEngine

            self.adapt = AdaptEngine(self, cfg.adapt)
            self.adapt.install()
            # Engine relocations interleave with application references;
            # stay on the (bit-identical) general path so every
            # forwarding corner case runs the reference implementation.
            self._fast_enabled = False

    def _init_state(self, config: MachineConfig | None) -> None:
        """Build the config-invariant state: memory, forwarding, heap, pools.

        Shared with :class:`FunctionalMachine`, which has this state and
        nothing else.
        """
        self.config = config or MachineConfig()
        cfg = self.config
        self.memory = TaggedMemory(cfg.memory_size)
        self.forwarding = ForwardingEngine(self.memory, cfg.hop_limit)
        self.heap = HeapAllocator(self.memory, cfg.heap_base, cfg.heap_size)
        self.pools: list[RelocationPool] = []
        self._pool_region_base = cfg.heap_base + cfg.heap_size
        self._pool_bump = self._pool_region_base
        self._pool_limit = self._pool_bump + cfg.pool_region_size
        self.trap_handler: TrapHandler | None = None
        #: Optional instrumentation hook (see :class:`MachineObserver`).
        self.observer: MachineObserver | None = None
        self.relocation_stats = RelocationStats()
        # Lazily built repro.obs registry (see the ``metrics`` property);
        # never touched by the reference hot paths.
        self._registry = None
        self.events = None
        self.timeline = None
        self.adapt = None

    def _wrap_references_with_timeline(self) -> None:
        """Interpose the timeline sampler on ``load``/``store``.

        Wrapping (rather than testing a flag inside the ops) keeps the
        disabled configuration byte-for-byte identical to PR 3's hot
        path.  The tick happens *after* the inner reference completes so
        a window boundary observes the reference's full cost -- and so a
        replayed trace, which ticks after dispatching each entry, lands
        its boundaries on exactly the same references.
        """
        timeline = self.timeline
        inner_load = self.load
        inner_store = self.store
        tick = timeline.tick

        def timed_load(address: int, size: int = WORD_SIZE) -> int:
            value = inner_load(address, size)
            tick(address)
            return value

        def timed_store(address: int, value: int, size: int = WORD_SIZE) -> None:
            inner_store(address, value, size)
            tick(address)

        self.load = timed_load
        self.store = timed_store

    # ------------------------------------------------------------------
    # Data references (forwarding-aware)
    # ------------------------------------------------------------------
    def _on_hop(self, word_address: int) -> None:
        """Timed cache access for one forwarding hop.

        The old location is genuinely touched, which is how forwarding
        pollutes the cache (the effect Figure 10(d) attributes latency to).
        """
        timing = self.timing
        start = timing.cycle
        result = self.hierarchy.access(word_address, False, start)
        timing.load_completes(result.ready, forwarding=True)
        self._hop_cycles += result.ready - start

    def _load_general(self, address: int, size: int = WORD_SIZE) -> int:
        """General (reference) load path: observers, forwarding, traps."""
        if self.observer is not None:
            self.observer.on_load(address, size)
        timing = self.timing
        timing.execute(1)
        self._hop_cycles = 0.0
        final, hops = self.forwarding.resolve(address, self._on_hop)
        start = timing.cycle
        result = self.hierarchy.access(final, False, start)
        timing.load_completes(result.ready, forwarding=hops > 0)
        latency = self.load_latency
        latency.count += 1
        latency.ordinary_cycles += result.ready - start
        if hops:
            latency.forwarded += 1
            latency.forwarding_cycles += self._hop_cycles + timing.forwarding_trap_cost(hops)
            timing.forwarding_trap(hops)
            if self.timeline is not None:
                self.timeline.note_forwarded(address)
            self._fire_trap(address, final, hops, is_write=False)
        if self.speculator is not None and self.speculator.on_load(address, final):
            timing.misspeculation_flush()
        return self.memory.read_data(final, size)

    def _store_general(self, address: int, value: int, size: int = WORD_SIZE) -> None:
        """General (reference) store path: observers, forwarding, traps."""
        if self.observer is not None:
            self.observer.on_store(address, value, size)
        timing = self.timing
        timing.execute(1)
        self._hop_cycles = 0.0
        final, hops = self.forwarding.resolve(address, self._on_hop)
        start = timing.cycle
        result = self.hierarchy.access(final, True, start)
        timing.store_completes(result.ready, forwarding=hops > 0)
        latency = self.store_latency
        latency.count += 1
        latency.ordinary_cycles += result.ready - start
        if hops:
            latency.forwarded += 1
            latency.forwarding_cycles += self._hop_cycles + timing.forwarding_trap_cost(hops)
            timing.forwarding_trap(hops)
            if self.timeline is not None:
                self.timeline.note_forwarded(address)
            self._fire_trap(address, final, hops, is_write=True)
        if self.speculator is not None:
            self.speculator.on_store(address, final)
        self.memory.write_data(final, value, size)

    def _fire_trap(self, initial: int, final: int, hops: int, is_write: bool) -> None:
        handler = self.trap_handler
        if handler is not None:
            self.timing.stall(self.config.user_trap_cycles, "inst")
            handler(self, ForwardingEvent(initial, final, hops, is_write))

    # ------------------------------------------------------------------
    # ISA extensions (Figure 3) -- forwarding mechanism disabled
    # ------------------------------------------------------------------
    def read_fbit(self, address: int) -> int:
        """``Read_FBit``: test whether a word holds a forwarding address.

        The bit travels with the line, so this is a timed cache access of
        the word itself (Section 3.2: the bit cannot be tested until the
        line reaches the primary cache).
        """
        word = address & ~7
        if self.observer is None and self._fast_enabled:
            memory = self.memory
            index = word >> 3
            if 0 <= index < memory._nwords:
                self._kernel_load(word, True)
                return memory._fbits[index]
        if self.observer is not None:
            self.observer.on_read_fbit(address)
        timing = self.timing
        timing.execute(1)
        result = self.hierarchy.access(word, False, timing.cycle)
        timing.load_completes(result.ready)
        return self.memory.read_fbit(word)

    def unforwarded_read(self, address: int) -> int:
        """``Unforwarded_Read``: read a word with forwarding disabled."""
        word = address & ~7
        if self.observer is None and self._fast_enabled:
            memory = self.memory
            index = word >> 3
            if 0 <= index < memory._nwords:
                self._kernel_load(word, True)
                return memory._words[index]
        if self.observer is not None:
            self.observer.on_unforwarded_read(address)
        timing = self.timing
        timing.execute(1)
        result = self.hierarchy.access(word, False, timing.cycle)
        timing.load_completes(result.ready)
        return self.memory.read_word(word)

    def unforwarded_write(self, address: int, value: int, fbit: int) -> None:
        """``Unforwarded_Write``: atomically set a word and its bit."""
        word = address & ~7
        if self.observer is None and self._fast_enabled:
            memory = self.memory
            index = word >> 3
            if 0 <= index < memory._nwords:
                self._kernel_store(word, True)
                memory._words[index] = value & WORD_MASK
                memory._fbits[index] = 1 if fbit else 0
                return
        if self.observer is not None:
            self.observer.on_unforwarded_write(address, value, fbit)
        timing = self.timing
        timing.execute(1)
        result = self.hierarchy.access(word, True, timing.cycle)
        timing.store_completes(result.ready)
        self.memory.write_word_tagged(word, value, fbit)

    # ------------------------------------------------------------------
    # Prefetch and plain computation
    # ------------------------------------------------------------------
    def prefetch(self, address: int, lines: int = 1) -> None:
        """Issue one (block) software prefetch instruction."""
        if self.observer is not None:
            self.observer.on_prefetch(address, lines)
        self.timing.execute(1)
        self.prefetcher.prefetch_block(address, lines, self.timing.cycle)

    def execute(self, instructions: int) -> None:
        """Account for ``instructions`` non-memory instructions."""
        if self.observer is not None:
            self.observer.on_execute(instructions)
        # TimingModel.execute, inlined (this is the hottest non-memory
        # call in the instrumented profiles).
        timing = self.timing
        timing.instructions += instructions
        timing.cycle += instructions * timing._ipc
        overhead = instructions * timing.config.inst_overhead
        timing.inst_stall_cycles += overhead
        timing.cycle += overhead

    def raw_write(self, address: int, value: int) -> None:
        """Untimed raw word write (no caches, no forwarding, no cost).

        This is the escape hatch for modelling *magical* memory updates --
        notably the perfect-forwarding pointer fixup of Figure 10's
        ``Perf`` bound, which repairs stale pointers for free.  It still
        goes through the machine (rather than ``memory.write_word``
        directly) so observers see the mutation and replays stay faithful.
        """
        if self.observer is not None:
            self.observer.on_raw_write(address, value)
        self.memory.write_word(address, value)

    # ------------------------------------------------------------------
    # Heap and pools
    # ------------------------------------------------------------------
    def malloc(self, nbytes: int, align: int = WORD_SIZE) -> int:
        """Allocate a heap block; charges allocator bookkeeping time."""
        self.timing.execute(self.config.malloc_base_cost + (nbytes >> 6))
        address = self.heap.allocate(nbytes, align)
        if self.observer is not None:
            self.observer.on_malloc(nbytes, align, address)
        return address

    def free(self, address: int) -> None:
        """Forwarding-aware deallocation wrapper (Section 3.3).

        Every heap block reachable along the forwarding chain of the
        object's first word is released, so relocated copies do not leak
        when the application frees the object by any of its addresses.
        """
        if self.observer is not None:
            self.observer.on_free(address)
        chain = self.forwarding.chain(address)
        if self.events is not None:
            self.events.emit("mem.free", address=address, chain=len(chain))
        self.timing.execute(self.config.free_base_cost + 2 * len(chain))
        self._release_chain(address, chain)

    def _release_chain(self, address: int, chain: list[int]) -> None:
        """Release every heap block on ``chain`` (the body of :meth:`free`)."""
        freed_any = False
        in_pool = False
        for word_address in chain:
            if self.heap.owns(word_address):
                self.heap.release(word_address)
                freed_any = True
            elif self._pool_region_base <= word_address < self._pool_bump:
                # Pool (arena) memory is reclaimed wholesale, never block by
                # block; freeing a relocated copy by its pool address is a
                # no-op, and the original heap stub -- unreachable from here,
                # since chains only run old-to-new -- stays resident.  That
                # residue is exactly the paper's Table 1 "space overhead".
                in_pool = True
        if not freed_any and not in_pool:
            raise DoubleFreeError(address)

    def create_pool(self, size: int, name: str = "pool") -> RelocationPool:
        """Carve a contiguous relocation pool out of the pool region."""
        requested = size
        size = (size + WORD_SIZE - 1) & ~(WORD_SIZE - 1)
        if self._pool_bump + size > self._pool_limit:
            raise MemoryAccessError(self._pool_bump, size, "pool region exhausted")
        pool = RelocationPool(self._pool_bump, size, name)
        self._pool_bump += size
        index = len(self.pools)
        self.pools.append(pool)
        observer = self.observer
        events = self.events
        if observer is not None:
            observer.on_create_pool(index, requested, name)
        if events is not None:
            events.emit("pool.create", index=index, size=requested, name=name)
        if observer is not None or events is not None:
            # One composed callback so observers (trace capture) and the
            # event log both see every carve, in that order.
            def on_allocate(address: int, nbytes: int, align: int) -> None:
                if observer is not None:
                    observer.on_pool_alloc(index, nbytes, align, address)
                if events is not None:
                    events.emit(
                        "pool.alloc", index=index, address=address, nbytes=nbytes
                    )

            pool.on_allocate = on_allocate
        return pool

    # ------------------------------------------------------------------
    # User-level traps (Section 3.2)
    # ------------------------------------------------------------------
    def set_trap_handler(self, handler: TrapHandler | None) -> None:
        """Install (or clear) the user-level forwarding trap handler."""
        if self.observer is not None:
            self.observer.on_set_trap(handler is not None)
        self.trap_handler = handler

    # ------------------------------------------------------------------
    # Relocation bookkeeping (Table 1 counters)
    # ------------------------------------------------------------------
    def note_relocation(self, relocations: int = 1, words: int = 0) -> None:
        """Credit relocation activity to this machine's Table 1 counters.

        The relocation runtime (``relocate()`` and the optimizers built on
        it) calls this instead of mutating ``relocation_stats`` directly,
        so the bookkeeping is part of the observable event stream.
        """
        if self.observer is not None:
            self.observer.on_note_relocation(relocations, words)
        if self.events is not None:
            self.events.emit("reloc.move", count=relocations, words=words)
        stats = self.relocation_stats
        stats.relocations += relocations
        stats.words_relocated += words

    def note_optimizer_invocation(self) -> None:
        """Count one invocation of a higher-level layout optimization."""
        if self.observer is not None:
            self.observer.on_note_optimizer()
        if self.events is not None:
            self.events.emit("opt.invoke")
        self.relocation_stats.optimizer_invocations += 1

    # ------------------------------------------------------------------
    # Statistics
    # ------------------------------------------------------------------
    @property
    def cycles(self) -> float:
        return self.timing.cycle

    def stats(self) -> MachineStats:
        """Snapshot every counter the experiments report."""
        return MachineStats.collect(
            timing=self.timing,
            hierarchy=self.hierarchy,
            loads=replace(self.load_latency),
            stores=replace(self.store_latency),
            speculator=self.speculator,
            prefetcher=self.prefetcher,
            **self._invariant_stats(),
        )

    def _invariant_stats(self) -> dict:
        """The config-invariant counters, as :meth:`MachineStats.collect`
        keyword arguments: properties of the program, not of its timing."""
        forwarding = self.forwarding.stats
        return {
            "forwarding_hops": forwarding.total_hops,
            "cycle_checks": forwarding.cycle_check_invocations,
            "forwarding_chain_hist": forwarding.hop_histogram,
            "relocation": replace(
                self.relocation_stats,
                pool_bytes=sum(pool.used_bytes for pool in self.pools),
            ),
            "heap_high_water": self.heap.stats.high_water,
        }

    @property
    def metrics(self):
        """This machine's live ``repro.obs`` registry (built on first use).

        Every component's counters are *bound* -- read only at snapshot
        time -- so the fused reference kernels stay untouched-hot (the
        hot-path flush contract; see DESIGN.md §5c).  The canonical names
        match :meth:`MachineStats.to_snapshot`, with extra per-component
        detail (per-level hits, MSHR activity, traffic split by
        fill/writeback) available only on the live registry.
        """
        registry = self._registry
        if registry is None:
            from repro.obs.registry import GAUGE, Registry

            registry = Registry()
            self.timing.register_metrics(registry)
            self.hierarchy.register_metrics(registry)
            self.forwarding.stats.register_metrics(registry, "fwd")
            self.prefetcher.register_metrics(registry, "prefetch")
            if self.speculator is not None:
                self.speculator.register_metrics(registry, "spec")
            else:
                registry.bind(
                    "spec.misspeculations", lambda: self.timing.misspeculations
                )
            self.load_latency.register_metrics(registry, "ref.load")
            self.store_latency.register_metrics(registry, "ref.store")
            registry.bind("reloc.count", lambda: self.relocation_stats.relocations)
            registry.bind(
                "reloc.words", lambda: self.relocation_stats.words_relocated
            )
            registry.bind(
                "reloc.optimizer_invocations",
                lambda: self.relocation_stats.optimizer_invocations,
            )
            registry.bind(
                "reloc.pool_bytes",
                lambda: sum(pool.used_bytes for pool in self.pools),
            )
            registry.bind(
                "heap.high_water", lambda: self.heap.stats.high_water, kind=GAUGE
            )
            self._registry = registry
        return registry


class FunctionalMachine(Machine):
    """The machine's semantics without its costs: what a program *does*.

    Memory forwarding decides where data lives and what a load returns;
    the caches, timing model, speculator and prefetcher only price that.
    So a program's event stream, final addresses and loaded values are
    the same on every cache configuration -- relocation is a
    behaviour-preserving transformation -- and this machine computes
    exactly that half: tagged memory, forwarding chains (cycle checks
    included), trap handlers, heap and pools, relocation bookkeeping.
    It builds no hierarchy, timing model, speculator, prefetcher or
    reference kernels, and keeps no timeline, events or adaptive engine.

    Trace capture runs on it (see :func:`repro.trace.recorder.
    capture_trace`): an observer sees the same events in the same order
    as on a :class:`Machine`, and :meth:`stats` reports only the
    config-invariant counters, which is all a trace keeps.  The timed
    counters come from replaying the trace.  Nothing here reads the
    clock, so configs whose behaviour feeds back from timing (the
    adaptive engine) or whose output is per-event (the event log) must
    run on :class:`Machine`.
    """

    __slots__ = ()

    def __init__(self, config: MachineConfig | None = None) -> None:
        self._init_state(config)
        self.load, self.store = self._make_ops()

    def _make_ops(self):
        machine = self
        words = self.memory._words
        read_data = self.memory.read_data
        write_data = self.memory.write_data
        resolve = self.forwarding.resolve

        def load(address: int, size: int = WORD_SIZE) -> int:
            """Forwarding-aware load of ``size`` bytes; returns the value."""
            observer = machine.observer
            if observer is not None:
                observer.on_load(address, size)
            final, hops = resolve(address)
            if hops:
                machine._fire_trap(address, final, hops, is_write=False)
            # resolve() bounds-checked the final word.
            if size == WORD_SIZE and not final & 7:
                return words[final >> 3]
            return read_data(final, size)

        def store(address: int, value: int, size: int = WORD_SIZE) -> None:
            """Forwarding-aware store of ``size`` bytes."""
            observer = machine.observer
            if observer is not None:
                observer.on_store(address, value, size)
            final, hops = resolve(address)
            if hops:
                machine._fire_trap(address, final, hops, is_write=True)
            if size == WORD_SIZE and not final & 7:
                words[final >> 3] = value & WORD_MASK
            else:
                write_data(final, value, size)

        return load, store

    def _fire_trap(self, initial: int, final: int, hops: int, is_write: bool) -> None:
        handler = self.trap_handler
        if handler is not None:
            handler(self, ForwardingEvent(initial, final, hops, is_write))

    def read_fbit(self, address: int) -> int:
        if self.observer is not None:
            self.observer.on_read_fbit(address)
        return self.memory.read_fbit(address & ~7)

    def unforwarded_read(self, address: int) -> int:
        if self.observer is not None:
            self.observer.on_unforwarded_read(address)
        return self.memory.read_word(address & ~7)

    def unforwarded_write(self, address: int, value: int, fbit: int) -> None:
        if self.observer is not None:
            self.observer.on_unforwarded_write(address, value, fbit)
        self.memory.write_word_tagged(address & ~7, value, fbit)

    def prefetch(self, address: int, lines: int = 1) -> None:
        if self.observer is not None:
            self.observer.on_prefetch(address, lines)

    def execute(self, instructions: int) -> None:
        if self.observer is not None:
            self.observer.on_execute(instructions)

    def malloc(self, nbytes: int, align: int = WORD_SIZE) -> int:
        address = self.heap.allocate(nbytes, align)
        if self.observer is not None:
            self.observer.on_malloc(nbytes, align, address)
        return address

    def free(self, address: int) -> None:
        if self.observer is not None:
            self.observer.on_free(address)
        self._release_chain(address, self.forwarding.chain(address))

    def stats(self) -> MachineStats:
        """The config-invariant counters; every timed counter is zero."""
        invariant = self._invariant_stats()
        invariant["forwarding_chain_hist"] = dict(
            invariant["forwarding_chain_hist"]
        )
        return MachineStats(**invariant)
