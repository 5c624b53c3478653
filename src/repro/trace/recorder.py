"""Capture a machine's event stream while an application runs.

:class:`TraceRecorder` implements the :class:`~repro.core.machine.
MachineObserver` protocol and encodes each event straight into the
current chunk's column buffers as it arrives -- capture never
materialises an in-memory event list, and sealed chunks are compressed
immediately, so recording a full-scale run costs one open chunk of
bytearray plus the compressed corpus, not hundreds of megabytes of
tuples.

The encoding loops (zigzag + LEB128, see :mod:`repro.trace.format` for
the reference :class:`~repro.trace.format.ChunkWriter`) are inlined
into every callback: the recorder sits on the machine's per-reference
hot path, and at a few hundred thousand events per run the
function-call overhead of composable helpers is the difference between
a few percent and tens of percent of capture overhead.

The recorder also tracks the forwarding-membership word set as it
records (an ``unforwarded_write`` with the fbit set adds the word, with
it clear removes it; loads and stores probe it), so the finished trace
knows ``has_forwarded`` -- which speculation mode the specialized
kernels may use -- without anyone decoding the stream.

:func:`capture_trace` is the one-call front end: run an application
variant with a recorder attached and get back the
:class:`~repro.trace.format.Trace`.  The stream does not depend on the
timing model, so capture normally runs on the timing-free
:class:`~repro.core.machine.FunctionalMachine` and yields no timed
result: the capturing cell is answered by replaying the fresh trace,
like every other cell.  Only configs whose behaviour or output needs
the clock (the adaptive engine, the event log) capture on the timed
:class:`~repro.core.machine.Machine`, and their direct result comes
back with the trace.
"""

from __future__ import annotations

import hashlib

from repro.apps import get_application, load_applications
from repro.apps.base import AppResult, Variant
from repro.core.machine import FunctionalMachine, Machine, MachineConfig
from repro.core.stats import INVARIANT_FIELDS
from repro.trace.events import (
    CREATE_POOL,
    EXECUTE,
    FREE,
    LOAD,
    MALLOC,
    NOTE_OPT,
    NOTE_RELOC,
    POOL_ALLOC,
    PREFETCH,
    RAW_WRITE,
    READ_FBIT,
    SET_TRAP,
    STORE,
    UNF_READ,
    UNF_WRITE,
)
from repro.trace.format import (
    CHUNK_EVENTS,
    COLUMN_NAMES,
    Chunk,
    Trace,
    finish_stream_digest,
    make_chunk,
)

# The capture engine loads every application up front: a process that
# imports it (a sweep worker, say) then compiles no application module
# inside a timed capture (DESIGN.md §5l).
load_applications()


class TraceRecorder:
    """Streaming columnar encoder for the canonical machine event stream."""

    def __init__(self, chunk_events: int = CHUNK_EVENTS) -> None:
        if chunk_events < 1:
            raise ValueError("chunk_events must be >= 1")
        self.chunk_events = chunk_events
        self.event_count = 0
        self.pool_names: list[str] = []
        self.has_forwarded = False
        self._ops = bytearray()
        self._addr = bytearray()
        self._aux = bytearray()
        self._chunks: list[Chunk] = []
        self._pending = 0
        self._last_address = 0
        self._chunk_start = 0
        self._fwd: set[int] = set()
        self._col_shas = [hashlib.sha256() for _ in COLUMN_NAMES]

    # -- chunk sealing -------------------------------------------------
    def _seal(self) -> None:
        raws = (bytes(self._ops), bytes(self._addr), bytes(self._aux))
        for sha, raw in zip(self._col_shas, raws):
            sha.update(raw)
        self._chunks.append(make_chunk(raws, self._pending, self._chunk_start))
        self._ops.clear()
        self._addr.clear()
        self._aux.clear()
        self._pending = 0
        self._chunk_start = self._last_address

    def finish(self) -> tuple[tuple[Chunk, ...], str]:
        """Seal the open chunk; returns ``(chunks, stream_sha256)``."""
        if self._pending:
            self._seal()
        return (
            tuple(self._chunks),
            finish_stream_digest(self._col_shas, self.event_count),
        )

    # -- MachineObserver protocol --------------------------------------
    # Each callback appends the opcode to the ops column, the zigzag
    # address delta (against the running register) to the addr column,
    # and every other operand LEB128-encoded to the aux column, exactly
    # as format.ChunkWriter would -- the round-trip property tests pin
    # the two to each other.
    def on_load(self, address: int, size: int) -> None:
        self._ops.append(LOAD)
        out = self._addr
        v = address - self._last_address
        self._last_address = address
        v = v << 1 if v >= 0 else ((-v) << 1) - 1
        while v > 0x7F:
            out.append((v & 0x7F) | 0x80)
            v >>= 7
        out.append(v)
        out = self._aux
        while size > 0x7F:
            out.append((size & 0x7F) | 0x80)
            size >>= 7
        out.append(size)
        if not self.has_forwarded and (address & ~7) in self._fwd:
            self.has_forwarded = True
        self.event_count += 1
        self._pending += 1
        if self._pending >= self.chunk_events:
            self._seal()

    def on_store(self, address: int, value: int, size: int) -> None:
        self._ops.append(STORE)
        out = self._addr
        v = address - self._last_address
        self._last_address = address
        v = v << 1 if v >= 0 else ((-v) << 1) - 1
        while v > 0x7F:
            out.append((v & 0x7F) | 0x80)
            v >>= 7
        out.append(v)
        out = self._aux
        v = value << 1 if value >= 0 else ((-value) << 1) - 1
        while v > 0x7F:
            out.append((v & 0x7F) | 0x80)
            v >>= 7
        out.append(v)
        while size > 0x7F:
            out.append((size & 0x7F) | 0x80)
            size >>= 7
        out.append(size)
        if not self.has_forwarded and (address & ~7) in self._fwd:
            self.has_forwarded = True
        self.event_count += 1
        self._pending += 1
        if self._pending >= self.chunk_events:
            self._seal()

    def on_execute(self, instructions: int) -> None:
        self._ops.append(EXECUTE)
        out = self._aux
        while instructions > 0x7F:
            out.append((instructions & 0x7F) | 0x80)
            instructions >>= 7
        out.append(instructions)
        self.event_count += 1
        self._pending += 1
        if self._pending >= self.chunk_events:
            self._seal()

    def on_prefetch(self, address: int, lines: int) -> None:
        self._ops.append(PREFETCH)
        out = self._addr
        v = address - self._last_address
        self._last_address = address
        v = v << 1 if v >= 0 else ((-v) << 1) - 1
        while v > 0x7F:
            out.append((v & 0x7F) | 0x80)
            v >>= 7
        out.append(v)
        out = self._aux
        while lines > 0x7F:
            out.append((lines & 0x7F) | 0x80)
            lines >>= 7
        out.append(lines)
        self.event_count += 1
        self._pending += 1
        if self._pending >= self.chunk_events:
            self._seal()

    def on_read_fbit(self, address: int) -> None:
        self._ops.append(READ_FBIT)
        out = self._addr
        v = address - self._last_address
        self._last_address = address
        v = v << 1 if v >= 0 else ((-v) << 1) - 1
        while v > 0x7F:
            out.append((v & 0x7F) | 0x80)
            v >>= 7
        out.append(v)
        self.event_count += 1
        self._pending += 1
        if self._pending >= self.chunk_events:
            self._seal()

    def on_unforwarded_read(self, address: int) -> None:
        self._ops.append(UNF_READ)
        out = self._addr
        v = address - self._last_address
        self._last_address = address
        v = v << 1 if v >= 0 else ((-v) << 1) - 1
        while v > 0x7F:
            out.append((v & 0x7F) | 0x80)
            v >>= 7
        out.append(v)
        self.event_count += 1
        self._pending += 1
        if self._pending >= self.chunk_events:
            self._seal()

    def on_unforwarded_write(self, address: int, value: int, fbit: int) -> None:
        self._ops.append(UNF_WRITE)
        out = self._addr
        v = address - self._last_address
        self._last_address = address
        v = v << 1 if v >= 0 else ((-v) << 1) - 1
        while v > 0x7F:
            out.append((v & 0x7F) | 0x80)
            v >>= 7
        out.append(v)
        out = self._aux
        v = value << 1 if value >= 0 else ((-value) << 1) - 1
        while v > 0x7F:
            out.append((v & 0x7F) | 0x80)
            v >>= 7
        out.append(v)
        if fbit:
            self._fwd.add(address & ~7)
        else:
            self._fwd.discard(address & ~7)
        while fbit > 0x7F:
            out.append((fbit & 0x7F) | 0x80)
            fbit >>= 7
        out.append(fbit)
        self.event_count += 1
        self._pending += 1
        if self._pending >= self.chunk_events:
            self._seal()

    def on_malloc(self, nbytes: int, align: int, address: int) -> None:
        self._ops.append(MALLOC)
        out = self._aux
        while nbytes > 0x7F:
            out.append((nbytes & 0x7F) | 0x80)
            nbytes >>= 7
        out.append(nbytes)
        while align > 0x7F:
            out.append((align & 0x7F) | 0x80)
            align >>= 7
        out.append(align)
        out = self._addr
        v = address - self._last_address
        self._last_address = address
        v = v << 1 if v >= 0 else ((-v) << 1) - 1
        while v > 0x7F:
            out.append((v & 0x7F) | 0x80)
            v >>= 7
        out.append(v)
        self.event_count += 1
        self._pending += 1
        if self._pending >= self.chunk_events:
            self._seal()

    def on_free(self, address: int) -> None:
        self._ops.append(FREE)
        out = self._addr
        v = address - self._last_address
        self._last_address = address
        v = v << 1 if v >= 0 else ((-v) << 1) - 1
        while v > 0x7F:
            out.append((v & 0x7F) | 0x80)
            v >>= 7
        out.append(v)
        self.event_count += 1
        self._pending += 1
        if self._pending >= self.chunk_events:
            self._seal()

    def on_create_pool(self, index: int, size: int, name: str) -> None:
        if index != len(self.pool_names):
            raise ValueError(
                f"pool created out of order: index {index}, "
                f"have {len(self.pool_names)} names"
            )
        self.pool_names.append(name)
        self._ops.append(CREATE_POOL)
        out = self._aux
        while size > 0x7F:
            out.append((size & 0x7F) | 0x80)
            size >>= 7
        out.append(size)
        self.event_count += 1
        self._pending += 1
        if self._pending >= self.chunk_events:
            self._seal()

    def on_pool_alloc(
        self, index: int, nbytes: int, align: int, address: int
    ) -> None:
        self._ops.append(POOL_ALLOC)
        out = self._aux
        while index > 0x7F:
            out.append((index & 0x7F) | 0x80)
            index >>= 7
        out.append(index)
        while nbytes > 0x7F:
            out.append((nbytes & 0x7F) | 0x80)
            nbytes >>= 7
        out.append(nbytes)
        while align > 0x7F:
            out.append((align & 0x7F) | 0x80)
            align >>= 7
        out.append(align)
        out = self._addr
        v = address - self._last_address
        self._last_address = address
        v = v << 1 if v >= 0 else ((-v) << 1) - 1
        while v > 0x7F:
            out.append((v & 0x7F) | 0x80)
            v >>= 7
        out.append(v)
        self.event_count += 1
        self._pending += 1
        if self._pending >= self.chunk_events:
            self._seal()

    def on_raw_write(self, address: int, value: int) -> None:
        self._ops.append(RAW_WRITE)
        out = self._addr
        v = address - self._last_address
        self._last_address = address
        v = v << 1 if v >= 0 else ((-v) << 1) - 1
        while v > 0x7F:
            out.append((v & 0x7F) | 0x80)
            v >>= 7
        out.append(v)
        out = self._aux
        v = value << 1 if value >= 0 else ((-value) << 1) - 1
        while v > 0x7F:
            out.append((v & 0x7F) | 0x80)
            v >>= 7
        out.append(v)
        self.event_count += 1
        self._pending += 1
        if self._pending >= self.chunk_events:
            self._seal()

    def on_note_relocation(self, relocations: int, words: int) -> None:
        self._ops.append(NOTE_RELOC)
        out = self._aux
        while relocations > 0x7F:
            out.append((relocations & 0x7F) | 0x80)
            relocations >>= 7
        out.append(relocations)
        while words > 0x7F:
            out.append((words & 0x7F) | 0x80)
            words >>= 7
        out.append(words)
        self.event_count += 1
        self._pending += 1
        if self._pending >= self.chunk_events:
            self._seal()

    def on_note_optimizer(self) -> None:
        self._ops.append(NOTE_OPT)
        self.event_count += 1
        self._pending += 1
        if self._pending >= self.chunk_events:
            self._seal()

    def on_set_trap(self, installed: bool) -> None:
        self._ops.append(SET_TRAP)
        self._aux.append(1 if installed else 0)
        self.event_count += 1
        self._pending += 1
        if self._pending >= self.chunk_events:
            self._seal()


def needs_timed_capture(config: MachineConfig) -> bool:
    """Whether capturing under ``config`` must run the timed machine.

    The adaptive engine decides from timing feedback, so its references
    (part of the stream) depend on the clock; the event log is an output
    only a direct run produces.  Everything else captures functionally.
    """
    return config.adapt is not None or config.events_capacity > 0


def capture_trace(
    app: str,
    variant: Variant,
    config: MachineConfig,
    scale: float = 1.0,
    seed: int = 1,
    on_window=None,
) -> tuple[Trace, AppResult | None]:
    """Run ``app`` once with recording on; return ``(trace, direct)``.

    ``direct`` is the timed direct-run result when ``config`` needs a
    timed capture (:func:`needs_timed_capture`) and ``None`` otherwise:
    the functional capture computes no timed counters, and a replay of
    ``trace`` under ``config`` reproduces the direct run bit for bit.
    ``on_window`` streams timeline windows live during a timed capture
    (see :meth:`repro.apps.base.Application.run`).
    """
    application = get_application(app, scale=scale, seed=seed)
    recorder = TraceRecorder()
    timed = needs_timed_capture(config)
    result = application.run(
        variant,
        config,
        observer=recorder,
        on_window=on_window,
        machine_class=Machine if timed else FunctionalMachine,
    )
    chunks, stream_sha = recorder.finish()
    dump = result.stats.dump()
    trace = Trace(
        app=app,
        variant=variant.value,
        scale=scale,
        seed=seed,
        line_size=config.hierarchy.line_size,
        line_size_sensitive=application.stream_depends_on_line_size(variant),
        checksum=result.checksum,
        extras=dict(result.extras),
        captured_stats={name: dump[name] for name in INVARIANT_FIELDS},
        pool_names=recorder.pool_names,
        event_count=recorder.event_count,
        chunks=chunks,
        has_forwarded=recorder.has_forwarded,
        _stream_sha=stream_sha,
    )
    return trace, (result if timed else None)
