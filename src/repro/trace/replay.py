"""Replay a captured trace against a different machine configuration.

The key observation (which is also why capture-once-replay-many is sound
at all) is that a reference stream splits cleanly into two halves:

* **Config-invariant state.**  Forwarding chains, allocator placement,
  memory contents, relocation bookkeeping -- all fully determined by the
  event stream itself, identical under every cache configuration the
  stream may legally be replayed against.
* **Config-dependent accounting.**  The cache hierarchy, the timing
  model, the prefetcher, and the dependence speculator -- the things a
  sweep actually varies and measures.

Replay therefore does *not* rebuild a full :class:`~repro.core.machine.
Machine`.  It decodes the trace's columnar chunks into *resolved
chunks* -- every load/store annotated with its forwarding resolution
(final address plus hop addresses), computed from a forwarding map fed
by the recorded ``Unforwarded_Write``/``raw_write`` events -- and
drives only the config-dependent components with them, mirroring
``Machine.load``/``store``/etc. cost-for-cost.  Config-invariant
counters (relocation activity, forwarding hop totals, heap footprint)
are copied from the capture's stats, which is exact by definition.

Decode is *streaming*: :func:`iter_resolved_chunks` yields one
:class:`ResolvedChunk` at a time (flat ``kinds``/``ops`` arrays plus a
sparse extras dict), so resident memory is O(chunk) rather than
O(trace), and a :class:`ReplaySession` consumes chunks incrementally --
which is what lets the batch engine decode each chunk once and drive
*every* config in a group over it before pulling the next.

For traces managed by an artifact store, the decoded chunks are also
cached on disk in a marshal *sidecar* next to the trace file (one
deflated record per chunk, so it streams too); loading it is about ten
times cheaper than re-decoding columns.  The sidecar is a pure cache:
the header is validated against the interpreter/format versions and
the trace's stream digest (mismatch falls back to a silent re-decode
that rewrites it), and corruption discovered *mid-stream* -- after
chunks were already served -- raises :class:`SidecarError` so the
driver can reset its sessions and restart from the raw columns.

This is what makes a replay measurably cheaper than a direct run: the
application logic is gone *and* so are the tagged memory, the forwarding
walks, and the allocator.  The fidelity tests pin the mirroring by
asserting replayed stats equal direct-run stats exactly, app by app.
"""

from __future__ import annotations

import contextlib
import itertools
import marshal
import os
import sys
import time as _time
import zlib
from array import array
from typing import Iterable, Iterator

from repro.apps.base import AppResult, Variant
from repro.cache.hierarchy import MemoryHierarchy
from repro.core.forwarding import ForwardingStats
from repro.core.hotpath import make_reference_kernel
from repro.core.machine import MachineConfig
from repro.core.stats import MachineStats, ReferenceLatencyStats, RelocationStats
from repro.cpu.prefetch import SoftwarePrefetcher
from repro.cpu.speculation import DependenceSpeculator
from repro.cpu.timing import TimingModel
from repro.trace.format import (
    FORMAT_VERSION,
    Trace,
    TraceFormatError,
)


class TraceReplayError(Exception):
    """The trace cannot legally drive the requested configuration."""


class SidecarError(Exception):
    """A resolved-stream sidecar went bad *mid-stream*.

    Raised only after some chunks may already have been served to
    sessions -- the driver must reset its sessions, drop the sidecar,
    and restart from the raw columns (see :func:`drive_sessions`).
    """


# Resolved-stream entry kinds (the per-entry ``kinds`` byte).  LOAD and
# STORE here are the unforwarded common case; the _FWD variants carry
# the forwarding resolution in the extras dict.
_LOAD = 0
_STORE = 1
_EXEC = 2
_ACCESS_R = 3   # Read_FBit / Unforwarded_Read: timed read of one word
_ACCESS_W = 4   # Unforwarded_Write: timed write of one word
_LOAD_FWD = 5
_STORE_FWD = 6
_PREFETCH = 7
_MALLOC = 8     # carries nbytes (cost is config-dependent)
_FREE = 9       # carries forwarding-chain length (ditto)
_TRAP = 10      # trap handler installed / removed


class ResolvedChunk:
    """One decoded chunk in struct-of-arrays form.

    ``kinds[i]`` is the entry kind, ``ops[i]`` its primary integer
    operand (address, word, count, ...), and ``extras`` a sparse dict
    holding the rare multi-operand payloads: ``i -> lines`` for
    prefetches and ``i -> (final_address, hop_tuple)`` for forwarded
    references.  The flat layout is what the exec-specialized kernels
    index directly, with no per-entry tuple allocation.
    """

    __slots__ = ("n", "kinds", "ops", "extras")

    def __init__(self, kinds: bytes, ops: array, extras: dict) -> None:
        self.n = len(kinds)
        self.kinds = kinds
        self.ops = ops
        self.extras = extras

    def entries(self) -> Iterator[tuple]:
        """The legacy tuple view of this chunk (compat + tests)."""
        kinds = self.kinds
        ops = self.ops
        extras = self.extras
        for i in range(self.n):
            kind = kinds[i]
            if kind == _LOAD_FWD or kind == _STORE_FWD:
                final, hops = extras[i]
                yield (kind, ops[i], final, hops)
            elif kind == _PREFETCH:
                yield (kind, ops[i], extras[i])
            else:
                yield (kind, ops[i])


# ----------------------------------------------------------------------
# Resolved-chunk sidecar: a marshal *stream* (header, one record per
# chunk, has_forwarded trailer) kept next to the trace file by the
# artifact store.  Each record is the deflated marshal of one resolved
# chunk: raw records run ~7x larger than deflated ones, and inflating a
# whole Figure-5 corpus costs milliseconds, still a small fraction of
# decoding the columns.
# ----------------------------------------------------------------------
#: Bump on any change to the resolved-chunk record layout.  Version 1
#: was the monolithic whole-stream dump of trace format v2; version 2
#: stored records undeflated.
_SIDECAR_VERSION = 3
_SIDECAR_LEVEL = 1

_sidecar_counter = itertools.count()


def _sidecar_tag() -> tuple:
    # marshal's wire format is interpreter-specific and array('q') bytes
    # are native-endian, so the tag pins the Python minor version,
    # marshal version, and byte order alongside our own format versions;
    # a different interpreter simply re-decodes.
    return (
        _SIDECAR_VERSION,
        FORMAT_VERSION,
        sys.version_info[0],
        sys.version_info[1],
        marshal.version,
        sys.byteorder,
    )


def _open_sidecar(trace: Trace, path):
    """Open + validate the sidecar header; a positioned handle, or None.

    Header mismatches (foreign trace, other interpreter, old layout,
    plain corruption) are silent -- the caller re-decodes, which
    rewrites the sidecar.
    """
    try:
        handle = open(path, "rb")
    except OSError:
        return None
    try:
        tag, digest, count = marshal.load(handle)
    except Exception:  # marshal raises a grab-bag on corrupt input
        handle.close()
        return None
    if (
        tag != _sidecar_tag()
        or count != len(trace.chunks)
        or digest != trace.stream_sha256
    ):
        handle.close()
        return None
    return handle


def _iter_sidecar_chunks(
    trace: Trace, handle, count: int
) -> Iterator[ResolvedChunk]:
    """Serve chunks from an already-validated sidecar handle.

    Anything wrong past the header raises :class:`SidecarError`: by then
    earlier chunks may already be live in sessions, so silent fallback
    is no longer an option.
    """
    with handle:
        for index in range(count):
            try:
                kinds, ops_bytes, extras = marshal.loads(
                    zlib.decompress(marshal.load(handle))
                )
                if not (
                    isinstance(kinds, bytes)
                    and isinstance(ops_bytes, bytes)
                    and isinstance(extras, dict)
                ):
                    raise ValueError("bad sidecar record shape")
                ops = array("q")
                ops.frombytes(ops_bytes)
                if len(ops) != len(kinds):
                    raise ValueError("sidecar kinds/ops length mismatch")
            except SidecarError:
                raise
            except Exception as exc:
                raise SidecarError(
                    f"corrupt sidecar record {index}: {exc}"
                ) from exc
            yield ResolvedChunk(kinds, ops, extras)
        try:
            has_forwarded = marshal.load(handle)
        except Exception as exc:
            raise SidecarError(f"truncated sidecar trailer: {exc}") from exc
        trace.has_forwarded = bool(has_forwarded)


class _SidecarWriter:
    """Incremental, best-effort, atomic sidecar writer.

    Records are appended to a unique temp file as chunks decode and the
    temp is renamed over the target only on :meth:`commit` -- an
    abandoned decode (driver stopped pulling chunks) or any I/O error
    just discards the temp.  Same ``*.tmp*`` naming as the store's
    writes, so ``sweep_stale`` collects orphans.
    """

    def __init__(self, trace: Trace, path) -> None:
        self._path = path
        self._tmp = path.with_name(
            f"{path.name}.tmp{os.getpid()}-{next(_sidecar_counter)}"
        )
        try:
            self._handle = open(self._tmp, "wb")
            marshal.dump(
                (_sidecar_tag(), trace.stream_sha256, len(trace.chunks)),
                self._handle,
            )
        except OSError:
            self._discard()

    def _discard(self) -> None:
        if getattr(self, "_handle", None) is not None:
            with contextlib.suppress(OSError):
                self._handle.close()
        self._handle = None
        if self._tmp is not None:
            with contextlib.suppress(OSError):
                self._tmp.unlink()
        self._tmp = None

    def add(self, chunk: ResolvedChunk) -> None:
        if self._handle is None:
            return
        try:
            record = marshal.dumps(
                (chunk.kinds, chunk.ops.tobytes(), chunk.extras)
            )
            marshal.dump(zlib.compress(record, _SIDECAR_LEVEL), self._handle)
        except (OSError, ValueError):
            self._discard()

    def commit(self, has_forwarded: bool) -> None:
        if self._handle is None:
            return
        try:
            marshal.dump(bool(has_forwarded), self._handle)
            self._handle.close()
            self._handle = None
            os.replace(self._tmp, self._path)
            self._tmp = None
        except OSError:
            self._discard()

    def abort(self) -> None:
        self._discard()


# ----------------------------------------------------------------------
# Decode: raw columns -> resolved chunks
# ----------------------------------------------------------------------
def _decode_chunks(trace: Trace, sidecar_path) -> Iterator[ResolvedChunk]:
    """Decode the trace's columns chunk by chunk, teeing to the sidecar.

    This pass simulates the config-invariant half exactly once: it keeps
    the forwarding map ``{word -> forwarding word value}`` up to date
    from the write events (carried *across* chunk boundaries, like the
    address register) and annotates every reference with the hop
    addresses and final address ``ForwardingEngine.resolve`` would walk.
    Entries with no config-dependent cost (pool bookkeeping, relocation
    counters, raw writes) are folded away entirely.
    """
    writer = _SidecarWriter(trace, sidecar_path) if sidecar_path else None
    committed = False
    try:
        fwd: dict[int, int] = {}
        last = 0
        total = 0
        has_forwarded = False
        for index, chunk in enumerate(trace.chunks):
            if chunk.start_address != last:
                raise TraceFormatError(
                    f"chunk {index} start address {chunk.start_address} "
                    f"does not continue the stream (register is {last})"
                )
            ops_raw, addr_raw, aux_raw = chunk.columns(index)
            if len(ops_raw) != chunk.event_count:
                raise TraceFormatError(
                    f"chunk {index}: {len(ops_raw)} opcodes, index says "
                    f"{chunk.event_count} events"
                )
            kinds = bytearray()
            ops = array("q")
            extras: dict = {}
            kind_append = kinds.append
            op_append = ops.append
            ai = 0
            xi = 0
            try:
                for op in ops_raw:
                    if op == 0 or op == 1:  # LOAD / STORE
                        b = addr_raw[ai]
                        ai += 1
                        v = b & 0x7F
                        s = 7
                        while b >= 0x80:
                            b = addr_raw[ai]
                            ai += 1
                            v |= (b & 0x7F) << s
                            s += 7
                        last += (v >> 1) ^ -(v & 1)
                        if op == 1:  # skip the stored value (data plane)
                            b = aux_raw[xi]
                            xi += 1
                            while b >= 0x80:
                                b = aux_raw[xi]
                                xi += 1
                        b = aux_raw[xi]  # skip the size (word-granular)
                        xi += 1
                        while b >= 0x80:
                            b = aux_raw[xi]
                            xi += 1
                        word = last & ~7
                        if word not in fwd:
                            kind_append(op)
                            op_append(last)
                        else:
                            has_forwarded = True
                            hops = []
                            value = 0
                            while word in fwd:
                                hops.append(word)
                                value = fwd[word]
                                word = value & ~7
                            kind_append(
                                _LOAD_FWD if op == 0 else _STORE_FWD
                            )
                            extras[len(ops)] = (
                                value | (last & 7),
                                tuple(hops),
                            )
                            op_append(last)
                    elif op == 2:  # EXECUTE: instruction count
                        b = aux_raw[xi]
                        xi += 1
                        v = b & 0x7F
                        s = 7
                        while b >= 0x80:
                            b = aux_raw[xi]
                            xi += 1
                            v |= (b & 0x7F) << s
                            s += 7
                        kind_append(_EXEC)
                        op_append(v)
                    elif op == 6:  # UNF_WRITE: address, value, fbit
                        b = addr_raw[ai]
                        ai += 1
                        v = b & 0x7F
                        s = 7
                        while b >= 0x80:
                            b = addr_raw[ai]
                            ai += 1
                            v |= (b & 0x7F) << s
                            s += 7
                        last += (v >> 1) ^ -(v & 1)
                        b = aux_raw[xi]
                        xi += 1
                        v = b & 0x7F
                        s = 7
                        while b >= 0x80:
                            b = aux_raw[xi]
                            xi += 1
                            v |= (b & 0x7F) << s
                            s += 7
                        value = (v >> 1) ^ -(v & 1)
                        b = aux_raw[xi]
                        xi += 1
                        fbit = b & 0x7F
                        s = 7
                        while b >= 0x80:
                            b = aux_raw[xi]
                            xi += 1
                            fbit |= (b & 0x7F) << s
                            s += 7
                        word = last & ~7
                        kind_append(_ACCESS_W)
                        op_append(word)
                        if fbit:
                            fwd[word] = value
                        else:
                            fwd.pop(word, None)
                    elif op == 4 or op == 5:  # READ_FBIT / UNF_READ
                        b = addr_raw[ai]
                        ai += 1
                        v = b & 0x7F
                        s = 7
                        while b >= 0x80:
                            b = addr_raw[ai]
                            ai += 1
                            v |= (b & 0x7F) << s
                            s += 7
                        last += (v >> 1) ^ -(v & 1)
                        kind_append(_ACCESS_R)
                        op_append(last & ~7)
                    elif op == 3:  # PREFETCH: address, line count
                        b = addr_raw[ai]
                        ai += 1
                        v = b & 0x7F
                        s = 7
                        while b >= 0x80:
                            b = addr_raw[ai]
                            ai += 1
                            v |= (b & 0x7F) << s
                            s += 7
                        last += (v >> 1) ^ -(v & 1)
                        b = aux_raw[xi]
                        xi += 1
                        lines = b & 0x7F
                        s = 7
                        while b >= 0x80:
                            b = aux_raw[xi]
                            xi += 1
                            lines |= (b & 0x7F) << s
                            s += 7
                        kind_append(_PREFETCH)
                        extras[len(ops)] = lines
                        op_append(last)
                    elif op == 7:  # MALLOC: nbytes, align, result address
                        b = aux_raw[xi]
                        xi += 1
                        nbytes = b & 0x7F
                        s = 7
                        while b >= 0x80:
                            b = aux_raw[xi]
                            xi += 1
                            nbytes |= (b & 0x7F) << s
                            s += 7
                        b = aux_raw[xi]  # align: untimed
                        xi += 1
                        while b >= 0x80:
                            b = aux_raw[xi]
                            xi += 1
                        b = addr_raw[ai]
                        ai += 1
                        v = b & 0x7F
                        s = 7
                        while b >= 0x80:
                            b = addr_raw[ai]
                            ai += 1
                            v |= (b & 0x7F) << s
                            s += 7
                        last += (v >> 1) ^ -(v & 1)
                        kind_append(_MALLOC)
                        op_append(nbytes)
                    elif op == 8:  # FREE: cost scales with chain length
                        b = addr_raw[ai]
                        ai += 1
                        v = b & 0x7F
                        s = 7
                        while b >= 0x80:
                            b = addr_raw[ai]
                            ai += 1
                            v |= (b & 0x7F) << s
                            s += 7
                        last += (v >> 1) ^ -(v & 1)
                        word = last & ~7
                        chain = 1
                        while word in fwd:
                            word = fwd[word] & ~7
                            chain += 1
                        kind_append(_FREE)
                        op_append(chain)
                    elif op == 9:  # CREATE_POOL: untimed bookkeeping
                        b = aux_raw[xi]
                        xi += 1
                        while b >= 0x80:
                            b = aux_raw[xi]
                            xi += 1
                    elif op == 10:  # POOL_ALLOC: untimed bookkeeping
                        for _ in range(3):
                            b = aux_raw[xi]
                            xi += 1
                            while b >= 0x80:
                                b = aux_raw[xi]
                                xi += 1
                        b = addr_raw[ai]
                        ai += 1
                        v = b & 0x7F
                        s = 7
                        while b >= 0x80:
                            b = addr_raw[ai]
                            ai += 1
                            v |= (b & 0x7F) << s
                            s += 7
                        last += (v >> 1) ^ -(v & 1)
                    elif op == 11:  # RAW_WRITE: may retarget a chain word
                        b = addr_raw[ai]
                        ai += 1
                        v = b & 0x7F
                        s = 7
                        while b >= 0x80:
                            b = addr_raw[ai]
                            ai += 1
                            v |= (b & 0x7F) << s
                            s += 7
                        last += (v >> 1) ^ -(v & 1)
                        b = aux_raw[xi]
                        xi += 1
                        v = b & 0x7F
                        s = 7
                        while b >= 0x80:
                            b = aux_raw[xi]
                            xi += 1
                            v |= (b & 0x7F) << s
                            s += 7
                        word = last & ~7
                        if word in fwd:
                            fwd[word] = (v >> 1) ^ -(v & 1)
                    elif op == 12:  # NOTE_RELOC: counters (from capture)
                        for _ in range(2):
                            b = aux_raw[xi]
                            xi += 1
                            while b >= 0x80:
                                b = aux_raw[xi]
                                xi += 1
                    elif op == 13:  # NOTE_OPT: counter only
                        pass
                    elif op == 14:  # SET_TRAP: installed flag
                        b = aux_raw[xi]
                        xi += 1
                        flag = b & 0x7F
                        s = 7
                        while b >= 0x80:
                            b = aux_raw[xi]
                            xi += 1
                            flag |= (b & 0x7F) << s
                            s += 7
                        kind_append(_TRAP)
                        op_append(flag)
                    else:
                        raise TraceFormatError(
                            f"unknown opcode {op} in chunk {index}"
                        )
            except IndexError:
                raise TraceFormatError(
                    f"truncated varint in chunk {index} columns"
                ) from None
            if ai != len(addr_raw) or xi != len(aux_raw):
                raise TraceFormatError(
                    f"trailing bytes in chunk {index} columns "
                    f"(addr {len(addr_raw) - ai}, aux {len(aux_raw) - xi})"
                )
            total += len(ops_raw)
            resolved = ResolvedChunk(bytes(kinds), ops, extras)
            if writer is not None:
                writer.add(resolved)
            yield resolved
        if total != trace.event_count:
            raise TraceFormatError(
                f"event count mismatch: decoded {total}, "
                f"header says {trace.event_count}"
            )
        trace.has_forwarded = has_forwarded
        if writer is not None:
            writer.commit(has_forwarded)
        committed = True
    finally:
        if writer is not None and not committed:
            writer.abort()


def iter_resolved_chunks(trace: Trace) -> Iterator[ResolvedChunk]:
    """Yield the trace's resolved chunks, one at a time.

    Serves from the on-disk sidecar when the trace came through an
    artifact store and the sidecar validates; otherwise decodes the raw
    columns (rewriting the sidecar as it goes).  May raise
    :class:`SidecarError` mid-iteration -- drive sessions through
    :func:`drive_sessions` unless you handle the reset yourself.
    """
    sidecar = getattr(trace, "_resolved_path", None)
    if sidecar is not None:
        handle = _open_sidecar(trace, sidecar)
        if handle is not None:
            yield from _iter_sidecar_chunks(trace, handle, len(trace.chunks))
            return
    yield from _decode_chunks(trace, sidecar)


def drive_sessions(trace: Trace, sessions: Iterable, on_chunk=None) -> None:
    """Feed every resolved chunk to every session, in stream order.

    Each chunk is decoded (or sidecar-served) exactly once however many
    sessions ride along -- this is the batch engine's decode-once loop.
    A sidecar that goes bad mid-stream is unlinked, every session is
    reset, and the whole stream re-runs from the raw columns (the
    ``on_chunk`` hook restarts at index 0 with the sessions).

    ``on_chunk(index, entries, seconds)``, when given, is called after
    each chunk has been run through every session -- the tracing layer's
    per-chunk replay spans.  ``None`` (the default) adds nothing to the
    loop.
    """
    sessions = list(sessions)
    try:
        if on_chunk is None:
            for chunk in iter_resolved_chunks(trace):
                for session in sessions:
                    session.run_chunk(chunk)
        else:
            for index, chunk in enumerate(iter_resolved_chunks(trace)):
                started = _time.perf_counter()
                for session in sessions:
                    session.run_chunk(chunk)
                on_chunk(index, chunk.n, _time.perf_counter() - started)
    except SidecarError:
        path = getattr(trace, "_resolved_path", None)
        if path is not None:
            with contextlib.suppress(OSError):
                path.unlink()
        for session in sessions:
            session.reset()
        if on_chunk is None:
            for chunk in _decode_chunks(trace, path):
                for session in sessions:
                    session.run_chunk(chunk)
        else:
            for index, chunk in enumerate(_decode_chunks(trace, path)):
                started = _time.perf_counter()
                for session in sessions:
                    session.run_chunk(chunk)
                on_chunk(index, chunk.n, _time.perf_counter() - started)


def resolved_stream(trace: Trace) -> list[tuple]:
    """The whole resolved stream as one tuple list (compat shim).

    Materialises every chunk -- O(trace) memory, exactly what the
    chunked pipeline exists to avoid.  Kept for tests, tooling, and the
    ``REPRO_BATCH_MATERIALIZE`` benchmark arm; the replay paths all
    stream via :func:`iter_resolved_chunks` instead.
    """
    out: list[tuple] = []
    try:
        for chunk in iter_resolved_chunks(trace):
            out.extend(chunk.entries())
    except SidecarError:
        path = getattr(trace, "_resolved_path", None)
        if path is not None:
            with contextlib.suppress(OSError):
                path.unlink()
        out = []
        for chunk in _decode_chunks(trace, path):
            out.extend(chunk.entries())
    return out


#: Backwards-compatible alias (the function predates the batch engine).
_resolved_stream = resolved_stream


def has_forwarded_entries(trace: Trace) -> bool:
    """True iff ``trace``'s stream has any forwarded data reference.

    Known at capture time and carried in the v3 footer; the scan only
    runs for hand-assembled traces that never went through either.
    """
    if trace.has_forwarded is None:
        trace.has_forwarded = trace._scan_has_forwarded()
    return trace.has_forwarded


def check_line_size(trace: Trace, config: MachineConfig) -> None:
    """Reject replays a line-size-sensitive trace cannot legally serve.

    Shared by the general path here and the specialized kernels in
    :mod:`repro.trace.kernels`, so both refuse exactly the same
    (trace, config) pairs with the same message.
    """
    if trace.line_size_sensitive:
        line_size = config.hierarchy.line_size
        if line_size != trace.line_size:
            raise TraceReplayError(
                f"trace of line-size-sensitive app {trace.app!r} was "
                f"captured at {trace.line_size}B lines; cannot replay at "
                f"{line_size}B"
            )


class ReplaySession:
    """One config's replay state, consuming resolved chunks incrementally.

    Construction builds the config-dependent components (hierarchy,
    timing, prefetcher, speculator, latency stats); :meth:`run_chunk`
    advances them over one chunk; :meth:`finish` folds in the capture's
    config-invariant counters and returns the :class:`AppResult`.
    :meth:`reset` rebuilds everything from scratch -- the recovery hook
    for a sidecar that went bad after chunks were already consumed.
    """

    def __init__(
        self,
        trace: Trace,
        config: MachineConfig,
        *,
        on_window=None,
    ) -> None:
        check_line_size(trace, config)
        self.trace = trace
        self.config = config
        #: Live streaming hook handed to the session's Timeline (see
        #: :attr:`repro.obs.timeline.Timeline.on_window`); inert unless
        #: the config samples a timeline.
        self.on_window = on_window
        self._build()

    def reset(self) -> None:
        self._build()

    def _build(self) -> None:
        config = self.config
        self.hierarchy = hierarchy = MemoryHierarchy(config.hierarchy)
        self.timing = timing = TimingModel(config.timing)
        self.prefetcher = prefetcher = SoftwarePrefetcher(
            hierarchy, config.max_prefetch_block
        )
        self.speculator = speculator = (
            DependenceSpeculator(config.speculation_window)
            if config.speculation_window > 0
            else None
        )
        self.load_latency = load_latency = ReferenceLatencyStats()
        self.store_latency = store_latency = ReferenceLatencyStats()
        malloc_base = config.malloc_base_cost
        free_base = config.free_base_cost
        user_trap_cycles = config.user_trap_cycles
        # Closures below both read and write this, so it lives in a cell
        # rather than an attribute lookup on the hot path.
        trap_cell = [False]

        access = hierarchy.access
        execute = timing.execute
        load_completes = timing.load_completes
        store_completes = timing.store_completes

        # The unforwarded load/store kinds dominate every stream; they
        # are costed by the same fused kernel Machine's fast path uses,
        # with a throwaway ForwardingStats (replay takes forwarding
        # totals from the capture, so reference counting is discarded).
        kernel_load, kernel_store = make_reference_kernel(
            hierarchy, timing, speculator, load_latency, store_latency,
            ForwardingStats(),
        )
        self._kernel_load = kernel_load
        self._kernel_store = kernel_store

        # Cold-entry handlers, indexed by the entry kind, called as
        # ``handler(op, extra)``.  Each mirrors the corresponding
        # Machine method cost-for-cost (machine.py is the reference; the
        # integration tests assert exact stats equality against it),
        # minus the config-invariant work.  Kinds 0 and 1 are handled
        # inline in run_chunk and never reach this table.
        def _handle_exec(n, _extra):  # plain computation
            execute(n)

        def _handle_access_r(word, _extra):  # Read_FBit / Unf_Read
            kernel_load(word, True)

        def _handle_access_w(word, _extra):  # Unforwarded_Write
            kernel_store(word, True)

        def _forwarded(address, extra, is_store):
            final, hops = extra
            execute(1)
            hop_cycles = 0.0
            for word in hops:  # each hop touches the old location
                start = timing.cycle
                result = access(word, False, start)
                load_completes(result.ready, True)
                hop_cycles += result.ready - start
            start = timing.cycle
            result = access(final, is_store, start)
            latency = store_latency if is_store else load_latency
            if is_store:
                store_completes(result.ready, True)
            else:
                load_completes(result.ready, True)
            latency.count += 1
            latency.ordinary_cycles += result.ready - start
            latency.forwarded += 1
            nhops = len(hops)
            latency.forwarding_cycles += (
                hop_cycles + timing.forwarding_trap_cost(nhops)
            )
            timing.forwarding_trap(nhops)
            if trap_cell[0]:
                # The handler's own machine activity was recorded as
                # ordinary events; only its invocation cost remains.
                timing.stall(user_trap_cycles, "inst")
            if is_store:
                if speculator is not None:
                    speculator.on_store(address, final)
            elif speculator is not None and speculator.on_load(address, final):
                timing.misspeculation_flush()

        def _handle_load_fwd(address, extra):
            _forwarded(address, extra, False)

        def _handle_store_fwd(address, extra):
            _forwarded(address, extra, True)

        def _handle_prefetch(address, lines):  # software prefetch
            execute(1)
            prefetcher.prefetch_block(address, lines, timing.cycle)

        def _handle_malloc(nbytes, _extra):  # malloc bookkeeping cost
            execute(malloc_base + (nbytes >> 6))

        def _handle_free(chain, _extra):  # forwarding-aware free cost
            execute(free_base + 2 * chain)

        def _handle_trap(flag, _extra):
            trap_cell[0] = bool(flag)

        self._handlers = (
            None,  # _LOAD: inline
            None,  # _STORE: inline
            _handle_exec,
            _handle_access_r,
            _handle_access_w,
            _handle_load_fwd,
            _handle_store_fwd,
            _handle_prefetch,
            _handle_malloc,
            _handle_free,
            _handle_trap,
        )

        # Timeline sampling mirrors the direct run's wrapper: tick once
        # per data reference, after its cost lands, at the *initial*
        # address.  The sampler reads only config-dependent counters
        # (which replay maintains bit-exactly), so a replayed run's
        # window series is identical to the direct run's.
        self.timeline = None
        # Adaptive configs imply a timeline at adapt.interval (mirroring
        # Machine.__init__): the engine's references are already baked
        # into the captured stream, so replay only reproduces the window
        # series -- same boundaries, because the stream preserves tick
        # order.
        interval = config.timeline_interval
        if interval == 0 and config.adapt is not None:
            interval = config.adapt.interval
        if interval > 0:
            from repro.obs.registry import Registry
            from repro.obs.timeline import Timeline

            registry = Registry()
            timing.register_metrics(registry)
            hierarchy.register_metrics(registry)
            load_latency.register_metrics(registry, "ref.load")
            store_latency.register_metrics(registry, "ref.store")
            self.timeline = Timeline(
                interval,
                registry,
                mshr=hierarchy.mshr,
                clock=lambda: timing.cycle,
                region_bytes=config.heatmap_region_bytes,
            )
            self.timeline.on_window = self.on_window

    def run_chunk(self, chunk: ResolvedChunk) -> None:
        kinds = chunk.kinds
        ops = chunk.ops
        extras = chunk.extras
        get_extra = extras.get
        kernel_load = self._kernel_load
        kernel_store = self._kernel_store
        handlers = self._handlers
        timeline = self.timeline
        if timeline is None:
            for i in range(chunk.n):
                kind = kinds[i]
                if kind == 0:  # unforwarded load (final == initial)
                    kernel_load(ops[i])
                elif kind == 1:  # unforwarded store
                    kernel_store(ops[i])
                else:
                    handlers[kind](ops[i], get_extra(i))
        else:
            tick = timeline.tick
            note_forwarded = timeline.note_forwarded
            for i in range(chunk.n):
                kind = kinds[i]
                if kind == 0:
                    kernel_load(ops[i])
                    tick(ops[i])
                elif kind == 1:
                    kernel_store(ops[i])
                    tick(ops[i])
                else:
                    handlers[kind](ops[i], get_extra(i))
                    if kind == 5 or kind == 6:  # forwarded load / store
                        note_forwarded(ops[i])
                        tick(ops[i])

    def finish(self) -> AppResult:
        if self.timeline is not None:
            self.timeline.finish()
        trace = self.trace
        captured = trace.captured_stats
        stats = MachineStats.collect(
            timing=self.timing,
            hierarchy=self.hierarchy,
            loads=self.load_latency,
            stores=self.store_latency,
            speculator=self.speculator,
            prefetcher=self.prefetcher,
            forwarding_hops=captured["forwarding_hops"],
            cycle_checks=captured["cycle_checks"],
            forwarding_chain_hist={
                int(hops): count
                for hops, count in captured.get(
                    "forwarding_chain_hist", {}
                ).items()
            },
            relocation=RelocationStats(**captured["relocation"]),
            heap_high_water=captured["heap_high_water"],
        )
        return AppResult(
            app=trace.app,
            variant=Variant(trace.variant),
            checksum=trace.checksum,
            stats=stats,
            extras=dict(trace.extras),
            timeline=(
                self.timeline.to_payload() if self.timeline is not None else None
            ),
        )


#: Per-replay cap on chunk spans recorded into a tracer, so a large
#: trace doesn't flood the manifest; the ``replay.chunks`` summary span
#: always carries the full totals.
MAX_CHUNK_SPANS = 32


def replay_trace(
    trace: Trace,
    config: MachineConfig,
    *,
    tracer=None,
    on_window=None,
) -> AppResult:
    """Replay ``trace`` against ``config``; stats match a direct run.

    Returns an :class:`AppResult` whose config-dependent stats come from
    driving ``config``'s hierarchy/timing/speculator with the resolved
    chunks, whose config-invariant stats come from the capture, and
    whose checksum/extras come from the captured application run.

    ``tracer`` (a :class:`repro.obs.tracing.Tracer`) records one span
    per resolved chunk (capped at :data:`MAX_CHUNK_SPANS`) plus a
    summary span; ``on_window`` streams the timeline sampler's
    per-window deltas while the replay runs.  Both default to ``None``
    and add nothing to the replay loop when absent.
    """
    session = ReplaySession(trace, config, on_window=on_window)
    if tracer is None:
        drive_sessions(trace, [session])
    else:
        totals = [0, 0, 0.0]  # chunks, entries, seconds

        def _on_chunk(index: int, entries: int, seconds: float) -> None:
            totals[0] += 1
            totals[1] += entries
            totals[2] += seconds
            if totals[0] <= MAX_CHUNK_SPANS:
                tracer.record(
                    f"replay.chunk[{index}]",
                    seconds,
                    metrics={"entries": entries},
                )

        drive_sessions(trace, [session], on_chunk=_on_chunk)
        tracer.record(
            "replay.chunks",
            totals[2],
            metrics={"chunks": totals[0], "entries": totals[1]},
        )
    return session.finish()
