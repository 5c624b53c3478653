"""The binary trace format: chunked columnar encoding, index, integrity.

Format **v3** applies the paper's layout lesson to our own data: a trace
is split into fixed-reference-count *chunks*, and each chunk is stored
**column-wise** -- a struct-of-arrays transposition of the v2 event
stream::

    magic "RTRC" | version u8 | uvarint header_len | header JSON
    | chunk 0: ops || addr || aux        (each column zlib-compressed)
    | chunk 1: ...
    | footer JSON | footer_len u32 LE | footer magic "RTRF"

* the ``ops`` column holds one opcode byte per event;
* the ``addr`` column holds the zigzag-varint address *deltas* of every
  address-bearing event, against a running register that is **never
  reset** -- so the concatenated column bytes are independent of where
  the chunk boundaries fall, and each chunk records the register value
  on entry (``start_address``) so it can be decoded on its own;
* the ``aux`` column holds every remaining operand (sizes, stored
  values, instruction counts, ...) varint-encoded in event order.

The footer is a random-access index: per chunk it records the offset
into the chunk region, the event count, the entry address register, and
each column's compressed length, raw length, and SHA-256 (of the *raw*
bytes, so integrity is independent of the compressor).  A fixed-size
trailer (footer length + footer magic) lets a reader load header and
footer with two reads and no chunk data at all -- see
:func:`load_index` -- and replay can stream chunks one at a time
without ever materialising the whole trace.

The header carries the trace's identity (app, variant, scale, seed,
capturing line size, line-size sensitivity) and the run's semantic
outputs; the footer carries the stream shape (event count, whether any
reference is forwarded, the stream digest).  Corruption anywhere is
detected at load time and named precisely: a flipped byte in a column
fails with the chunk index and column name.

Format v2 (one monolithic varint payload) stays loadable: ``from_bytes``
dispatches on the version byte and converts v2 payloads to chunks on the
fly; :func:`encode_v2` emits v2 bytes for migration round-trip tests.
"""

from __future__ import annotations

import hashlib
import json
import struct
import zlib
from dataclasses import dataclass, field
from typing import Any, Iterator

from repro.trace import events as ev

MAGIC = b"RTRC"
FOOTER_MAGIC = b"RTRF"
#: Bump on any incompatible change to the header, footer, or column
#: encoding -- or to the captured-stats contract (version 2 added the
#: forwarding chain-length histogram; version 3 is the chunked columnar
#: layout).
FORMAT_VERSION = 3
#: The monolithic varint-payload format this module can still read.
V2_FORMAT_VERSION = 2
SUPPORTED_VERSIONS = (V2_FORMAT_VERSION, FORMAT_VERSION)

#: Events per sealed chunk.  Small enough that one decoded chunk's
#: resolved arrays stay well under a megabyte, large enough that the
#: per-chunk overhead (zlib headers, kernel re-entry, index rows)
#: disappears into the decode cost.
CHUNK_EVENTS = 65536
COLUMN_NAMES = ("ops", "addr", "aux")
#: zlib level for sealed chunks.  Level 6 writes about 12% fewer bytes
#: than level 1 (a scale-0.1 Figure-5 corpus: 230 KB -> 203 KB) for about
#: 23 ms more compression per cold 42-cell sweep; corpus bytes are what a
#: store keeps and re-reads, sealing is paid once per capture.  Integrity
#: hashes cover the raw bytes, so the level is not part of identity.
_COMPRESS_LEVEL = 6
_TRAILER = struct.Struct("<I4s")


class TraceFormatError(Exception):
    """A trace file or byte string could not be decoded.

    ``path`` (when the failure came through :meth:`Trace.load` or
    :func:`load_index`) and ``version`` (when a version byte was read
    before the failure) identify the offending file precisely -- the CLI
    maps this error to its one-line-stderr + exit-2 contract.
    """

    def __init__(
        self,
        message: str,
        path: Any = None,
        version: int | None = None,
    ) -> None:
        super().__init__(message)
        self.path = str(path) if path is not None else None
        self.version = version

    def __str__(self) -> str:
        message = self.args[0] if self.args else ""
        if self.path is not None:
            return f"{self.path}: {message}"
        return message


# ----------------------------------------------------------------------
# Varint primitives (unsigned LEB128 + zigzag for signed deltas)
# ----------------------------------------------------------------------
def append_uvarint(out: bytearray, value: int) -> None:
    """Append ``value`` (non-negative) as an unsigned LEB128 varint."""
    if value < 0:
        raise ValueError(f"uvarint cannot encode negative value {value}")
    while value > 0x7F:
        out.append((value & 0x7F) | 0x80)
        value >>= 7
    out.append(value)


def append_svarint(out: bytearray, value: int) -> None:
    """Append a signed integer, zigzag-mapped then LEB128."""
    append_uvarint(out, zigzag(value))


def zigzag(value: int) -> int:
    """Map a signed integer to an unsigned one (0,-1,1,-2 -> 0,1,2,3)."""
    return value << 1 if value >= 0 else ((-value) << 1) - 1


def unzigzag(value: int) -> int:
    """Inverse of :func:`zigzag`."""
    return value >> 1 if (value & 1) == 0 else -((value + 1) >> 1)


def read_uvarint(data: bytes, offset: int) -> tuple[int, int]:
    """Decode one LEB128 varint at ``offset``; returns ``(value, next)``."""
    result = 0
    shift = 0
    length = len(data)
    while True:
        if offset >= length:
            raise TraceFormatError("truncated varint in trace column")
        byte = data[offset]
        offset += 1
        result |= (byte & 0x7F) << shift
        if not byte & 0x80:
            return result, offset
        shift += 7


# ----------------------------------------------------------------------
# Chunks
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Chunk:
    """One sealed run of events, stored as three compressed columns."""

    #: Events encoded in this chunk.
    event_count: int
    #: Address delta register on entry, so the chunk decodes standalone.
    start_address: int
    #: Compressed column bytes, in :data:`COLUMN_NAMES` order.
    data: tuple[bytes, bytes, bytes]
    #: Uncompressed column lengths, same order.
    raw_lens: tuple[int, int, int]
    #: SHA-256 hex digests of the *uncompressed* columns, same order.
    shas: tuple[str, str, str]

    def columns(self, index: int, path: Any = None) -> tuple[bytes, bytes, bytes]:
        """Decompress and verify all three columns.

        Corruption fails with the chunk index and column name -- the
        error granularity the corpus tooling and tests rely on.
        """
        out = []
        for name, blob, raw_len, sha in zip(
            COLUMN_NAMES, self.data, self.raw_lens, self.shas
        ):
            where = f"chunk {index} column {name!r}"
            try:
                raw = zlib.decompress(blob)
            except zlib.error as exc:
                raise TraceFormatError(
                    f"corrupt {where}: {exc}", path=path
                ) from exc
            if len(raw) != raw_len:
                raise TraceFormatError(
                    f"corrupt {where}: {len(raw)} raw bytes, index says "
                    f"{raw_len}",
                    path=path,
                )
            if hashlib.sha256(raw).hexdigest() != sha:
                raise TraceFormatError(
                    f"corrupt {where}: content hash mismatch", path=path
                )
            out.append(raw)
        return tuple(out)


def make_chunk(
    raws: tuple[bytes, bytes, bytes], event_count: int, start_address: int
) -> Chunk:
    """Seal raw column bytes into a compressed, hashed :class:`Chunk`."""
    return Chunk(
        event_count=event_count,
        start_address=start_address,
        data=tuple(zlib.compress(raw, _COMPRESS_LEVEL) for raw in raws),
        raw_lens=tuple(len(raw) for raw in raws),
        shas=tuple(hashlib.sha256(raw).hexdigest() for raw in raws),
    )


def finish_stream_digest(col_shas, event_count: int) -> str:
    """Combine per-column running digests into the stream digest.

    The running digests are fed the *raw* column bytes in chunk order;
    since the address register never resets, the concatenated columns --
    and therefore this digest -- are independent of where the chunk
    boundaries fall.
    """
    digest = hashlib.sha256()
    for sha in col_shas:
        digest.update(sha.digest())
    digest.update(str(event_count).encode("ascii"))
    return digest.hexdigest()


#: Events whose payload carries exactly one address operand; maps the
#: opcode to the index of that operand in the event tuple.
_ADDR_POSITION = {
    ev.LOAD: 1,
    ev.STORE: 1,
    ev.PREFETCH: 1,
    ev.READ_FBIT: 1,
    ev.UNF_READ: 1,
    ev.UNF_WRITE: 1,
    ev.MALLOC: 3,
    ev.FREE: 1,
    ev.POOL_ALLOC: 4,
    ev.RAW_WRITE: 1,
}

#: Operands carrying signed values (zigzag in the aux column).
_SIGNED_AUX = {
    ev.STORE: (2,),
    ev.UNF_WRITE: (2,),
    ev.RAW_WRITE: (2,),
}


class ChunkWriter:
    """Streaming chunk/column encoder fed absolute-address event tuples.

    This is the *reference* encoder: :class:`~repro.trace.recorder.
    TraceRecorder` inlines the same encoding into its observer callbacks
    for speed, and the hypothesis round-trip suite pins the two to each
    other.  The v2 reader uses it to convert monolithic payloads into
    chunks, tracking the forwarding-membership set as it goes so the
    converted trace knows ``has_forwarded`` without a separate decode.
    """

    def __init__(self, chunk_events: int = CHUNK_EVENTS) -> None:
        if chunk_events < 1:
            raise ValueError("chunk_events must be >= 1")
        self.chunk_events = chunk_events
        self.chunks: list[Chunk] = []
        self.event_count = 0
        self.has_forwarded = False
        self._ops = bytearray()
        self._addr = bytearray()
        self._aux = bytearray()
        self._pending = 0
        self._last = 0
        self._chunk_start = 0
        self._fwd: set[int] = set()
        self._col_shas = [hashlib.sha256() for _ in COLUMN_NAMES]

    def add(self, event: tuple) -> None:
        """Encode one event tuple (opcode first, addresses absolute)."""
        op = event[0]
        if not 0 <= op <= ev.MAX_OPCODE:
            raise ValueError(f"unknown opcode {op}")
        self._ops.append(op)
        addr_pos = _ADDR_POSITION.get(op)
        signed = _SIGNED_AUX.get(op, ())
        for pos in range(1, len(event)):
            if pos == addr_pos:
                address = event[pos]
                append_svarint(self._addr, address - self._last)
                self._last = address
            elif pos in signed:
                append_svarint(self._aux, event[pos])
            else:
                append_uvarint(self._aux, event[pos])
        # Forwarding-membership tracking mirrors the resolver's map: only
        # Unforwarded_Write changes membership (raw_write merely retargets
        # existing chain words), and only data references probe it.
        if op == ev.LOAD or op == ev.STORE:
            if not self.has_forwarded and (event[1] & ~7) in self._fwd:
                self.has_forwarded = True
        elif op == ev.UNF_WRITE:
            word = event[1] & ~7
            if event[3]:
                self._fwd.add(word)
            else:
                self._fwd.discard(word)
        self.event_count += 1
        self._pending += 1
        if self._pending >= self.chunk_events:
            self.seal()

    def seal(self) -> None:
        """Close the open chunk (no-op when it is empty)."""
        if not self._pending:
            return
        raws = (bytes(self._ops), bytes(self._addr), bytes(self._aux))
        for sha, raw in zip(self._col_shas, raws):
            sha.update(raw)
        self.chunks.append(make_chunk(raws, self._pending, self._chunk_start))
        self._ops.clear()
        self._addr.clear()
        self._aux.clear()
        self._pending = 0
        self._chunk_start = self._last

    def finish(self) -> tuple[tuple[Chunk, ...], int, bool, str]:
        """Seal the final partial chunk; returns
        ``(chunks, event_count, has_forwarded, stream_sha256)``."""
        self.seal()
        return (
            tuple(self.chunks),
            self.event_count,
            self.has_forwarded,
            finish_stream_digest(self._col_shas, self.event_count),
        )


# ----------------------------------------------------------------------
# The trace object
# ----------------------------------------------------------------------
@dataclass
class Trace:
    """One captured reference stream plus its identity and outputs."""

    app: str
    variant: str
    scale: float
    seed: int
    #: Line size of the capturing machine config.
    line_size: int
    #: True if the stream is only valid at exactly ``line_size``.
    line_size_sensitive: bool
    #: Semantic output of the captured run (variant-invariant).
    checksum: int
    extras: dict[str, Any] = field(default_factory=dict)
    #: The config-*invariant* counters of the capturing run, keyed as in
    #: :meth:`~repro.core.stats.MachineStats.dump` (the
    #: :data:`~repro.core.stats.INVARIANT_FIELDS`: forwarding hop totals,
    #: cycle checks, the chain-length histogram, relocation activity,
    #: heap footprint).  They are properties of the event stream, not of
    #: the cache it runs on, so the timing-free capture computes them
    #: exactly; replay copies them from here and recomputes every
    #: config-dependent counter.  Traces captured before capture went
    #: timing-free hold a full dump; replay reads only these keys.
    captured_stats: dict[str, Any] = field(default_factory=dict)
    #: Pool names, in ``create_pool`` order (events carry only indices).
    pool_names: list[str] = field(default_factory=list)
    event_count: int = 0
    #: The sealed chunks, in stream order.
    chunks: tuple[Chunk, ...] = ()
    #: Whether any data reference in the stream is forwarded.  Known at
    #: capture time (the recorder tracks the forwarding-membership set)
    #: and carried in the footer, so the specialized kernels can pick
    #: their speculation mode without decoding anything.  ``None`` only
    #: for hand-assembled traces; derived on demand then.  Excluded from
    #: equality so a scanned and an unscanned copy still compare equal.
    has_forwarded: bool | None = field(default=None, compare=False)
    #: Memoised stream digest (fully derived from ``chunks``).
    _stream_sha: str | None = field(
        default=None, repr=False, compare=False,
    )
    #: Where a decoded-stream sidecar for this trace may live on disk
    #: (attached by :class:`repro.trace.store.ArtifactStore` when it
    #: loads or saves the trace; ``None`` for traces with no store).
    #: :func:`repro.trace.replay.iter_resolved_chunks` reads/writes it.
    _resolved_path: Any = field(
        default=None, repr=False, compare=False,
    )

    # ------------------------------------------------------------------
    def header_dict(self) -> dict[str, Any]:
        """The identity/output header (stream shape lives in the footer)."""
        return {
            "app": self.app,
            "variant": self.variant,
            "scale": self.scale,
            "seed": self.seed,
            "line_size": self.line_size,
            "line_size_sensitive": self.line_size_sensitive,
            "checksum": self.checksum,
            "extras": self.extras,
            "captured_stats": self.captured_stats,
            "pool_names": self.pool_names,
            "event_count": self.event_count,
        }

    @property
    def stream_sha256(self) -> str:
        """Digest of the raw (uncompressed) column stream.

        Chunking-independent (see :func:`finish_stream_digest`): the
        same logical stream hashes identically whatever chunk size it
        was sealed with, so dedup and sidecar validation survive
        re-chunking.
        """
        if self._stream_sha is None:
            shas = [hashlib.sha256() for _ in COLUMN_NAMES]
            for index, chunk in enumerate(self.chunks):
                for sha, raw in zip(shas, chunk.columns(index)):
                    sha.update(raw)
            self._stream_sha = finish_stream_digest(shas, self.event_count)
        return self._stream_sha

    @property
    def content_hash(self) -> str:
        """SHA-256 over the canonical identity (header + stream digest).

        This is the identity the artifact store keys replayed results by
        -- and dedups trace files by: it changes whenever the stream, the
        workload identity, or the format version changes.
        """
        digest = hashlib.sha256()
        digest.update(MAGIC)
        digest.update(bytes([FORMAT_VERSION]))
        digest.update(
            json.dumps(self.header_dict(), sort_keys=True).encode("utf-8")
        )
        digest.update(self.stream_sha256.encode("ascii"))
        return digest.hexdigest()

    def _scan_has_forwarded(self) -> bool:
        """Derive ``has_forwarded`` by replaying membership over events."""
        fwd: set[int] = set()
        for event in self.events():
            op = event[0]
            if op == ev.LOAD or op == ev.STORE:
                if fwd and (event[1] & ~7) in fwd:
                    return True
            elif op == ev.UNF_WRITE:
                word = event[1] & ~7
                if event[3]:
                    fwd.add(word)
                else:
                    fwd.discard(word)
        return False

    def footer_dict(self) -> dict[str, Any]:
        """The index footer (chunk directory + stream shape)."""
        if self.has_forwarded is None:
            self.has_forwarded = self._scan_has_forwarded()
        index = []
        offset = 0
        for chunk in self.chunks:
            columns = [
                [len(blob), raw_len, sha]
                for blob, raw_len, sha in zip(
                    chunk.data, chunk.raw_lens, chunk.shas
                )
            ]
            index.append(
                [offset, chunk.event_count, chunk.start_address, columns]
            )
            offset += sum(len(blob) for blob in chunk.data)
        return {
            "event_count": self.event_count,
            "has_forwarded": self.has_forwarded,
            "stream_sha256": self.stream_sha256,
            "chunks": index,
        }

    # ------------------------------------------------------------------
    def to_bytes(self) -> bytes:
        header = json.dumps(self.header_dict(), sort_keys=True).encode("utf-8")
        footer = json.dumps(self.footer_dict(), sort_keys=True).encode("utf-8")
        out = bytearray()
        out += MAGIC
        out.append(FORMAT_VERSION)
        append_uvarint(out, len(header))
        out += header
        for chunk in self.chunks:
            for blob in chunk.data:
                out += blob
        out += footer
        out += _TRAILER.pack(len(footer), FOOTER_MAGIC)
        return bytes(out)

    @classmethod
    def from_bytes(cls, data: bytes) -> "Trace":
        if len(data) < len(MAGIC) + 1 or data[: len(MAGIC)] != MAGIC:
            raise TraceFormatError("not a trace: bad magic")
        version = data[len(MAGIC)]
        if version == FORMAT_VERSION:
            return cls._from_bytes_v3(data)
        if version == V2_FORMAT_VERSION:
            return cls._from_bytes_v2(data)
        raise TraceFormatError(
            f"unsupported trace format version {version} "
            f"(can read {', '.join(str(v) for v in SUPPORTED_VERSIONS)})",
            version=version,
        )

    @classmethod
    def _from_bytes_v3(cls, data: bytes) -> "Trace":
        header, chunk_start = _parse_header(data)
        footer, footer_start = _parse_footer(data, chunk_start)
        try:
            chunks = _parse_chunks(data, chunk_start, footer_start, footer)
            event_count = footer["event_count"]
            has_forwarded = footer["has_forwarded"]
            stream_sha = footer["stream_sha256"]
        except TraceFormatError:
            raise
        except (KeyError, IndexError, TypeError, ValueError) as exc:
            raise TraceFormatError(
                f"corrupt trace footer: {type(exc).__name__}: {exc}"
            ) from exc
        if header["event_count"] != event_count:
            raise TraceFormatError(
                f"event count mismatch: header says {header['event_count']}, "
                f"footer says {event_count}"
            )
        # Full verification pass: decompress every column once, checking
        # the per-column digests (corruption names chunk + column) and
        # accumulating the stream digest.
        shas = [hashlib.sha256() for _ in COLUMN_NAMES]
        decoded_events = 0
        for index, chunk in enumerate(chunks):
            for sha, raw in zip(shas, chunk.columns(index)):
                sha.update(raw)
            decoded_events += chunk.event_count
        if decoded_events != event_count:
            raise TraceFormatError(
                f"event count mismatch: chunks carry {decoded_events}, "
                f"footer says {event_count}"
            )
        if finish_stream_digest(shas, event_count) != stream_sha:
            raise TraceFormatError(
                "trace stream hash mismatch (corrupt or tampered)"
            )
        return cls(
            app=header["app"],
            variant=header["variant"],
            scale=header["scale"],
            seed=header["seed"],
            line_size=header["line_size"],
            line_size_sensitive=header["line_size_sensitive"],
            checksum=header["checksum"],
            extras=header["extras"],
            captured_stats=header["captured_stats"],
            pool_names=list(header["pool_names"]),
            event_count=event_count,
            chunks=chunks,
            has_forwarded=bool(has_forwarded),
            _stream_sha=stream_sha,
        )

    @classmethod
    def _from_bytes_v2(cls, data: bytes) -> "Trace":
        """Read a monolithic v2 trace, converting its payload to chunks."""
        header, payload_start = _parse_header(data)
        payload = data[payload_start:]
        required = ("event_count", "payload_len", "payload_sha256")
        missing = [key for key in required if key not in header]
        if missing:
            raise TraceFormatError(f"trace header missing fields {missing}")
        if len(payload) != header["payload_len"]:
            raise TraceFormatError(
                f"truncated trace payload: have {len(payload)} bytes, "
                f"header says {header['payload_len']}"
            )
        if hashlib.sha256(payload).hexdigest() != header["payload_sha256"]:
            raise TraceFormatError(
                "trace payload hash mismatch (corrupt or tampered)"
            )
        writer = ChunkWriter()
        for event in iter_v2_payload(payload):
            writer.add(event)
        chunks, event_count, has_forwarded, stream_sha = writer.finish()
        if event_count != header["event_count"]:
            raise TraceFormatError(
                f"event count mismatch: decoded {event_count}, "
                f"header says {header['event_count']}"
            )
        return cls(
            app=header["app"],
            variant=header["variant"],
            scale=header["scale"],
            seed=header["seed"],
            line_size=header["line_size"],
            line_size_sensitive=header["line_size_sensitive"],
            checksum=header["checksum"],
            extras=header["extras"],
            captured_stats=header["captured_stats"],
            pool_names=list(header["pool_names"]),
            event_count=event_count,
            chunks=chunks,
            has_forwarded=has_forwarded,
            _stream_sha=stream_sha,
        )

    def save(self, path) -> None:
        with open(path, "wb") as handle:
            handle.write(self.to_bytes())

    @classmethod
    def load(cls, path) -> "Trace":
        with open(path, "rb") as handle:
            data = handle.read()
        try:
            return cls.from_bytes(data)
        except TraceFormatError as exc:
            if exc.path is None:
                exc.path = str(path)
            raise

    # ------------------------------------------------------------------
    def events(self) -> Iterator[tuple]:
        """Decode the chunks, yielding one operand tuple per event.

        The first element of each tuple is the opcode (see
        :mod:`repro.trace.events`); addresses are already de-delta'd to
        absolute values.  Chunks are decoded one at a time -- resident
        raw data never exceeds one chunk's columns.
        """
        last = 0
        total = 0
        for index, chunk in enumerate(self.chunks):
            if chunk.start_address != last:
                raise TraceFormatError(
                    f"chunk {index} start address {chunk.start_address} "
                    f"does not continue the stream (register is {last})"
                )
            ops_raw, addr_raw, aux_raw = chunk.columns(index)
            ai = 0
            xi = 0
            read = read_uvarint
            for op in ops_raw:
                if op == ev.LOAD:
                    delta, ai = read(addr_raw, ai)
                    size, xi = read(aux_raw, xi)
                    last += unzigzag(delta)
                    yield (op, last, size)
                elif op == ev.STORE:
                    delta, ai = read(addr_raw, ai)
                    value, xi = read(aux_raw, xi)
                    size, xi = read(aux_raw, xi)
                    last += unzigzag(delta)
                    yield (op, last, unzigzag(value), size)
                elif op == ev.EXECUTE:
                    n, xi = read(aux_raw, xi)
                    yield (op, n)
                elif op == ev.PREFETCH:
                    delta, ai = read(addr_raw, ai)
                    lines, xi = read(aux_raw, xi)
                    last += unzigzag(delta)
                    yield (op, last, lines)
                elif op in (ev.READ_FBIT, ev.UNF_READ, ev.FREE):
                    delta, ai = read(addr_raw, ai)
                    last += unzigzag(delta)
                    yield (op, last)
                elif op == ev.UNF_WRITE:
                    delta, ai = read(addr_raw, ai)
                    value, xi = read(aux_raw, xi)
                    fbit, xi = read(aux_raw, xi)
                    last += unzigzag(delta)
                    yield (op, last, unzigzag(value), fbit)
                elif op == ev.MALLOC:
                    nbytes, xi = read(aux_raw, xi)
                    align, xi = read(aux_raw, xi)
                    delta, ai = read(addr_raw, ai)
                    last += unzigzag(delta)
                    yield (op, nbytes, align, last)
                elif op == ev.CREATE_POOL:
                    size, xi = read(aux_raw, xi)
                    yield (op, size)
                elif op == ev.POOL_ALLOC:
                    pool, xi = read(aux_raw, xi)
                    nbytes, xi = read(aux_raw, xi)
                    align, xi = read(aux_raw, xi)
                    delta, ai = read(addr_raw, ai)
                    last += unzigzag(delta)
                    yield (op, pool, nbytes, align, last)
                elif op == ev.RAW_WRITE:
                    delta, ai = read(addr_raw, ai)
                    value, xi = read(aux_raw, xi)
                    last += unzigzag(delta)
                    yield (op, last, unzigzag(value))
                elif op == ev.NOTE_RELOC:
                    relocations, xi = read(aux_raw, xi)
                    words, xi = read(aux_raw, xi)
                    yield (op, relocations, words)
                elif op == ev.NOTE_OPT:
                    yield (op,)
                elif op == ev.SET_TRAP:
                    flag, xi = read(aux_raw, xi)
                    yield (op, flag)
                else:
                    raise TraceFormatError(
                        f"unknown opcode {op} in chunk {index}"
                    )
            if ai != len(addr_raw) or xi != len(aux_raw):
                raise TraceFormatError(
                    f"trailing bytes in chunk {index} columns "
                    f"(addr {len(addr_raw) - ai}, aux {len(aux_raw) - xi})"
                )
            total += len(ops_raw)
        if total != self.event_count:
            raise TraceFormatError(
                f"event count mismatch: decoded {total}, "
                f"header says {self.event_count}"
            )


# ----------------------------------------------------------------------
# v3 parsing helpers
# ----------------------------------------------------------------------
_REQUIRED_HEADER = (
    "app", "variant", "scale", "seed", "line_size",
    "line_size_sensitive", "checksum", "extras", "captured_stats",
    "pool_names", "event_count",
)
_REQUIRED_FOOTER = ("event_count", "has_forwarded", "stream_sha256", "chunks")


def _parse_header(data: bytes) -> tuple[dict, int]:
    """Parse magic/version/header; returns ``(header, body_offset)``."""
    header_len, offset = read_uvarint(data, len(MAGIC) + 1)
    if offset + header_len > len(data):
        raise TraceFormatError("truncated trace header")
    try:
        header = json.loads(data[offset : offset + header_len])
    except ValueError as exc:
        raise TraceFormatError(f"corrupt trace header: {exc}") from exc
    if not isinstance(header, dict):
        raise TraceFormatError("corrupt trace header: not a JSON object")
    missing = [key for key in _REQUIRED_HEADER if key not in header]
    if missing:
        raise TraceFormatError(f"trace header missing fields {missing}")
    return header, offset + header_len


def _parse_footer(data: bytes, chunk_start: int) -> tuple[dict, int]:
    """Parse the trailer + footer; returns ``(footer, footer_offset)``."""
    if len(data) < chunk_start + _TRAILER.size:
        raise TraceFormatError("truncated trace: missing footer trailer")
    footer_len, footer_magic = _TRAILER.unpack_from(
        data, len(data) - _TRAILER.size
    )
    if footer_magic != FOOTER_MAGIC:
        raise TraceFormatError("corrupt trace: bad footer magic")
    footer_start = len(data) - _TRAILER.size - footer_len
    if footer_start < chunk_start:
        raise TraceFormatError("corrupt trace: footer overlaps chunk region")
    try:
        footer = json.loads(data[footer_start : footer_start + footer_len])
    except ValueError as exc:
        raise TraceFormatError(f"corrupt trace footer: {exc}") from exc
    if not isinstance(footer, dict):
        raise TraceFormatError("corrupt trace footer: not a JSON object")
    missing = [key for key in _REQUIRED_FOOTER if key not in footer]
    if missing:
        raise TraceFormatError(f"trace footer missing fields {missing}")
    return footer, footer_start


def _chunk_from_index(
    entry, blob_reader, chunk_region_len: int, index: int
) -> Chunk:
    """Build one :class:`Chunk` from its footer row.

    ``blob_reader(region_offset, length)`` supplies compressed bytes;
    bounds are validated against the chunk region's extent first so a
    truncated file fails cleanly rather than slicing short.
    """
    offset, events, start_address, columns = entry
    if len(columns) != len(COLUMN_NAMES):
        raise TraceFormatError(
            f"chunk {index}: expected {len(COLUMN_NAMES)} columns, "
            f"footer lists {len(columns)}"
        )
    blobs = []
    raw_lens = []
    shas = []
    cursor = int(offset)
    for name, (comp_len, raw_len, sha) in zip(COLUMN_NAMES, columns):
        if cursor + comp_len > chunk_region_len:
            raise TraceFormatError(
                f"truncated chunk {index} column {name!r}: needs "
                f"{comp_len} bytes at region offset {cursor}"
            )
        blobs.append(blob_reader(cursor, int(comp_len)))
        raw_lens.append(int(raw_len))
        shas.append(sha)
        cursor += comp_len
    return Chunk(
        event_count=int(events),
        start_address=int(start_address),
        data=tuple(blobs),
        raw_lens=tuple(raw_lens),
        shas=tuple(shas),
    )


def _parse_chunks(
    data: bytes, chunk_start: int, footer_start: int, footer: dict
) -> tuple[Chunk, ...]:
    region_len = footer_start - chunk_start
    reader = lambda off, n: data[chunk_start + off : chunk_start + off + n]  # noqa: E731
    return tuple(
        _chunk_from_index(entry, reader, region_len, i)
        for i, entry in enumerate(footer["chunks"])
    )


# ----------------------------------------------------------------------
# Random access: header + footer without the chunk region
# ----------------------------------------------------------------------
@dataclass
class TraceIndex:
    """Header + footer of a v3 trace file, loaded with two seeks.

    Enough to answer identity/shape questions (``corpus ls``/``stat``,
    the serve tier's warm probes via the manifest fallback) without
    reading a single chunk -- and to fetch individual chunks by index.
    """

    path: str
    header: dict
    footer: dict
    chunk_region_offset: int

    @property
    def event_count(self) -> int:
        return self.footer["event_count"]

    @property
    def has_forwarded(self) -> bool:
        return bool(self.footer["has_forwarded"])

    @property
    def stream_sha256(self) -> str:
        return self.footer["stream_sha256"]

    @property
    def chunk_count(self) -> int:
        return len(self.footer["chunks"])

    @property
    def content_hash(self) -> str:
        digest = hashlib.sha256()
        digest.update(MAGIC)
        digest.update(bytes([FORMAT_VERSION]))
        digest.update(json.dumps(self.header, sort_keys=True).encode("utf-8"))
        digest.update(self.stream_sha256.encode("ascii"))
        return digest.hexdigest()

    def read_chunk(self, index: int) -> Chunk:
        """Random-access read of one chunk (verified on decode)."""
        try:
            entry = self.footer["chunks"][index]
        except IndexError:
            raise TraceFormatError(
                f"chunk {index} out of range (trace has {self.chunk_count})",
                path=self.path,
            ) from None
        with open(self.path, "rb") as handle:
            region_end = handle.seek(0, 2)

            def reader(off: int, n: int) -> bytes:
                handle.seek(self.chunk_region_offset + off)
                return handle.read(n)

            try:
                return _chunk_from_index(
                    entry, reader, region_end - self.chunk_region_offset, index
                )
            except (TypeError, ValueError, IndexError) as exc:
                raise TraceFormatError(
                    f"corrupt footer entry for chunk {index}: {exc}",
                    path=self.path,
                ) from exc


def load_index(path) -> TraceIndex:
    """Load a v3 trace's header and footer without its chunks.

    Raises :class:`TraceFormatError` (with ``path`` and, for version
    mismatches, ``version`` attached) for v2 or unknown files -- callers
    that must handle v2 fall back to :meth:`Trace.load`.
    """
    try:
        with open(path, "rb") as handle:
            head = handle.read(len(MAGIC) + 1)
            if len(head) < len(MAGIC) + 1 or head[: len(MAGIC)] != MAGIC:
                raise TraceFormatError("not a trace: bad magic", path=path)
            version = head[len(MAGIC)]
            if version != FORMAT_VERSION:
                raise TraceFormatError(
                    f"no random-access index in format version {version} "
                    f"(requires {FORMAT_VERSION})",
                    path=path,
                    version=version,
                )
            header_len = 0
            shift = 0
            while True:
                byte = handle.read(1)
                if not byte:
                    raise TraceFormatError("truncated trace header", path=path)
                header_len |= (byte[0] & 0x7F) << shift
                if not byte[0] & 0x80:
                    break
                shift += 7
            header_blob = handle.read(header_len)
            if len(header_blob) < header_len:
                raise TraceFormatError("truncated trace header", path=path)
            chunk_region_offset = handle.tell()
            file_size = handle.seek(0, 2)
            if file_size < chunk_region_offset + _TRAILER.size:
                raise TraceFormatError(
                    "truncated trace: missing footer trailer", path=path
                )
            handle.seek(file_size - _TRAILER.size)
            footer_len, footer_magic = _TRAILER.unpack(
                handle.read(_TRAILER.size)
            )
            if footer_magic != FOOTER_MAGIC:
                raise TraceFormatError(
                    "corrupt trace: bad footer magic", path=path
                )
            footer_start = file_size - _TRAILER.size - footer_len
            if footer_start < chunk_region_offset:
                raise TraceFormatError(
                    "corrupt trace: footer overlaps chunk region", path=path
                )
            handle.seek(footer_start)
            footer_blob = handle.read(footer_len)
    except OSError as exc:
        if isinstance(exc, FileNotFoundError):
            raise
        raise TraceFormatError(f"unreadable trace: {exc}", path=path) from exc
    try:
        header = json.loads(header_blob)
        footer = json.loads(footer_blob)
    except ValueError as exc:
        raise TraceFormatError(
            f"corrupt trace header/footer: {exc}", path=path
        ) from exc
    if not isinstance(header, dict) or not isinstance(footer, dict):
        raise TraceFormatError(
            "corrupt trace header/footer: not JSON objects", path=path
        )
    missing = [key for key in _REQUIRED_HEADER if key not in header]
    missing += [key for key in _REQUIRED_FOOTER if key not in footer]
    if missing:
        raise TraceFormatError(
            f"trace header/footer missing fields {missing}", path=path
        )
    return TraceIndex(
        path=str(path),
        header=header,
        footer=footer,
        chunk_region_offset=chunk_region_offset,
    )


def peek_version(path) -> int:
    """Read just the magic + version byte of a trace file."""
    with open(path, "rb") as handle:
        head = handle.read(len(MAGIC) + 1)
    if len(head) < len(MAGIC) + 1 or head[: len(MAGIC)] != MAGIC:
        raise TraceFormatError("not a trace: bad magic", path=path)
    return head[len(MAGIC)]


# ----------------------------------------------------------------------
# v2 interop: decode the monolithic payload / re-encode a trace as v2
# ----------------------------------------------------------------------
def iter_v2_payload(payload: bytes) -> Iterator[tuple]:
    """Decode a v2 monolithic varint payload into event tuples."""
    length = len(payload)
    offset = 0
    last = 0
    read = read_uvarint
    while offset < length:
        op = payload[offset]
        offset += 1
        if op == ev.LOAD:
            delta, offset = read(payload, offset)
            size, offset = read(payload, offset)
            last += unzigzag(delta)
            yield (op, last, size)
        elif op == ev.STORE:
            delta, offset = read(payload, offset)
            value, offset = read(payload, offset)
            size, offset = read(payload, offset)
            last += unzigzag(delta)
            yield (op, last, unzigzag(value), size)
        elif op == ev.EXECUTE:
            n, offset = read(payload, offset)
            yield (op, n)
        elif op == ev.PREFETCH:
            delta, offset = read(payload, offset)
            lines, offset = read(payload, offset)
            last += unzigzag(delta)
            yield (op, last, lines)
        elif op in (ev.READ_FBIT, ev.UNF_READ, ev.FREE):
            delta, offset = read(payload, offset)
            last += unzigzag(delta)
            yield (op, last)
        elif op == ev.UNF_WRITE:
            delta, offset = read(payload, offset)
            value, offset = read(payload, offset)
            fbit, offset = read(payload, offset)
            last += unzigzag(delta)
            yield (op, last, unzigzag(value), fbit)
        elif op == ev.MALLOC:
            nbytes, offset = read(payload, offset)
            align, offset = read(payload, offset)
            delta, offset = read(payload, offset)
            last += unzigzag(delta)
            yield (op, nbytes, align, last)
        elif op == ev.CREATE_POOL:
            size, offset = read(payload, offset)
            yield (op, size)
        elif op == ev.POOL_ALLOC:
            index, offset = read(payload, offset)
            nbytes, offset = read(payload, offset)
            align, offset = read(payload, offset)
            delta, offset = read(payload, offset)
            last += unzigzag(delta)
            yield (op, index, nbytes, align, last)
        elif op == ev.RAW_WRITE:
            delta, offset = read(payload, offset)
            value, offset = read(payload, offset)
            last += unzigzag(delta)
            yield (op, last, unzigzag(value))
        elif op == ev.NOTE_RELOC:
            relocations, offset = read(payload, offset)
            words, offset = read(payload, offset)
            yield (op, relocations, words)
        elif op == ev.NOTE_OPT:
            yield (op,)
        elif op == ev.SET_TRAP:
            flag, offset = read(payload, offset)
            yield (op, flag)
        else:
            raise TraceFormatError(
                f"unknown opcode {op} at payload offset {offset - 1}"
            )


def encode_v2(trace: Trace) -> bytes:
    """Serialise ``trace`` in the legacy v2 monolithic layout.

    Exists for the migration round-trip tests and the CI corpus-smoke
    job: a v2 file produced here, loaded through the version-dispatched
    reader, must replay bit-exactly against its v3 sibling.
    """
    payload = bytearray()
    last = 0
    for event in trace.events():
        op = event[0]
        payload.append(op)
        addr_pos = _ADDR_POSITION.get(op)
        signed = _SIGNED_AUX.get(op, ())
        for pos in range(1, len(event)):
            if pos == addr_pos:
                append_svarint(payload, event[pos] - last)
                last = event[pos]
            elif pos in signed:
                append_svarint(payload, event[pos])
            else:
                append_uvarint(payload, event[pos])
    header = dict(trace.header_dict())
    header["payload_len"] = len(payload)
    header["payload_sha256"] = hashlib.sha256(bytes(payload)).hexdigest()
    header_blob = json.dumps(header, sort_keys=True).encode("utf-8")
    out = bytearray()
    out += MAGIC
    out.append(V2_FORMAT_VERSION)
    append_uvarint(out, len(header_blob))
    out += header_blob
    out += payload
    return bytes(out)
