"""The trace file format: layout constants, header/footer, errors.

A trace file is::

    magic      8 bytes   b"ALCHTRC\\0"
    version    u16 LE    2 (readers reject anything else)
    hdr_len    u32 LE
    header     hdr_len bytes of zlib-compressed JSON (TraceHeader)
    events     the event stream, ended by FINISH
    footer     zlib-compressed JSON (TraceFooter)
    ftr_len    u32 LE    footer length (trailing, so the footer can be
                         located from the end of the file too)
    trailer    8 bytes   b"ALCHEND\\0"

The *events* section (codec in :mod:`repro.trace.codec`, wire spec in
``docs/trace-format.md``) holds delta-encoded, varint-packed records
grouped into zlib-compressed blocks: per record a type byte, the
zigzag-varint deltas of ``a`` and ``b`` against the previous record
*of the same type*, and the uvarint timestamp delta (timestamps are
instruction counts, monotone within a run). Version 1 — fixed 13-byte
records — is no longer read: such files raise
:class:`TraceVersionError` and must be re-recorded from their source.

The header embeds the program source (compressed) plus its SHA-256
digest, so a trace is self-contained: replay recompiles the embedded
source and verifies the digest rather than trusting a separate file.
The function-name table is fixed at record time (compilation order), so
ENTER/EXIT events carry a small index instead of a string. The header
also names the sampling policy the recording ran under (``"full"``
when every memory event was kept), so consumers can label sampled
results as lower-confidence hints.

Operands and deltas must fit 32 bits; the writer
raises :class:`TraceError` otherwise (addresses are word indices, so
this bounds traced memory at 4G words — far beyond any bundled
workload).
"""

from __future__ import annotations

import hashlib
import json
import zlib
from dataclasses import dataclass, field
from struct import Struct

MAGIC = b"ALCHTRC\0"
TRAILER = b"ALCHEND\0"

#: The one schema version this code reads and writes.
TRACE_VERSION_V2 = 2
#: Bytes per event of the retired v1 fixed-record format (``<BIII``),
#: kept as the size baseline ``info`` reports against.
V1_RECORD_BYTES = 13

_VERSION_STRUCT = Struct("<H")
_LEN_STRUCT = Struct("<I")

# -- event type bytes -------------------------------------------------------

EV_ENTER = 1    #: a = function index, b = entry pc
EV_EXIT = 2     #: a = function index
EV_BLOCK = 3    #: a = block id
EV_BRANCH = 4   #: a = branch pc, b = chosen target block
EV_READ = 5     #: a = address, b = pc
EV_WRITE = 6    #: a = address, b = pc
EV_ALLOC = 7    #: a = block base, b = size
EV_FREE = 8     #: a = range lo, b = range length (hi - lo); no timestamp
EV_FINISH = 9   #: end of event stream
#: Legacy shard seam marker (a = ordinal). Recorders once closed a
#: block with it and put a matching snapshot in the footer's
#: ``checkpoints`` table; nothing writes it now, but traces that carry
#: it still decode, and replay, the shard scan and dispatch treat it
#: as a no-op event.
EV_CHECKPOINT = 10

EVENT_NAMES = {
    EV_ENTER: "enter",
    EV_EXIT: "exit",
    EV_BLOCK: "block",
    EV_BRANCH: "branch",
    EV_READ: "read",
    EV_WRITE: "write",
    EV_ALLOC: "alloc",
    EV_FREE: "free",
    EV_FINISH: "finish",
    EV_CHECKPOINT: "checkpoint",
}

_U32_MAX = (1 << 32) - 1

#: Largest inflated header or footer a reader accepts. Both are small
#: JSON (the header carries the program source, the footer its printed
#: output), but zlib inflates up to about 1000x, so an unbounded
#: ``decompress`` of a crafted 1 MB footer would allocate 1 GB.
MAX_METADATA_BYTES = 16 << 20


class TraceError(Exception):
    """A malformed, unwritable, or out-of-range trace."""


class TraceVersionError(TraceError):
    """The trace was written by an incompatible schema version."""


class TraceTruncatedError(TraceError):
    """The trace ends mid-stream (crash or partial copy)."""


def _inflate_metadata(blob: bytes, what: str) -> bytes:
    """zlib-inflate a header or footer, refusing to pass the cap.

    Inflates in 64 KB pieces, so a bomb costs at most the cap in
    memory before it is refused."""
    inflater = zlib.decompressobj()
    pieces = []
    size = 0
    data = blob
    while not inflater.eof:
        try:
            piece = inflater.decompress(data, 1 << 16)
        except zlib.error as exc:
            raise TraceError(f"corrupt trace {what}: {exc}") from exc
        if not piece:
            break
        size += len(piece)
        if size > MAX_METADATA_BYTES:
            raise TraceError(f"corrupt trace {what}: inflates past "
                             f"{MAX_METADATA_BYTES} bytes")
        pieces.append(piece)
        data = inflater.unconsumed_tail
    if not inflater.eof:
        raise TraceError(f"corrupt trace {what}: incomplete or "
                         "truncated stream")
    return b"".join(pieces)


def source_digest(source: str) -> str:
    """SHA-256 of the program source, the trace's identity check."""
    return hashlib.sha256(source.encode("utf-8")).hexdigest()


@dataclass
class TraceHeader:
    """Everything replay needs before the first event."""

    digest: str
    filename: str
    source: str
    globals_size: int
    stack_limit: int
    heap_base: int
    #: Function names in compilation order; ENTER/EXIT events index this.
    functions: list[str] = field(default_factory=list)
    #: Sampling policy spec the recording ran under ("full" = every
    #: memory event kept). Traces recorded before sampling existed lack
    #: the key and default here.
    sampling: str = "full"

    def to_bytes(self) -> bytes:
        payload = json.dumps(self.__dict__, separators=(",", ":"))
        return zlib.compress(payload.encode("utf-8"), 6)

    @classmethod
    def from_bytes(cls, blob: bytes) -> "TraceHeader":
        try:
            data = json.loads(_inflate_metadata(blob, "header"))
            return cls(**data)
        except (ValueError, TypeError) as exc:
            raise TraceError(f"corrupt trace header: {exc}") from exc


@dataclass
class TraceFooter:
    """Run outcome, written after the last event."""

    exit_value: int
    #: ``print()`` output, one tuple of ints per statement.
    output: list[list[int]] = field(default_factory=list)
    events: int = 0
    final_time: int = 0

    def to_bytes(self) -> bytes:
        payload = json.dumps(self.__dict__, separators=(",", ":"))
        return zlib.compress(payload.encode("utf-8"), 6)

    @classmethod
    def from_bytes(cls, blob: bytes) -> "TraceFooter":
        try:
            data = json.loads(_inflate_metadata(blob, "footer"))
            # Legacy record-time seam snapshots: read and ignored
            # (shard seams now come only from the scan).
            data.pop("checkpoints", None)
            return cls(**data)
        except (ValueError, TypeError) as exc:
            raise TraceError(f"corrupt trace footer: {exc}") from exc


def pack_version(version: int = TRACE_VERSION_V2) -> bytes:
    return _VERSION_STRUCT.pack(version)


def unpack_version(blob: bytes) -> int:
    if len(blob) != _VERSION_STRUCT.size:
        raise TraceTruncatedError("trace ends inside the version field")
    return _VERSION_STRUCT.unpack(blob)[0]


def pack_length(length: int) -> bytes:
    return _LEN_STRUCT.pack(length)


def unpack_length(blob: bytes) -> int:
    if len(blob) != _LEN_STRUCT.size:
        raise TraceTruncatedError("trace ends inside a length field")
    return _LEN_STRUCT.unpack(blob)[0]


def check_u32(value: int, what: str) -> int:
    """Writer-side range check for record operands and deltas."""
    if 0 <= value <= _U32_MAX:
        return value
    raise TraceError(f"{what} {value} does not fit the 32-bit "
                     f"trace record format")
