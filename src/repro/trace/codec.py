"""The event-stream codec: the wire format between header and footer.

The file envelope (magic, header, footer, trailer) lives in
:mod:`repro.trace.events`; this module owns only the *events* section
in between. Both sides are here so the writer and reader cannot drift
apart, and so the round-trip fuzz tests can drive the codec directly
without building a whole file.

Each event is packed as::

    type      1 byte
    zz(Δa)    uvarint   zigzag delta of ``a`` vs the previous record
                        of the SAME type
    zz(Δb)    uvarint   likewise for ``b``
    Δt        uvarint   timestamp delta vs the previous record (any
                        type; timestamps are globally monotone)

and records are grouped into independently zlib-compressed blocks
framed as ``<II`` (compressed length, uncompressed length). Per-type
deltas make sequential address sweeps and repeated PCs collapse to one
or two bytes before compression; zlib then squeezes the remaining
structure. A block boundary never splits a record, and the per-type
delta state deliberately carries *across* blocks (blocks are primarily
a framing unit — traces stream start to end). Block boundaries double
as shard seams, though: the decoders report their delta state at each
boundary (``block_hook``) and accept it back (``state``), so the shard
scan can capture the deltas at a boundary and a later reader can seek
to that block and resume decoding mid-file (:mod:`repro.trace.shards`).

Decoding errors follow the reader's contract: a file that ends inside
a block frame or whose decompressed payload stops mid-record raises
:class:`TraceTruncatedError`; a block that fails to decompress or
whose length field lies raises :class:`TraceError`. Inflation is
bounded by the declared length (:func:`read_block`), so a block that
lies about its size cannot make the reader allocate more than it said.
"""

from __future__ import annotations

import zlib
from struct import Struct
from typing import BinaryIO, Iterator

from repro.trace.columnar import EventBatch, decode_block_columns
from repro.trace.events import EV_FINISH, TraceError, TraceTruncatedError

#: Block frame: compressed payload length, uncompressed length.
BLOCK_HEADER = Struct("<II")
BLOCK_HEADER_SIZE = BLOCK_HEADER.size

#: Flush a block once this much uncompressed record data buffered.
DEFAULT_BLOCK_BYTES = 1 << 16

Event = tuple[int, int, int, int]


# ---------------------------------------------------------------------------
# varint primitives (LEB128 + zigzag)
# ---------------------------------------------------------------------------

def zigzag(n: int) -> int:
    """Map a signed int to an unsigned one with small-magnitude bias.

    Reference implementation: the encoder/decoder hot loops inline
    this transform, and the codec fuzz tests pin the inlined copies
    against these functions.
    """
    return n * 2 if n >= 0 else -n * 2 - 1


def unzigzag(z: int) -> int:
    """Inverse of :func:`zigzag` (same reference-implementation role)."""
    return z >> 1 if not z & 1 else -(z >> 1) - 1


def append_uvarint(buf: bytearray, n: int) -> None:
    while n > 0x7F:
        buf.append((n & 0x7F) | 0x80)
        n >>= 7
    buf.append(n)


#: Hard length cap for one varint: 10 x 7-bit groups cover the full
#: 64-bit range. A longer run of continuation bytes cannot be data —
#: only corruption — and without the cap a corrupt block decodes into
#: an arbitrarily huge int (unbounded shift = CPU/memory blowup).
MAX_VARINT_BYTES = 10


def read_uvarint(data: bytes, pos: int) -> tuple[int, int]:
    """Decode one uvarint at ``pos``; returns (value, new pos).

    Bounded: raises ``TraceError("overlong varint ...")`` after
    :data:`MAX_VARINT_BYTES` bytes instead of shifting forever.
    """
    result = 0
    shift = 0
    end = len(data)
    limit = pos + MAX_VARINT_BYTES
    while True:
        if pos >= end:
            raise TraceTruncatedError(
                "event record cut mid-way (varint runs past the block)")
        if pos >= limit:
            raise TraceError(
                f"overlong varint: runs past {MAX_VARINT_BYTES} bytes "
                "(the 64-bit cap) — corrupt block")
        byte = data[pos]
        pos += 1
        result |= (byte & 0x7F) << shift
        if not byte & 0x80:
            return result, pos
        shift += 7


# ---------------------------------------------------------------------------
# Encoder: writer-side
# ---------------------------------------------------------------------------

class V2Encoder:
    """Delta/varint encoder; ``take()`` hands back one framed block."""

    def __init__(self, block_bytes: int = DEFAULT_BLOCK_BYTES) -> None:
        if block_bytes <= 0:
            raise ValueError(
                f"block_bytes must be positive, got {block_bytes}")
        self.flush_bytes = block_bytes
        self._raw = bytearray()
        # Per-event-type previous operands (256 slots: the type byte's
        # whole range, so a corrupt type can never index out of bounds).
        self._prev_a = [0] * 256
        self._prev_b = [0] * 256
        #: Events encoded so far (all blocks) — names the offender when
        #: a non-monotone clock is rejected below.
        self._events = 0

    def add(self, etype: int, a: int, b: int, delta: int) -> None:
        if delta < 0:
            # An injected non-monotone clock used to fall through to
            # bytearray.append(-1) — a bare ValueError. Timestamp
            # deltas are unsigned on the wire; reject with context.
            raise TraceError(
                f"event {self._events}: clock went backwards "
                f"(timestamp delta {delta}); v2 encodes unsigned "
                "time deltas")
        self._events += 1
        prev_a = self._prev_a
        da = a - prev_a[etype]
        prev_a[etype] = a
        za = da + da if da >= 0 else -da - da - 1
        prev_b = self._prev_b
        db = b - prev_b[etype]
        prev_b[etype] = b
        zb = db + db if db >= 0 else -db - db - 1
        buf = self._raw
        if za < 0x80 and zb < 0x80 and delta < 0x80:
            # The overwhelmingly common record: three single-byte
            # varints (small per-type deltas), appended inline.
            buf.append(etype)
            buf.append(za)
            buf.append(zb)
            buf.append(delta)
            return
        buf.append(etype)
        append_uvarint(buf, za)
        append_uvarint(buf, zb)
        append_uvarint(buf, delta)

    def pending(self) -> int:
        return len(self._raw)

    def take(self) -> bytes:
        """One framed, compressed block (empty bytes if nothing pends)."""
        raw = self._raw
        if not raw:
            return b""
        payload = zlib.compress(bytes(raw), 6)
        frame = BLOCK_HEADER.pack(len(payload), len(raw)) + payload
        raw.clear()
        return frame


# ---------------------------------------------------------------------------
# Decoders: reader-side
# ---------------------------------------------------------------------------

def read_block(handle: BinaryIO, path: str) -> tuple[bytes, int]:
    """Read and inflate the next block; returns ``(raw, compressed
    length)``.

    The one frame reader both decoders share. Inflation stops one byte
    past the declared uncompressed length, so a hostile block whose
    payload expands without bound costs at most ``raw_len + 1`` bytes
    before it is rejected.
    """
    frame = handle.read(BLOCK_HEADER_SIZE)
    if not frame:
        raise TraceTruncatedError(
            f"{path}: event stream ends without FINISH")
    if len(frame) < BLOCK_HEADER_SIZE:
        raise TraceTruncatedError(
            f"{path}: trace ends inside a block header")
    comp_len, raw_len = BLOCK_HEADER.unpack(frame)
    payload = handle.read(comp_len)
    if len(payload) < comp_len:
        raise TraceTruncatedError(
            f"{path}: trace ends mid-block "
            f"({len(payload)} of {comp_len} payload bytes)")
    inflater = zlib.decompressobj()
    try:
        data = inflater.decompress(payload, raw_len + 1)
    except zlib.error as exc:
        raise TraceError(f"{path}: corrupt trace block: {exc}") from exc
    if len(data) > raw_len:
        raise TraceError(
            f"{path}: block length mismatch ({raw_len} declared, "
            "more decompressed)")
    if inflater.unused_data:
        raise TraceError(
            f"{path}: block length mismatch ({comp_len} payload bytes "
            f"declared, {len(inflater.unused_data)} left over)")
    if not inflater.eof:
        raise TraceError(f"{path}: corrupt trace block: incomplete or "
                         "truncated stream")
    if len(data) != raw_len:
        raise TraceError(
            f"{path}: block length mismatch "
            f"({raw_len} declared, {len(data)} decompressed)")
    return data, comp_len


def decode_records(data: bytes, prev_a: list[int], prev_b: list[int],
                   time: int, path: str
                   ) -> tuple[list[Event], Exception | None]:
    """Reference per-record decode of one inflated block.

    Returns the events decoded before the block ended, FINISH was read
    (the records after it are dead bytes) or a record failed, plus that
    failure as a typed error (``None`` on success): callers surface the
    prefix first and raise afterwards, so every decoder shows the same
    prefix-then-raise order. ``prev_a``/``prev_b`` are updated in
    place; ``time`` is the clock before the block's first record.
    """
    events: list[Event] = []
    append = events.append
    pos = 0
    end = len(data)
    try:
        while pos < end:
            etype = data[pos]
            # Inline uvarint fast path: single-byte fields dominate
            # (the encoder's fast path is their twin). IndexError from
            # a record cut by block truncation is mapped below.
            za = data[pos + 1]
            if za < 0x80:
                pos += 2
            else:
                za, pos = read_uvarint(data, pos + 1)
            a = prev_a[etype] + (za >> 1 if not za & 1 else -(za >> 1) - 1)
            prev_a[etype] = a
            zb = data[pos]
            if zb < 0x80:
                pos += 1
            else:
                zb, pos = read_uvarint(data, pos)
            b = prev_b[etype] + (zb >> 1 if not zb & 1 else -(zb >> 1) - 1)
            prev_b[etype] = b
            delta = data[pos]
            if delta < 0x80:
                pos += 1
            else:
                delta, pos = read_uvarint(data, pos)
            time += delta
            append((etype, a, b, time))
            if etype == EV_FINISH:
                break
    except IndexError:
        return events, TraceTruncatedError(f"{path}: block ends mid-record")
    except TraceError as exc:  # truncated or overlong varint
        return events, exc
    return events, None


def _seed_state(state: dict | None) -> tuple[int, list[int], list[int]]:
    """Clock and per-type delta lists from a resume ``state``.

    The lists stay plain ints: the vector kernel reads and writes them
    in place, the scalar loop shares them, and ``block_hook`` consumers
    JSON-serialize them.
    """
    prev_a = [0] * 256
    prev_b = [0] * 256
    if not state:
        return 0, prev_a, prev_b
    for etype, (a, b) in dict(state.get("prev", {})).items():
        prev_a[int(etype)] = a
        prev_b[int(etype)] = b
    return state.get("time", 0), prev_a, prev_b


class V2Decoder:
    """Streams block-framed varint records until FINISH, one event at
    a time through :func:`decode_records`.

    The scalar reference: replay runs :class:`V2BatchDecoder`, and the
    equivalence suite drains both and demands identical output. Tracks
    :attr:`records`, :attr:`blocks`, :attr:`compressed_bytes` and
    :attr:`raw_bytes`.

    ``state`` seeds the per-type deltas and the clock so decoding can
    start at a mid-file block boundary (parallel segment replay).
    ``block_hook``, if set, is called right before each block header is
    read as ``hook(offset, records, time, prev_a, prev_b)`` — the exact
    state a checkpoint at that boundary must capture; the shard scan
    uses it to place its seams.
    """

    def __init__(self, handle: BinaryIO, path: str,
                 state: dict | None = None,
                 block_hook=None) -> None:
        self._handle = handle
        self.path = path
        self.records = 0
        self.blocks = 0
        self.compressed_bytes = 0
        self.raw_bytes = 0
        self.block_hook = block_hook
        self._time, self._prev_a, self._prev_b = _seed_state(state)
        self._finished = False

    def _read(self) -> bytes:
        """Report the boundary to ``block_hook``, then read one block."""
        if self.block_hook is not None:
            self.block_hook(self._handle.tell(), self.records, self._time,
                            self._prev_a, self._prev_b)
        data, comp_len = read_block(self._handle, self.path)
        self.blocks += 1
        self.compressed_bytes += comp_len
        self.raw_bytes += len(data)
        return data

    def _decode_scalar(self, data: bytes
                       ) -> tuple[list[Event], Exception | None]:
        events, error = decode_records(data, self._prev_a, self._prev_b,
                                       self._time, self.path)
        if events:
            self.records += len(events)
            self._time = events[-1][3]
            self._finished = events[-1][0] == EV_FINISH
        return events, error

    def events(self) -> Iterator[Event]:
        while not self._finished:
            events, error = self._decode_scalar(self._read())
            yield from events
            if error is not None:
                raise error


class V2BatchDecoder(V2Decoder):
    """Columnar twin of :class:`V2Decoder`: one ``EventBatch`` per block.

    Same constructor surface and stats, same ``state`` resume
    semantics, same ``block_hook`` contract — and, by construction, the
    same events and the same typed errors: :meth:`events` is pinned
    against ``V2Decoder.events()`` by the property-based equivalence
    suite. Blocks the vectorized kernel cannot prove well-formed
    (corruption, truncation, varints past the legitimate 5-byte
    maximum) are re-decoded by :func:`decode_records`, which then stays
    in charge for the rest of the stream — a corrupt trace costs speed,
    never fidelity.

    :attr:`blocks_vectorized` / :attr:`blocks_fallback` feed the
    replay engine's decode telemetry counters.
    """

    def __init__(self, handle: BinaryIO, path: str,
                 state: dict | None = None,
                 block_hook=None) -> None:
        super().__init__(handle, path, state, block_hook)
        self.blocks_vectorized = 0
        self.blocks_fallback = 0
        self._scalar_only = False

    def batches(self) -> Iterator[EventBatch]:
        """Yield one :class:`EventBatch` per block until FINISH."""
        while not self._finished:
            data = self._read()
            if not data:
                continue
            if not self._scalar_only:
                batch = self._decode_vector(data)
                if batch is not None:
                    self.blocks_vectorized += 1
                    self.records += len(batch)
                    yield batch
                    continue
            # Exact scalar re-decode; corruption rarely stops at one
            # block, so stay scalar for the rest of the stream (the
            # delta state may now hold values the kernel cannot carry).
            self._scalar_only = True
            self.blocks_fallback += 1
            events, error = self._decode_scalar(data)
            if events:
                yield EventBatch.from_lists(*map(list, zip(*events)))
            if error is not None:
                raise error

    def events(self) -> Iterator[Event]:
        """Scalar view: yields exactly what ``V2Decoder.events()`` does."""
        for batch in self.batches():
            yield from batch.rows()

    def _decode_vector(self, data: bytes) -> EventBatch | None:
        decoded = decode_block_columns(data, self._prev_a, self._prev_b,
                                       self._time)
        if decoded is None:
            return None
        etypes, a, b, t, finished = decoded
        self._finished = finished
        self._time = int(t[-1])
        return EventBatch(etypes, a, b, t)


def encode_events(events: list[Event],
                  block_bytes: int = DEFAULT_BLOCK_BYTES) -> bytes:
    """Encode absolute-timestamp events into one event-stream blob.

    Test/fuzz helper: the exact bytes a writer would put between the
    header and the footer, without building either.
    """
    encoder = V2Encoder(block_bytes)
    out = bytearray()
    last = 0
    for etype, a, b, t in events:
        encoder.add(etype, a, b, t - last)
        last = t
        if encoder.pending() >= encoder.flush_bytes:
            out += encoder.take()
    out += encoder.take()
    return bytes(out)


def decode_events(blob: bytes, path: str = "<blob>") -> list[Event]:
    """Inverse of :func:`encode_events` (stops after FINISH)."""
    import io

    return list(V2Decoder(io.BytesIO(blob), path).events())
