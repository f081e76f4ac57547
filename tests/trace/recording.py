"""Recording helpers for the trace tests.

* :func:`record_blocks` records through :class:`TraceWriter` with a
  chosen block size. Shard seams sit at block boundaries, so a small
  ``block_bytes`` gives small programs seams as dense as the tests'
  ``build_checkpoints(interval=N)`` / ``parallel_replay(interval=N)``
  ask for.
* :func:`record_legacy` writes a trace in the layout recorders used
  before seams became scan-only: every ``interval`` events an
  ``EV_CHECKPOINT`` marker closes the current block, and the footer
  carries a ``checkpoints`` table with one snapshot per marker. Readers
  must still replay and shard such files exactly.
* :func:`write_v1_copy` rewrites a trace in the retired v1 layout
  (fixed 13-byte ``<BIII`` records), which readers must refuse.
* :func:`v1_equivalent_bytes` computes that v1 file's size without
  writing it: the baseline trace-size reductions are measured against.
"""

from __future__ import annotations

import json
import os
import struct
import zlib

from repro.ir.lowering import compile_source
from repro.runtime.interpreter import DEFAULT_MAX_STEPS, Interpreter
from repro.trace.codec import DEFAULT_BLOCK_BYTES
from repro.trace.events import (EV_CHECKPOINT, EV_FINISH, MAGIC, TRAILER,
                                V1_RECORD_BYTES, pack_length, pack_version,
                                unpack_length)
from repro.trace.reader import TraceReader
from repro.trace.shards import CheckpointBuilder, _sparse_prev
from repro.trace.writer import TraceWriter


def _run(writer: TraceWriter, source: str, max_steps: int) -> TraceWriter:
    program = compile_source(source, writer.filename)
    try:
        interp = Interpreter(program, writer, max_steps)
        exit_value = interp.run()
    except BaseException:
        writer.abort()
        raise
    writer.close(exit_value, interp.output)
    return writer


def record_blocks(source: str, path, block_bytes: int,
                  max_steps: int = DEFAULT_MAX_STEPS) -> TraceWriter:
    """Record ``source`` into ``path`` with ``block_bytes`` blocks;
    returns the closed writer (``.events`` holds the event count)."""
    return _run(TraceWriter(path, source, block_bytes=block_bytes),
                source, max_steps)


class LegacyWriter(TraceWriter):
    """A :class:`TraceWriter` that also writes the retired record-time
    seams: markers in the stream, snapshots in the footer."""

    def __init__(self, path, source: str, interval: int,
                 block_bytes: int = DEFAULT_BLOCK_BYTES):
        super().__init__(path, source, block_bytes=block_bytes)
        self.interval = interval
        self.payloads: list[dict] = []
        self._builder: CheckpointBuilder | None = None
        self._last_seam = 0

    def on_start(self, program, memory) -> None:
        super().on_start(program, memory)
        self._builder = CheckpointBuilder(program, list(program.functions),
                                          memory.heap_base)

    def _emit(self, etype: int, a: int, b: int, timestamp: int) -> None:
        super()._emit(etype, a, b, timestamp)
        builder = self._builder
        builder.apply(etype, a, b, timestamp)
        if (builder.index - self._last_seam >= self.interval
                and etype != EV_FINISH):
            ordinal = len(self.payloads)
            encoder = self._encoder
            encoder.add(EV_CHECKPOINT, ordinal, 0, 0)
            self.events += 1
            builder.apply(EV_CHECKPOINT, ordinal, 0, self._last_time)
            self._handle.write(encoder.take())
            state = {"prev": _sparse_prev(encoder._prev_a, encoder._prev_b)}
            self.payloads.append(
                builder.snapshot(self._handle.tell(), state).to_payload())
            self._last_seam = builder.index

    def close(self, exit_value: int = 0, output=None) -> None:
        if self.closed:
            return
        self.closed = True
        handle = self._handle
        handle.write(self._encoder.take())
        footer = {"exit_value": exit_value,
                  "output": [list(values) for values in (output or [])],
                  "events": self.events, "final_time": self.final_time,
                  "checkpoints": self.payloads}
        blob = zlib.compress(json.dumps(footer).encode("utf-8"), 6)
        handle.write(blob)
        handle.write(pack_length(len(blob)))
        handle.write(TRAILER)
        handle.close()


def record_legacy(source: str, path, interval: int,
                  block_bytes: int = DEFAULT_BLOCK_BYTES) -> LegacyWriter:
    """Record ``source`` into ``path`` in the pre-scan-only layout;
    returns the closed writer (``.payloads`` is the footer table)."""
    return _run(LegacyWriter(path, source, interval, block_bytes),
                source, DEFAULT_MAX_STEPS)


def write_v1_copy(path, v1_path) -> None:
    """Write the events of the trace at ``path`` to ``v1_path`` as a
    version-1 file: same header and footer, 13-byte records."""
    record = struct.Struct("<BIII")
    with TraceReader(path) as reader:
        header = reader.header.to_bytes()
        records = bytearray()
        last = 0
        for etype, a, b, t in reader.events():
            records += record.pack(etype, a, b, t - last)
            last = t
        footer = reader.footer.to_bytes()
    with open(v1_path, "wb") as handle:
        for part in (MAGIC, pack_version(1), pack_length(len(header)),
                     header, records, footer, pack_length(len(footer)),
                     TRAILER):
            handle.write(part)


def v1_equivalent_bytes(path, events: int) -> int:
    """Size of the same recording as a v1 file: the envelope (magic,
    version, header, footer, trailer) of the v2 file at ``path`` plus
    13 B per event."""
    with TraceReader(path) as reader:
        header_end = reader.events_start
    suffix = 4 + len(TRAILER)
    with open(path, "rb") as handle:
        handle.seek(-suffix, os.SEEK_END)
        footer_len = unpack_length(handle.read(4))
    return header_end + footer_len + suffix + events * V1_RECORD_BYTES
