"""Lazy trace reading: stream events without loading the file.

:class:`TraceReader` parses the header eagerly (it is small), sniffs
the schema version from the envelope, and then yields events block by
block, so a trace larger than memory replays in constant space. Each
yielded event is a plain tuple ``(etype, a, b, timestamp)`` with the
*absolute* timestamp already reconstructed from the stored deltas.

Error handling contract (exercised by the format tests):

* wrong magic or a header that fails to parse → :class:`TraceError`;
* any version but :data:`TRACE_VERSION_V2` (including the retired
  v1) → :class:`TraceVersionError`;
* EOF before the FINISH event — whether the cut lands in the header, a
  block header, or mid-block — or a missing footer/trailer →
  :class:`TraceTruncatedError`;
* a block that fails to decompress or whose declared length lies →
  :class:`TraceError`.
"""

from __future__ import annotations

import os
from typing import BinaryIO, Iterator

from repro.trace.codec import Event, make_decoder
from repro.trace.columnar import EventBatch, columnar_enabled
from repro.trace.events import (MAGIC, TRACE_VERSION_V2, TRAILER,
                                TraceError, TraceFooter, TraceHeader,
                                TraceTruncatedError, TraceVersionError,
                                source_digest, unpack_length,
                                unpack_version)


class TraceReader:
    """Streams one trace file; each ``events()`` call restarts from the
    first record, so a reader can replay the same trace repeatedly."""

    def __init__(self, path: str | os.PathLike):
        self.path = os.fspath(path)
        self._handle: BinaryIO = open(self.path, "rb")
        #: Schema version of the file (always 2 once the header parsed).
        self.version: int = 0
        try:
            self.header = self._read_header()
        except BaseException:
            self._handle.close()
            raise
        self._events_start = self._handle.tell()
        #: Populated once ``events()`` has been fully consumed.
        self.footer: TraceFooter | None = None
        #: The decoder of the most recent ``events()`` pass (exposes
        #: per-stream stats such as v2 block/byte counts).
        self.decoder = None

    # -- setup -------------------------------------------------------------

    def _read_header(self) -> TraceHeader:
        magic = self._handle.read(len(MAGIC))
        if len(magic) < len(MAGIC):
            raise TraceTruncatedError(f"{self.path}: shorter than the magic")
        if magic != MAGIC:
            raise TraceError(f"{self.path}: not an Alchemist trace "
                             f"(bad magic {magic!r})")
        version = unpack_version(self._handle.read(2))
        if version != TRACE_VERSION_V2:
            hint = (" (v1 traces must be re-recorded from their source)"
                    if version == 1 else "")
            raise TraceVersionError(
                f"{self.path}: trace schema version {version}, this "
                f"reader understands only {TRACE_VERSION_V2}{hint}")
        self.version = version
        length = unpack_length(self._handle.read(4))
        blob = self._handle.read(length)
        if len(blob) < length:
            raise TraceTruncatedError(f"{self.path}: truncated header")
        return TraceHeader.from_bytes(blob)

    def verify_source(self, source: str) -> bool:
        """Does ``source`` match the program this trace recorded?"""
        return source_digest(source) == self.header.digest

    # -- streaming ---------------------------------------------------------

    @property
    def events_start(self) -> int:
        """File offset of the first block (the genesis shard seam)."""
        return self._events_start

    def events(self, block_hook=None,
               columnar: bool | None = None) -> Iterator[Event]:
        """Yield ``(etype, a, b, timestamp)`` for every recorded event.

        The FINISH event is yielded too (consumers map it to
        ``on_finish``); afterwards the footer is parsed and exposed as
        :attr:`footer`. ``block_hook`` is forwarded to the decoder —
        the shard scan's window into block boundaries. ``columnar``
        picks the decoder flavor: the batch decoder streams the same
        events block-at-a-time (the default when numpy is available;
        see :func:`repro.trace.columnar.columnar_enabled`).
        """
        self._handle.seek(self._events_start)
        decoder = make_decoder(self._handle, self.path,
                               block_hook=block_hook,
                               columnar=columnar_enabled(columnar))
        self.decoder = decoder
        yield from decoder.events()
        # The decoder returned, so FINISH was seen (anything else
        # raised); everything after the records is the footer.
        self.read_footer()

    def batches(self, block_hook=None) -> Iterator[EventBatch]:
        """Yield one :class:`EventBatch` per block (the replay engines'
        fast path), then parse the footer like :meth:`events`."""
        self._handle.seek(self._events_start)
        decoder = make_decoder(self._handle, self.path,
                               block_hook=block_hook, columnar=True)
        self.decoder = decoder
        yield from decoder.batches()
        self.read_footer()

    def events_from(self, offset: int,
                    codec_state: dict | None = None,
                    columnar: bool | None = None) -> Iterator[Event]:
        """Stream events from a checkpointed seam instead of the start.

        ``offset`` must be a block boundary and ``codec_state`` the
        decoder state a checkpoint captured there ({"time": ..., "prev": {...}}); anything else
        desynchronizes the delta decoding. The caller owns termination
        — this iterator neither stops at the next checkpoint nor reads
        the footer (segment drivers consume exactly their slice; the
        FINISH record still ends the stream for the final segment).
        """
        self._handle.seek(offset)
        decoder = make_decoder(self._handle, self.path, state=codec_state,
                               columnar=columnar_enabled(columnar))
        self.decoder = decoder
        return decoder.events()

    def batches_from(self, offset: int,
                     codec_state: dict | None = None
                     ) -> Iterator[EventBatch]:
        """Batch flavor of :meth:`events_from`: stream
        :class:`EventBatch` objects from a checkpointed seam. Same
        caller-owns-termination contract (no footer read)."""
        self._handle.seek(offset)
        decoder = make_decoder(self._handle, self.path, state=codec_state,
                               columnar=True)
        self.decoder = decoder
        return decoder.batches()

    def read_footer(self) -> TraceFooter:
        """Footer without streaming events (located from the file end)."""
        if self.footer is not None:
            return self.footer
        handle = self._handle
        size = os.path.getsize(self.path)
        suffix = 4 + len(TRAILER)
        if size < self._events_start + suffix:
            raise TraceTruncatedError(f"{self.path}: missing footer")
        handle.seek(size - suffix)
        length = unpack_length(handle.read(4))
        if handle.read(len(TRAILER)) != TRAILER:
            raise TraceTruncatedError(
                f"{self.path}: missing end-of-trace trailer "
                "(recording did not finish cleanly)")
        start = size - suffix - length
        if start < self._events_start:
            raise TraceTruncatedError(f"{self.path}: footer length "
                                      "exceeds the file")
        handle.seek(start)
        self.footer = TraceFooter.from_bytes(handle.read(length))
        return self.footer

    # -- cleanup -----------------------------------------------------------

    def close(self) -> None:
        self._handle.close()

    def __enter__(self) -> "TraceReader":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
