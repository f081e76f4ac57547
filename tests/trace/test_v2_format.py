"""Trace format v2: block layout, compression, corruption handling."""

from __future__ import annotations

import zlib

import pytest

from repro.trace import (TRACE_VERSION_V2, TraceError, TraceReader,
                         TraceTruncatedError, record_source)
from repro.trace.codec import (BLOCK_HEADER, BLOCK_HEADER_SIZE,
                               V2BatchDecoder, V2Decoder)
from repro.trace.events import EV_CHECKPOINT, source_digest
from repro.trace.replay import replay_trace
from tests.trace.recording import (record_blocks, record_legacy,
                                   v1_equivalent_bytes)

SMALL = """
int a[32];
int helper(int x) {
    a[x % 32] = x;
    return a[(x + 1) % 32];
}
int main() {
    int s = 0;
    for (int i = 0; i < 20; i++) {
        s += helper(i);
    }
    print(s);
    return 0;
}
"""

LOOPY = """
int data[256];
int main() {
    int s = 0;
    for (int round = 0; round < 40; round++) {
        for (int i = 0; i < 256; i++) {
            data[i] = data[i] + round;
        }
        s += data[round % 256];
    }
    print(s);
    return 0;
}
"""


@pytest.fixture
def both_traces(tmp_path):
    """SMALL recorded twice: one default block, and tiny blocks."""
    one = tmp_path / "one-block.trace"
    many = tmp_path / "many-blocks.trace"
    r1 = record_source(SMALL, one)
    writer = record_blocks(SMALL, many, block_bytes=64)
    return (many, writer), (one, r1)


class TestParity:
    def test_default_version_is_v2(self, tmp_path):
        path = tmp_path / "default.trace"
        record_source(SMALL, path)
        with TraceReader(path) as reader:
            assert reader.version == TRACE_VERSION_V2 == 2

    def test_event_streams_identical(self, tmp_path):
        """A trace in the pre-scan-only layout differs from a fresh
        recording only by its no-op EV_CHECKPOINT markers."""
        fresh = tmp_path / "fresh.trace"
        legacy = tmp_path / "legacy.trace"
        record_source(LOOPY, fresh)
        writer = record_legacy(LOOPY, legacy, interval=2000)
        assert writer.payloads
        with TraceReader(fresh) as ra, TraceReader(legacy) as rb:
            markers = [e for e in rb.events() if e[0] == EV_CHECKPOINT]
            assert len(markers) == len(writer.payloads)
            assert list(ra.events()) == [e for e in rb.events()
                                         if e[0] != EV_CHECKPOINT]
            assert rb.footer.events == ra.footer.events + len(markers)
            assert ra.footer.final_time == rb.footer.final_time

    def test_header_and_versions(self, both_traces):
        (many, _), (one, _) = both_traces
        with TraceReader(many) as ra, TraceReader(one) as rb:
            assert ra.version == rb.version == 2
            assert ra.header.digest == rb.header.digest \
                == source_digest(SMALL)
            assert rb.header.sampling == "full"

    def test_replay_results_identical(self, both_traces):
        """The analyses cannot tell how the records were blocked."""
        (many, _), (one, _) = both_traces
        o1 = replay_trace(str(many), ("dep", "locality", "hot", "counts"))
        o2 = replay_trace(str(one), ("dep", "locality", "hot", "counts"))
        for name in o1.reports:
            assert o1.reports[name].to_dict() == o2.reports[name].to_dict()

    def test_v2_is_much_smaller(self, tmp_path):
        """More than 5x smaller than the same events as 13-byte v1
        records inside the same envelope."""
        path = tmp_path / "v2.trace"
        result = record_source(LOOPY, path)
        assert v1_equivalent_bytes(str(path), result.events) \
            > 5 * result.trace_bytes

    def test_multiple_blocks_roundtrip(self, tmp_path):
        """A tiny block size forces many blocks; decoding still matches
        the single-block stream record for record."""
        from repro.ir.lowering import compile_source
        from repro.runtime.interpreter import Interpreter
        from repro.trace.writer import TraceWriter

        big = tmp_path / "one-block.trace"
        small = tmp_path / "many-blocks.trace"
        record_source(SMALL, big)
        program = compile_source(SMALL, "<input>")
        writer = TraceWriter(small, SMALL, block_bytes=64)
        interp = Interpreter(program, writer)
        exit_value = interp.run()
        writer.close(exit_value, interp.output)
        with TraceReader(big) as ra, TraceReader(small) as rb:
            assert list(ra.events()) == list(rb.events())
            assert rb.decoder.blocks > 1

    def test_read_footer_without_streaming(self, both_traces):
        _, (v2, r2) = both_traces
        with TraceReader(v2) as reader:
            footer = reader.read_footer()
        assert footer.events == r2.events

    def test_events_restartable(self, both_traces):
        _, (v2, _) = both_traces
        with TraceReader(v2) as reader:
            first = list(reader.events())
            second = list(reader.events())
        assert first == second


class TestCorruption:
    """Satellite contract: truncation at header, mid-record, and
    mid-block all raise typed errors, never struct/EOF exceptions."""

    def _events_start(self, path) -> int:
        with TraceReader(path) as reader:
            return reader._events_start

    def _consume(self, path):
        with TraceReader(path) as reader:
            for _ in reader.events():
                pass

    def test_truncated_header(self, both_traces, tmp_path):
        _, (v2, _) = both_traces
        bad = tmp_path / "hdr.trace"
        bad.write_bytes(v2.read_bytes()[:12])
        with pytest.raises(TraceTruncatedError):
            TraceReader(bad)

    def test_truncated_inside_block_header(self, both_traces, tmp_path):
        _, (v2, _) = both_traces
        start = self._events_start(v2)
        bad = tmp_path / "bh.trace"
        bad.write_bytes(v2.read_bytes()[:start + BLOCK_HEADER_SIZE - 3])
        with pytest.raises(TraceTruncatedError, match="block header"):
            self._consume(bad)

    def test_truncated_mid_block(self, both_traces, tmp_path):
        _, (v2, _) = both_traces
        start = self._events_start(v2)
        bad = tmp_path / "mb.trace"
        bad.write_bytes(v2.read_bytes()[:start + BLOCK_HEADER_SIZE + 40])
        with pytest.raises(TraceTruncatedError, match="mid-block"):
            self._consume(bad)

    def test_truncated_at_block_boundary(self, both_traces, tmp_path):
        """EOF exactly between blocks: reported as a missing FINISH."""
        _, (v2, _) = both_traces
        blob = v2.read_bytes()
        start = self._events_start(v2)
        comp_len, _raw = BLOCK_HEADER.unpack(
            blob[start:start + BLOCK_HEADER_SIZE])
        bad = tmp_path / "bb.trace"
        bad.write_bytes(blob[:start])  # zero whole blocks survive
        with pytest.raises(TraceTruncatedError, match="without FINISH"):
            self._consume(bad)

    def test_block_cut_mid_record(self, both_traces, tmp_path):
        """A block whose decompressed payload stops inside a record."""
        _, (v2, _) = both_traces
        blob = v2.read_bytes()
        start = self._events_start(v2)
        comp_len, raw_len = BLOCK_HEADER.unpack(
            blob[start:start + BLOCK_HEADER_SIZE])
        payload = blob[start + BLOCK_HEADER_SIZE:
                       start + BLOCK_HEADER_SIZE + comp_len]
        raw = zlib.decompress(payload)
        cut = zlib.compress(raw[:len(raw) - 2], 6)
        bad = tmp_path / "mr.trace"
        bad.write_bytes(blob[:start]
                        + BLOCK_HEADER.pack(len(cut), len(raw) - 2)
                        + cut)
        with pytest.raises(TraceTruncatedError, match="mid-record|cut"):
            self._consume(bad)

    def test_corrupt_block_payload(self, both_traces, tmp_path):
        _, (v2, _) = both_traces
        blob = bytearray(v2.read_bytes())
        start = self._events_start(v2)
        # Stomp bytes inside the compressed payload.
        for i in range(start + BLOCK_HEADER_SIZE + 4,
                       start + BLOCK_HEADER_SIZE + 12):
            blob[i] ^= 0xFF
        bad = tmp_path / "corrupt.trace"
        bad.write_bytes(blob)
        with pytest.raises(TraceError):
            self._consume(bad)

    def test_block_length_lie(self, both_traces, tmp_path):
        _, (v2, _) = both_traces
        blob = bytearray(v2.read_bytes())
        start = self._events_start(v2)
        comp_len, raw_len = BLOCK_HEADER.unpack(
            bytes(blob[start:start + BLOCK_HEADER_SIZE]))
        blob[start:start + BLOCK_HEADER_SIZE] = BLOCK_HEADER.pack(
            comp_len, raw_len + 7)
        bad = tmp_path / "lie.trace"
        bad.write_bytes(blob)
        with pytest.raises(TraceError, match="length mismatch"):
            self._consume(bad)

    @pytest.mark.parametrize("decoder_cls", [V2Decoder, V2BatchDecoder],
                             ids=lambda cls: cls.__name__)
    def test_inflation_bomb_is_bounded(self, decoder_cls):
        """A block that declares 16 bytes but inflates to 64 MB is
        rejected after inflating at most 17, by both decoders."""
        import io
        import tracemalloc

        deflater = zlib.compressobj(9)
        chunk = bytes(1 << 20)
        payload = b"".join(deflater.compress(chunk) for _ in range(64))
        payload += deflater.flush()
        blob = BLOCK_HEADER.pack(len(payload), 16) + payload
        decoder = decoder_cls(io.BytesIO(blob), "<bomb>")
        tracemalloc.start()
        try:
            with pytest.raises(TraceError, match="length mismatch"):
                list(decoder.events())
            _current, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    def test_footer_inflation_bomb_is_bounded(self, both_traces,
                                              tmp_path):
        """A footer that inflates to 64 MB is rejected once it passes
        the metadata cap, without inflating the rest."""
        import tracemalloc

        from repro.trace.events import (MAX_METADATA_BYTES, TRAILER,
                                        pack_length)

        _, (v2, _) = both_traces
        blob = v2.read_bytes()
        footer_len = int.from_bytes(
            blob[-len(TRAILER) - 4:-len(TRAILER)], "little")
        events_end = len(blob) - len(TRAILER) - 4 - footer_len
        deflater = zlib.compressobj(9)
        chunk = bytes(1 << 20)
        bomb = b"".join(deflater.compress(chunk) for _ in range(64))
        bomb += deflater.flush()
        bad = tmp_path / "footer-bomb.trace"
        bad.write_bytes(blob[:events_end] + bomb + pack_length(len(bomb))
                        + TRAILER)
        with TraceReader(bad) as reader:
            tracemalloc.start()
            try:
                with pytest.raises(TraceError, match="inflates past"):
                    reader.read_footer()
                _current, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
        assert peak < MAX_METADATA_BYTES + (1 << 20)

    def test_header_inflation_bomb_is_rejected(self, tmp_path):
        from repro.trace.events import MAGIC, pack_length, pack_version

        bomb = zlib.compress(bytes(32 << 20), 9)
        bad = tmp_path / "header-bomb.trace"
        bad.write_bytes(MAGIC + pack_version() + pack_length(len(bomb))
                        + bomb)
        with pytest.raises(TraceError, match="header: inflates past"):
            TraceReader(bad)

    def test_trailing_bytes_after_stream_rejected(self, both_traces,
                                                  tmp_path):
        """Input left over after the compressed stream ends is not a
        well-formed block."""
        _, (v2, _) = both_traces
        blob = v2.read_bytes()
        start = self._events_start(v2)
        comp_len, raw_len = BLOCK_HEADER.unpack(
            blob[start:start + BLOCK_HEADER_SIZE])
        body = start + BLOCK_HEADER_SIZE
        bad = tmp_path / "trailing.trace"
        bad.write_bytes(blob[:start]
                        + BLOCK_HEADER.pack(comp_len + 3, raw_len)
                        + blob[body:body + comp_len] + b"xyz"
                        + blob[body + comp_len:])
        with pytest.raises(TraceError, match="length mismatch"):
            self._consume(bad)

    def test_aborted_recording_is_truncated(self, tmp_path):
        from repro.runtime.errors import StepLimitExceeded

        path = tmp_path / "aborted.trace"
        with pytest.raises(StepLimitExceeded):
            record_source(SMALL, path, max_steps=100)
        with pytest.raises(TraceTruncatedError):
            self._consume(path)
