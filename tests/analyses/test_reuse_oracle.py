"""Reuse distances against their definition.

The reuse distance of an access is the number of distinct addresses
touched since the previous access to the same address. This oracle
counts exactly that, with sets, and holds the ``locality`` analysis to
it on random address streams, whichever way the stream arrives: as
decoded event batches, through the per-event hooks, or as segments
folded by the sharded-replay merge. Streams come both from small
alphabets, where reuses are frequent, and from the whole u32 range.
The kernel's buffer is shrunk to a drawn size so that its chunk
boundaries fall at arbitrary points of every stream.
"""

from __future__ import annotations

from unittest import mock

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analyses import builtin
from repro.analyses.base import AnalysisContext
from repro.analyses.builtin import LocalityAnalysis, LocalityResult
from repro.trace.columnar import EventBatch
from repro.trace.events import EV_BLOCK, EV_READ, EV_WRITE

CTX = AnalysisContext(program=None, memory=None)

streams = st.one_of(
    st.lists(st.integers(0, 7), max_size=200),
    st.lists(st.integers(0, 40), max_size=200),
    st.lists(st.integers(0, (1 << 32) - 1), max_size=60),
    # Few distinct u32 addresses, reused often.
    st.lists(st.integers(0, 5), max_size=200).flatmap(
        lambda picks: st.lists(st.integers(0, (1 << 32) - 1),
                               min_size=6, max_size=6).map(
            lambda pool: [pool[i] for i in picks])),
)


def brute_force(stream: list[int]) -> LocalityResult:
    result = LocalityResult(accesses=len(stream))
    last: dict[int, int] = {}
    for i, addr in enumerate(stream):
        if addr in last:
            bucket = len(set(stream[last[addr] + 1:i])).bit_length()
            result.histogram[bucket] = result.histogram.get(bucket, 0) + 1
        else:
            result.cold_misses += 1
        last[addr] = i
    result.distinct_addresses = len(last)
    return result


@st.composite
def cuts(draw, stream):
    """Sorted cut points into ``stream``, repeats allowed, so pieces can
    be empty or a single access."""
    points = draw(st.lists(st.integers(0, len(stream)), max_size=12))
    return [0, *sorted(points), len(stream)]


def pieces(stream, points):
    return [stream[lo:hi] for lo, hi in zip(points, points[1:])]


def batch_of(addrs, kinds) -> EventBatch:
    """A decoded block holding ``addrs`` as reads/writes, with a block
    event in front of every access that is not a locality event."""
    etypes, a = [], []
    for addr, kind in zip(addrs, kinds):
        if kind == 2:
            etypes.append(EV_BLOCK)
            a.append(7)
        etypes.append(EV_WRITE if kind == 1 else EV_READ)
        a.append(addr)
    n = len(etypes)
    return EventBatch(np.asarray(etypes, dtype=np.int64),
                      np.asarray(a, dtype=np.int64),
                      np.zeros(n, dtype=np.int64),
                      np.arange(n, dtype=np.int64))


def feed(analysis, piece, path, kinds):
    if path == "batch":
        analysis.consume_batch(batch_of(piece, kinds))
    else:
        for i, addr in enumerate(piece):
            hook = analysis.on_write if kinds[i] == 1 else analysis.on_read
            hook(addr, 0, i)


@st.composite
def cases(draw):
    stream = draw(streams)
    points = draw(cuts(stream))
    kinds = draw(st.lists(st.integers(0, 2), min_size=len(stream),
                          max_size=len(stream)))
    chunk = draw(st.sampled_from([1, 2, 3, 16, 8192]))
    return stream, points, kinds, chunk


class TestOracle:
    @settings(max_examples=150, deadline=None)
    @given(cases(), st.sampled_from(["batch", "hooks"]))
    def test_serial_paths(self, case, path):
        stream, points, kinds, chunk = case
        analysis = LocalityAnalysis()
        with mock.patch.object(builtin, "CHUNK_ACCESSES", chunk):
            for lo, hi in zip(points, points[1:]):
                feed(analysis, stream[lo:hi], path, kinds[lo:hi])
            result = analysis.finish(CTX)
        assert result.payload == brute_force(stream)

    @settings(max_examples=150, deadline=None)
    @given(cases(), st.data())
    def test_segmented_path(self, case, data):
        """Segments replayed cold, exported, folded left to right and
        finalized equal one pass over the whole stream."""
        stream, points, kinds, chunk = case
        segments = []
        with mock.patch.object(builtin, "CHUNK_ACCESSES", chunk):
            for lo, hi in zip(points, points[1:]):
                analysis = LocalityAnalysis()
                inner = data.draw(cuts(stream[lo:hi]))
                path = data.draw(st.sampled_from(["batch", "hooks"]))
                for piece_lo, piece_hi in zip(inner, inner[1:]):
                    feed(analysis, stream[lo + piece_lo:lo + piece_hi],
                         path, kinds[lo + piece_lo:lo + piece_hi])
                segments.append(analysis.export_segment(CTX))
        folded = segments[0]
        for segment in segments[1:]:
            folded = folded.merge(segment)
        assert folded.finalize(CTX).payload == brute_force(stream)

    def test_mixed_hooks_and_batches_keep_stream_order(self):
        stream = [1, 2, 3, 1, 4, 2, 5, 1, 3, 3]
        analysis = LocalityAnalysis()
        with mock.patch.object(builtin, "CHUNK_ACCESSES", 4):
            feed(analysis, stream[:3], "hooks", [0] * 3)
            feed(analysis, stream[3:5], "batch", [0] * 2)
            feed(analysis, stream[5:6], "hooks", [1])
            feed(analysis, stream[6:], "batch", [1] * 4)
            assert analysis.stats == brute_force(stream)
