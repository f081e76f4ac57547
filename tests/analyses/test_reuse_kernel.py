"""Unit tests of the reuse-distance kernel's building blocks."""

from __future__ import annotations

import random

import numpy as np
import pytest

from repro.analyses.builtin import LocalityAnalysis
from repro.analyses.reuse import (ReuseState, as_addresses, bucket,
                                  chunk_state, dominance, fold,
                                  stable_order)
from repro.trace import TraceError
from repro.trace.columnar import EventBatch
from repro.trace.events import EV_READ, EV_WRITE

SIZES = [0, 1, 2, 3] + [n for k in range(2, 11)
                        for n in (1 << k, (1 << k) + 1)]


def dominance_by_loop(values: list[int]) -> list[int]:
    return [sum(1 for j in range(k) if values[j] <= values[k])
            for k in range(len(values))]


class TestDominance:
    @pytest.mark.parametrize("m", SIZES)
    def test_matches_quadratic_loop(self, m):
        rng = random.Random(m)
        for alphabet in (1, 3, 2 * m + 1):
            values = [rng.randrange(alphabet) for _ in range(m)]
            got = dominance(np.asarray(values, dtype=np.int64))
            assert got.tolist() == dominance_by_loop(values)

    @pytest.mark.parametrize("m", SIZES)
    def test_repeated_zeros_with_distinct_positives(self, m):
        """The callers' shape: cold misses (zeros) among distinct
        previous positions."""
        rng = random.Random(1000 + m)
        positives = rng.sample(range(1, 4 * m + 2), m)
        values = [0 if rng.random() < 0.4 else p for p in positives]
        got = dominance(np.asarray(values, dtype=np.int64))
        assert got.tolist() == dominance_by_loop(values)

    def test_large_and_negative_values_take_the_general_sort(self):
        values = [1 << 62, -5, 3, -5, 1 << 62, 0]
        for fn in (stable_order, dominance):
            fn(np.asarray(values, dtype=np.int64))
        assert stable_order(np.asarray(values)).tolist() == \
            np.argsort(values, kind="stable").tolist()
        assert dominance(np.asarray(values)).tolist() == \
            dominance_by_loop(values)


class TestBucket:
    def test_equals_bit_length(self):
        values = [0]
        for k in range(1, 41):
            values += [(1 << k) - 1, 1 << k]
        got = bucket(np.asarray(values, dtype=np.int64))
        assert got.tolist() == [v.bit_length() for v in values]

    def test_exact_beyond_float_precision(self):
        values = [(1 << k) - 1 for k in range(50, 64)] + \
            [1 << k for k in range(50, 63)]
        got = bucket(np.asarray(values, dtype=np.int64))
        assert got.tolist() == [v.bit_length() for v in values]


class TestAddressRange:
    def test_hook_address_beyond_int64_raises_trace_error(self):
        analysis = LocalityAnalysis()
        analysis.on_read(1 << 63, 0, 0)
        with pytest.raises(TraceError, match="64-bit"):
            analysis.finish(None)

    def test_list_backed_batch_beyond_int64_raises_trace_error(self):
        batch = EventBatch.from_lists([EV_READ, EV_WRITE],
                                      [5, 1 << 63], [0, 0], [0, 1])
        with pytest.raises(TraceError, match="64-bit"):
            LocalityAnalysis().consume_batch(batch)

    def test_in_range_extremes_are_addresses(self):
        values = [-(1 << 63), (1 << 63) - 1]
        assert as_addresses(values).tolist() == values


class TestFold:
    def test_chunking_never_changes_the_state(self):
        rng = random.Random(7)
        stream = [rng.randrange(50) for _ in range(600)]
        whole = chunk_state(np.asarray(stream, dtype=np.int64))
        state = ReuseState()
        lo = 0
        while lo < len(stream):
            hi = lo + rng.choice([0, 1, 2, 17, 100])
            state = fold(state, chunk_state(
                np.asarray(stream[lo:hi], dtype=np.int64)))
            lo = hi
        for name in ReuseState.__slots__:
            assert np.array_equal(getattr(state, name),
                                  getattr(whole, name)), name
