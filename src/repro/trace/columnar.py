"""Columnar event batches: whole trace blocks as typed arrays.

The replay engine consumes decoded blocks, not single events: each
block becomes one :class:`EventBatch` of four parallel numpy columns
(``etypes``/``a``/``b``/``t``), and the delta/zigzag reconstruction
runs once per *column* instead of once per event. The per-block kernel
(:func:`decode_block_columns`) vectorizes the whole pipeline — varint
boundary discovery, value assembly, zigzag, per-type delta cumsums —
in a handful of array ops.

Correctness contract: the kernel only ever accepts a block it can
*prove* well-formed — contiguous ``[etype][varint][varint][varint]``
records covering every byte, with no varint beyond the 5 bytes a
legitimate u32-bounded field can occupy (int64 arithmetic is then
exact). Anything else returns ``None`` and the caller re-decodes the
block with the scalar reference loop
(:func:`repro.trace.codec.decode_records`), which reproduces the
scalar decoder's events and errors bit for bit — the property-based
equivalence suite pins exactly this.
"""

from __future__ import annotations

import numpy as _np

from repro.analyses.reuse import as_addresses
from repro.trace.events import (EV_ALLOC, EV_BLOCK, EV_BRANCH,
                                EV_CHECKPOINT, EV_ENTER, EV_EXIT,
                                EV_FINISH, EV_FREE, EV_READ, EV_WRITE)

#: Event types the replay engines apply to reconstructed memory (frame
#: pushes/pops, heap churn) plus FINISH: the seams at which a block is
#: split into memory-quiet spans for ``batch_kind == "span"`` plugins.
STRUCTURAL_EVENTS = frozenset(
    (EV_ENTER, EV_EXIT, EV_ALLOC, EV_FREE, EV_FINISH))

#: Every event type the engines understand (anything else is a corrupt
#: record and replay raises ``unknown event type``).
KNOWN_EVENTS = frozenset(
    (EV_ENTER, EV_EXIT, EV_BLOCK, EV_BRANCH, EV_READ, EV_WRITE,
     EV_ALLOC, EV_FREE, EV_FINISH, EV_CHECKPOINT))

#: Longest varint a legitimate v2 field can occupy: operands and
#: deltas are u32-bounded, so zigzag values fit 33 bits = 5 x 7-bit
#: groups. Blocks containing longer varints fall back to the scalar
#: decoder (whose 10-byte/64-bit hard cap raises ``overlong varint``).
VECTOR_MAX_VARINT_BYTES = 5

#: Per-type delta seeds beyond this magnitude (only reachable through
#: corrupt-but-parseable blocks — valid operands are u32) push the
#: int64 cumsums toward overflow, where numpy would silently wrap
#: while the scalar decoder's bignums would not; such blocks take the
#: scalar path instead.
_SAFE_PREV = 1 << 55

_STRUCT_LUT = _np.zeros(256, dtype=bool)
_STRUCT_LUT[list(STRUCTURAL_EVENTS)] = True
_KNOWN_LUT = _np.zeros(256, dtype=bool)
_KNOWN_LUT[list(KNOWN_EVENTS)] = True
_ACCESS_LUT = _np.zeros(256, dtype=bool)
_ACCESS_LUT[[EV_READ, EV_WRITE]] = True


def _column(values: list):
    """An int64 column, or an object column for the values outside
    int64 that only a corrupt-but-parseable block can carry (the scalar
    decoder's 10-byte varint cap admits up to 70 value bits)."""
    try:
        return _np.asarray(values, dtype=_np.int64)
    except OverflowError:
        return _np.asarray(values, dtype=object)


class EventBatch:
    """One decoded block of events as four parallel numpy columns.

    Columns are ``int64`` (``object`` only for the out-of-range values
    of a corrupt block); :meth:`columns` exposes plain-``int`` lists
    (cached) and :meth:`rows` iterates ``(etype, a, b, t)`` tuples
    identical to the scalar decoder's yield. Slices share storage.
    """

    __slots__ = ("etypes", "a", "b", "t", "_lists")

    def __init__(self, etypes, a, b, t, _lists=None):
        self.etypes = etypes
        self.a = a
        self.b = b
        self.t = t
        self._lists = _lists

    @classmethod
    def from_lists(cls, etypes: list, a: list, b: list, t: list
                   ) -> "EventBatch":
        """Wrap scalar-decoded columns (keeps the lists as the cache)."""
        lists = (etypes, a, b, t)
        return cls(*map(_column, lists), _lists=lists)

    def __len__(self) -> int:
        return len(self.etypes)

    def slice(self, lo: int, hi: int) -> "EventBatch":
        """Sub-batch covering rows ``[lo, hi)``."""
        return EventBatch(self.etypes[lo:hi], self.a[lo:hi],
                          self.b[lo:hi], self.t[lo:hi])

    # -- scalar views ------------------------------------------------------

    def columns(self) -> tuple[list, list, list, list]:
        """The four columns as plain-int lists (computed once)."""
        if self._lists is None:
            self._lists = (self.etypes.tolist(), self.a.tolist(),
                           self.b.tolist(), self.t.tolist())
        return self._lists

    def rows(self):
        """Iterate ``(etype, a, b, t)`` tuples of plain ints."""
        return zip(*self.columns())

    def gather(self, indices: list[int]
               ) -> tuple[list, list, list, list]:
        """The four columns at ``indices`` only, as plain-int lists.

        Cheaper than :meth:`columns` when only a few rows are needed
        (the engine gathers just the structural seams of a block).
        """
        idx = _np.asarray(indices, dtype=_np.intp)
        return (self.etypes[idx].tolist(), self.a[idx].tolist(),
                self.b[idx].tolist(), self.t[idx].tolist())

    # -- engine helpers ----------------------------------------------------

    def structural_indices(self) -> list[int]:
        """Row indices of memory-mutating events and FINISH, in order."""
        return _np.flatnonzero(_STRUCT_LUT[self.etypes]).tolist()

    def first_unknown_etype(self) -> int | None:
        """The first event type outside the known set, or ``None``."""
        known = _KNOWN_LUT[self.etypes]
        if known.all():
            return None
        return int(self.etypes[int(_np.argmin(known))])

    # -- analysis helpers (the consume_batch building blocks) -------------

    def etype_counts(self) -> list[int]:
        """Count per event type, indexable by the ``EV_*`` codes."""
        return _np.bincount(self.etypes, minlength=256).tolist()

    def addr_counts(self, etype: int) -> list[tuple[int, int]]:
        """``(a, occurrences)`` pairs for events of type ``etype``."""
        values, counts = _np.unique(self.a[self.etypes == etype],
                                    return_counts=True)
        return list(zip(values.tolist(), counts.tolist()))

    def access_addrs(self):
        """Addresses of every READ and WRITE, in event order, as an
        int64 array (``TraceError`` if one does not fit)."""
        return as_addresses(self.a[_ACCESS_LUT[self.etypes]])


def decode_block_columns(data: bytes, prev_a: list[int],
                         prev_b: list[int], time0: int):
    """Vectorized whole-block decode of v2 record bytes.

    Returns ``(etypes, a, b, t, finished)`` — four int64 numpy columns
    (truncated at the first FINISH record, matching the scalar
    decoder's early return) plus whether FINISH was seen — and mutates
    ``prev_a``/``prev_b`` in place exactly as decoding each record
    scalar-wise would. Returns ``None`` whenever the block is not
    provably well-formed; the caller must then re-decode it with the
    scalar reference loop, which reproduces events and errors exactly.
    """
    arr = _np.frombuffer(data, dtype=_np.uint8)
    # Varint terminals and etype bytes are the bytes without the
    # continuation bit; a well-formed record contributes exactly four:
    # [etype][end of zz(da)][end of zz(db)][end of dt].
    ends = _np.flatnonzero(arr < 0x80)
    if ends.size == 0 or ends.size % 4:
        return None
    ends = ends.reshape(-1, 4)
    if (ends[0, 0] != 0 or ends[-1, 3] != arr.size - 1
            or (ends[1:, 0] != ends[:-1, 3] + 1).any()):
        return None
    et_u8 = arr[ends[:, 0]]
    fin = _np.flatnonzero(et_u8 == EV_FINISH)
    finished = fin.size > 0
    if finished:
        ends = ends[:int(fin[0]) + 1]
        et_u8 = et_u8[:int(fin[0]) + 1]
    etypes = et_u8.astype(_np.int64)
    # Little-endian 7-bit group assembly, one pass per varint column.
    # Delta compression makes single-byte varints the overwhelmingly
    # common case, so each column starts from its first byte and only
    # the (few) longer varints get integer-indexed fix-up passes; the
    # byte gathers stay in uint8 so only the n decoded values per
    # column ever widen to int64.
    cols = []
    for k in range(3):
        first = ends[:, k] + 1
        lens = ends[:, k + 1] - ends[:, k]
        column = (arr[first] & 0x7F).astype(_np.int64)
        maxlen = int(lens.max())
        if maxlen > VECTOR_MAX_VARINT_BYTES:
            return None
        for j in range(1, maxlen):
            more = _np.flatnonzero(lens > j)
            column[more] |= ((arr[first[more] + j] & 0x7F)
                             .astype(_np.int64) << (7 * j))
        cols.append(column)
    za, zb, dt = cols
    da = (za >> 1) ^ -(za & 1)
    db = (zb >> 1) ^ -(zb & 1)
    n = etypes.shape[0]
    # Deltas are relative to the previous record of the SAME type.
    # Group rows by type with one stable argsort on the uint8 keys
    # (radix sort) instead of a boolean mask + two fancy-index passes
    # per type present: one cumsum per operand column over the sorted
    # deltas, re-based per type segment with the cross-block prev
    # state (which each segment also feeds back into), then an inverse
    # scatter to restore record order.
    order = _np.argsort(et_u8, kind="stable")
    et_sorted = et_u8[order]
    bounds = _np.flatnonzero(et_sorted[1:] != et_sorted[:-1]) + 1
    seg_starts = _np.concatenate(([0], bounds))
    seg_ends = _np.concatenate((bounds, [n]))
    seg_types = et_sorted[seg_starts].tolist()
    if abs(time0) > _SAFE_PREV:
        return None
    for et in seg_types:
        if abs(prev_a[et]) > _SAFE_PREV or abs(prev_b[et]) > _SAFE_PREV:
            return None
    seg_lens = seg_ends - seg_starts
    starts_l = seg_starts.tolist()
    ends_l = seg_ends.tolist()
    a = _np.empty(n, dtype=_np.int64)
    b = _np.empty(n, dtype=_np.int64)
    for deltas, out, prev in ((da, a, prev_a), (db, b, prev_b)):
        cum = deltas[order].cumsum()
        shifts = []
        for s, e, et in zip(starts_l, ends_l, seg_types):
            shift = prev[et] - (int(cum[s - 1]) if s else 0)
            shifts.append(shift)
            prev[et] = int(cum[e - 1]) + shift
        out[order] = cum + _np.repeat(
            _np.asarray(shifts, dtype=_np.int64), seg_lens)
    t = dt.cumsum() + time0
    return etypes, a, b, t, finished
