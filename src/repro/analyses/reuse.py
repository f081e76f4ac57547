"""Exact LRU reuse distances, one chunk of accesses at a time.

The reuse distance of an access is the number of *distinct* addresses
touched since the previous access to the same address. Number the
accesses 1, 2, ... in stream order and let ``p_i`` be the position of
the previous access to access ``i``'s address (``0`` on a cold miss).
An access ``j < i`` has ``p_j < p_i`` exactly when ``j <= p_i`` or
``j`` is the first access to its address after ``p_i``, so::

    d_i = #{j < i : p_j < p_i} - p_i

Positive ``p`` values are distinct (a position precedes at most one
next access), so ties occur only among cold misses, which are never
queried. For a chunk that follows ``s0`` earlier accesses the count
splits into the part before the chunk, read from the sorted *live*
positions (each address's last access so far), and the part inside
the chunk, ``#{earlier k in the chunk : p_k < p_i}`` — a per-element
dominance count (:func:`dominance`).

Everything is a :class:`ReuseState`, and :func:`fold` is the only way
two states combine. Serial replay folds the state of each chunk
(:func:`chunk_state`) into the running state; sharded replay folds
each segment's exported state into the accumulated one. In both cases
the reuses that cross the seam are the first accesses of the right
side's addresses, checked against the left side's live positions, so
one function computes them; every other distance is already exact on
its own side.
"""

from __future__ import annotations

import numpy as np

#: Accesses buffered before the kernel runs. A call has the fixed cost
#: of a few hundred numpy operations, so small blocks are coalesced;
#: where the buffer is cut never changes a result.
CHUNK_ACCESSES = 8192

#: Histogram length: a distance is below the access count, so its
#: bucket (its ``bit_length``) is at most 63.
BUCKETS = 64

_EMPTY = np.zeros(0, dtype=np.int64)


class ReuseState:
    """Reuse-distance state after ``accesses`` accesses.

    ``keys`` are the distinct addresses, sorted, with ``last`` their
    last access positions (1-based); ``live`` is ``last`` sorted;
    ``order`` lists the addresses in first-access order, one entry per
    cold miss; ``hist[k]`` counts reuses whose distance has
    ``bit_length`` ``k``.
    """

    __slots__ = ("accesses", "keys", "last", "live", "order", "hist")

    def __init__(self, accesses: int = 0, keys=_EMPTY, last=_EMPTY,
                 live=_EMPTY, order=_EMPTY, hist=None):
        self.accesses = accesses
        self.keys = keys
        self.last = last
        self.live = live
        self.order = order
        self.hist = (np.zeros(BUCKETS, dtype=np.int64) if hist is None
                     else hist)

    def histogram(self) -> dict[int, int]:
        """Non-empty buckets as ``{bucket: count}``, ascending."""
        buckets = np.flatnonzero(self.hist)
        return dict(zip(buckets.tolist(), self.hist[buckets].tolist()))


def as_addresses(values) -> np.ndarray:
    """Access addresses as an int64 array.

    Only a corrupt trace block that still parses can carry an address
    outside int64 (the scalar decoder admits varints of up to 70 bits);
    it raises ``TraceError`` like any other corrupt record.
    """
    try:
        return np.asarray(values, dtype=np.int64)
    except OverflowError:
        # Deferred: repro.trace imports the analyses package.
        from repro.trace.events import TraceError

        raise TraceError("corrupt trace: access address outside the "
                         "64-bit range") from None


def bucket(distances: np.ndarray) -> np.ndarray:
    """``int.bit_length`` of each non-negative int64, exactly.

    The ``frexp`` exponent is the bit length whenever the conversion to
    float64 is exact; above 2^53 rounding can carry ``2^k - 1`` up to
    ``2^k``, which the shift test takes back.
    """
    exponent = np.frexp(distances.astype(np.float64))[1].astype(np.int64)
    shift = np.maximum(exponent - 1, 0)
    exponent -= (exponent > 0) & ((distances >> shift) == 0)
    return exponent


def stable_order(values: np.ndarray) -> np.ndarray:
    """``np.argsort(values, kind="stable")``, faster where it can be.

    Non-negative values small enough to carry their index in the low
    bits sort as one plain int64 key (positions and valid addresses
    always are); anything else takes the library's stable sort.
    """
    m = values.size
    bits = max(m - 1, 1).bit_length()
    if m and (values.min() < 0 or values.max() >> (62 - bits)):
        return np.argsort(values, kind="stable")
    return np.sort((values << bits) | np.arange(m)) & ((1 << bits) - 1)


def dominance(values: np.ndarray) -> np.ndarray:
    """``out[k] = #{j < k : values[j] < values[k]}``.

    Equal values count as smaller when they come first (irrelevant to
    the callers, whose only ties are cold misses). The values are
    replaced by their stable ranks ``0..m-1``, and the count is taken
    one rank bit at a time from the top, wavelet-style: within a group
    of elements sharing the higher bits (kept in stream order), an
    element whose bit is 1 is dominated by every earlier element whose
    bit is 0, and each pair is counted at the one bit where their ranks
    first differ. Each level then stably partitions every group by its
    bit, by arithmetic alone: group ``g`` at bit ``b`` holds exactly
    the ranks ``[g * 2^(b+1), (g+1) * 2^(b+1))``.
    """
    m = values.size
    if m < 2:
        return np.zeros(m, dtype=np.int64)
    rank = np.empty(m, dtype=np.int64)
    rank[stable_order(values)] = np.arange(m)
    ranks = rank
    counts = np.zeros(m, dtype=np.int64)
    slot = np.arange(m)
    for b in range((m - 1).bit_length() - 1, -1, -1):
        bit = (ranks >> b) & 1
        # Every earlier group is full and holds 2^b zeros and 2^b ones,
        # ``half`` of each in all; the group itself starts at 2 * half.
        half = (ranks >> (b + 1)) << b
        ones = np.cumsum(bit) - bit
        zeros = slot - ones
        counts += bit * (zeros - half)
        target = half + np.where(bit == 1, ones + (1 << b), zeros)
        moved = np.empty(m, dtype=np.int64)
        moved[target] = ranks
        ranks = moved
        moved = np.empty(m, dtype=np.int64)
        moved[target] = counts
        counts = moved
    # Fully partitioned: every element sits at its rank.
    return counts[rank]


def _histogram(distances: np.ndarray) -> np.ndarray:
    return np.bincount(bucket(distances), minlength=BUCKETS)


def chunk_state(addrs: np.ndarray) -> ReuseState:
    """The state of ``addrs`` read as a stream of its own."""
    m = addrs.size
    if m == 0:
        return ReuseState()
    by_addr = stable_order(addrs)
    sorted_addrs = addrs[by_addr]
    starts = np.empty(m, dtype=bool)
    starts[0] = True
    np.not_equal(sorted_addrs[1:], sorted_addrs[:-1], out=starts[1:])
    ends = np.empty(m, dtype=bool)
    ends[-1] = True
    ends[:-1] = starts[1:]
    # Previous positions within the chunk; read alone it starts at
    # s0 = 0, so every reuse's distance is its dominance count minus p.
    prev = np.zeros(m, dtype=np.int64)
    repeats = np.flatnonzero(~starts)
    prev[by_addr[repeats]] = by_addr[repeats - 1] + 1
    distances = (dominance(prev) - prev)[prev > 0]
    last = by_addr[ends] + 1
    return ReuseState(
        accesses=m,
        keys=sorted_addrs[starts],
        last=last,
        live=np.sort(last),
        order=addrs[np.sort(by_addr[starts])],
        hist=_histogram(distances),
    )


def _lookup(keys: np.ndarray, queries: np.ndarray):
    """Insertion slots of ``queries`` in ``keys`` and which are present."""
    slots = np.searchsorted(keys, queries)
    present = slots < keys.size
    present[present] = keys[slots[present]] == queries[present]
    return slots, present


def fold(acc: ReuseState, part: ReuseState) -> ReuseState:
    """The state of ``acc``'s stream followed by ``part``'s.

    Distances inside ``part`` carry over unchanged (every access in
    between lies inside ``part``). The reuses that cross the seam are
    the first accesses in ``part.order`` of addresses ``acc`` has seen:
    with ``p`` the address's last position in ``acc``, the distance is
    the live positions of ``acc`` after ``p`` plus the addresses first
    touched earlier in ``part`` whose last ``acc`` position is before
    ``p`` (or which are new).
    """
    s0 = acc.accesses
    slots, seen = _lookup(acc.keys, part.order)
    prev = np.zeros(part.order.size, dtype=np.int64)
    prev[seen] = acc.last[slots[seen]]
    killed = np.searchsorted(acc.live, prev[seen])
    distances = acc.live.size - 1 - killed + dominance(prev)[seen]

    slots, seen = _lookup(acc.keys, part.keys)
    last = acc.last.copy()
    last[slots[seen]] = part.last[seen] + s0
    fresh = ~seen
    return ReuseState(
        accesses=s0 + part.accesses,
        keys=np.insert(acc.keys, slots[fresh], part.keys[fresh]),
        last=np.insert(last, slots[fresh], part.last[fresh] + s0),
        live=np.concatenate((np.delete(acc.live, killed),
                             part.live + s0)),
        order=np.concatenate((acc.order,
                              part.order[prev == 0])),
        hist=acc.hist + part.hist + _histogram(distances),
    )
