"""Checkpointed traces: shard seams for parallel replay.

A CHECKPOINT is a compact snapshot of everything a replay needs to
*start mid-trace* and still behave exactly like a serial pass that
streamed every earlier event:

* **frame stack** — function indices bottom-to-top (plus the
  popped-frame marker), so a reconstructed
  :class:`~repro.runtime.memory.Memory` resolves symbolic names and
  pops frames identically;
* **heap layout** — live blocks with their ``heap#N`` ids, the
  free-by-size recycling lists in order, bump pointer and id counter,
  so in-segment ``heap_alloc`` returns exactly the recorded bases;
* **construct stack** — ``(head pc, Tenter)`` pairs for the execution
  index, so constructs that span the seam keep true durations and the
  dependence walk sees real ancestor chains;
* **shadow memory** — last write ``(pc, t)`` and last read per static
  pc since that write, per tracked address, so dependence analyses
  pair cross-seam accesses exactly (attribution of those pairs is
  deferred to the merge — see ``repro.analyses.merging``);
* **codec state** — the per-type deltas and the clock at the block
  boundary, plus the absolute file offset of the next block, so a
  reader seeks straight to the seam (`TraceReader.batches_from`).

Recording does no checkpoint work. Seams are placed after the fact by
:func:`build_checkpoints`, one serial scan that drives a
:class:`CheckpointBuilder` from the decoded stream and snapshots it at
block boundaries, cached in a ``.ckpt`` sidecar so repeated parallel
replays pay it once. Seams therefore sit at block granularity (about
16k events apart at the default 64 KB blocks). Traces recorded before
this design may still carry ``EV_CHECKPOINT`` markers and a footer
``checkpoints`` table; the markers are no-op events and the table is
ignored.

:func:`plan_shards` turns a trace plus a worker count into a list of
:class:`Segment`\\ s — (checkpoint, end index) pairs that partition the
event stream — which :mod:`repro.trace.parallel` fans out across a
process pool.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field

from repro.trace.events import (EV_ALLOC, EV_BLOCK, EV_BRANCH,
                                EV_CHECKPOINT, EV_ENTER, EV_EXIT,
                                EV_FINISH, EV_FREE, EV_READ, EV_WRITE,
                                TraceError)
from repro.trace.reader import TraceReader

#: Minimum events between scan-built seams.
DEFAULT_CHECKPOINT_INTERVAL = 50_000

#: Sidecar filename suffix for scan-built checkpoints.
SIDECAR_SUFFIX = ".ckpt"

#: Schema tag inside sidecar files (bump when the payload changes).
_SIDECAR_SCHEMA = 1

#: Largest sidecar read back; a bigger file is treated as stale (and
#: rescanned) without being parsed. Bundled workloads' sidecars stay
#: under 160 KB at scale 1.0 even at ``interval=1000``.
MAX_SIDECAR_BYTES = 16 << 20


# ---------------------------------------------------------------------------
# Checkpoint payload
# ---------------------------------------------------------------------------

@dataclass
class Checkpoint:
    """One shard seam; see the module docstring for field semantics."""

    index: int                      #: events consumed before this seam
    time: int                       #: clock after those events
    offset: int                     #: file offset of the next block
    codec: dict = field(default_factory=dict)
    frames: list = field(default_factory=list)
    last_popped: list | None = None
    heap: dict = field(default_factory=dict)
    cstack: list = field(default_factory=list)
    #: ``[[addr, wpc, wt, [[rpc, rt], ...]], ...]`` sorted by address;
    #: ``wpc == -1`` means no write recorded (reads only).
    shadow: list = field(default_factory=list)

    def to_payload(self) -> dict:
        return {
            "index": self.index, "time": self.time, "offset": self.offset,
            "codec": self.codec, "frames": self.frames,
            "last_popped": self.last_popped, "heap": self.heap,
            "cstack": self.cstack, "shadow": self.shadow,
        }

    @classmethod
    def from_payload(cls, payload: dict) -> "Checkpoint":
        try:
            return cls(**payload)
        except TypeError as exc:
            raise TraceError(f"corrupt checkpoint payload: {exc}") from exc

    def decoder_state(self) -> dict:
        """What ``TraceReader.batches_from`` needs at this seam."""
        return {"time": self.time, **self.codec}

    def shadow_entries(self):
        """Yield ``(addr, write | None, reads)`` from the snapshot,
        with ``write = (pc, t)`` and ``reads = {pc: t}``."""
        for addr, wpc, wt, reads in self.shadow:
            write = None if wpc < 0 else (wpc, wt)
            yield addr, write, {pc: t for pc, t in reads}


def genesis_checkpoint(events_start: int) -> Checkpoint:
    """The implicit seam before the first event (segment 0 starts from
    pristine state, exactly like a serial replay)."""
    return Checkpoint(index=0, time=0, offset=events_start)


# ---------------------------------------------------------------------------
# Scan-side state mirror
# ---------------------------------------------------------------------------

class MemoryMirror:
    """Frame and heap bookkeeping of :class:`Memory`, minus the cells.

    The scan has no use for a full Memory (push_frame zeroes cells),
    and a checkpoint never needs values — only layout. The allocation
    decisions here must match ``Memory.heap_alloc``/``heap_free``
    *bit-for-bit* (same-size recycling pops the most recent free, else
    bump), because in-segment replay re-runs the real allocator from
    the restored state and verifies recorded bases; the checkpoint
    fuzz tests pin the two against each other on every workload.
    """

    __slots__ = ("frame_sizes", "globals_size", "stack_top", "frames",
                 "last_popped", "heap_base", "heap_top", "blocks",
                 "free_by_size", "next_id", "allocs", "frees")

    def __init__(self, globals_size: int, heap_base: int,
                 frame_sizes: list[int]):
        self.frame_sizes = frame_sizes          # by function index
        self.globals_size = globals_size
        self.stack_top = globals_size
        self.frames: list[tuple[int, int]] = []  # (fn_index, base)
        self.last_popped: tuple[int, int] | None = None
        self.heap_base = heap_base
        self.heap_top = heap_base
        self.blocks: dict[int, tuple[int, int]] = {}  # base -> (size, id)
        self.free_by_size: dict[int, list[int]] = {}
        self.next_id = 1
        self.allocs = 0
        self.frees = 0

    def push(self, fn_index: int) -> None:
        base = self.stack_top
        self.stack_top = base + self.frame_sizes[fn_index]
        self.frames.append((fn_index, base))

    def pop(self) -> None:
        fn_index, base = self.frames.pop()
        self.stack_top = base
        self.last_popped = (fn_index, base)

    def heap_alloc(self, size: int) -> int:
        bucket = self.free_by_size.get(size)
        if bucket:
            base = bucket.pop()
        else:
            base = self.heap_top
            self.heap_top += size
        self.blocks[base] = (size, self.next_id)
        self.next_id += 1
        self.allocs += 1
        return base

    def heap_free(self, base: int) -> None:
        size, _ = self.blocks.pop(base)
        self.free_by_size.setdefault(size, []).append(base)
        self.frees += 1

    def snapshot(self) -> tuple[list, list | None, dict]:
        heap = {
            "top": self.heap_top,
            "next_id": self.next_id,
            "blocks": sorted([base, size, bid]
                             for base, (size, bid) in self.blocks.items()),
            "free": {str(size): list(bases)
                     for size, bases in sorted(self.free_by_size.items())
                     if bases},
            "allocs": self.allocs,
            "frees": self.frees,
        }
        frames = [fn_index for fn_index, _ in self.frames]
        popped = list(self.last_popped) if self.last_popped else None
        return frames, popped, heap


class CheckpointBuilder:
    """Replays the event stream into checkpointable state.

    Fed one event at a time by :func:`build_checkpoints` as it scans,
    and mirrors
    exactly what :class:`repro.trace.replay.ReplayEngine` would do with
    the same events: frames push before / pop after their events, heap
    blocks allocate and recycle deterministically, the execution index
    follows the five instrumentation rules, and shadow memory keeps
    the last write plus the per-pc reads since it (with frees
    forgetting their ranges).
    """

    def __init__(self, program, functions: list[str], heap_base: int):
        from repro.analysis.constructs import ConstructTable
        from repro.core.indexing import IndexingStack
        from repro.core.pool import NodeAllocator
        from repro.core.profile_data import ProfileStore
        from repro.core.shadow import ShadowMemory

        fn_irs = []
        for name in functions:
            try:
                fn_irs.append(program.functions[name])
            except KeyError:
                raise TraceError(
                    f"trace names function {name!r} missing from the "
                    "program (source/trace mismatch)") from None
        self.stack = IndexingStack(ConstructTable(program),
                                   NodeAllocator(64), ProfileStore())
        self.shadow = ShadowMemory()
        self.mirror = MemoryMirror(
            program.globals_size, heap_base,
            [fn.frame_size for fn in fn_irs])
        self._entry_pcs = [fn.entry_pc for fn in fn_irs]
        self.heap_base = heap_base
        self.index = 0
        self.time = 0

    def apply(self, etype: int, a: int, b: int, t: int) -> None:
        if etype == EV_READ:
            self.shadow.on_read(a, b, None, t)
        elif etype == EV_WRITE:
            self.shadow.on_write(a, b, None, t)
        elif etype == EV_BLOCK:
            self.stack.on_block_enter(a, t)
        elif etype == EV_BRANCH:
            self.stack.on_branch(a, b, t)
        elif etype == EV_ENTER:
            self.mirror.push(a)
            self.stack.enter_procedure(self._entry_pcs[a], t)
        elif etype == EV_EXIT:
            self.stack.exit_procedure(t)
            self.mirror.pop()
        elif etype == EV_FREE:
            if b and a >= self.heap_base:
                self.mirror.heap_free(a)
            self.shadow.clear_range(a, a + b)
        elif etype == EV_ALLOC:
            base = self.mirror.heap_alloc(b)
            if base != a:
                raise TraceError(
                    f"checkpoint heap mirror diverged: alloc returned "
                    f"{base}, trace recorded {a}")
        elif etype not in (EV_FINISH, EV_CHECKPOINT):
            raise TraceError(f"unknown event type {etype}")
        self.index += 1
        self.time = t

    def _shadow_snapshot(self) -> list:
        entries = []
        for addr in sorted(self.shadow._entries):
            write, reads = self.shadow._entries[addr]
            wpc, wt = (-1, 0) if write is None else (write[0], write[2])
            entries.append([addr, wpc, wt,
                            sorted([pc, t] for pc, (_n, t)
                                   in reads.items())])
        return entries

    def snapshot(self, offset: int, codec_state: dict) -> Checkpoint:
        frames, popped, heap = self.mirror.snapshot()
        return Checkpoint(
            index=self.index,
            time=self.time,
            offset=offset,
            codec=codec_state,
            frames=frames,
            last_popped=popped,
            heap=heap,
            cstack=[[node.static.pc, node.t_enter]
                    for node in self.stack.stack],
            shadow=self._shadow_snapshot(),
        )


# ---------------------------------------------------------------------------
# Restoring checkpointed state
# ---------------------------------------------------------------------------

def restore_memory(program, header, checkpoint: Checkpoint):
    """Reconstruct a :class:`Memory` as of ``checkpoint``.

    Frames are re-pushed through the real ``push_frame`` (so the
    locals/array registry is rebuilt), then the heap adopts the
    checkpointed layout; from here the in-segment replay drives the
    instance exactly like the serial engine drives a fresh one.
    """
    from repro.runtime.memory import Memory

    memory = Memory(program, header.stack_limit)
    fns = [program.functions[name] for name in header.functions]
    for fn_index in checkpoint.frames:
        memory.push_frame(fns[fn_index])
    heap = checkpoint.heap
    if heap:
        memory.restore_heap(
            top=heap["top"], next_id=heap["next_id"],
            blocks=heap["blocks"], free_by_size=heap["free"],
            allocs=heap.get("allocs", 0), frees=heap.get("frees", 0))
    if checkpoint.last_popped:
        fn_index, base = checkpoint.last_popped
        memory.set_last_popped(fns[fn_index], base)
    return memory


def snapshot_memory(memory, header) -> Checkpoint:
    """Capture a live :class:`Memory`'s layout as a checkpoint.

    The inverse of :func:`restore_memory` (codec/shadow/stack fields
    stay empty): the final parallel segment exports its end-of-run
    memory this way so the parent can rebuild the exact memory the
    analyses' ``finalize`` needs for symbolic names.
    """
    fn_index = {name: i for i, name in enumerate(header.functions)}
    frames = [fn_index[region.fn.name] for region in memory.frames]
    popped = None
    if memory.last_popped is not None:
        popped = [fn_index[memory.last_popped.fn.name],
                  memory.last_popped.base]
    blocks = sorted(
        [base, size, int(memory.allocations[base][1][5:])]
        for base, size in memory._heap_blocks.items())
    heap = {
        "top": memory.heap_top,
        "next_id": memory._next_heap_id,
        "blocks": blocks,
        "free": {str(size): list(bases)
                 for size, bases in sorted(memory._free_by_size.items())
                 if bases},
        "allocs": memory.heap_allocs,
        "frees": memory.heap_frees,
    }
    return Checkpoint(index=0, time=0, offset=0, frames=frames,
                      last_popped=popped, heap=heap)


# ---------------------------------------------------------------------------
# Scan-building checkpoints
# ---------------------------------------------------------------------------

def _sparse_prev(prev_a: list[int], prev_b: list[int]) -> dict:
    return {str(etype): [prev_a[etype], prev_b[etype]]
            for etype in range(256) if prev_a[etype] or prev_b[etype]}


def build_checkpoints(path: str | os.PathLike,
                      interval: int = DEFAULT_CHECKPOINT_INTERVAL
                      ) -> list[Checkpoint]:
    """One serial scan producing a checkpoint at the first block
    boundary at least ``interval`` events past the previous seam."""
    from repro.ir.lowering import compile_source

    if interval <= 0:
        raise ValueError(f"checkpoint interval must be positive, "
                         f"got {interval}")
    checkpoints: list[Checkpoint] = []
    with TraceReader(path) as reader:
        header = reader.header
        program = compile_source(header.source, header.filename)
        builder = CheckpointBuilder(program, header.functions,
                                    header.heap_base)
        last_index = 0
        pending: dict = {}

        def hook(offset, records, time, prev_a, prev_b):
            pending["offset"] = offset
            pending["records"] = records
            pending["prev"] = _sparse_prev(prev_a, prev_b)

        # The scan rides the batch decoder: a checkpoint is only ever
        # eligible at a block boundary (``pending["records"]`` can equal
        # ``builder.index`` nowhere else), so checking once per batch is
        # exactly the per-event check.
        apply = builder.apply
        for batch in reader.batches(block_hook=hook):
            if (pending and pending["records"] == builder.index
                    and builder.index - last_index >= interval):
                checkpoints.append(builder.snapshot(
                    pending["offset"], {"prev": pending["prev"]}))
                last_index = builder.index
            for etype, a, b, t in batch.rows():
                apply(etype, a, b, t)
    return checkpoints


def _sidecar_path(path: str) -> str:
    return path + SIDECAR_SUFFIX


def _read_sidecar(side: str, key: dict) -> dict | None:
    """The sidecar at ``side`` if it is a JSON object matching every
    ``key`` item and holding a ``checkpoints`` list, else ``None``.

    Missing, oversized, torn and foreign files all read as stale;
    reading is bounded by :data:`MAX_SIDECAR_BYTES`.
    """
    try:
        with open(side, "rb") as handle:
            size = os.fstat(handle.fileno()).st_size
            if size > MAX_SIDECAR_BYTES:
                return None
            blob = handle.read(size)
    except OSError:
        return None
    try:
        data = json.loads(blob)
    except (ValueError, RecursionError):  # bad bytes, syntax, nesting
        return None
    if (not isinstance(data, dict)
            or not isinstance(data.get("checkpoints"), list)
            or any(data.get(k) != v for k, v in key.items())):
        return None
    return data


def probe_sidecar(path: str | os.PathLike) -> dict | None:
    """Non-destructively inspect the ``.ckpt`` sidecar of ``path``.

    Returns ``{"checkpoints": N, "interval": I}`` when a sidecar exists
    and still matches the trace (same schema, size, digest and sampling
    — any ``interval`` is accepted, since ``info`` reports what is
    cached rather than demanding a particular stride), else ``None``:
    missing, stale, torn or malformed sidecars all read as "no cached
    seams", exactly as the loader would treat them.
    """
    path = os.fspath(path)
    side = _sidecar_path(path)
    if not os.path.exists(side):
        return None
    try:
        size = os.path.getsize(path)
        with TraceReader(path) as reader:
            digest = reader.header.digest
            sampling = reader.header.sampling
    except (OSError, TraceError):
        return None
    data = _read_sidecar(side, {"schema": _SIDECAR_SCHEMA, "size": size,
                                "digest": digest, "sampling": sampling})
    if data is None:
        return None
    return {"checkpoints": len(data["checkpoints"]),
            "interval": data.get("interval")}


def load_or_build_checkpoints(path: str | os.PathLike,
                              interval: int = DEFAULT_CHECKPOINT_INTERVAL,
                              sidecar: bool = True) -> list[Checkpoint]:
    """Scan-built checkpoints with a ``.ckpt`` sidecar cache.

    The cache is keyed on the trace's size and header digest (plus the
    interval), so a re-recorded file never resurrects stale seams.
    Sidecar I/O failures and malformed sidecars degrade to scanning —
    never to an error.
    """
    path = os.fspath(path)
    size = os.path.getsize(path)
    with TraceReader(path) as reader:
        digest = reader.header.digest
        sampling = reader.header.sampling
    key = {"schema": _SIDECAR_SCHEMA, "size": size, "digest": digest,
           "sampling": sampling, "interval": interval}
    side = _sidecar_path(path)
    data = _read_sidecar(side, key) if sidecar else None
    if data is not None:
        try:
            return [Checkpoint.from_payload(p) for p in data["checkpoints"]]
        except TraceError:
            pass
    checkpoints = build_checkpoints(path, interval)
    if sidecar:
        _write_sidecar(side, dict(key, checkpoints=[c.to_payload()
                                                    for c in checkpoints]))
    return checkpoints


def _write_sidecar(side: str, payload: dict) -> None:
    """Atomically publish the sidecar (see
    :func:`repro.util.atomic_write_json`) so a crash mid-dump or a
    concurrent parallel replay never observes a torn file — readers see
    either the old complete sidecar or the new one (a torn sidecar
    would silently force a rescan on every later replay). I/O failures
    degrade to not caching, never to an error."""
    from repro.util import atomic_write_json

    try:
        atomic_write_json(side, payload, indent=None)
    except OSError:
        pass


# ---------------------------------------------------------------------------
# Shard planning
# ---------------------------------------------------------------------------

@dataclass
class Segment:
    """One independently replayable slice: start from ``checkpoint``,
    consume events up to ``end_index`` (exclusive; None = to FINISH)."""

    ordinal: int
    checkpoint: Checkpoint
    end_index: int | None

    def event_budget(self) -> int | None:
        if self.end_index is None:
            return None
        return self.end_index - self.checkpoint.index


@dataclass
class ShardPlan:
    """How one trace splits across workers (one segment = serial)."""

    path: str
    segments: list[Segment]

    @property
    def is_parallel(self) -> bool:
        return len(self.segments) > 1


def plan_shards(path: str | os.PathLike, jobs: int,
                interval: int = DEFAULT_CHECKPOINT_INTERVAL,
                oversubscribe: int = 2) -> ShardPlan:
    """Choose the seams for a ``jobs``-worker replay of ``path``.

    Seams come from the scan, cached in the ``.ckpt`` sidecar. A seam
    is a block boundary at least ``interval`` events into the trace,
    so a trace of at most ``interval`` events has none: it gets the
    serial plan without a scan and without a sidecar, as does
    ``jobs <= 1``. With more seams than needed, every ``stride``-th
    one is kept, targeting about ``jobs * oversubscribe`` segments so
    the pool stays busy when segments finish unevenly; fewer seams than
    workers degrades gracefully to fewer (possibly one) segments.
    """
    path = os.fspath(path)
    with TraceReader(path) as reader:
        events_start = reader.events_start
        total = reader.read_footer().events
    checkpoints = (load_or_build_checkpoints(path, interval)
                   if jobs > 1 and total > interval else [])
    if not checkpoints:
        return ShardPlan(
            path=path,
            segments=[Segment(0, genesis_checkpoint(events_start), None)])
    target = max(2, jobs * max(1, oversubscribe))
    stride = max(1, (len(checkpoints) + 1) // target)
    chosen = checkpoints[stride - 1::stride]
    starts = [genesis_checkpoint(events_start)] + chosen
    segments = []
    for ordinal, start in enumerate(starts):
        end = (starts[ordinal + 1].index
               if ordinal + 1 < len(starts) else None)
        segments.append(Segment(ordinal, start, end))
    return ShardPlan(path=path, segments=segments)
