"""Task-graph extraction from a profiled sequential run.

Pick a construct (typically a loop — its instances are iterations, per
the paper's rule 4, or a procedure — its instances are calls). The run
is partitioned into

    serial[0] task[0] serial[1] task[1] ... task[n-1] serial[n]

where ``task[k]`` is the k-th outermost instance of the chosen
construct and the serial pieces are everything in between (prologue,
per-iteration glue, epilogue). Memory accesses are tagged with the
segment they occur in; dependences between different tags become
edges:

* task -> task (RAW): the later task cannot start before the earlier
  finishes;
* task -> serial (RAW): the serial segment joins on the task (the
  paper's "join the future at the first conflicting read");
* WAR/WAW edges are collected separately — they vanish under the
  paper's privatization transformations and are only enforced in the
  no-privatization ablation.

One :class:`TaskGraphCollector` pass over a live run
(:class:`LiveSource`) or a replayed trace (:class:`TraceSource`) serves
every candidate; numpy then derives each candidate's tags and edges.
Tag boundaries are positions in the access stream, not timestamps: a
construct pop and the next read can share a timestamp.
"""

from __future__ import annotations

import os
from array import array
from dataclasses import dataclass, field
from typing import Iterable, Mapping

import numpy as np

from repro.analysis.constructs import ConstructTable
from repro.core.indexing import IndexingStack
from repro.core.pool import NodeAllocator
from repro.core.profile_data import ProfileStore
from repro.ir.cfg import ProgramIR
from repro.runtime.interpreter import DEFAULT_MAX_STEPS, Interpreter
from repro.runtime.memory import Memory
from repro.runtime.tracing import Tracer


@dataclass
class TaskNode:
    """One instance of the parallelized construct."""

    index: int
    start: int
    end: int

    @property
    def duration(self) -> int:
        return self.end - self.start


@dataclass
class TaskGraph:
    """Everything the simulator needs."""

    target_pc: int
    total_time: int
    tasks: list[TaskNode] = field(default_factory=list)
    #: serial[k] is the instruction count before task k; serial[n] is the
    #: epilogue. len(serial) == len(tasks) + 1.
    serial: list[int] = field(default_factory=list)
    #: (earlier task, later task) RAW precedence edges.
    task_deps: set[tuple[int, int]] = field(default_factory=set)
    #: serial segment k joins on these tasks before it may run.
    joins: dict[int, set[int]] = field(default_factory=dict)
    #: WAR/WAW counterparts, enforced only without privatization.
    anti_task_deps: set[tuple[int, int]] = field(default_factory=set)
    anti_joins: dict[int, set[int]] = field(default_factory=dict)

    @property
    def task_time(self) -> int:
        return sum(t.duration for t in self.tasks)

    @property
    def serial_time(self) -> int:
        return sum(self.serial)

    def parallel_fraction(self) -> float:
        return self.task_time / self.total_time if self.total_time else 0.0


class _Target:
    """One candidate's outermost instances: access-stream position and
    timestamp of each start and end (an instance still open at the end
    has no end), and the frame base current at each start."""

    def __init__(self, skip_global_addrs: frozenset[int],
                 induction_offsets: frozenset[int]):
        self.skip_global_addrs = skip_global_addrs
        self.induction_offsets = induction_offsets
        self.depth = 0
        self.start_pos, self.start_t, self.bases, self.end_pos, \
            self.end_t = (array("q") for _ in range(5))


class TaskGraphCollector(Tracer):
    """Collects every candidate's task graph input in one pass: one
    indexing stack, the accesses as one column (``addr << 1 |
    is_write``) and the frees at their positions in it.

    ``targets`` maps construct head pc -> ``(privatized global
    addresses, induction frame offsets)``. Privatized globals constrain
    nothing (the paper's per-thread copies of ivec / errors / sample
    counters). Compiled code keeps induction variables in registers and
    iteration distribution rewrites them per thread, so their slots in
    the frame current at a task's start don't serialize either, up to
    the next task's start.
    """

    #: Replay feeds memory-quiet spans; structural events arrive
    #: through the hooks with memory synchronized to them.
    batch_kind = "span"

    def __init__(self, table: ConstructTable,
                 targets: Mapping[int, tuple[frozenset[int],
                                             frozenset[int]]]):
        for pc in targets:
            if pc not in table.by_pc:
                raise KeyError(f"pc {pc} is not a construct head")
        self._targets = {pc: _Target(*spec) for pc, spec in targets.items()}
        self.stack = stack = IndexingStack(table, NodeAllocator(),
                                           ProfileStore())
        stack.push_observer = self._on_push
        stack.pop_observer = self._on_pop
        self.memory: Memory | None = None
        self.final_time = 0
        self._accesses = array("q")
        self._frees: list[tuple[int, int, int]] = []
        self.on_enter_function = (
            lambda fn_name, entry_pc, t: stack.enter_procedure(entry_pc, t))
        self.on_exit_function = lambda fn_name, t: stack.exit_procedure(t)
        self.on_block_enter = stack.on_block_enter
        self.on_branch = stack.on_branch
        append = self._accesses.append
        self.on_read = lambda addr, pc, t: append(addr << 1)
        self.on_write = lambda addr, pc, t: append(addr << 1 | 1)

    def on_start(self, program, memory: Memory) -> None:
        self.memory = memory

    def on_finish(self, timestamp: int) -> None:
        self.final_time = timestamp

    def on_frame_free(self, lo: int, hi: int) -> None:
        self._frees.append((len(self._accesses), lo, hi))

    def consume_batch(self, batch) -> None:
        """One span, row by row: spans average ~30 rows, too short for
        per-span numpy calls to pay."""
        # Deferred: repro.trace imports the analyses package, which
        # imports this module.
        from repro.trace.events import (EV_BLOCK, EV_BRANCH, EV_READ,
                                        EV_WRITE, TraceError)

        append = self._accesses.append
        on_branch = self.stack.on_branch
        on_block = self.stack.on_block_enter
        try:
            for etype, a, b, t in batch.rows():
                if etype == EV_READ:
                    append(a << 1)
                elif etype == EV_WRITE:
                    append(a << 1 | 1)
                elif etype == EV_BRANCH:
                    on_branch(a, b, t)
                elif etype == EV_BLOCK:
                    on_block(a, t)
        except OverflowError:
            raise TraceError("corrupt trace: access address out of "
                             "range") from None

    def _on_push(self, static, timestamp: int) -> None:
        target = self._targets.get(static.pc)
        if target is None:
            return
        target.depth += 1
        if target.depth == 1:
            frames = self.memory.frames
            target.start_pos.append(len(self._accesses))
            target.start_t.append(timestamp)
            target.bases.append(frames[-1].base if frames else -1)

    def _on_pop(self, node, timestamp: int) -> None:
        target = self._targets.get(node.static.pc)
        if target is None:
            return
        target.depth -= 1
        if target.depth == 0:
            target.end_pos.append(len(self._accesses))
            target.end_t.append(timestamp)

    def graphs(self) -> dict[int, TaskGraph]:
        """Every candidate's graph from the recorded columns."""
        targets = self._targets
        cuts = np.unique(np.concatenate(
            [_column(t.start_pos + t.end_pos) for t in targets.values()]))
        shared = _SharedAccesses(_column(self._accesses), self._frees, cuts)
        return {pc: self._graph(pc, target, shared)
                for pc, target in targets.items()}

    def _graph(self, pc: int, target: _Target,
               shared: "_SharedAccesses") -> TaskGraph:
        # Even ordinal 2k = serial segment k, odd 2k + 1 = task k: the
        # number of this target's bounds at or before the access.
        ordinal = shared.count_at(np.sort(_column(target.start_pos
                                                  + target.end_pos)))
        addrs = shared.addrs
        skip = np.isin(addrs, np.fromiter(target.skip_global_addrs,
                                          dtype=np.int64))
        if target.induction_offsets and target.start_pos:
            window = shared.count_at(_column(target.start_pos)) - 1
            base = _column(target.bases)[window]
            offsets = np.fromiter(target.induction_offsets, dtype=np.int64)
            skip |= ((window >= 0) & (base >= 0)
                     & np.isin(addrs - base, offsets))
        raw, anti = shared.tag_pairs(ordinal, ~skip)
        task_deps, joins = _edges(*raw)
        anti_task_deps, anti_joins = _edges(*anti)
        starts, ends = target.start_t[:len(target.end_t)], target.end_t
        serial = (np.append(_column(starts), self.final_time)
                  - np.append(0, _column(ends))).tolist()
        return TaskGraph(target_pc=pc, total_time=self.final_time,
                         tasks=list(map(TaskNode, range(len(ends)),
                                        starts, ends)),
                         serial=serial, task_deps=task_deps, joins=joins,
                         anti_task_deps=anti_task_deps,
                         anti_joins=anti_joins)


class _SharedAccesses:
    """The access column as every candidate sees it: sorted by shadow
    *lifetime* (the address and the frees of it so far, since a free
    clears the tag shadow), then by position.

    ``cuts`` are the interval bounds of every candidate. Between two of
    them all tags and skip sets are fixed, so a run of one lifetime
    there keeps only its first access and its first write: a later read
    depends on a same-tag write, and its WAR edge to the next write
    equals that write's WAW edge from the run's last write.
    """

    def __init__(self, packed: np.ndarray,
                 frees: list[tuple[int, int, int]], cuts: np.ndarray):
        n = len(packed)
        order = np.argsort(packed >> 1, kind="stable")
        packed = packed[order]
        addrs = packed >> 1
        new = np.ones(n, dtype=bool)  # a new lifetime starts here
        new[1:] = addrs[1:] != addrs[:-1]
        if frees and n:
            heads = addrs[new]
            f_pos, f_lo, f_hi = np.asarray(frees, dtype=np.int64).T
            lo = np.searchsorted(heads, f_lo)
            count = np.maximum(np.searchsorted(heads, f_hi) - lo, 0)
            # Each (accessed address, free of it) pair, as the sort key
            # of the first access of that address at or after the free.
            ends = np.cumsum(count)
            freed = np.repeat(lo - ends + count, count) + np.arange(ends[-1])
            keys = (np.cumsum(new) - 1) * (n + 1) + order
            hits = np.searchsorted(
                keys, freed * (n + 1) + np.repeat(f_pos, count))
            new[hits[hits < n]] = True
        lifetime = np.cumsum(new)
        writes = (packed & 1).astype(bool)
        segment = np.searchsorted(cuts, order, side="right")
        idx = np.arange(n)
        keep = new | np.diff(segment, prepend=-1).astype(bool)  # run starts
        first_w = np.minimum.reduceat(np.where(writes, idx, n),
                                      np.flatnonzero(keep))
        keep |= idx == first_w[np.cumsum(keep) - 1]
        self.addrs = addrs[keep]
        self.writes = writes[keep]
        self._segment = segment[keep]
        self._cuts = cuts
        # Each access's lifetime (numbered from 1) as an index range.
        life = lifetime[keep] - 1
        heads = np.flatnonzero(np.diff(life, prepend=-1))
        self._begin = heads[life]
        self._end = np.append(heads[1:], len(life))[life]

    def count_at(self, bounds: np.ndarray) -> np.ndarray:
        """Per access, how many of the sorted ``bounds`` (some of the
        cuts) lie at or before it."""
        per_segment = np.searchsorted(bounds, self._cuts, side="right")
        return np.concatenate(([0], per_segment))[self._segment]

    def tag_pairs(self, ordinal: np.ndarray, keep: np.ndarray):
        """``(src, dst)`` ordinal pairs of the tag shadow's RAW and
        WAR/WAW dependences among the kept accesses: a read depends on
        the last write before it; a write on the last write before it
        (WAW) and, as the next write, on every read since that one
        (WAR) — reads before a lifetime's first write included."""
        m = len(ordinal)
        idx = np.arange(m)
        kept_w = self.writes & keep
        kept_r = ~self.writes & keep
        prev = np.roll(np.maximum.accumulate(np.where(kept_w, idx, -1)), 1)
        prev[:1] = -1
        nxt = np.minimum.accumulate(np.where(kept_w, idx, m)[::-1])[::-1]
        has_prev = prev >= self._begin
        raw = np.flatnonzero(kept_r & has_prev)
        waw = np.flatnonzero(kept_w & has_prev)
        war = np.flatnonzero(kept_r & (nxt < self._end))
        return ((ordinal[prev[raw]], ordinal[raw]),
                (np.concatenate((ordinal[prev[waw]], ordinal[war])),
                 np.concatenate((ordinal[waw], ordinal[nxt[war]]))))


def _column(values: array) -> np.ndarray:
    """An ``array("q")`` as an int64 numpy view."""
    return np.frombuffer(values, dtype=np.int64)


def _edges(src: np.ndarray, dst: np.ndarray
           ) -> tuple[set[tuple[int, int]], dict[int, set[int]]]:
    """Ordinal pairs -> (task -> task edges, serial joins). A dependence
    out of serial code is satisfied by construction (it runs on the
    main thread in program order), so only task sources count;
    ordinals never decrease along the stream, so src < dst."""
    keep = (src != dst) & (src % 2 == 1)
    width = int(dst.max()) + 1 if len(dst) else 1
    codes = np.unique(dst[keep] * width + src[keep])
    dst, src = codes // width, codes % width // 2
    task = dst % 2 == 1
    deps = set(zip(src[task].tolist(), (dst[task] // 2).tolist()))
    joins: dict[int, set[int]] = {}
    for s, d in zip(src[~task].tolist(), (dst[~task] // 2).tolist()):
        joins.setdefault(d, set()).add(s)
    return deps, joins


def induction_offsets_of(program: ProgramIR, target_pc: int,
                         table: ConstructTable | None = None
                         ) -> frozenset[int]:
    """Frame offsets of the target loop's induction variables.

    A local scalar stored in one of the loop's *control blocks* — the
    header or a back-edge source (the ``for`` step block, a ``while``
    body's trailing increment) — is loop control: a compiled binary
    keeps it in a register and iteration distribution rewrites it
    per-thread, so its accesses must not serialize the task graph.
    Returns the empty set for non-loop targets.
    """
    from repro.analysis.constructs import loop_control_stores
    from repro.analysis.loops import find_loops  # local import: cycle-free

    static = (table or ConstructTable(program)).by_pc[target_pc]
    if not static.is_loop:
        return frozenset()
    fn = program.functions[static.fn_name]
    loop = next((l for l in find_loops(fn)
                 if l.canonical_branch_pc == target_pc), None)
    if loop is None:
        return frozenset()
    slots = loop_control_stores(fn.block_map(), static.block_id, loop)
    return frozenset(slot.offset for slot in slots)


def resolve_private_globals(program: ProgramIR,
                            names: tuple[str, ...]) -> frozenset[int]:
    """Addresses of privatized global variables (whole arrays included)."""
    addrs: set[int] = set()
    for name in names:
        try:
            info = program.global_var(name)
        except KeyError:
            known = ", ".join(v.name for v in program.globals_layout) \
                or "none"
            raise ValueError(
                f"no global variable named {name!r} to privatize "
                f"(known globals: {known})") from None
        addrs.update(range(info.offset, info.offset + info.size))
    return frozenset(addrs)


# ---------------------------------------------------------------------------
# Event sources: where the hook stream comes from
# ---------------------------------------------------------------------------

class LiveSource:
    """Event source that executes ``program`` under the interpreter."""

    def __init__(self, program: ProgramIR,
                 max_steps: int = DEFAULT_MAX_STEPS):
        self.program = program
        self.max_steps = max_steps

    def drive(self, tracer: Tracer) -> None:
        Interpreter(self.program, tracer, self.max_steps).run()


class TraceSource:
    """Event source that replays a recorded trace — no re-execution.

    The program is recompiled once from the digest-checked source
    embedded in the trace header unless the caller already has it.
    The tracer observes the exact event stream the recording captured,
    so graphs extracted here equal the live ones event for event.
    """

    def __init__(self, path: str | os.PathLike,
                 program: ProgramIR | None = None):
        self.path = os.fspath(path)
        if program is None:
            from repro.trace.reader import TraceReader
            from repro.trace.replay import ReplayEngine

            with TraceReader(self.path) as reader:
                program = ReplayEngine(reader).program
        self.program = program

    def drive(self, tracer: Tracer) -> None:
        from repro.trace.reader import TraceReader
        from repro.trace.replay import ReplayEngine

        with TraceReader(self.path) as reader:
            ReplayEngine(reader, self.program).run([tracer])


def extract_task_graphs(source: "LiveSource | TraceSource",
                        targets: Mapping[int, tuple[str, ...]]
                                 | Iterable[int],
                        auto_induction: bool = True
                        ) -> dict[int, TaskGraph]:
    """Extract task graphs for several candidate constructs in ONE pass.

    ``targets`` maps construct head pc -> globals the (simulated)
    transformation gives each thread a private copy of (an iterable of
    pcs means no privatization); ``auto_induction`` also skips each
    loop's own control variables. One :class:`TaskGraphCollector`
    serves every target: one execution or replay, then numpy work per
    candidate.
    """
    if not isinstance(targets, Mapping):
        targets = {pc: () for pc in targets}
    if not targets:
        return {}
    program = source.program
    table = ConstructTable(program)
    specs = {pc: (resolve_private_globals(program, tuple(private_vars)),
                  induction_offsets_of(program, pc, table) if auto_induction
                  else frozenset())
             for pc, private_vars in targets.items()}
    collector = TaskGraphCollector(table, specs)
    source.drive(collector)
    return collector.graphs()


def extract_task_graph(program: ProgramIR, target_pc: int,
                       private_vars: tuple[str, ...] = (),
                       auto_induction: bool = True) -> TaskGraph:
    """Run ``program`` once and extract the task graph for ``target_pc``
    (:func:`extract_task_graphs` with a :class:`LiveSource`)."""
    graphs = extract_task_graphs(
        LiveSource(program), {target_pc: tuple(private_vars)},
        auto_induction=auto_induction)
    return graphs[target_pc]
