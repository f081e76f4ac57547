"""The bundled analyses, all registered on the unified protocol.

Each class here used to live behind a different front door — the
dependence profiler behind ``Alchemist.profile``, the locality /
hot-address / counting consumers behind ``ReplayEngine``'s private
``CONSUMERS`` table, the flat and context baselines behind free
functions in ``repro.baselines``. They are now uniform plugins: every
one runs live, from a recorded trace, and in batch through the same
registry, and every one is covered by the registry-parametrized
live-vs-replay parity test.

Every bundled analysis also implements the segment/merge protocol
(``supports_segments``), so all of them run under sharded parallel
replay (:mod:`repro.trace.parallel`) with results bit-identical to a
serial pass; the cross-segment bookkeeping lives in
:mod:`repro.analyses.merging`, and for ``locality`` in the reuse-distance
kernel, :mod:`repro.analyses.reuse`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

import numpy as np

from repro.analyses.base import (Analysis, AnalysisContext,
                                 AnalysisError, AnalysisResult,
                                 AnalysisSegment, OptionSpec,
                                 SegmentSeed, register)
from repro.analyses.reuse import (CHUNK_ACCESSES, ReuseState,
                                  as_addresses, chunk_state, fold)
from repro.analysis.constructs import ConstructTable
from repro.baselines.context_profiler import (ContextProfile,
                                              ContextSensitiveTracer)
from repro.baselines.flat_profiler import FlatProfile, FlatTracer
from repro.core.profile_data import DepKind
from repro.core.report import ProfileReport, RunStats
from repro.core.tracer import AlchemistTracer
from repro.ir.cfg import ProgramIR
from repro.runtime.memory import Memory


def profile_summary(report: ProfileReport) -> dict[str, Any]:
    """Compact, JSON-able, order-stable digest of a ProfileReport.

    Captures exactly what the replay-equivalence criterion cares about:
    per-construct durations/instances and per-edge (min Tdep, count,
    variable hint), keyed deterministically.
    """
    constructs = {}
    for pc in sorted(report.store.profiles):
        profile = report.store.profiles[pc]
        edges = {}
        for (head, tail, kind), stats in sorted(
                profile.edges.items(),
                key=lambda item: (item[0][0], item[0][1], item[0][2].value)):
            edges[f"{head}->{tail}:{kind.value}"] = [
                stats.min_tdep, stats.count, stats.var_hint]
        constructs[str(pc)] = {
            "name": profile.static.name,
            "total_duration": profile.total_duration,
            "instances": profile.instances,
            "max_duration": profile.max_duration,
            "edges": edges,
        }
    return {
        "constructs": constructs,
        "instructions": report.stats.instructions,
        "dynamic_instances": report.stats.dynamic_instances,
        "violating_raw": sum(
            p.violating_count(DepKind.RAW)
            for p in report.store.profiles.values()),
        "exit_value": report.exit_value,
    }


def _dep_result(report: ProfileReport, track_war_waw: bool,
                sampling: str | None,
                telemetry: Any = None) -> AnalysisResult:
    """Shared result rendering for serial ``finish`` and the parallel
    ``finalize_segments`` — one code path, so the two cannot drift."""
    from repro.staticdep import fuse_profile, report_for

    kinds = ((DepKind.RAW, DepKind.WAW, DepKind.WAR)
             if track_war_waw else (DepKind.RAW,))
    data = profile_summary(report)
    text = report.to_text(kinds=kinds)
    if sampling:
        # A sampled stream distorts the profile in both directions:
        # dropped events hide dependences (violation counts
        # under-approximated), and a dropped WRITE re-pairs later
        # reads with a stale writer (spurious edges, shifted
        # distances).
        data["sampled"] = sampling
        text += (f"\nNOTE: profiled from a sampled trace "
                 f"({sampling}); dependences may be missed or "
                 "mis-paired and min distances shifted — treat as "
                 "lower-confidence hints, not proof.")
    static = report_for(report.program, telemetry)
    fusion, fusion_lines = fuse_profile(report, static, sampling, telemetry)
    data["static"] = fusion
    text += "\n" + "\n".join(fusion_lines)
    return AnalysisResult(analysis="dep", data=data, text=text,
                          payload=report)


@register
class DependenceAnalysis(Analysis):
    """The Alchemist dependence profiler as a plugin.

    Wraps the unmodified :class:`AlchemistTracer`, so the profile —
    per-construct edges, min-Tdep distances, durations, instance counts
    — is *identical* whether the events come from a live interpreter or
    a recorded trace (the equivalence tests assert this workload by
    workload).
    """

    name = "dep"
    description = ("Alchemist dependence profile: min RAW/WAR/WAW "
                   "distance per construct")
    supports_segments = True
    batch_kind = "span"
    options = (
        OptionSpec("pool_size", int, 4096,
                   "compatibility no-op: node allocation is GC-backed "
                   "and unbounded"),
        OptionSpec("track_war_waw", bool, True,
                   "also profile WAR/WAW dependences"),
    )

    def __init__(self, pool_size: int = 4096, track_war_waw: bool = True):
        if pool_size <= 0:
            raise ValueError(
                f"pool_size must be positive, got {pool_size}")
        self.pool_size = pool_size
        self.track_war_waw = track_war_waw
        self.table: ConstructTable | None = None
        self.tracer: AlchemistTracer | None = None

    def on_start(self, program: ProgramIR, memory: Memory) -> None:
        self.table = ConstructTable(program)
        tracer = AlchemistTracer(self.table, self.pool_size,
                                 self.track_war_waw)
        tracer.on_start(program, memory)
        self.tracer = tracer
        # Rebind the hot hooks straight to the inner tracer: both the
        # interpreter and the replay engine look methods up after
        # on_start, so dispatch skips this shim entirely.
        self.on_enter_function = tracer.on_enter_function
        self.on_exit_function = tracer.on_exit_function
        self.on_block_enter = tracer.on_block_enter
        self.on_branch = tracer.on_branch
        self.on_read = tracer.on_read
        self.on_write = tracer.on_write
        self.on_frame_free = tracer.on_frame_free
        self.on_finish = tracer.on_finish

    def consume_batch(self, batch) -> None:
        """Span fast path: replay the interior events of one
        memory-quiet span through whichever hooks are currently bound
        (the inner tracer after ``on_start``, the deferring segment
        wrapper after ``begin_segment``)."""
        on_read = self.on_read
        on_write = self.on_write
        on_block = self.on_block_enter
        on_branch = self.on_branch
        for etype, a, b, t in batch.rows():
            if etype == EV_READ:
                on_read(a, b, t)
            elif etype == EV_WRITE:
                on_write(a, b, t)
            elif etype == EV_BLOCK:
                on_block(a, t)
            elif etype == EV_BRANCH:
                on_branch(a, b, t)

    def finish(self, ctx: AnalysisContext) -> AnalysisResult:
        tracer = self.tracer
        stats = RunStats(
            wall_seconds=ctx.wall_seconds,
            baseline_seconds=None,
            instructions=ctx.final_time,
            dynamic_instances=tracer.store.dynamic_instances,
            static_constructs=self.table.static_count(),
            max_index_depth=tracer.stack.max_depth,
            raw_events=tracer.raw_events,
            war_events=tracer.war_events,
            waw_events=tracer.waw_events,
            edges_profiled=tracer.profiler.edges_profiled,
            pool=tracer.pool.stats,
            sampling=ctx.sampling,
        )
        report = ProfileReport(ctx.program, self.table, tracer.store,
                               stats, ctx.exit_value,
                               [tuple(v) for v in ctx.output])
        return _dep_result(report, self.track_war_waw, ctx.sampling,
                           getattr(ctx, "telemetry", None))

    # -- segment/merge protocol -------------------------------------------

    def begin_segment(self, program: ProgramIR, memory: Memory,
                      seed: SegmentSeed) -> None:
        from repro.analyses.merging import SegmentAlchemistTracer

        self.table = ConstructTable(program)
        inner = AlchemistTracer(self.table, self.pool_size,
                                self.track_war_waw)
        inner.on_start(program, memory)
        self.tracer = inner
        segment = SegmentAlchemistTracer(inner, seed)
        self._segment = segment
        # Structural hooks go straight to the inner tracer; the memory
        # hooks route through the deferring wrapper.
        self.on_enter_function = inner.on_enter_function
        self.on_exit_function = inner.on_exit_function
        self.on_block_enter = inner.on_block_enter
        self.on_branch = inner.on_branch
        self.on_read = segment.on_read
        self.on_write = segment.on_write
        self.on_frame_free = inner.on_frame_free
        self.on_finish = inner.on_finish

    def export_segment(self, ctx: AnalysisContext) -> AnalysisSegment:
        inner = self.tracer
        segment = self._segment
        nodes, node_id_of = segment.export_nodes()
        profile = {
            pc: [prof.total_duration, prof.instances, prof.max_duration,
                 {key: [e.min_tdep, e.count, e.var_hint, e.first_t]
                  for key, e in prof.edges.items()}]
            for pc, prof in inner.store.profiles.items()
        }
        pool = inner.pool.stats
        state = {
            "profile": profile,
            "counters": {
                "RAW": inner.raw_events,
                "WAR": inner.war_events,
                "WAW": inner.waw_events,
                "edges_profiled": inner.profiler.edges_profiled,
                "dyn": inner.store.dynamic_instances,
            },
            "max_depth": inner.stack.max_depth,
            "pool": (pool.capacity, pool.acquires),
            "deferred": segment.deferred,
            "nodes": nodes,
            "frontier": segment.export_frontier(node_id_of),
            "track_war_waw": self.track_war_waw,
        }
        return AnalysisSegment(type(self), state)

    @classmethod
    def _internalize(cls, state: dict) -> dict:
        from repro.analyses import merging

        if state["deferred"]:
            raise AnalysisError(
                "first segment deferred a dependence pair — it starts "
                "from pristine state and has no boundary to defer to")
        recs: dict = {}
        local = merging.register_nodes(recs, state["nodes"])
        frontier: dict = {}
        merging.update_dep_frontier(frontier, state["frontier"], local)
        return {
            "profile": state["profile"],
            "counters": state["counters"],
            "max_depth": state["max_depth"],
            "pool": state["pool"],
            "track_war_waw": state["track_war_waw"],
            "_recs": recs,
            "_frontier": frontier,
        }

    @classmethod
    def merge_segment_states(cls, acc: dict, part: dict) -> dict:
        from repro.analyses import merging

        if "_recs" not in acc:
            acc = cls._internalize(acc)
        local = merging.register_nodes(acc["_recs"], part["nodes"])
        merging.resolve_deferred_dep(part["deferred"], acc["_frontier"],
                                     acc["profile"], acc["counters"])
        merging.merge_dep_profiles(acc["profile"], part["profile"])
        for key, value in part["counters"].items():
            acc["counters"][key] += value
        if part["max_depth"] > acc["max_depth"]:
            acc["max_depth"] = part["max_depth"]
        acc["pool"] = (max(acc["pool"][0], part["pool"][0]),
                       acc["pool"][1] + part["pool"][1])
        merging.update_dep_frontier(acc["_frontier"], part["frontier"],
                                    local)
        return acc

    @classmethod
    def finalize_segments(cls, state: dict,
                          ctx: AnalysisContext) -> AnalysisResult:
        from repro.core.pool import PoolStats
        from repro.core.profile_data import (ConstructProfile, EdgeStats,
                                             ProfileStore)

        if "_recs" not in state:
            state = cls._internalize(state)
        table = ConstructTable(ctx.program)
        store = ProfileStore()
        counters = state["counters"]
        store.dynamic_instances = counters["dyn"]
        for pc in sorted(state["profile"]):
            dur, inst, max_dur, edges = state["profile"][pc]
            profile = ConstructProfile(table.by_pc[pc], dur, inst,
                                       max_dur)
            for key in sorted(edges, key=lambda k: (k[0], k[1],
                                                    k[2].value)):
                min_tdep, count, hint, first_t = edges[key]
                profile.edges[key] = EdgeStats(
                    key[0], key[1], key[2], min_tdep, count, hint,
                    first_t=first_t)
            store.profiles[pc] = profile
        capacity, acquires = state["pool"]
        stats = RunStats(
            wall_seconds=ctx.wall_seconds,
            baseline_seconds=None,
            instructions=ctx.final_time,
            dynamic_instances=counters["dyn"],
            static_constructs=table.static_count(),
            max_index_depth=state["max_depth"],
            raw_events=counters["RAW"],
            war_events=counters["WAR"],
            waw_events=counters["WAW"],
            edges_profiled=counters["edges_profiled"],
            pool=PoolStats(capacity=capacity, acquires=acquires,
                           grows=acquires),
            sampling=ctx.sampling,
        )
        report = ProfileReport(ctx.program, table, store, stats,
                               ctx.exit_value,
                               [tuple(v) for v in ctx.output])
        return _dep_result(report, state["track_war_waw"], ctx.sampling,
                           getattr(ctx, "telemetry", None))


@dataclass
class LocalityResult:
    """Reuse-distance summary of one run."""

    accesses: int = 0
    distinct_addresses: int = 0
    cold_misses: int = 0
    #: log2 bucket -> access count; bucket k holds distances in
    #: [2^(k-1), 2^k), bucket 0 holds distance 0 (back-to-back reuse).
    histogram: dict[int, int] = field(default_factory=dict)

    def hit_fraction(self, capacity: int) -> float:
        """Fraction of reuses that fit a ``capacity``-word LRU cache."""
        reuses = self.accesses - self.cold_misses
        if reuses <= 0:
            return 0.0
        hits = sum(count for bucket, count in self.histogram.items()
                   if (1 << bucket) <= capacity)
        return hits / reuses


def _locality_stats(state: ReuseState) -> LocalityResult:
    return LocalityResult(
        accesses=state.accesses,
        distinct_addresses=state.keys.size,
        cold_misses=state.order.size,
        histogram=state.histogram(),
    )


def _locality_result(stats: LocalityResult) -> AnalysisResult:
    """Shared rendering for serial finish and the parallel merge."""
    lines = [
        "Reuse-distance profile:",
        f"  accesses           {stats.accesses}",
        f"  distinct addresses {stats.distinct_addresses}",
        f"  cold misses        {stats.cold_misses}",
    ]
    for capacity in (64, 1024, 16384):
        lines.append(f"  LRU({capacity:>5}) hit rate "
                     f"{stats.hit_fraction(capacity):6.1%}")
    lines.append("  distance histogram (log2 buckets):")
    for bucket in sorted(stats.histogram):
        lo = 0 if bucket == 0 else 1 << (bucket - 1)
        lines.append(f"    >= {lo:>8}: {stats.histogram[bucket]}")
    return AnalysisResult(
        analysis="locality",
        data={
            "accesses": stats.accesses,
            "distinct_addresses": stats.distinct_addresses,
            "cold_misses": stats.cold_misses,
            "histogram": {str(k): v
                          for k, v in sorted(stats.histogram.items())},
        },
        text="\n".join(lines),
        payload=stats,
    )


@register
class LocalityAnalysis(Analysis):
    """Exact LRU reuse-distance histogram (a PROMPT-style analysis).

    For every memory access, the reuse distance is the number of
    *distinct* addresses touched since the previous access to the same
    address — i.e. the minimal LRU cache size (in words) that would hit.
    Distances are bucketed by powers of two.

    Accesses from the per-event hooks and from decoded blocks go into
    one pending buffer; every :data:`~repro.analyses.reuse.CHUNK_ACCESSES`
    accesses, and at ``finish`` / ``export_segment``, the numpy kernel
    in :mod:`repro.analyses.reuse` folds the buffer into the running
    state, exactly and at O(log n) array work per access. The same fold
    merges the segments of a sharded replay.

    Addresses are physical interpreter words; stack reuse across frames
    therefore counts as reuse of the same word, which is exactly the
    cache behaviour a hardware-level locality profile would see.
    """

    name = "locality"
    description = ("Exact LRU reuse-distance histogram over every "
                   "memory access")
    supports_segments = True
    batch_kind = "block"

    def __init__(self) -> None:
        self._state = ReuseState()
        #: Accesses not yet folded: whole arrays, then the scalar
        #: hooks' addresses (in stream order).
        self._arrays: list = []
        self._queued = 0
        self._pending: list[int] = []

    def on_read(self, addr: int, pc: int, timestamp: int) -> None:
        pending = self._pending
        pending.append(addr)
        if len(pending) >= CHUNK_ACCESSES:
            self._flush()

    # Both reads and writes are accesses (pc/timestamp unused).
    on_write = on_read

    def consume_batch(self, batch) -> None:
        """Block fast path: only the access addresses matter (reuse
        distance ignores pc/timestamp and every other event type)."""
        if self._pending:
            self._park_pending()
        addrs = batch.access_addrs()
        self._arrays.append(addrs)
        self._queued += addrs.size
        if self._queued >= CHUNK_ACCESSES:
            self._flush()

    def _park_pending(self) -> None:
        self._arrays.append(as_addresses(self._pending))
        self._pending = []

    def _flush(self) -> ReuseState:
        if self._pending:
            self._park_pending()
        if self._arrays:
            addrs = np.concatenate(self._arrays)
            self._arrays = []
            self._queued = 0
            self._state = fold(self._state, chunk_state(addrs))
        return self._state

    @property
    def stats(self) -> LocalityResult:
        """The reuse-distance summary of every access so far."""
        return _locality_stats(self._flush())

    def finish(self, ctx: AnalysisContext) -> AnalysisResult:
        return _locality_result(self.stats)

    # -- segment/merge protocol -------------------------------------------
    # begin_segment: the default (cold start) is exactly right — every
    # intra-segment distance is already exact, and the fold below
    # computes the cross-segment ones.

    def export_segment(self, ctx: AnalysisContext) -> AnalysisSegment:
        return AnalysisSegment(type(self), self._flush())

    @classmethod
    def merge_segment_states(cls, acc: ReuseState,
                             part: ReuseState) -> ReuseState:
        return fold(acc, part)

    @classmethod
    def finalize_segments(cls, state: ReuseState,
                          ctx: AnalysisContext) -> AnalysisResult:
        return _locality_result(_locality_stats(state))


@dataclass
class HotAddress:
    """One row of the hot-address histogram."""

    addr: int
    name: str
    reads: int
    writes: int

    @property
    def total(self) -> int:
        return self.reads + self.writes


def _hot_result(reads: dict, writes: dict, top: int,
                ctx: AnalysisContext) -> AnalysisResult:
    """Shared rendering for serial finish and the parallel merge
    (naming resolves against the run's final memory either way)."""
    totals: dict[int, int] = dict(reads)
    for addr, count in writes.items():
        totals[addr] = totals.get(addr, 0) + count
    ranked = sorted(totals, key=lambda a: (-totals[a], a))[:top]
    rows = [HotAddress(addr=addr,
                       name=ctx.memory.addr_to_name(addr),
                       reads=reads.get(addr, 0),
                       writes=writes.get(addr, 0))
            for addr in ranked]
    lines = ["Hottest addresses (reads+writes):"]
    for row in rows:
        lines.append(f"  {row.total:>10}  {row.name:<28} "
                     f"(r={row.reads}, w={row.writes}, "
                     f"addr={row.addr})")
    return AnalysisResult(
        analysis="hot",
        data={"top": top,
              "rows": [{"addr": row.addr, "name": row.name,
                        "reads": row.reads, "writes": row.writes}
                       for row in rows]},
        text="\n".join(lines),
        payload=rows,
    )


@register
class HotAddressAnalysis(Analysis):
    """Access-count histogram over addresses (contention spotting).

    Names are resolved best-effort from the final memory state —
    reconstructed on replay, live otherwise: globals and live heap
    blocks name exactly; long-dead stack frames fall back to
    ``stack+addr``.
    """

    name = "hot"
    description = "Hottest addresses by read+write count, with names"
    supports_segments = True
    batch_kind = "block"
    options = (
        OptionSpec("top", int, 20, "rows to keep"),
    )

    def __init__(self, top: int = 20):
        self.top = top
        self._reads: dict[int, int] = {}
        self._writes: dict[int, int] = {}

    def on_read(self, addr: int, pc: int, timestamp: int) -> None:
        reads = self._reads
        reads[addr] = reads.get(addr, 0) + 1

    def on_write(self, addr: int, pc: int, timestamp: int) -> None:
        writes = self._writes
        writes[addr] = writes.get(addr, 0) + 1

    def consume_batch(self, batch) -> None:
        """Block fast path: fold pre-aggregated per-address counts
        (order within a block cannot matter for pure counters)."""
        reads = self._reads
        for addr, count in batch.addr_counts(EV_READ):
            reads[addr] = reads.get(addr, 0) + count
        writes = self._writes
        for addr, count in batch.addr_counts(EV_WRITE):
            writes[addr] = writes.get(addr, 0) + count

    def address_totals(self) -> dict[int, int]:
        """Full read+write count per address (not just the top rows);
        the sampling accuracy module compares these across traces."""
        totals: dict[int, int] = dict(self._reads)
        for addr, count in self._writes.items():
            totals[addr] = totals.get(addr, 0) + count
        return totals

    def finish(self, ctx: AnalysisContext) -> AnalysisResult:
        return _hot_result(self._reads, self._writes, self.top, ctx)

    # -- segment/merge protocol (counters are purely additive) ------------

    def export_segment(self, ctx: AnalysisContext) -> AnalysisSegment:
        return AnalysisSegment(type(self), {"reads": self._reads,
                                            "writes": self._writes,
                                            "top": self.top})

    @classmethod
    def merge_segment_states(cls, acc: dict, part: dict) -> dict:
        for field_name in ("reads", "writes"):
            mine = acc[field_name]
            for addr, count in part[field_name].items():
                mine[addr] = mine.get(addr, 0) + count
        return acc

    @classmethod
    def finalize_segments(cls, state: dict,
                          ctx: AnalysisContext) -> AnalysisResult:
        return _hot_result(state["reads"], state["writes"],
                           state["top"], ctx)


def _counts_result(counts: dict) -> AnalysisResult:
    text = "Event counts: " + ", ".join(
        f"{k}={v}" for k, v in sorted(counts.items()))
    # payload is a separate copy: mutating it must not corrupt
    # what to_dict()/to_json() serialize.
    return AnalysisResult(analysis="counts", data=counts, text=text,
                          payload=dict(counts))


@register
class CountingAnalysis(Analysis):
    """Event counts; the registered twin of ``CountingTracer``."""

    name = "counts"
    description = "Raw event statistics (reads, writes, calls, ...)"
    supports_segments = True
    batch_kind = "block"

    def __init__(self) -> None:
        self.counts = {"reads": 0, "writes": 0, "calls": 0,
                       "branches": 0, "blocks": 0, "allocs": 0,
                       "frees": 0}

    def on_enter_function(self, fn_name, entry_pc, timestamp) -> None:
        self.counts["calls"] += 1

    def on_block_enter(self, block_id, timestamp) -> None:
        self.counts["blocks"] += 1

    def on_branch(self, pc, target_block, timestamp) -> None:
        self.counts["branches"] += 1

    def on_read(self, addr, pc, timestamp) -> None:
        self.counts["reads"] += 1

    def on_write(self, addr, pc, timestamp) -> None:
        self.counts["writes"] += 1

    def on_heap_alloc(self, base, size, timestamp) -> None:
        self.counts["allocs"] += 1

    def on_frame_free(self, lo, hi) -> None:
        self.counts["frees"] += 1

    def consume_batch(self, batch) -> None:
        """Block fast path: one histogram of the block's event types
        replaces per-event hook dispatch entirely."""
        tally = batch.etype_counts()
        counts = self.counts
        counts["reads"] += tally[EV_READ]
        counts["writes"] += tally[EV_WRITE]
        counts["calls"] += tally[EV_ENTER]
        counts["branches"] += tally[EV_BRANCH]
        counts["blocks"] += tally[EV_BLOCK]
        counts["allocs"] += tally[EV_ALLOC]
        counts["frees"] += tally[EV_FREE]

    def finish(self, ctx: AnalysisContext) -> AnalysisResult:
        return _counts_result(dict(self.counts))

    # -- segment/merge protocol (purely additive) -------------------------

    def export_segment(self, ctx: AnalysisContext) -> AnalysisSegment:
        return AnalysisSegment(type(self), {"counts": dict(self.counts)})

    @classmethod
    def merge_segment_states(cls, acc: dict, part: dict) -> dict:
        mine = acc["counts"]
        for key, value in part["counts"].items():
            mine[key] = mine.get(key, 0) + value
        return acc

    @classmethod
    def finalize_segments(cls, state: dict,
                          ctx: AnalysisContext) -> AnalysisResult:
        return _counts_result(dict(state["counts"]))


def _edge_rows(edges: dict, describe, tiekey) -> list[str]:
    # ``tiekey`` totalizes the order: serial and merged replays insert
    # edges into the dict in different orders, and a ranking that fell
    # back to insertion order on (-count, min_tdep) ties would make
    # the rendering depend on how the profile was computed.
    ranked = sorted(edges.values(),
                    key=lambda e: (-e.count, e.min_tdep, tiekey(e)))[:8]
    return [f"  {describe(edge)}" for edge in ranked]


def _flat_result(profile: FlatProfile) -> AnalysisResult:
    edges = {}
    for (head, tail, kind), edge in sorted(
            profile.edges.items(),
            key=lambda item: (item[0][0], item[0][1], item[0][2].value)):
        edges[f"{head}->{tail}:{kind.value}"] = [edge.min_tdep,
                                                 edge.count]
    program = profile.program
    lines = [f"Flat dependence profile: {len(edges)} static edge(s)"]
    lines += _edge_rows(
        profile.edges,
        lambda e: (f"{program.loc_of(e.head_pc)[0]}->"
                   f"{program.loc_of(e.tail_pc)[0]} {e.kind.value}: "
                   f"min Tdep {e.min_tdep}, x{e.count}"),
        lambda e: (e.head_pc, e.tail_pc, e.kind.value))
    return AnalysisResult(
        analysis="flat",
        data={"edges": edges, "instructions": profile.instructions},
        text="\n".join(lines),
        payload=profile,
    )


@register
class FlatDependenceAnalysis(Analysis):
    """The context-insensitive baseline profiler as a plugin.

    Wraps :class:`~repro.baselines.flat_profiler.FlatTracer`: every
    dependence is attributed to its static ``(head pc, tail pc)`` pair
    only — the "traditional profiling" strawman the paper's §III opens
    with, now comparable against ``dep`` in a single replay pass.
    """

    name = "flat"
    description = ("Baseline: dependences aggregated by static PC "
                   "pair only")
    supports_segments = True
    batch_kind = "span"

    def __init__(self) -> None:
        self.tracer: FlatTracer | None = None

    def on_start(self, program: ProgramIR, memory: Memory) -> None:
        tracer = FlatTracer(program)
        self.tracer = tracer
        self.on_read = tracer.on_read
        self.on_write = tracer.on_write
        self.on_frame_free = tracer.on_frame_free
        self.on_finish = tracer.on_finish

    @property
    def profile(self) -> FlatProfile:
        return self.tracer.profile

    def consume_batch(self, batch) -> None:
        """Span fast path: flat attribution only watches the memory
        stream (structural events arrive via the per-event hooks)."""
        on_read = self.on_read
        on_write = self.on_write
        for etype, a, b, t in batch.rows():
            if etype == EV_READ:
                on_read(a, b, t)
            elif etype == EV_WRITE:
                on_write(a, b, t)

    def finish(self, ctx: AnalysisContext) -> AnalysisResult:
        return _flat_result(self.tracer.profile)

    # -- segment/merge protocol -------------------------------------------
    # Flat attribution needs only the head's (pc, t), which the
    # checkpointed shadow carries — so the seeded tracer attributes
    # cross-segment pairs locally and nothing is ever deferred.

    def begin_segment(self, program: ProgramIR, memory: Memory,
                      seed: SegmentSeed) -> None:
        self.on_start(program, memory)
        shadow = self.tracer._shadow
        for addr, write, reads in seed.shadow:
            shadow[addr] = [write, dict(reads)]

    def export_segment(self, ctx: AnalysisContext) -> AnalysisSegment:
        profile = self.tracer.profile
        return AnalysisSegment(type(self), {
            "edges": {key: [edge.min_tdep, edge.count]
                      for key, edge in profile.edges.items()},
        })

    @classmethod
    def merge_segment_states(cls, acc: dict, part: dict) -> dict:
        mine = acc["edges"]
        for key, (min_tdep, count) in part["edges"].items():
            stats = mine.get(key)
            if stats is None:
                mine[key] = [min_tdep, count]
            else:
                stats[1] += count
                if min_tdep < stats[0]:
                    stats[0] = min_tdep
        return acc

    @classmethod
    def finalize_segments(cls, state: dict,
                          ctx: AnalysisContext) -> AnalysisResult:
        from repro.baselines.flat_profiler import FlatEdge

        profile = FlatProfile(ctx.program)
        for key in sorted(state["edges"],
                          key=lambda k: (k[0], k[1], k[2].value)):
            min_tdep, count = state["edges"][key]
            profile.edges[key] = FlatEdge(key[0], key[1], key[2],
                                          min_tdep, count)
        profile.instructions = ctx.final_time
        return _flat_result(profile)


def _context_result(profile: ContextProfile) -> AnalysisResult:
    edges = {}
    for key, edge in sorted(
            profile.edges.items(),
            key=lambda item: (item[0][2], item[0][3],
                              item[0][4].value, item[0][0], item[0][1])):
        head = ">".join(edge.head_context)
        tail = ">".join(edge.tail_context)
        edges[f"{head}|{tail}|{edge.head_pc}->{edge.tail_pc}"
              f":{edge.kind.value}"] = [edge.min_tdep, edge.count]
    lines = [f"Context dependence profile: {len(edges)} edge(s)"]
    lines += _edge_rows(
        profile.edges,
        lambda e: (f"{'>'.join(e.head_context)} -> "
                   f"{'>'.join(e.tail_context)} {e.kind.value}: "
                   f"min Tdep {e.min_tdep}, x{e.count}"),
        lambda e: (e.head_pc, e.tail_pc, e.kind.value,
                   e.head_context, e.tail_context))
    return AnalysisResult(
        analysis="context",
        data={"edges": edges, "instructions": profile.instructions},
        text="\n".join(lines),
        payload=profile,
    )


@register
class ContextDependenceAnalysis(Analysis):
    """The context-sensitive baseline profiler as a plugin.

    Wraps :class:`ContextSensitiveTracer`: dependences attributed to
    the calling contexts of both endpoints — the granularity of the
    profilers the paper's §III-B criticizes, and reproducibly unable to
    separate loop-carried from loop-local dependences.
    """

    name = "context"
    description = ("Baseline: dependences attributed to calling "
                   "contexts")
    supports_segments = True
    batch_kind = "span"

    def __init__(self) -> None:
        self.tracer = ContextSensitiveTracer()
        tracer = self.tracer
        self.on_enter_function = tracer.on_enter_function
        self.on_exit_function = tracer.on_exit_function
        self.on_read = tracer.on_read
        self.on_write = tracer.on_write
        self.on_frame_free = tracer.on_frame_free
        self.on_finish = tracer.on_finish

    @property
    def profile(self) -> ContextProfile:
        return self.tracer.profile

    def consume_batch(self, batch) -> None:
        """Span fast path: routes through whichever read/write hooks
        are bound (serial tracer or deferring segment wrapper)."""
        on_read = self.on_read
        on_write = self.on_write
        for etype, a, b, t in batch.rows():
            if etype == EV_READ:
                on_read(a, b, t)
            elif etype == EV_WRITE:
                on_write(a, b, t)

    def finish(self, ctx: AnalysisContext) -> AnalysisResult:
        return _context_result(self.tracer.profile)

    # -- segment/merge protocol -------------------------------------------

    def begin_segment(self, program: ProgramIR, memory: Memory,
                      seed: SegmentSeed) -> None:
        from repro.analyses.merging import SegmentContextTracer

        segment = SegmentContextTracer(seed)
        self._segment = segment
        self.tracer = segment.inner
        self.on_enter_function = segment.inner.on_enter_function
        self.on_exit_function = segment.inner.on_exit_function
        self.on_read = segment.on_read
        self.on_write = segment.on_write
        self.on_frame_free = segment.inner.on_frame_free
        self.on_finish = segment.inner.on_finish

    def export_segment(self, ctx: AnalysisContext) -> AnalysisSegment:
        segment = self._segment
        return AnalysisSegment(type(self), {
            "edges": {key: [edge.min_tdep, edge.count]
                      for key, edge in
                      segment.inner.profile.edges.items()},
            "deferred": segment.deferred,
            "frontier": segment.export_frontier(),
        })

    @classmethod
    def _internalize(cls, state: dict) -> dict:
        from repro.analyses import merging

        if state["deferred"]:
            raise AnalysisError(
                "first segment deferred a dependence pair — it starts "
                "from pristine state and has no boundary to defer to")
        frontier: dict = {}
        merging.update_context_frontier(frontier, state["frontier"])
        return {"edges": state["edges"], "_frontier": frontier}

    @classmethod
    def merge_segment_states(cls, acc: dict, part: dict) -> dict:
        from repro.analyses import merging

        if "_frontier" not in acc:
            acc = cls._internalize(acc)
        merging.resolve_deferred_context(part["deferred"],
                                         acc["_frontier"], acc["edges"])
        mine = acc["edges"]
        for key, (min_tdep, count) in part["edges"].items():
            stats = mine.get(key)
            if stats is None:
                mine[key] = [min_tdep, count]
            else:
                stats[1] += count
                if min_tdep < stats[0]:
                    stats[0] = min_tdep
        merging.update_context_frontier(acc["_frontier"],
                                        part["frontier"])
        return acc

    @classmethod
    def finalize_segments(cls, state: dict,
                          ctx: AnalysisContext) -> AnalysisResult:
        from repro.baselines.context_profiler import ContextEdge

        if "_frontier" not in state:
            state = cls._internalize(state)
        profile = ContextProfile()
        for key in sorted(state["edges"],
                          key=lambda k: (k[2], k[3], k[4].value,
                                         k[0], k[1])):
            min_tdep, count = state["edges"][key]
            head_ctx, tail_ctx, head_pc, tail_pc, kind = key
            profile.edges[key] = ContextEdge(head_ctx, tail_ctx,
                                             head_pc, tail_pc, kind,
                                             min_tdep, count)
        profile.instructions = ctx.final_time
        return _context_result(profile)


# Imported at the bottom on purpose: ``repro.trace`` imports the
# replay engine, which imports ``repro.analyses`` — a top-of-file
# ``from repro.trace.events import ...`` here would re-enter that
# half-initialized package and fail whichever side imports first. The
# ``consume_batch`` bodies above resolve these names at call time, so
# placing the import after the class definitions is safe under both
# import orders.
from repro.trace.events import (EV_ALLOC, EV_BLOCK,  # noqa: E402
                                EV_BRANCH, EV_ENTER, EV_FREE, EV_READ,
                                EV_WRITE)
