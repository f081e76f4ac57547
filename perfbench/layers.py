"""The traced run: per-layer self times from spans around public calls.

While a traced op runs, :func:`installed` replaces each layer's public
entry point with a wrapper that opens a span (name, start, end,
parent) in a :class:`SpanLog`. Nothing inside ``src/`` changes; the
wrappers are removed after the op. A layer's self time is its span's
duration minus the time its child spans cover.

Two kinds of layer cannot be separated by wrapping one call:

* the interpreter, the trace encoder, the checkpoint mirror and the
  live dependence tracer all run inside one ``Interpreter.run``.
  They are split by calibration runs of the same program right after
  the op: ``Interpreter`` under ``NullTracer`` (interpretation alone),
  and ``record_program`` with ``checkpoint_interval=0`` and with the
  default interval. ``trace.encode`` is the second minus the first and
  ``trace.checkpoint`` the third minus the second; the op's own
  ``record_program`` span is divided in these shares, so noise between
  the op and its calibration does not open the ledger.
  ``core.tracer`` is the live run's span minus interpretation.
* analysis consumption happens in callbacks fired per span of events.
  Those are timed per call and summed into one aggregate child of the
  dispatching span, as is each ``next()`` on the batch decoder.

Per-layer values are means per op. ``api.residual_ms`` is the mean
traced op time minus the sum of the layers: the session's own work
plus whatever no wrapped call covers, plus any gap between an op's
recording and its calibration. The ledger is closed when it stays
within :data:`LEDGER_TOLERANCE` of the op time. The tracing overhead
(traced minus untraced op time) is reported beside it.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import os
import statistics
import tempfile
import time
from collections import defaultdict
from contextlib import contextmanager

#: (metric, unit) in print order. Values are means per op.
LAYER_METRICS = (
    ("lang.parse_ms", "ms"),
    ("ir.lower_ms", "ms"),
    ("runtime.interpret_ms", "ms"),
    ("runtime.events", "count"),
    ("core.tracer_ms", "ms"),
    ("trace.encode_ms", "ms"),
    ("trace.checkpoint_ms", "ms"),
    ("trace.seams", "count"),
    ("trace.bytes_per_ev", "B/ev"),
    ("trace.decode_ms", "ms"),
    ("trace.blocks_batched", "count"),
    ("trace.blocks_scalar_fallback", "count"),
    ("trace.dispatch_ms", "ms"),
    ("analyses.dep.consume_ms", "ms"),
    ("analyses.dep.finish_ms", "ms"),
    ("analyses.locality.consume_ms", "ms"),
    ("analyses.locality.finish_ms", "ms"),
    ("analyses.whatif.finish_ms", "ms"),
    ("analyses.whatif.candidates", "count"),
    ("staticdep.analyze_ms", "ms"),
    ("staticdep.fuse_ms", "ms"),
    ("trace.shards.scan_ms", "ms"),
    ("trace.parallel.segment_ms", "ms"),
    ("trace.parallel.merge_ms", "ms"),
    ("trace.parallel.segments", "count"),
    ("trace.parallel.fallbacks", "count"),
    ("api.residual_ms", "ms"),
)

#: Counters read from the product's own Telemetry handle.
COUNTERS = {
    "trace.blocks_batched": "trace.blocks_batched",
    "trace.blocks_scalar_fallback": "trace.blocks_scalar_fallback",
    "trace.seams": "trace.checkpoint_seams_written",
    "analyses.whatif.candidates": "advisor.candidates_swept",
}

#: |api.residual_ms| must stay within this share of the traced op.
LEDGER_TOLERANCE = 0.10

#: Programs of the baseline table (ROADMAP "Measured baseline").
BASELINE_PROGRAMS = ("bzip2", "197.parser", "delaunay")

_ALL = "*"
#: Spans opened inside a span of the key that are not recorded: their
#: time stays in that span. A recording or a live run is split by
#: calibration instead; a checkpoint scan is one cost whatever it
#: calls; the what-if sweep's candidate re-replay is whatif's own work.
_ABSORBS = {
    "trace.record": {_ALL},
    "runtime.run": {_ALL},
    "trace.shards.scan": {_ALL},
    "analyses.whatif.finish": {"trace.dispatch", "trace.decode",
                               "trace.consume", "runtime.run",
                               "lang.parse", "ir.lower"},
}

#: Hooks the replay dispatcher calls on a "span" consumer outside
#: ``consume_batch`` (the structural events).
_STRUCTURAL_HOOKS = ("on_enter_function", "on_exit_function",
                     "on_heap_alloc", "on_frame_free", "on_finish")


class SpanLog:
    """The spans of one traced op, kept in memory."""

    def __init__(self):
        self.spans: list[list] = []      # [name, start, end, parent]
        self.totals: dict[tuple, list] = {}  # (parent, name) -> [s, calls]
        self.outcomes: dict[int, object] = {}
        self._stack: list[int] = []
        self._absorbing: list[set] = []
        self._pid = os.getpid()

    def records(self, name: str) -> bool:
        """Should a call into ``name`` open a span here and now?
        Forked replay workers inherit the wrappers and record nothing."""
        if os.getpid() != self._pid:
            return False
        return not any(_ALL in a or name in a for a in self._absorbing)

    @contextmanager
    def span(self, name: str):
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        record = [name, time.perf_counter(), 0.0, parent]
        self.spans.append(record)
        self._stack.append(index)
        absorbs = _ABSORBS.get(name)
        if absorbs:
            self._absorbing.append(absorbs)
        try:
            yield index
        finally:
            record[2] = time.perf_counter()
            if absorbs:
                self._absorbing.pop()
            self._stack.pop()

    def cell(self, name: str) -> list:
        """Accumulator [seconds, calls] for an aggregate child ``name``
        of the currently open span."""
        key = (self._stack[-1] if self._stack else None, name)
        return self.totals.setdefault(key, [0.0, 0])


def _timed(cell: list, fn):
    clock = time.perf_counter

    def call(*args):
        start = clock()
        try:
            return fn(*args)
        finally:
            cell[0] += clock() - start
            cell[1] += 1
    return call


def _timed_iter(cell: list, iterator):
    clock = time.perf_counter
    while True:
        start = clock()
        try:
            item = next(iterator)
        except StopIteration:
            return
        finally:
            cell[0] += clock() - start
            cell[1] += 1
        yield item


def _wrap_span(log: SpanLog, name: str, fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if not log.records(name):
            return fn(*args, **kwargs)
        with log.span(name) as index:
            result = fn(*args, **kwargs)
        if name == "trace.parallel":
            log.outcomes[index] = result
        return result
    return wrapper


def _consumer_layer(consumer) -> str | None:
    from repro.analyses.builtin import DependenceAnalysis, LocalityAnalysis

    # whatif profiles through DependenceAnalysis: its consumption is
    # the dependence layer's work.
    if isinstance(consumer, DependenceAnalysis):
        return "analyses.dep.consume"
    if isinstance(consumer, LocalityAnalysis):
        return "analyses.locality.consume"
    return None


def _wrap_dispatch(log: SpanLog, fn):
    from repro.runtime.tracing import overridden_hooks

    @functools.wraps(fn)
    def dispatch(batches, consumers, *args, **kwargs):
        if not log.records("trace.consume"):
            return fn(batches, consumers, *args, **kwargs)
        restore = []
        for consumer in consumers:
            layer = _consumer_layer(consumer)
            if layer is None:
                continue
            # A "block" consumer never receives the structural hooks,
            # so wrapping them as well costs it nothing.
            hooks = ["consume_batch"] + [
                h for h in _STRUCTURAL_HOOKS
                if overridden_hooks([consumer], h)]
            cell = log.cell(layer)
            for hook in hooks:
                restore.append((consumer, hook, consumer.__dict__.get(hook)))
                setattr(consumer, hook, _timed(cell, getattr(consumer, hook)))
        try:
            return fn(batches, consumers, *args, **kwargs)
        finally:
            for consumer, hook, previous in reversed(restore):
                if previous is None:
                    del consumer.__dict__[hook]
                else:
                    setattr(consumer, hook, previous)
    return dispatch


def _wrap_batches(log: SpanLog, fn):
    @functools.wraps(fn)
    def batches(self, *args, **kwargs):
        iterator = fn(self, *args, **kwargs)
        if not log.records("trace.decode"):
            return iterator
        return _timed_iter(log.cell("trace.decode"), iterator)
    return batches


#: (module[:class], attribute, span name) of every wrapped public call.
_TARGETS = (
    ("repro.ir.lowering", "parse_program", "lang.parse"),
    ("repro.ir.lowering", "lower_program", "ir.lower"),
    ("repro.trace.writer", "record_program", "trace.record"),
    ("repro.runtime.interpreter:Interpreter", "run", "runtime.run"),
    ("repro.trace.replay:ReplayEngine", "run", "trace.dispatch"),
    ("repro.analyses.builtin:DependenceAnalysis", "finish",
     "analyses.dep.finish"),
    ("repro.analyses.builtin:LocalityAnalysis", "finish",
     "analyses.locality.finish"),
    ("repro.analyses.whatif:WhatIfAnalysis", "finish",
     "analyses.whatif.finish"),
    ("repro.staticdep.report", "analyze_program", "staticdep.analyze"),
    ("repro.staticdep", "fuse_profile", "staticdep.fuse"),
    ("repro.trace.shards", "build_checkpoints", "trace.shards.scan"),
    ("repro.trace.parallel", "parallel_replay", "trace.parallel"),
    ("repro.trace.reader:TraceReader", "batches", None),
    ("repro.trace.replay", "dispatch_batches", None),
)


def _resolve(path: str, attr: str):
    """The current value of a wrapped entry point, or None if gone."""
    module, _, cls = path.partition(":")
    try:
        owner = importlib.import_module(module)
        owner = getattr(owner, cls) if cls else owner
        return owner, owner.__dict__[attr]
    except (ImportError, AttributeError, KeyError):
        return None


def missing_targets() -> list[str]:
    """Wrapped entry points the product no longer has; their layers
    read n/a and their time falls into ``api.residual_ms``."""
    return [f"{path}.{attr}" for path, attr, _ in _TARGETS
            if _resolve(path, attr) is None]


@contextmanager
def installed(log: SpanLog):
    """Wrap every layer's public entry point for the duration."""
    saved = []
    try:
        for path, attr, name in _TARGETS:
            resolved = _resolve(path, attr)
            if resolved is None:
                continue
            owner, original = resolved
            if name is not None:
                wrapper = _wrap_span(log, name, original)
            elif attr == "batches":
                wrapper = _wrap_batches(log, original)
            else:
                wrapper = _wrap_dispatch(log, original)
            saved.append((owner, attr, original))
            setattr(owner, attr, wrapper)
        yield log
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


# -- calibration

def calibrate(program, records: bool) -> dict[str, float]:
    """Interpretation alone, and recording with checkpoints off / on.
    Runs unwrapped, outside any op."""
    from repro.ir.lowering import compile_source
    from repro.runtime.interpreter import Interpreter
    from repro.runtime.tracing import NullTracer
    from repro.trace.writer import record_program

    ir = compile_source(program.source, program.name)
    start = time.perf_counter()
    Interpreter(ir, NullTracer()).run()
    timings = {"interpret": time.perf_counter() - start}
    if records:
        # A writer without record-time checkpoints has no interval to
        # turn off: both recordings are the default one.
        toggle = ("checkpoint_interval"
                  in inspect.signature(record_program).parameters)
        with tempfile.TemporaryDirectory() as scratch:
            path = os.path.join(scratch, "calibration.trace")
            for key, interval in (("record_off", 0), ("record_on", None)):
                options = {"checkpoint_interval": interval} if toggle else {}
                start = time.perf_counter()
                record_program(ir, path, source=program.source,
                               filename=program.name, **options)
                timings[key] = time.perf_counter() - start
    return timings


def baseline_row(program) -> dict[str, float]:
    """One row of the ROADMAP baseline table, in seconds: bare interp,
    live dep (``Session.analyze(mode="live")``), record with checkpoints
    on / off and serial batch-engine replay of dep and of locality."""
    from repro.api import Session
    from repro.trace.replay import replay_trace
    from repro.trace.writer import record_source

    row = calibrate(program, records=True)
    start = time.perf_counter()
    with Session() as session:
        session.analyze(program.source, ["dep"], filename=program.name,
                        mode="live")
    row["live_dep"] = time.perf_counter() - start
    with tempfile.TemporaryDirectory() as scratch:
        path = os.path.join(scratch, "baseline.trace")
        record_source(program.source, path, filename=program.name)
        for analysis in ("dep", "locality"):
            start = time.perf_counter()
            replay_trace(path, [analysis])
            row[f"replay_{analysis}"] = time.perf_counter() - start
    return row


# -- attribution

def attribute(log: SpanLog,
              calibration: dict[str, float]) -> dict[str, float]:
    """Seconds per layer for one traced op (see the module docstring)."""
    layers: dict[str, float] = defaultdict(float)
    covered: dict[int | None, float] = defaultdict(float)
    static_inside: dict[int, float] = defaultdict(float)
    for name, start, end, parent in log.spans:
        if parent is not None:
            covered[parent] += end - start
            if name.startswith("staticdep."):
                static_inside[parent] += end - start
    for (parent, name), (seconds, _) in log.totals.items():
        covered[parent] += seconds
        layers[name] += seconds
    for index, (name, start, end, parent) in enumerate(log.spans):
        self_time = end - start - covered[index]
        if name == "api.op":
            continue
        if name == "trace.record":
            # The op's own recording, split in the calibration's shares.
            share = self_time / calibration["record_on"]
            interp = calibration["interpret"]
            layers["runtime.interpret"] += share * interp
            layers["trace.encode"] += share * (calibration["record_off"]
                                               - interp)
            layers["trace.checkpoint"] += share * (calibration["record_on"]
                                                   - calibration["record_off"])
        elif name == "runtime.run":
            interp = min(calibration["interpret"], self_time)
            layers["runtime.interpret"] += interp
            layers["core.tracer"] += self_time - interp
        elif name == "trace.parallel":
            # Statically analysing the merged dep profile is the only
            # wrapped call inside the merge.
            merge = max(0.0, log.outcomes[index].merge_seconds
                        - static_inside[index])
            layers["trace.parallel.merge"] += merge
            layers["trace.parallel.segment"] += self_time - merge
        else:
            layers[name] += self_time
    return layers


def span_names(log: SpanLog) -> set[str]:
    return {name for name, *_ in log.spans}


def parallel_counts(log: SpanLog) -> tuple[int, int]:
    """(segments, serial fallbacks) over the op's parallel replays."""
    segments = fallbacks = 0
    for outcome in log.outcomes.values():
        if outcome.mode == "parallel":
            segments += len(outcome.plan.segments)
        else:
            fallbacks += 1
    return segments, fallbacks


def median_by_key(samples: list[dict[str, float]]) -> dict[str, float]:
    """Per-key median over rounds of calibration or baseline samples."""
    return {key: statistics.median(s[key] for s in samples)
            for key in samples[0]}
