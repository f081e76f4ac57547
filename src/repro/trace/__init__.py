"""Trace capture/replay: record one execution, analyze it many times.

The live profiler (``repro.core.tracer``) couples dependence analysis to
an instrumented interpreter run, so every new question about a program
costs a full re-execution. This package decouples the two:

``repro.trace.writer``
    :class:`TraceWriter`, a :class:`~repro.runtime.tracing.Tracer` that
    streams every interpreter event into a compact binary trace file, plus :func:`record_source` / :func:`record_program`.
    Recording optionally runs under a sampling policy
    (:mod:`repro.sampling`) that thins the memory-event stream.
``repro.trace.codec``
    The event encoding: delta/varint records in zlib-compressed blocks
    (trace schema v2; 18-78x smaller than fixed 13-byte records on the
    bundled workloads).
``repro.trace.reader``
    :class:`TraceReader`, a lazy streaming reader — traces larger than
    memory replay fine because events are decoded block by block.
    Files of any other schema version (including the retired v1) are
    rejected with :class:`TraceVersionError`.
``repro.trace.replay``
    :class:`ReplayEngine` drives :class:`repro.analyses.Analysis`
    plugins over a recorded trace without re-running the interpreter.
    Analyses resolve through the shared registry (``dep``,
    ``locality``, ``hot``, ``counts``, ``flat``, ``context``, plus
    anything registered with ``@repro.analyses.register``).
``repro.trace.batch``
    A ``multiprocessing`` batch driver that records and replays many
    workloads / analyses concurrently with deterministic result order.

Typical use::

    from repro.trace import record_source, replay_trace

    record_source(source, "prog.trace")
    outcome = replay_trace("prog.trace", analyses=("dep", "locality"))
    report = outcome.results["dep"]          # a ProfileReport
    print(report.to_text())
"""

from repro.trace.events import (TRACE_VERSION_V2, TraceError, TraceHeader,
                                TraceTruncatedError, TraceVersionError)
from repro.trace.reader import TraceReader
from repro.trace.replay import ReplayEngine, replay_trace, replay_with
from repro.trace.writer import TraceWriter, record_program, record_source

__all__ = [
    "TRACE_VERSION_V2",
    "TraceError",
    "TraceHeader",
    "TraceTruncatedError",
    "TraceVersionError",
    "TraceReader",
    "TraceWriter",
    "record_program",
    "record_source",
    "ReplayEngine",
    "replay_trace",
    "replay_with",
]
