"""Alchemist benchmark runner: closed-loop analyze workloads.

Usage (from the repository root)::

    python3 perfbench/run.py --workload cold --seed 1 --seconds 8 --trace 0

One client in one process runs one op at a time. An op runs one
program through one ``repro.api`` entry point (see
``perfbench/workloads.py``); a pass runs all ten programs in an order
drawn from ``--seed``. Passes repeat until ``--seconds`` of op time
have been measured, and at least the workload's minimum pass count.

``--trace 0`` prints the end-to-end metrics. ``--trace 1`` runs each
program untraced and traced in turn and prints the per-layer metrics,
the ledger (layers against the traced op time) and the tracing
overhead (``perfbench/layers.py``); on ``sharded`` it also prints the
baseline table. Every op is gated on its result; the last line of
standard output is one JSON object, and any failed op or gate makes
the exit code non-zero. See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path

import hostspeed
import layers
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

#: End-to-end metrics (name, unit) in print order.
E2E_METRICS = (
    ("setup_s", "s"),
    ("throughput_kev_s", "kev/s"),
    ("op_p50_ms", "ms"),
    ("op_tail_ms", "ms"),
    ("peak_rss_mb", "MB"),
)

#: Set-up is repeated this many times per run; setup_s is the median.
SETUP_REPEATS = 3

#: What a user's process imports before its first analysis.
PRODUCT_IMPORTS = ("import repro.api, repro.trace.writer, repro.trace.replay,"
                   " repro.trace.parallel, repro.staticdep")


class BenchError(Exception):
    """The benchmark cannot produce trustworthy numbers here."""


@dataclass
class OpRecord:
    program: str
    seconds: float
    problems: list[str] = field(default_factory=list)
    digest: str | None = None
    #: ``seconds`` rescaled to the nominal host (``hostspeed``).
    normalized: float = 0.0

    @property
    def ok(self) -> bool:
        return not self.problems


def run_op(workload, program, telemetry=None) -> OpRecord:
    """Time one op, then gate its result outside the timed interval.

    The garbage earlier ops left is collected first, outside the timed
    interval, as in a fresh ``alchemist`` process: an op pays for
    collecting its own garbage, not for a collection its predecessors
    made due, which would land on whichever program the seed put next."""
    gc.collect()
    start = time.perf_counter()
    try:
        result = workload.op(program, telemetry)
    except Exception as exc:  # a failed op is counted, never dropped
        return OpRecord(program.name, time.perf_counter() - start,
                        [f"{program.name}: {type(exc).__name__}: {exc}"])
    seconds = time.perf_counter() - start
    try:
        problems, digest = workload.check(program, result)
    except Exception as exc:
        problems, digest = [f"{program.name}: gate raised "
                            f"{type(exc).__name__}: {exc}"], None
    return OpRecord(program.name, seconds, problems, digest)


def pass_orders(names, seed: int):
    """Endless seed-determined program orders, one per pass."""
    rng = random.Random(seed)
    order = list(names)
    while True:
        rng.shuffle(order)
        yield list(order)


def nearest_rank(sorted_values, pct: float) -> float:
    """Nearest-rank percentile of ascending values."""
    rank = max(1, math.ceil(pct / 100 * len(sorted_values)))
    return sorted_values[rank - 1]


# -- environment

def git_revision() -> str:
    """HEAD of the checkout when it is a git work tree, else unknown."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.exists():
            return loose.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def check_engine() -> str:
    """Refuse to measure the scalar engine; returns numpy's version."""
    try:
        import numpy
    except ImportError:
        raise BenchError("numpy is not importable, so replay would run "
                         "the scalar engine") from None
    try:
        from repro.trace.columnar import columnar_enabled
    except ImportError:  # no engine toggle left: batches are the engine
        return numpy.__version__
    if not columnar_enabled():
        raise BenchError("ALCHEMIST_COLUMNAR="
                         f"{os.environ.get('ALCHEMIST_COLUMNAR')!r} turns "
                         "the batch engine off")
    return numpy.__version__


def stamp(args, numpy_version: str, scale: float) -> dict:
    return {"python": platform.python_version(), "numpy": numpy_version,
            "nproc": os.cpu_count(), "git": git_revision(),
            "workload": args.workload, "seed": args.seed, "scale": scale,
            "seconds": args.seconds, "trace": args.trace}


# -- set-up

def set_up(workload, programs) -> float:
    """Median over SETUP_REPEATS of: a fresh interpreter importing the
    product, building every source, and the workload's own set-up
    (for ``warm``, recording and advising every program). Wall clock:
    most of it is a process start and an import that reads files,
    which the host-speed reference does not describe."""
    from repro.workloads import get

    env = dict(os.environ, PYTHONPATH=str(SRC))
    samples = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", PRODUCT_IMPORTS], env=env,
                       cwd=ROOT, check=True)
        for program in programs.values():
            program.source = get(program.name, workload.scale).source
        workload.setup(programs)
        samples.append(time.perf_counter() - start)
    return statistics.median(samples)


# -- the end-to-end run

def measure(workload, programs, seed: int,
            seconds: float) -> tuple[list[OpRecord], float, float]:
    """Closed loop over whole passes until ``seconds`` of op time.

    Returns the ops and the peak resident memory (MB) after set-up and
    the first ``min_passes`` passes: a fixed amount of work, so memory
    that grows with every op does not read higher merely because a
    faster build fits more passes into the same seconds.

    Each op is bracketed by runs of the host-speed reference, which
    give its normalized time; their median is returned too."""
    ops: list[OpRecord] = []
    references = [hostspeed.reference_seconds()]
    timed = 0.0
    orders = pass_orders(programs, seed)
    passes = 0
    rss_mb = 0.0
    while passes < workload.min_passes or timed < seconds:
        for name in next(orders):
            record = run_op(workload, programs[name])
            references.append(hostspeed.reference_seconds())
            ops.append(record)
            timed += record.seconds
        passes += 1
        if passes == workload.min_passes:
            rss_mb = peak_rss_mb(workload.jobs > 1)
    normalized = hostspeed.normalized([op.seconds for op in ops],
                                      references)
    for op, seconds in zip(ops, normalized):
        op.normalized = seconds
    return ops, rss_mb, statistics.median(references)


def peak_rss_mb(include_children: bool) -> float:
    kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if include_children:
        kib += resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return kib / 1024


def timings(workload, programs, ops, seconds_of) -> dict[str, float]:
    """Throughput and latency percentiles of ``ops``, timing each op
    by ``seconds_of(op)``."""
    done = [op for op in ops if op.ok]
    if not done:
        return {}
    # Every pass runs each program once, so the ops fall into one group
    # per program and a percentile of the ops is a percentile of the
    # groups. It is taken over per-program medians: a burst of host
    # contention in one op then cannot move it into another group.
    by_program = defaultdict(list)
    for op in done:
        by_program[op.program].append(seconds_of(op) * 1000)
    medians = sorted(statistics.median(t) for t in by_program.values())
    tail = nearest_rank(medians, workload.tail_pct)
    # Every pass runs the same programs, once each: throughput is the
    # events of a pass over the time of a pass made of each program's
    # median op, so a burst of host contention in one op cannot move it.
    events = sum(programs[name].events for name in by_program)
    return {
        "throughput_kev_s": events / sum(medians),
        "op_p50_ms": statistics.median(medians),
        "op_tail_ms": tail,
        "beyond": sum(seconds_of(op) * 1000 > tail for op in done),
    }


def end_to_end(workload, programs, ops, setup_s: float, rss_mb: float,
               reference_s: float) -> dict[str, float]:
    """The end-to-end metrics; op times on the nominal host
    (``hostspeed``), with their wall-clock figures printed next to
    them."""
    done = [op for op in ops if op.ok]
    norm = timings(workload, programs, ops, lambda op: op.normalized)
    wall = timings(workload, programs, ops, lambda op: op.seconds)
    metrics = {"setup_s": setup_s, **norm, "peak_rss_mb": rss_mb}
    beyond = metrics.pop("beyond", 0)
    trace_bytes = sum(p.trace_bytes for p in programs.values())
    total_events = sum(p.events for p in programs.values())
    print(f"end to end: {workload.name}, closed loop, 1 client, "
          f"{len(ops)} ops in {len(ops) // len(programs)} passes, "
          f"scale {workload.scale}; op times on the nominal host, wall "
          "clock in brackets")
    units = dict(E2E_METRICS)
    for name, value in metrics.items():
        note = f"  (wall {wall[name]:.4f})" if name in wall else ""
        if name == "op_tail_ms":
            note += (f"  (p{workload.tail_pct} of {len(done)} ops, "
                     f"{beyond} beyond)")
        print(f"  {name:<20} {value:12.4f} {units[name]}{note}")
    if workload.uses_trace:
        print(f"  {'trace_bytes_per_ev':<20} "
              f"{trace_bytes / total_events:12.4f} B/ev")
    else:
        print(f"  {'trace_bytes_per_ev':<20} {'n/a':>12}")
    print(f"  {'host_reference_ms':<20} {reference_s * 1000:12.4f} ms  "
          f"(median; {hostspeed.NOMINAL_S * 1000:g} on the nominal host)")
    print(f"  {'ops_failed':<20} {len(ops) - len(done):12d} of "
          f"{len(ops)} attempted")
    return metrics


# -- the traced run

@dataclass
class TracedRun:
    ops: list[OpRecord] = field(default_factory=list)
    #: Untraced op seconds per program.
    untraced: dict = field(default_factory=lambda: defaultdict(list))
    #: (program, OpRecord, SpanLog, Telemetry) per traced op.
    traced: list = field(default_factory=list)
    #: Calibration and baseline-table samples per program, one a round.
    calibrations: dict = field(default_factory=lambda: defaultdict(list))
    baseline: dict = field(default_factory=lambda: defaultdict(list))
    rounds: int = 0


def traced(workload, programs, seed: int, seconds: float) -> TracedRun:
    """Rounds of (untraced op, traced op) per program plus calibration
    runs, until ``seconds`` have passed; at least one round."""
    from repro.telemetry import Telemetry

    run = TracedRun()
    orders = pass_orders(programs, seed)
    start = time.perf_counter()
    while run.rounds < 1 or time.perf_counter() - start < seconds:
        for name in next(orders):
            program = programs[name]
            # Alternate which of the pair runs first, round by round.
            for tracing in (run.rounds % 2 == 0, run.rounds % 2 == 1):
                if not tracing:
                    record = run_op(workload, program)
                    run.untraced[name].append(record.seconds)
                    run.ops.append(record)
                    continue
                log, telemetry = layers.SpanLog(), Telemetry()
                with layers.installed(log):
                    with log.span("api.op"):
                        record = run_op(workload, program, telemetry)
                run.ops.append(record)
                run.traced.append((name, record, log, telemetry))
            # Calibrate next to the ops it splits, under the same load.
            seen = layers.span_names(log)
            if seen & {"trace.record", "runtime.run"}:
                run.calibrations[name].append(layers.calibrate(
                    program, "trace.record" in seen))
            if workload.name == "sharded" and name in layers.BASELINE_PROGRAMS:
                run.baseline[name].append(layers.baseline_row(program))
        run.rounds += 1
    return run


def per_layer(workload, programs, run: TracedRun):
    calib = {name: layers.median_by_key(samples)
             for name, samples in run.calibrations.items()}
    totals = {metric: 0.0 for metric, _ in layers.LAYER_METRICS}
    #: Metrics on this workload's path; the others print as n/a.
    present = {"api.residual_ms"}
    traced_seconds = []
    for name, record, log, telemetry in run.traced:
        traced_seconds.append(record.seconds)
        for layer, seconds in layers.attribute(log, calib.get(name)).items():
            totals[layer + "_ms"] += seconds * 1000
            present.add(layer + "_ms")
        if layers.span_names(log) & {"trace.record", "runtime.run"}:
            totals["runtime.events"] += programs[name].events
            present.add("runtime.events")
        for metric, counter in layers.COUNTERS.items():
            if counter in telemetry.counters:
                totals[metric] += telemetry.counters[counter]
                present.add(metric)
        if log.outcomes:
            segments, fallbacks = layers.parallel_counts(log)
            totals["trace.parallel.segments"] += segments
            totals["trace.parallel.fallbacks"] += fallbacks
            present |= {"trace.parallel.segments", "trace.parallel.fallbacks"}
    n = len(run.traced)
    values = {metric: total / n for metric, total in totals.items()}
    if workload.uses_trace:
        values["trace.bytes_per_ev"] = (
            sum(p.trace_bytes for p in programs.values())
            / sum(p.events for p in programs.values()))
        present.add("trace.bytes_per_ev")
    op_ms = statistics.fmean(s for samples in run.untraced.values()
                             for s in samples) * 1000
    traced_ms = statistics.fmean(traced_seconds) * 1000
    timed_layers = sum(value for metric, value in values.items()
                       if metric.endswith("_ms")
                       and metric != "api.residual_ms")
    values["api.residual_ms"] = traced_ms - timed_layers
    return values, present, op_ms, traced_ms


def print_layers(workload, values, present, op_ms, traced_ms,
                 rounds) -> bool:
    print(f"per layer: {workload.name}, means per op over {rounds} "
          f"round(s) of every program, scale {workload.scale}")
    for metric, unit in layers.LAYER_METRICS:
        value = values[metric]
        shown = f"{value:12.4f}" if metric in present else f"{'n/a':>12}"
        print(f"  {metric:<30} {shown} {unit}")
    residual = values["api.residual_ms"]
    closed = abs(residual) <= layers.LEDGER_TOLERANCE * traced_ms
    print(f"ledger: layers {traced_ms - residual:.3f} ms + residual "
          f"{residual:.3f} ms = traced op {traced_ms:.3f} ms; |residual| "
          f"{abs(residual) / traced_ms:.1%} of the op (tolerance "
          f"{layers.LEDGER_TOLERANCE:.0%}): {'closed' if closed else 'OPEN'}")
    print(f"untraced op {op_ms:.3f} ms; tracing overhead = traced - "
          f"untraced = {traced_ms - op_ms:.3f} ms "
          f"({(traced_ms - op_ms) / op_ms:+.1%})")
    return closed


def print_baseline(baseline) -> None:
    columns = ("interpret", "live_dep", "record_on", "record_off",
               "replay_dep", "replay_locality")
    print("baseline table (seconds at scale 1.0, median of rounds; "
          "replay = serial batch engine):")
    print(f"  {'program':<12}" + "".join(f"{c:>16}" for c in columns))
    table = {}
    for name in layers.BASELINE_PROGRAMS:
        row = layers.median_by_key(baseline[name])
        table[name] = {c: row[c] for c in columns}
        print(f"  {name:<12}" + "".join(f"{row[c]:16.4f}" for c in columns))
    print(json.dumps({"baseline_table": table}, sort_keys=True))


# -- main

def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro").is_dir():
        print(f"error: no product sources at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    # Sessions, traces and worker files stay inside the checkout.
    scratch = tempfile.mkdtemp(prefix=".perfbench_tmp-", dir=ROOT)
    previous_tempdir = tempfile.tempdir
    tempfile.tempdir = scratch
    try:
        return _run(args)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    finally:
        tempfile.tempdir = previous_tempdir
        shutil.rmtree(scratch, ignore_errors=True)


def _run(args) -> int:
    numpy_version = check_engine()
    workload = workloads.WORKLOADS[args.workload]()
    print(json.dumps({"stamp": stamp(args, numpy_version, workload.scale)},
                     sort_keys=True))
    try:
        programs = workload.build(workloads.PROGRAMS)
        if args.trace:
            return _traced(args, workload, programs)
        setup_s = set_up(workload, programs)
        ops, rss_mb, reference_s = measure(workload, programs, args.seed,
                                           args.seconds)
        metrics = end_to_end(workload, programs, ops, setup_s, rss_mb,
                             reference_s)
        units = dict(E2E_METRICS)
        return report(ops, {name: {"value": value, "unit": units[name]}
                            for name, value in metrics.items()})
    finally:
        workload.close()


def _traced(args, workload, programs) -> int:
    for target in layers.missing_targets():
        print(f"warning: {target} no longer exists; its layer reads n/a",
              file=sys.stderr)
    workload.setup(programs)
    run = traced(workload, programs, args.seed, args.seconds)
    values, present, op_ms, traced_ms = per_layer(workload, programs, run)
    if workload.uses_trace and not values["trace.blocks_batched"]:
        raise BenchError("the traced run decoded no block on the batch "
                         "engine (trace.blocks_batched == 0)")
    closed = print_layers(workload, values, present, op_ms, traced_ms,
                          run.rounds)
    if run.baseline:
        print_baseline(run.baseline)
    units = dict(layers.LAYER_METRICS)
    code = report(run.ops, {name: {"value": value, "unit": units[name]}
                            for name, value in values.items()})
    if not closed:
        print("error: the layer ledger does not close", file=sys.stderr)
        return code or 4
    return code


def report(ops, metrics) -> int:
    failed = [op for op in ops if not op.ok]
    for op in failed:
        for problem in op.problems:
            print(f"FAILED {problem}", file=sys.stderr)
    print(json.dumps({"correct": not failed, "attempted": len(ops),
                      "failed": len(failed), "metrics": metrics}))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
