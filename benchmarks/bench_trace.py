"""Replay-vs-rerun benchmark: the BENCH_trace.json artifact.

Answers the record/replay subsystem's headline claim: running N
analyses from one recorded trace is cheaper than N live instrumented
runs. Per workload, the live side runs one instrumented execution per
analysis (dep via the full Alchemist profiler, locality/hot attached as
live tracers); the replay side records once and streams the trace
through all N consumers in a single pass.

Run directly::

    PYTHONPATH=src python benchmarks/bench_trace.py [scale]

Writes ``BENCH_trace.json`` at the repo root and a rendered table under
``benchmarks/out/``.
"""

from __future__ import annotations

import pathlib
import sys

from repro.bench.harness import trace_bench

ROOT = pathlib.Path(__file__).resolve().parent.parent
OUT_DIR = pathlib.Path(__file__).parent / "out"


def render(data: dict) -> str:
    lines = [
        "Replay-vs-rerun ({} analyses: {}, scale {}):".format(
            len(data["analyses"]), ",".join(data["analyses"]),
            data["scale"]),
        f"{'workload':12s} {'live(s)':>9s} {'record(s)':>10s} "
        f"{'replay(s)':>10s} {'speedup':>8s} {'events':>9s}",
    ]
    for row in data["rows"]:
        lines.append(
            f"{row['name']:12s} {row['live_seconds']:9.3f} "
            f"{row['record_seconds']:10.3f} "
            f"{row['replay_seconds']:10.3f} "
            f"{row['speedup']:7.2f}x {row['events']:9d}")
    total = data["total"]
    lines.append(
        f"{'TOTAL':12s} {total['live_seconds']:9.3f} "
        f"{total['record_seconds']:10.3f} "
        f"{total['replay_seconds']:10.3f} "
        f"{total['speedup']:7.2f}x")
    return "\n".join(lines)


def main(scale: float = 0.5) -> dict:
    data = trace_bench(scale=scale, out_path=str(ROOT / "BENCH_trace.json"))
    text = render(data)
    OUT_DIR.mkdir(exist_ok=True)
    (OUT_DIR / "bench_trace.txt").write_text(text + "\n")
    print(text)
    print(f"\nartifact: {ROOT / 'BENCH_trace.json'}")
    return data


if __name__ == "__main__":
    main(float(sys.argv[1]) if len(sys.argv) > 1 else 0.5)
