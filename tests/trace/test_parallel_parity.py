"""Differential harness: parallel sharded replay vs one serial pass.

The contract under test is exact equality — ``to_dict()`` *and*
rendered text — for every registered analysis, at two seam densities,
across worker counts including one that does not divide the segment
count. Parametrization goes through the live registry, so an
analysis registered later is automatically held to the same standard
(or must explicitly opt out of ``supports_segments``, in which case
the driver's serial fallback is asserted instead).
"""

import os

import pytest

from repro.analyses import registry
from repro.trace.parallel import parallel_replay, unsupported_analyses
from repro.trace.replay import replay_trace
from repro.trace.shards import plan_shards
from repro.trace.writer import record_source
from repro.workloads import get
from tests.trace.recording import record_blocks, record_legacy

#: Worker counts: serial fallback, even split, oversubscribed, and a
#: count that does not divide the segment total.
JOB_COUNTS = (1, 2, 4, 7)
#: Seam interval multipliers: a seam at (about) every INTERVAL events,
#: and at every 2 * INTERVAL, which moves every cut but the first.
STRIDES = (1, 2)

#: Small but structurally rich: gzip exercises globals + arrays +
#: deep call nesting; wordcount exercises heap allocation/recycling
#: (the hard cases for checkpointed memory reconstruction).
WORKLOADS = {"gzip": 0.25, "wordcount": 0.6}

#: Minimum events between scan seams — small enough that every
#: bundled trace yields well over 7 segments.
INTERVAL = 1200

#: Block size of the parity recordings: scan seams sit at block
#: boundaries, so blocks must be well under INTERVAL events.
BLOCK_BYTES = 1024


def _segmented_names():
    return sorted(name for name, cls in registry().items()
                  if cls.supports_segments)


@pytest.fixture(scope="module")
def traces(tmp_path_factory):
    """(workload, stride) -> trace path, recorded once per module (one
    file per stride, so each keeps its own sidecar)."""
    root = tmp_path_factory.mktemp("parity-traces")
    paths = {}
    for name, scale in WORKLOADS.items():
        workload = get(name, scale)
        for stride in STRIDES:
            path = str(root / f"{name}-x{stride}.trace")
            record_blocks(workload.source, path, block_bytes=BLOCK_BYTES)
            paths[name, stride] = path
    return paths


@pytest.fixture(scope="module")
def outcomes(traces):
    """All serial and parallel outcomes, computed once; the
    per-analysis tests below only compare."""
    names = _segmented_names()
    serial = {}
    parallel = {}
    for (workload, stride), path in traces.items():
        serial[workload, stride] = replay_trace(path, names)
        for jobs in JOB_COUNTS:
            parallel[workload, stride, jobs] = parallel_replay(
                path, names, jobs=jobs, interval=INTERVAL * stride)
    return serial, parallel


class TestParity:
    @pytest.mark.parametrize("analysis", _segmented_names())
    @pytest.mark.parametrize("stride", STRIDES)
    @pytest.mark.parametrize("jobs", JOB_COUNTS)
    @pytest.mark.parametrize("workload", sorted(WORKLOADS))
    def test_merged_equals_serial(self, outcomes, workload, stride,
                                  jobs, analysis):
        serial, parallel = outcomes
        expected = serial[workload, stride].reports[analysis]
        actual = parallel[workload, stride, jobs].reports[analysis]
        assert actual.to_dict() == expected.to_dict()
        assert actual.text == expected.text

    def test_every_bundled_analysis_supports_segments(self):
        assert not unsupported_analyses(sorted(registry()))

    def test_parallel_mode_actually_engaged(self, outcomes):
        _serial, parallel = outcomes
        for (workload, stride, jobs), outcome in parallel.items():
            if jobs == 1:
                assert outcome.mode == "serial", (workload, stride)
            else:
                assert outcome.mode == "parallel", (workload, stride,
                                                    jobs)
                assert len(outcome.plan.segments) > 1

    def test_nondivisible_worker_count(self, traces):
        """jobs=7 over a segment count it does not divide: every event
        is still replayed exactly once (counts analysis is a watertight
        event-conservation check)."""
        path = traces["gzip", 2]
        plan = plan_shards(path, 7, interval=INTERVAL * 2)
        assert len(plan.segments) % 7 != 0
        serial = replay_trace(path, ["counts"])
        par = parallel_replay(path, ["counts"], jobs=7,
                              interval=INTERVAL * 2)
        assert par.reports["counts"].to_dict() == \
            serial.reports["counts"].to_dict()


class TestOptionsParity:
    def test_analysis_options_reach_workers(self, traces):
        path = traces["gzip", 1]
        options = {"hot": {"top": 3}, "dep": {"track_war_waw": False}}
        from repro.trace.replay import replay_with
        from repro.analyses import make_analyses

        serial = replay_with(path, make_analyses(["dep", "hot"],
                                                 options))
        par = parallel_replay(path, ["dep", "hot"], jobs=3,
                              options=options, interval=INTERVAL)
        assert par.mode == "parallel"
        for name in ("dep", "hot"):
            assert par.reports[name].to_dict() == \
                serial.reports[name].to_dict()
        assert par.reports["hot"].data["top"] == 3


class TestFallbacks:
    def test_unsupported_analysis_falls_back_serially(self, traces):
        from repro.analyses import register, unregister
        from repro.analyses.base import Analysis, AnalysisResult

        class Stub(Analysis):
            name = "parity-stub"
            description = "no segment support"

            def finish(self, ctx):
                return AnalysisResult(analysis=self.name, data={},
                                      text="stub")

        register(Stub)
        try:
            path = traces["gzip", 1]
            outcome = parallel_replay(path, ["counts", "parity-stub"],
                                      jobs=4, interval=INTERVAL)
            assert outcome.mode == "serial"
            assert "parity-stub" in outcome.fallback_reason
            assert outcome.reports["counts"].data["reads"] > 0
        finally:
            unregister("parity-stub")

    def test_trace_without_seams_falls_back(self, tmp_path):
        """A trace of at most ``interval`` events cannot hold a seam:
        the plan is serial without a scan, and no sidecar is written."""
        workload = get("gzip", 0.1)
        path = str(tmp_path / "noseams.trace")
        result = record_source(workload.source, path)
        outcome = parallel_replay(path, ["counts"], jobs=4,
                                  interval=result.events)
        assert outcome.mode == "serial"
        assert "seams" in outcome.fallback_reason
        assert not os.path.exists(path + ".ckpt")

    def test_legacy_trace_replays_and_shards_like_serial(self, tmp_path):
        """A trace written before seams became scan-only — EV_CHECKPOINT
        markers in the stream, a ``checkpoints`` table in the footer —
        replays like a fresh recording of the same run, and shards at
        scan-built seams (cached in a sidecar) equal to serial."""
        names = _segmented_names()
        workload = get("wordcount", 0.6)
        fresh = str(tmp_path / "fresh.trace")
        legacy = str(tmp_path / "legacy.trace")
        record_source(workload.source, fresh)
        writer = record_legacy(workload.source, legacy, interval=INTERVAL,
                               block_bytes=BLOCK_BYTES)
        assert writer.payloads
        serial = replay_trace(legacy, names)
        baseline = replay_trace(fresh, names)
        outcome = parallel_replay(legacy, names, jobs=4,
                                  interval=INTERVAL)
        assert outcome.mode == "parallel"
        assert os.path.exists(legacy + ".ckpt")
        for name in names:
            assert serial.reports[name].to_dict() == \
                baseline.reports[name].to_dict()
            assert outcome.reports[name].to_dict() == \
                serial.reports[name].to_dict()
        # Second run must reuse the sidecar (same plan, same results).
        again = parallel_replay(legacy, ["dep"], jobs=4,
                                interval=INTERVAL)
        assert again.mode == "parallel"
        assert len(again.plan.segments) == len(outcome.plan.segments)
        assert again.reports["dep"].to_dict() == \
            serial.reports["dep"].to_dict()
