"""Accuracy module: error bounds of sampled traces vs full ones."""

from __future__ import annotations

import json

import pytest

from repro.sampling.accuracy import compare_traces
from repro.trace import record_source
from repro.trace.events import TraceError

PROG = """
int hot[8];
int cold[512];
int main() {
    int s = 0;
    for (int i = 0; i < 400; i++) {
        hot[i % 8] = hot[i % 8] + 1;
        cold[(i * 7) % 512] = i;
        s += hot[(i + 1) % 8];
    }
    print(s);
    return 0;
}
"""

OTHER = """
int main() { print(1); return 0; }
"""


@pytest.fixture
def trace_pair(tmp_path):
    full = tmp_path / "full.trace"
    sampled = tmp_path / "sampled.trace"
    record_source(PROG, full)
    record_source(PROG, sampled, sampling="interval:4")
    return str(full), str(sampled)


class TestCompareTraces:
    def test_full_vs_itself_is_exact(self, tmp_path):
        full = tmp_path / "full.trace"
        twin = tmp_path / "twin.trace"
        record_source(PROG, full)
        record_source(PROG, twin)
        report = compare_traces(str(full), str(twin))
        assert report.rate == 1.0
        assert report.rows["hot"].metrics["count_error"] == 0.0
        assert report.rows["hot"].metrics["top_overlap"] == 1.0
        assert report.rows["locality"].metrics["hit_rate_error"] == 0.0
        assert report.rows["dep"].metrics["missed_fraction"] == 0.0

    def test_sampled_errors_measured(self, trace_pair):
        full, sampled = trace_pair
        report = compare_traces(full, sampled)
        assert report.sampling == "interval:4"
        assert report.rate == pytest.approx(0.25)
        hot = report.rows["hot"].metrics
        assert 0.0 <= hot["count_error"] < 1.0
        assert 0.0 <= hot["top_overlap"] <= 1.0
        locality = report.rows["locality"].metrics
        assert 0.0 <= locality["hit_rate_error"] <= 1.0

    def test_dep_always_flagged_as_hints(self, trace_pair):
        full, sampled = trace_pair
        report = compare_traces(full, sampled)
        dep = report.rows["dep"]
        assert dep.metrics["edges_sampled"] <= dep.metrics["edges_full"]
        assert any("under-approxim" in flag for flag in dep.flags)
        assert "min-distance" in report.to_text()

    def test_report_is_jsonable(self, trace_pair):
        full, sampled = trace_pair
        payload = json.dumps(compare_traces(full, sampled).to_dict())
        decoded = json.loads(payload)
        assert decoded["sampling"] == "interval:4"
        assert set(decoded["analyses"]) == {"hot", "locality", "dep"}

    def test_reservoir_scored_on_coverage(self, tmp_path):
        full = tmp_path / "full.trace"
        sampled = tmp_path / "res.trace"
        record_source(PROG, full)
        record_source(PROG, sampled, sampling="reservoir:32")
        report = compare_traces(str(full), str(sampled))
        assert report.rate is None
        hot = report.rows["hot"]
        assert "top_coverage" in hot.metrics
        assert any("reservoir" in flag for flag in hot.flags)

    def test_digest_mismatch_rejected(self, tmp_path):
        full = tmp_path / "full.trace"
        other = tmp_path / "other.trace"
        record_source(PROG, full)
        record_source(OTHER, other, sampling="interval:4")
        with pytest.raises(TraceError, match="not the same program"):
            compare_traces(str(full), str(other))

    def test_sampled_reference_rejected(self, trace_pair):
        full, sampled = trace_pair
        with pytest.raises(TraceError, match="itself sampled"):
            compare_traces(sampled, sampled)


#: The sampling target: traces at least this many times smaller than
#: the v1-equivalent recording, at no more than this hot-count and
#: locality hit-rate error.
TARGET_MIN_REDUCTION = 5.0
TARGET_MAX_ERROR = 0.05


def test_burst_sampling_meets_size_and_error_target(tmp_path):
    """``burst:500/1000`` meets the size/error target on three Table III
    workloads at scale 0.5 (reductions are about 96x, 89x and 66x)."""
    from repro.workloads import get
    from tests.trace.recording import v1_equivalent_bytes

    for name in ("197.parser", "bzip2", "ogg"):
        source = get(name, 0.5).source
        full = tmp_path / f"{name}-full.trace"
        sampled = tmp_path / f"{name}-burst.trace"
        recorded = record_source(source, full)
        kept = record_source(source, sampled, sampling="burst:500/1000")
        reduction = (v1_equivalent_bytes(full, recorded.events)
                     / kept.trace_bytes)
        report = compare_traces(str(full), str(sampled),
                                analyses=("hot", "locality"))
        hot = report.rows["hot"].metrics["count_error"]
        locality = report.rows["locality"].metrics["hit_rate_error"]
        assert reduction >= TARGET_MIN_REDUCTION, (name, reduction)
        assert hot is not None and hot <= TARGET_MAX_ERROR, (name, hot)
        assert locality <= TARGET_MAX_ERROR, (name, locality)
