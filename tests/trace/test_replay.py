"""Replay engine: live-equivalence of the dependence profile, the
extra consumers, and the live/replay symmetry of consumers."""

from __future__ import annotations

import pytest

from repro.analyses.builtin import CountingAnalysis, LocalityAnalysis
from repro.core.alchemist import Alchemist
from repro.core.profile_data import DepKind
from repro.runtime.interpreter import run_source
from repro.trace import TraceError, TraceReader, record_source, replay_trace
from repro.trace.replay import ReplayEngine
from repro.workloads import get

#: Workloads for the replay-vs-live equivalence criterion: an array
#: workload with rich conflicts, a cipher, and a heap-heavy extra whose
#: malloc/free recycling stresses address-name reconstruction.
EQUIVALENCE_WORKLOADS = ["gzip", "aes", "wordcount"]

#: Equivalence is asserted at reduced scale to keep the suite quick;
#: the structure (edges, names, distances) is scale-stable.
SCALE = 0.25


def profile_signature(report):
    """Everything the acceptance criterion compares, canonically keyed:
    per-construct durations/instances and per-edge distances/hints."""
    signature = {}
    for pc, profile in report.store.profiles.items():
        edges = {
            (head, tail, kind.value): (stats.min_tdep, stats.count,
                                       stats.var_hint)
            for (head, tail, kind), stats in profile.edges.items()
        }
        signature[pc] = (profile.total_duration, profile.instances,
                         profile.max_duration, edges)
    return signature


@pytest.mark.parametrize("name", EQUIVALENCE_WORKLOADS)
class TestReplayEquivalence:
    def test_dependence_profile_identical(self, name, tmp_path):
        workload = get(name, SCALE)
        live = Alchemist().profile(workload.source)
        path = tmp_path / f"{name}.trace"
        record_source(workload.source, path)
        replayed = replay_trace(str(path), ("dep",)).results["dep"]

        assert profile_signature(live) == profile_signature(replayed)
        assert live.stats.instructions == replayed.stats.instructions
        assert (live.stats.dynamic_instances
                == replayed.stats.dynamic_instances)
        assert live.stats.raw_events == replayed.stats.raw_events
        assert live.stats.war_events == replayed.stats.war_events
        assert live.stats.waw_events == replayed.stats.waw_events
        assert live.exit_value == replayed.exit_value
        assert live.output == replayed.output

    def test_violating_edges_identical(self, name, tmp_path):
        """The paper-facing metric (Fig. 6 / Table IV) survives replay."""
        workload = get(name, SCALE)
        live = Alchemist().profile(workload.source)
        path = tmp_path / f"{name}.trace"
        record_source(workload.source, path)
        replayed = replay_trace(str(path), ("dep",)).results["dep"]
        for kind in DepKind:
            live_counts = {pc: p.violating_count(kind)
                           for pc, p in live.store.profiles.items()}
            replay_counts = {pc: p.violating_count(kind)
                             for pc, p in replayed.store.profiles.items()}
            assert live_counts == replay_counts


class TestMultiConsumer:
    def test_one_pass_feeds_many_analyses(self, tmp_path):
        workload = get("gzip", SCALE)
        path = tmp_path / "gzip.trace"
        record_source(workload.source, path)
        outcome = replay_trace(str(path),
                               ("dep", "locality", "hot", "counts"))
        assert set(outcome.results) == {"dep", "locality", "hot", "counts"}

        counts = outcome.results["counts"]
        locality = outcome.results["locality"]
        assert locality.accesses == counts["reads"] + counts["writes"]
        assert locality.cold_misses == locality.distinct_addresses
        assert sum(locality.histogram.values()) + locality.cold_misses \
            == locality.accesses

        hot = outcome.results["hot"]
        assert hot, "expected at least one hot address"
        assert hot[0].total >= hot[-1].total
        total_hot = sum(row.total for row in hot)
        assert total_hot <= locality.accesses

    def test_hot_addresses_name_globals(self, tmp_path):
        source = """
int counter;
int main() {
    for (int i = 0; i < 30; i++) {
        counter += i;
    }
    print(counter);
    return 0;
}
"""
        path = tmp_path / "hot.trace"
        record_source(source, path)
        hot = replay_trace(str(path), ("hot",)).results["hot"]
        names = [row.name for row in hot]
        assert "counter" in names

    def test_describe_renders(self, tmp_path):
        workload = get("aes", SCALE)
        path = tmp_path / "aes.trace"
        record_source(workload.source, path)
        outcome = replay_trace(str(path), ("dep", "locality", "hot"))
        text = outcome.describe()
        assert "Reuse-distance profile" in text
        assert "Hottest addresses" in text


class TestLocalityExactness:
    def test_matches_bruteforce_reuse_distance(self):
        """Kernel reuse distances == brute-force distinct counting."""
        import random

        rng = random.Random(1234)
        accesses = [rng.randrange(60) for _ in range(2500)]
        consumer = LocalityAnalysis()
        expected_hist: dict[int, int] = {}
        expected_cold = 0
        last_index: dict[int, int] = {}
        for i, addr in enumerate(accesses):
            consumer.on_read(addr, 0, i)
            if addr in last_index:
                distance = len(set(accesses[last_index[addr] + 1:i]))
                bucket = distance.bit_length()
                expected_hist[bucket] = expected_hist.get(bucket, 0) + 1
            else:
                expected_cold += 1
            last_index[addr] = i
        assert consumer.stats.cold_misses == expected_cold
        assert consumer.stats.histogram == expected_hist

    def test_hit_fraction_bounds(self):
        consumer = LocalityAnalysis()
        for i, addr in enumerate([1, 2, 1, 2, 1, 2]):
            consumer.on_write(addr, 0, i)
        stats = consumer.stats
        stats.distinct_addresses = 2
        assert stats.hit_fraction(64) == 1.0
        assert 0.0 <= stats.hit_fraction(1) <= 1.0


class TestConsumerSymmetry:
    """Consumers double as live tracers; live and replay must agree."""

    @pytest.mark.parametrize("consumer_cls",
                             [CountingAnalysis, LocalityAnalysis])
    def test_live_equals_replay(self, consumer_cls, tmp_path):
        workload = get("aes", SCALE)
        live = consumer_cls()
        run_source(workload.source, tracer=live)

        path = tmp_path / "aes.trace"
        record_source(workload.source, path)
        outcome = replay_trace(str(path), (consumer_cls.name,))
        replayed = outcome.results[consumer_cls.name]

        if consumer_cls is CountingAnalysis:
            assert live.counts == replayed
        else:
            assert live.stats == replayed


class TestEngineValidation:
    def test_unknown_analysis_rejected(self, tmp_path):
        path = tmp_path / "x.trace"
        record_source("int main() { return 0; }", path)
        with pytest.raises(TraceError, match="unknown analysis"):
            replay_trace(str(path), ("nope",))

    def test_no_analyses_rejected(self, tmp_path):
        path = tmp_path / "x.trace"
        record_source("int main() { return 0; }", path)
        with pytest.raises(TraceError, match="no analyses"):
            replay_trace(str(path), "")

    def test_replay_reconstructs_heap_names(self, tmp_path):
        """Heap recycling must replay deterministically (name check)."""
        source = """
int main() {
    int total = 0;
    for (int i = 0; i < 5; i++) {
        int *p = malloc(8);
        p[3] = i;
        total += p[3];
        free(p);
    }
    print(total);
    return 0;
}
"""
        path = tmp_path / "heap.trace"
        record_source(source, path)
        live = Alchemist().profile(source)
        replayed = replay_trace(str(path), ("dep",)).results["dep"]
        assert profile_signature(live) == profile_signature(replayed)

    def test_corrupt_digest_rejected(self, tmp_path):
        """A header whose digest does not match the embedded source."""
        from repro.trace.events import MAGIC, TraceHeader, pack_length

        path = tmp_path / "x.trace"
        record_source("int main() { return 0; }", path)
        blob = path.read_bytes()
        with TraceReader(str(path)) as reader:
            header = reader.header
            events_start = reader._events_start
        header.digest = "0" * 64
        new_blob = header.to_bytes()
        forged = (blob[:len(MAGIC) + 2] + pack_length(len(new_blob))
                  + new_blob + blob[events_start:])
        bad = tmp_path / "forged.trace"
        bad.write_bytes(forged)
        with pytest.raises(TraceError, match="digest"):
            replay_trace(str(bad), ("counts",))

    def test_engine_runs_with_no_consumers(self, tmp_path):
        path = tmp_path / "x.trace"
        result = record_source("int main() { return 0; }", path)
        with TraceReader(str(path)) as reader:
            ctx = ReplayEngine(reader).run([])
        assert ctx.events == result.events
        assert ctx.final_time == result.final_time
