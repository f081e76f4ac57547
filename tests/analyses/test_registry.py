"""The unified analysis registry: registration rules, option schemas,
and — the keystone — live-vs-replay parity for *every* registered
analysis, parametrized over the registry so future plugins are covered
automatically."""

from __future__ import annotations

import pytest

from repro.analyses import (Analysis, AnalysisError, AnalysisResult,
                            analysis_names, get_analysis, make_analyses,
                            register, registry, unregister)
from repro.api import Session

#: Functions + nested loops + heap recycling: stresses every hook the
#: builtin analyses consume, including address-name reconstruction.
PARITY_SOURCE = """
int table[64];
int total;

int stir(int v) {
    total = (total * 17 + v) % 9973;
    return total;
}

int main() {
    for (int round = 0; round < 4; round++) {
        int *block = malloc(8);
        for (int i = 0; i < 32; i++) {
            block[i % 8] = table[(i + 5) % 64] + round;
            table[i % 64] = stir(block[i % 8]);
        }
        free(block);
    }
    print(total);
    return 0;
}
"""


class TestRegistration:
    def test_builtins_registered(self):
        assert {"dep", "locality", "hot", "counts", "flat",
                "context"} <= set(analysis_names())

    def test_duplicate_name_rejected(self):
        with pytest.raises(AnalysisError, match="duplicate analysis"):
            @register
            class Duplicate(Analysis):
                name = "dep"

    def test_missing_name_rejected(self):
        with pytest.raises(AnalysisError, match="non-empty 'name'"):
            @register
            class Nameless(Analysis):
                pass

    def test_non_analysis_rejected(self):
        with pytest.raises(AnalysisError, match="Analysis subclass"):
            register(dict)

    def test_register_then_unregister(self):
        @register
        class Scratch(Analysis):
            name = "scratch-registry-test"

            def finish(self, ctx):
                return AnalysisResult(self.name, {}, "")

        try:
            assert get_analysis("scratch-registry-test") is Scratch
            assert "scratch-registry-test" in registry()
        finally:
            unregister("scratch-registry-test")
        assert "scratch-registry-test" not in analysis_names()

    def test_registry_view_is_read_only(self):
        with pytest.raises(TypeError):
            registry()["evil"] = Analysis

    def test_reserved_data_key_rejected(self):
        with pytest.raises(AnalysisError, match="reserved"):
            AnalysisResult(analysis="x", data={"analysis": "evil"},
                           text="")

    def test_legacy_result_protocol_still_replays(self, tmp_path):
        """A pre-registry consumer (old ``result()``/``describe()``
        protocol, reads ``ctx.footer``) must still run end to end."""
        from repro.trace import record_source, replay_trace

        class OldStyle(Analysis):
            name = "old-style-test"

            def __init__(self):
                self.reads = 0

            def on_read(self, addr, pc, timestamp):
                self.reads += 1

            def result(self, ctx):
                return {"reads": self.reads,
                        "exit": ctx.footer.exit_value}

            def describe(self, outcome):
                return f"old-style: {outcome['reads']} reads"

        path = tmp_path / "legacy.trace"
        record_source("int main() { int x = 1; return x; }", path)
        register(OldStyle)
        try:
            outcome = replay_trace(str(path), ("old-style-test",))
            payload = outcome.results["old-style-test"]
            assert payload["reads"] > 0
            assert payload["exit"] == 1
            assert "old-style:" in outcome.describe()
        finally:
            unregister("old-style-test")


class TestHookCoverage:
    def test_replay_dispatch_covers_every_tracer_hook(self):
        """A hook added to Tracer must reach both engines — otherwise
        live and replay silently diverge for analyses using it."""
        from repro.runtime.tracing import TRACER_HOOKS
        from repro.trace.replay import DISPATCHED_HOOKS

        assert set(DISPATCHED_HOOKS) == set(TRACER_HOOKS)


class TestLookup:
    def test_unknown_analysis_lists_every_valid_name(self):
        with pytest.raises(AnalysisError) as excinfo:
            get_analysis("nope")
        message = str(excinfo.value)
        assert "unknown analysis 'nope'" in message
        for name in analysis_names():
            assert name in message

    def test_empty_spec_rejected(self):
        with pytest.raises(AnalysisError, match="no analyses"):
            make_analyses("")

    def test_duplicate_request_rejected(self):
        with pytest.raises(AnalysisError, match="twice"):
            make_analyses("dep,dep")

    def test_spec_parsing_string_and_iterable(self):
        from_string = make_analyses("dep, locality")
        from_list = make_analyses(["dep", "locality"])
        assert [a.name for a in from_string] == ["dep", "locality"]
        assert [a.name for a in from_list] == ["dep", "locality"]


class TestOptions:
    def test_options_reach_the_instance(self):
        (hot,) = make_analyses("hot", {"hot": {"top": 3}})
        assert hot.top == 3

    def test_string_values_coerced(self):
        (hot,) = make_analyses("hot", {"hot": {"top": "7"}})
        assert hot.top == 7
        (dep,) = make_analyses("dep", {"dep": {"track_war_waw": "false"}})
        assert dep.track_war_waw is False

    def test_unknown_option_lists_valid_ones(self):
        with pytest.raises(AnalysisError, match="pool_size"):
            make_analyses("dep", {"dep": {"bogus": 1}})

    def test_uncoercible_value_rejected(self):
        with pytest.raises(AnalysisError, match="expects int"):
            make_analyses("hot", {"hot": {"top": "many"}})

    def test_schemas_are_described(self):
        dep = get_analysis("dep")
        assert dep.description
        assert "pool_size" in dep.option_names()


@pytest.mark.parametrize("name", sorted(analysis_names()))
class TestLiveReplayParity:
    """Acceptance criterion: every registered analysis produces
    identical ``to_dict()`` output live and from a recorded trace."""

    def test_to_dict_parity(self, name, tmp_path):
        cls = get_analysis(name)
        if cls.requires_live:
            pytest.skip(f"{name} cannot run from a trace")
        with Session(cache_dir=str(tmp_path)) as session:
            live = session.analyze(PARITY_SOURCE, [name],
                                   mode="live")[name]
            replayed = session.analyze(PARITY_SOURCE, [name],
                                       mode="replay")[name]
        assert live.to_dict() == replayed.to_dict()
        assert live.analysis == replayed.analysis == name
        # The rendered views must agree too (they derive from data).
        assert live.to_json() == replayed.to_json()

    def test_result_shape(self, name, tmp_path):
        cls = get_analysis(name)
        if cls.requires_live:
            pytest.skip(f"{name} cannot run from a trace")
        with Session(cache_dir=str(tmp_path)) as session:
            result = session.analyze(PARITY_SOURCE, [name])[name]
        assert isinstance(result, AnalysisResult)
        assert result.to_dict()["analysis"] == name
        assert isinstance(result.to_text(), str) and result.to_text()
        import json

        assert json.loads(result.to_json())["analysis"] == name
