"""Smoke-scale checks of the benchmark itself: two or three small
programs, one or two passes.

Run from the repository root::

    python3 -m pytest perfbench/tests -q
"""

import json

import pytest

import hostspeed
import layers
import run
import workloads

SMOKE = ("aes", "130.li", "lisp-cons")


@pytest.fixture
def smoke(monkeypatch):
    monkeypatch.setattr(workloads, "PROGRAMS", SMOKE)
    monkeypatch.setattr(workloads.Live, "min_passes", 1)


@pytest.mark.parametrize("reference", ["analysis", "program output"])
def test_a_perturbed_reference_fails_the_run(smoke, monkeypatch, capsys,
                                             reference):
    load_golden = workloads.load_golden
    build_programs = workloads.build_programs

    def perturbed_golden(name):
        golden = load_golden(name)
        if name == "aes":
            golden["dep"]["instructions"] += 1
        return golden

    def perturbed_output(names, scale):
        programs = build_programs(names, scale)
        programs["aes"].output.append([0])
        return programs

    if reference == "analysis":
        monkeypatch.setattr(workloads, "load_golden", perturbed_golden)
    else:
        monkeypatch.setattr(workloads, "build_programs", perturbed_output)
    code = run.main(["--workload", "live", "--seed", "1", "--seconds", "0",
                     "--trace", "0"])
    captured = capsys.readouterr()
    result = json.loads(captured.out.strip().splitlines()[-1])
    assert code != 0
    assert result["attempted"] == len(SMOKE)
    assert result["failed"] == 1 and result["correct"] is False
    assert "FAILED aes" in captured.err


def test_seed_changes_only_the_order_of_ops():
    programs = workloads.build_programs(SMOKE, workloads.GOLDEN_SCALE)
    workload = workloads.Live()
    workload.min_passes = 2
    workload.references(programs)
    first, _, _ = run.measure(workload, programs, seed=1, seconds=0)
    second, _, _ = run.measure(workload, programs, seed=2, seconds=0)
    assert all(op.ok for op in first + second)
    assert [op.program for op in first] != [op.program for op in second]
    assert (sorted((op.program, op.digest) for op in first)
            == sorted((op.program, op.digest) for op in second))


def test_self_time_subtracts_child_spans_and_aggregates():
    log = layers.SpanLog()
    log.spans = [["api.op", 0.0, 10.0, None],
                 ["trace.dispatch", 1.0, 7.0, 0],
                 ["analyses.dep.finish", 7.0, 9.0, 0],
                 ["staticdep.fuse", 7.5, 8.0, 2]]
    log.totals = {(1, "trace.decode"): [1.5, 3],
                  (1, "analyses.dep.consume"): [2.5, 9]}
    got = layers.attribute(log, {})
    assert got == pytest.approx({"trace.dispatch": 2.0,
                                 "trace.decode": 1.5,
                                 "analyses.dep.consume": 2.5,
                                 "analyses.dep.finish": 1.5,
                                 "staticdep.fuse": 0.5})


def test_normalization_follows_phases_not_single_stalls():
    nominal = hostspeed.NOMINAL_S
    walls = [0.1] * 8
    # A steady host at the nominal speed: normalized equals wall.
    assert hostspeed.normalized(walls, [nominal] * 9) == pytest.approx(walls)
    # One stalled reference run moves no op.
    stalled = [nominal] * 9
    stalled[4] = 10 * nominal
    assert hostspeed.normalized(walls, stalled) == pytest.approx(walls)
    # A host twice as slow for the whole window scales by 2 ** EXPONENT.
    slow = hostspeed.normalized([0.2] * 8, [2 * nominal] * 9)
    assert slow == pytest.approx([0.2 / 2 ** hostspeed.EXPONENT] * 8)
