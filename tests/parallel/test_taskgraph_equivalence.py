"""The shared task-graph collector against the per-event reference.

:func:`repro.parallel.taskgraph.extract_task_graphs` makes one pass for
every candidate and derives each candidate's dependences with numpy;
:mod:`tests.parallel.reference_taskgraph` runs one per-event tracer per
candidate with a dict tag shadow. Both must produce identical
:class:`TaskGraph` values — tasks, serial segments, both dependence
sets and both join maps — from a live run and from a recorded trace.

The hand-written programs below each pin one trap of the extraction
rules:

* tag boundaries follow event order, not timestamps (a construct pop
  and the next read can share a timestamp);
* only the outermost same-pc instance is a task (recursion);
* the induction skip set is rebuilt at each task start and persists
  through the serial segment after it;
* skipped accesses never touch the tag shadow, but frees clear it;
* a write's WAR edges come from every distinct reader tag since the
  last write, reads before a lifetime's first write included;
* frees carry no timestamp, only their place in the event stream;
* in replay, memory frames are synchronized only at structural events.
"""

from __future__ import annotations

import os
import tempfile

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.analysis.constructs import ConstructKind, ConstructTable
from repro.ir.lowering import compile_source, lower_program
from repro.lang.errors import SemanticError
from repro.lang.parser import parse_program
from repro.lang.pretty import pretty_print
from repro.parallel.taskgraph import (LiveSource, TraceSource,
                                      extract_task_graphs)
from repro.runtime.errors import MiniCRuntimeError, StepLimitExceeded
from repro.runtime.interpreter import DEFAULT_MAX_STEPS, Interpreter
from repro.runtime.tracing import NullTracer
from repro.trace.writer import record_program
from repro.workloads import EXTRA_ORDER, TABLE3_ORDER, get
from tests.lang.test_pretty import _programs
from tests.parallel.reference_taskgraph import reference_task_graphs

#: Generated programs may loop forever; cap them as the random-program
#: suite does.
STEP_CAP = 20_000

RECURSION = """
int acc[32];
int calls;
int walk(int n) {
    int s = 0;
    for (int i = 0; i < 3; i++) { acc[n] = acc[n] + i; s = s + acc[n]; }
    if (n > 0) s = s + walk(n - 1);
    calls = calls + 1;
    return s;
}
int main() {
    int t = 0;
    for (int k = 0; k < 4; k++) t = t + walk(k + 2);
    print(t, calls);
    return 0;
}
"""

FRAMES = """
int out[16];
int scratch(int k) {
    int tmp[4];
    int j = 0;
    while (j < 4) { tmp[j] = k * j; j++; }
    return tmp[3] + tmp[1];
}
int main() {
    int total = 0;
    for (int i = 0; i < 8; i++) {
        out[i] = scratch(i);
        total = total + out[i];
    }
    for (int i = 0; i < 8; i++) total = total + out[i];
    print(total);
    return 0;
}
"""

HEAP = """
int sum;
int main() {
    for (int i = 0; i < 6; i++) {
        int *p = malloc(4);
        p[1] = p[0] + sum;
        p[0] = i;
        sum = sum + p[0] + p[1];
        free(p);
    }
    print(sum);
    return 0;
}
"""

READS_FIRST = """
int a[8];
int b;
int main() {
    for (int r = 0; r < 3; r++) {
        for (int i = 0; i < 8; i++) { b = b + a[i]; }
        for (int i = 0; i < 8; i++) { if (i > r) a[i] = b; }
    }
    print(b);
    return 0;
}
"""

INDUCTION_AFTER = """
int out[8];
int main() {
    int i;
    for (i = 0; i < 6; i++) { out[i] = i * i; }
    int j = i;
    while (j > 0) { j--; out[j] = j; }
    print(j);
    return 0;
}
"""

# The inner activation's tasks write the outer ``i`` through ``p``;
# the outer ``return i`` reads it in the serial segment after the outer
# loop, where the outer induction skip set still holds.
INDUCTION_PERSISTS = """
int f(int n, int *p) {
    int i = 0;
    if (n > 0) f(n - 1, &i);
    while (i < 3 + 3 * n) { i++; *p = i; }
    return i;
}
int main() {
    int top = 0;
    print(f(2, &top), top);
    return 0;
}
"""

HAND_WRITTEN = {"recursion": RECURSION, "frames": FRAMES, "heap": HEAP,
                "reads_first": READS_FIRST,
                "induction_after": INDUCTION_AFTER,
                "induction_persists": INDUCTION_PERSISTS}


def _record(program, source: str, directory: str, max_steps: int) -> str:
    path = os.path.join(directory, "prog.trace")
    record_program(program, path, source=source, max_steps=max_steps)
    return path


def _assert_same(source, targets, auto_induction=True) -> None:
    expected = reference_task_graphs(source, targets, auto_induction)
    got = extract_task_graphs(source, targets, auto_induction)
    assert got.keys() == expected.keys()
    for pc, graph in got.items():
        want = expected[pc]
        assert graph.tasks == want.tasks, pc
        assert graph.serial == want.serial, pc
        assert graph.total_time == want.total_time, pc
        assert graph.task_deps == want.task_deps, pc
        assert graph.joins == want.joins, pc
        assert graph.anti_task_deps == want.anti_task_deps, pc
        assert graph.anti_joins == want.anti_joins, pc


def _both_sources(program, source: str, directory: str,
                  max_steps: int = DEFAULT_MAX_STEPS):
    yield LiveSource(program, max_steps)
    yield TraceSource(_record(program, source, directory, max_steps),
                      program)


class TestHandWritten:
    @pytest.mark.parametrize("name", sorted(HAND_WRITTEN))
    @pytest.mark.parametrize("auto_induction", [True, False])
    def test_every_construct(self, name, auto_induction, tmp_path):
        source = HAND_WRITTEN[name]
        program = compile_source(source)
        pcs = sorted(ConstructTable(program).by_pc)
        globals_ = tuple(v.name for v in program.globals_layout)
        for event_source in _both_sources(program, source, str(tmp_path)):
            _assert_same(event_source, {pc: () for pc in pcs},
                         auto_induction)
            _assert_same(event_source, {pc: globals_ for pc in pcs},
                         auto_induction)

    def test_recursive_target_yields_outermost_instances(self):
        program = compile_source(RECURSION)
        table = ConstructTable(program)
        walk = program.functions["walk"].entry_pc
        graph = extract_task_graphs(LiveSource(program), [walk])[walk]
        assert table.by_pc[walk].kind is ConstructKind.PROCEDURE
        assert len(graph.tasks) == 4  # one per call from main's loop


class TestFuzzedPrograms:
    @given(_programs, st.data())
    @settings(max_examples=150, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    def test_matches_reference(self, program_ast, data):
        source = pretty_print(program_ast)
        try:
            program = lower_program(parse_program(source))
        except SemanticError:
            return
        try:
            Interpreter(program, NullTracer(), STEP_CAP).run()
        except (MiniCRuntimeError, StepLimitExceeded):
            return
        names = [v.name for v in program.globals_layout]
        targets = {
            pc: tuple(data.draw(st.lists(st.sampled_from(names),
                                         unique=True, max_size=3)))
            for pc in sorted(ConstructTable(program).by_pc)}
        auto_induction = data.draw(st.booleans())
        with tempfile.TemporaryDirectory() as directory:
            for event_source in _both_sources(program, source, directory,
                                              STEP_CAP):
                _assert_same(event_source, targets, auto_induction)


@pytest.fixture(scope="module")
def trace_dir(tmp_path_factory):
    return str(tmp_path_factory.mktemp("golden-traces"))


class TestGoldenWorkloads:
    @pytest.mark.parametrize("workload",
                             list(TABLE3_ORDER) + list(EXTRA_ORDER))
    def test_loops_and_procedures(self, workload, trace_dir):
        source = get(workload, 0.25).source
        program = compile_source(source, workload)
        pcs = [pc for pc, c in sorted(ConstructTable(program).by_pc.items())
               if c.is_loop or c.kind is ConstructKind.PROCEDURE]
        directory = os.path.join(trace_dir, workload)
        os.makedirs(directory)
        for event_source in _both_sources(program, source, directory):
            _assert_same(event_source, {pc: () for pc in pcs})
