"""The program set, the four closed-loop workloads and their result gate.

One op runs one program through one user-facing entry point of
:mod:`repro.api`. A workload owns what its op needs across ops (the
warm session) and checks every op's result against a reference the
benchmark did not produce with the op under test:

* ``cold``, ``live`` and ``warm`` compare ``to_dict()`` with the
  committed ``tests/golden/<name>.json`` snapshot (scale 0.25);
* ``sharded`` compares with a serial replay of the same recording,
  computed before the timed loop;
* every workload compares the program's output and exit value with a
  bare :class:`~repro.runtime.interpreter.Interpreter` run under
  :class:`~repro.runtime.tracing.NullTracer` (the profiler must be
  transparent to the program it measures).
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

ROOT = Path(__file__).resolve().parent.parent
GOLDEN_DIR = ROOT / "tests" / "golden"

#: The 8 Table III ports plus the two heap workloads, in registry order.
#: Each pass runs every program once, in a seed-shuffled order.
PROGRAMS = ("197.parser", "bzip2", "gzip", "130.li", "ogg", "aes", "par2",
            "delaunay", "wordcount", "lisp-cons")

#: The scale of the committed goldens.
GOLDEN_SCALE = 0.25


def canonical(payload: Any) -> Any:
    """A result as the golden files hold it (JSON types, sorted keys)."""
    return json.loads(json.dumps(payload, sort_keys=True))


def digest(payload: Any) -> str:
    return hashlib.sha256(
        json.dumps(payload, sort_keys=True).encode()).hexdigest()[:16]


@dataclass
class Program:
    """One benchmark program and the references its ops are gated on."""

    name: str
    source: str
    #: Trace events one execution emits (the throughput unit).
    events: int = 0
    trace_bytes: int = 0
    #: Bare-interpreter output and exit value (transparency reference).
    output: list = field(default_factory=list)
    exit_value: int = 0
    #: Expected canonical ``to_dict()`` per analysis name.
    expected: dict[str, Any] = field(default_factory=dict)


def _outputs(rows) -> list:
    return [list(row) for row in rows]


def load_golden(name: str) -> dict[str, Any]:
    """The committed golden analyses of one program (scale 0.25)."""
    path = GOLDEN_DIR / f"{name.replace('.', '_')}.json"
    with open(path) as handle:
        payload = json.load(handle)
    if payload.get("scale") != GOLDEN_SCALE:
        raise ValueError(f"{path}: golden scale {payload.get('scale')}, "
                         f"expected {GOLDEN_SCALE}")
    return payload["analyses"]


def build_programs(names, scale: float,
                   replay=None) -> dict[str, Program]:
    """Generate each program's MiniC source and its reference facts:
    event count and trace size of a default recording, and the bare
    interpreter's output. ``replay(program, path)``, if given, runs
    while that recording exists."""
    from repro.api import Session
    from repro.ir.lowering import compile_source
    from repro.runtime.interpreter import Interpreter
    from repro.runtime.tracing import NullTracer
    from repro.trace.reader import TraceReader
    from repro.workloads import get

    programs = {}
    with Session() as session:
        for name in names:
            source = get(name, scale).source
            interp = Interpreter(compile_source(source, name), NullTracer())
            exit_value = interp.run()
            path = session.record(source, name)
            with TraceReader(path) as reader:
                events = reader.read_footer().events
            programs[name] = Program(
                name=name, source=source, events=events,
                trace_bytes=os.path.getsize(path),
                output=_outputs(interp.output), exit_value=exit_value)
            if replay is not None:
                replay(programs[name], path)
    return programs


class Workload:
    """One closed-loop workload: a client runs one op at a time."""

    name = ""
    scale = GOLDEN_SCALE
    #: Analyses whose ``to_dict()`` the gate compares.
    checked: tuple[str, ...] = ()
    #: Whether the op records or reads a trace (trace_bytes_per_ev).
    uses_trace = True
    #: Replay processes per op; with more than one, peak memory counts
    #: the largest worker too.
    jobs = 1
    #: Passes always run, even past ``--seconds``, so the tail
    #: percentile below has at least ten ops beyond it.
    min_passes = 4
    #: Fixed tail percentile over the per-program median latencies:
    #: p75 is the 8th of 10 programs, with the ops of the two slower
    #: programs and half its own (10 at four passes) beyond it. A fixed
    #: percentile keeps the tail on the same program when a faster
    #: build completes more passes.
    tail_pct = 75

    def build(self, names) -> dict[str, Program]:
        """The programs at this workload's scale, with their references."""
        programs = build_programs(names, self.scale)
        self.references(programs)
        return programs

    def references(self, programs: dict[str, Program]) -> None:
        for program in programs.values():
            golden = load_golden(program.name)
            program.expected = {name: golden[name] for name in self.checked}

    def setup(self, programs: dict[str, Program]) -> None:
        """Per-run set-up that is timed as part of ``setup_s``."""

    def op(self, program: Program, telemetry=None):
        raise NotImplementedError

    def results(self, result) -> dict[str, Any]:
        """Map an op's return value to ``{analysis: AnalysisResult}``."""
        return dict(result.results)

    def check(self, program: Program, result) -> tuple[list[str], str]:
        """Gate one op's result; returns (mismatches, result digest)."""
        problems = []
        results = self.results(result)
        got = {name: canonical(results[name].to_dict())
               for name in self.checked}
        for name in self.checked:
            if got[name] != program.expected[name]:
                problems.append(f"{program.name}: {name} result differs "
                                "from its reference")
        # Every checked analysis carries the dependence ProfileReport
        # (dep, whatif) or no payload (locality).
        report = results[self.checked[0]].payload
        if (_outputs(report.output) != program.output
                or report.exit_value != program.exit_value):
            problems.append(f"{program.name}: program output differs from "
                            "the bare interpreter run")
        return problems, digest(got)

    def close(self) -> None:
        """Release what ``setup`` acquired."""


class Cold(Workload):
    """``alchemist analyze FILE -a dep,locality``: compile, record,
    replay and finish on the blocking path of every op."""

    name = "cold"
    checked = ("dep", "locality")

    def op(self, program, telemetry=None):
        from repro.api import Session

        with Session(telemetry=telemetry) as session:
            return session.analyze(program.source, ["dep", "locality"],
                                   filename=program.name)


class Live(Workload):
    """``alchemist analyze FILE --live``: dep runs per event inside the
    interpreter; no trace layer is on the path."""

    name = "live"
    checked = ("dep",)
    uses_trace = False

    def op(self, program, telemetry=None):
        from repro.api import Session

        with Session(telemetry=telemetry) as session:
            return session.analyze(program.source, ["dep"],
                                   filename=program.name, mode="live")


class Warm(Workload):
    """``alchemist advise FILE`` on a cached trace: one session records
    every program during set-up, so ops decode, replay dep and run the
    what-if sweep without interpreting. Set-up also advises each
    program once, which fills the session's per-program caches (the
    static dependence report) that every later advise reuses."""

    name = "warm"
    checked = ("whatif",)
    session = None

    def setup(self, programs):
        from repro.api import Session

        self.close()
        self.session = Session()
        for program in programs.values():
            self.session.record(program.source, program.name)
            self.session.advise(program.source, filename=program.name)

    def op(self, program, telemetry=None):
        from repro.telemetry import as_telemetry

        self.session.telemetry = as_telemetry(telemetry)
        try:
            return self.session.advise(program.source,
                                       filename=program.name)
        finally:
            self.session.telemetry = as_telemetry(None)

    def results(self, result):
        return {"whatif": result}

    def close(self):
        if self.session is not None:
            self.session.close()
            self.session = None


class Sharded(Workload):
    """``alchemist analyze FILE -a dep,locality --jobs 2`` at scale 1.0,
    where most programs cross a checkpoint seam and shard; the rest
    take the serial fallback."""

    name = "sharded"
    scale = 1.0
    checked = ("dep", "locality")
    jobs = 2

    def build(self, names):
        # The reference is a serial replay of the recording the
        # programs are built from.
        return build_programs(names, self.scale, self._reference)

    def _reference(self, program, path):
        from repro.trace.replay import replay_trace

        outcome = replay_trace(path, self.checked)
        program.expected = {name: canonical(outcome.reports[name].to_dict())
                            for name in self.checked}

    def op(self, program, telemetry=None):
        from repro.api import Session
        from repro.core.alchemist import ProfileOptions

        with Session(ProfileOptions(jobs=self.jobs),
                     telemetry=telemetry) as session:
            return session.analyze(program.source, ["dep", "locality"],
                                   filename=program.name)


WORKLOADS = {cls.name: cls for cls in (Cold, Live, Warm, Sharded)}
