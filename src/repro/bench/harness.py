"""Experiment drivers behind every table and figure."""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.alchemist import Alchemist, ProfileOptions
from repro.core.profile_data import DepKind
from repro.core.report import ConflictCounts, Fig6Row, ProfileReport
from repro.ir.lowering import compile_source
from repro.parallel.estimator import SpeedupResult, estimate_speedup
from repro.workloads import all_workloads, get
from repro.workloads.base import Workload


@dataclass
class WorkloadRun:
    """One profiled workload plus its baseline timing."""

    workload: Workload
    report: ProfileReport

    @property
    def slowdown(self) -> float | None:
        return self.report.stats.slowdown


def profile_workload(workload: Workload, *, measure_baseline: bool = True,
                     pool_size: int = 4096,
                     track_war_waw: bool = True) -> WorkloadRun:
    """Profile one workload (optionally timing the uninstrumented run)."""
    options = ProfileOptions(pool_size=pool_size,
                             track_war_waw=track_war_waw,
                             measure_baseline=measure_baseline)
    report = Alchemist(options).profile(workload.source)
    return WorkloadRun(workload, report)


# ---------------------------------------------------------------------------
# Table III — benchmarks, construct counts, runtimes
# ---------------------------------------------------------------------------

@dataclass
class Table3Row:
    """One measured row next to the paper's."""

    name: str
    loc: int
    static: int
    dynamic: int
    orig_seconds: float
    prof_seconds: float
    paper_loc: str
    paper_static: int
    paper_dynamic: int
    paper_orig: float
    paper_prof: float

    @property
    def slowdown(self) -> float:
        if self.orig_seconds <= 0:
            return float("nan")
        return self.prof_seconds / self.orig_seconds

    @property
    def paper_slowdown(self) -> float:
        return self.paper_prof / self.paper_orig


def table3_rows(scale: float = 1.0,
                names: list[str] | None = None) -> list[Table3Row]:
    """Measure the Table III columns for every workload."""
    rows = []
    workloads = (all_workloads(scale) if names is None
                 else [get(n, scale) for n in names])
    for workload in workloads:
        run = profile_workload(workload, measure_baseline=True)
        stats = run.report.stats
        paper = workload.paper
        rows.append(Table3Row(
            name=workload.name,
            loc=workload.loc,
            static=stats.static_constructs,
            dynamic=stats.dynamic_instances,
            orig_seconds=stats.baseline_seconds or 0.0,
            prof_seconds=stats.wall_seconds,
            paper_loc=paper.loc,
            paper_static=paper.static_constructs,
            paper_dynamic=paper.dynamic_constructs,
            paper_orig=paper.orig_seconds,
            paper_prof=paper.prof_seconds,
        ))
    return rows


# ---------------------------------------------------------------------------
# Table IV — conflicts at the parallelized locations
# ---------------------------------------------------------------------------

@dataclass
class Table4Row:
    name: str
    location: str
    raw: int
    waw: int
    war: int
    paper_raw: int
    paper_waw: int
    paper_war: int


#: Workloads appearing in the paper's Table IV.
TABLE4_WORKLOADS = ["bzip2", "ogg", "aes", "par2"]


def table4_rows(scale: float = 1.0) -> list[Table4Row]:
    """Violating static dependence counts at each parallelized location."""
    rows = []
    for name in TABLE4_WORKLOADS:
        workload = get(name, scale)
        run = profile_workload(workload, measure_baseline=False)
        for target, line in workload.target_lines():
            counts: ConflictCounts = run.report.location_conflicts(line)
            rows.append(Table4Row(
                name=workload.name,
                location=counts.location,
                raw=counts.raw,
                waw=counts.waw,
                war=counts.war,
                paper_raw=target.paper_raw,
                paper_waw=target.paper_waw,
                paper_war=target.paper_war,
            ))
    return rows


# ---------------------------------------------------------------------------
# Table V — parallelization speedups
# ---------------------------------------------------------------------------

@dataclass
class Table5Row:
    name: str
    t_seq: int
    t_par: int
    speedup: float
    paper_seq: float
    paper_par: float
    paper_speedup: float
    result: SpeedupResult


#: Workloads appearing in the paper's Table V.
TABLE5_WORKLOADS = ["bzip2", "ogg", "par2", "aes"]


def table5_rows(scale: float = 1.0, workers: int = 4,
                privatize: bool = True) -> list[Table5Row]:
    """Simulated speedups for the paper's four parallelized programs."""
    rows = []
    for name in TABLE5_WORKLOADS:
        workload = get(name, scale)
        target, line = workload.primary_target()
        program = compile_source(workload.source)
        private = target.private_vars if privatize else ()
        result = estimate_speedup(program=program, line=line,
                                  workers=workers, privatize=privatize,
                                  private_vars=private)
        paper = workload.paper_speedup
        rows.append(Table5Row(
            name=workload.name,
            t_seq=result.t_seq,
            t_par=result.t_par,
            speedup=result.speedup,
            paper_seq=paper.seq_seconds,
            paper_par=paper.par_seconds,
            paper_speedup=paper.speedup,
            result=result,
        ))
    return rows


# ---------------------------------------------------------------------------
# Fig. 2 / Fig. 3 — the gzip profile listing
# ---------------------------------------------------------------------------

def gzip_profile_listing(scale: float = 1.0) -> tuple[ProfileReport, str]:
    """The gzip profile in the paper's Fig. 2/3 presentation."""
    from repro.bench.figures import render_profile_listing

    workload = get("gzip", scale)
    run = profile_workload(workload, measure_baseline=False)
    return run.report, render_profile_listing(run.report)


# ---------------------------------------------------------------------------
# Fig. 6 — size vs. violating static RAW dependences
# ---------------------------------------------------------------------------

@dataclass
class Fig6Panel:
    title: str
    rows: list[Fig6Row]
    note: str = ""


def fig6_data(scale: float = 1.0, top: int = 12) -> dict[str, Fig6Panel]:
    """All four Fig. 6 panels plus the Delaunay observation."""
    panels: dict[str, Fig6Panel] = {}

    gzip_run = profile_workload(get("gzip", scale), measure_baseline=False)
    report = gzip_run.report
    panels["a"] = Fig6Panel(
        title="Fig 6(a) gzip",
        rows=report.fig6_series(top),
    )
    # Fig 6(b): remove the parallelized C1 and every construct with one
    # instance per C1 instance, then look again.
    c1 = report.fig6_series(1)[0].view.pc
    removed = {c1} | report.nested_singletons(c1)
    panels["b"] = Fig6Panel(
        title="Fig 6(b) gzip after removing C1 and nested singletons",
        rows=report.fig6_series(top, exclude=removed),
        note=f"removed {len(removed)} construct(s)",
    )

    parser_run = profile_workload(get("197.parser", scale),
                                  measure_baseline=False)
    panels["c"] = Fig6Panel(
        title="Fig 6(c) 197.parser",
        rows=parser_run.report.fig6_series(top),
        note="C1/C2 (dictionary) are I/O bound despite low violations",
    )

    lisp_run = profile_workload(get("130.li", scale),
                                measure_baseline=False)
    panels["d"] = Fig6Panel(
        title="Fig 6(d) 130.lisp",
        rows=lisp_run.report.fig6_series(top),
        note="C1=xlload (initial call + one per batch iteration)",
    )

    delaunay_run = profile_workload(get("delaunay", scale),
                                    measure_baseline=False)
    refine = max((v for v in delaunay_run.report.constructs()
                  if v.static.is_loop),
                 key=lambda v: v.total_duration)
    panels["delaunay"] = Fig6Panel(
        title="Delaunay (negative control, §IV-B.1)",
        rows=delaunay_run.report.fig6_series(top),
        note=(f"hottest loop carries "
              f"{refine.violating_count(DepKind.RAW)} violating static "
              "RAW dependences"),
    )
    return panels
