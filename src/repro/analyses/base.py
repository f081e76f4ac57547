"""The unified analysis protocol: one plugin surface, three run modes.

Every analysis — the Alchemist dependence profiler, the replay
consumers, the comparison baselines, and anything a user registers — is
a single kind of object: an :class:`Analysis`, which is an ordinary
:class:`~repro.runtime.tracing.Tracer` (so it can be attached to a live
interpreter run) plus a :meth:`~Analysis.finish` method that turns the
accumulated state into a structured :class:`AnalysisResult` once the
event stream ends. Because recorded traces replay the exact same hook
stream, the same instance runs unchanged

* **live** — attached to an interpreter (one run feeds N analyses
  through :class:`~repro.runtime.tracing.TeeTracer`);
* **from a trace** — driven by
  :class:`~repro.trace.replay.ReplayEngine`, no re-execution;
* **in batch** — the ``multiprocessing`` driver resolves names through
  this registry too.

Plugins self-describe: a ``name``, a one-line ``description``, and an
``options`` schema (:class:`OptionSpec` tuple) that the CLI and
:func:`make_analyses` validate against. Registration is decorator
based::

    from repro.analyses import Analysis, AnalysisResult, register

    @register
    class BranchCount(Analysis):
        name = "branches"
        description = "Count taken branches"

        def __init__(self):
            self.taken = 0

        def on_branch(self, pc, target_block, timestamp):
            self.taken += 1

        def finish(self, ctx):
            return AnalysisResult(
                analysis=self.name,
                data={"taken": self.taken},
                text=f"branches taken: {self.taken}")

and from that moment ``Session.analyze(src, ["branches"])``,
``alchemist analyze --analysis branches`` and
``alchemist replay --analysis branches`` all work — including the
registry-parametrized live-vs-replay parity test, which picks the new
plugin up automatically.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Any, Iterable, Mapping

from repro.ir.cfg import ProgramIR
from repro.runtime.memory import Memory
from repro.runtime.tracing import Tracer, overridden_hooks


class AnalysisError(Exception):
    """Bad analysis name, duplicate registration, or invalid options."""


@dataclass(frozen=True)
class OptionSpec:
    """One tunable knob in an analysis's options schema."""

    name: str
    type: type = int
    default: Any = None
    help: str = ""

    def coerce(self, value: Any) -> Any:
        """Validate/convert ``value`` (CLI hands strings through)."""
        if isinstance(value, self.type):
            return value
        try:
            if self.type is bool and isinstance(value, str):
                lowered = value.strip().lower()
                if lowered in ("1", "true", "yes", "on"):
                    return True
                if lowered in ("0", "false", "no", "off"):
                    return False
                raise ValueError(value)
            return self.type(value)
        except (TypeError, ValueError):
            raise AnalysisError(
                f"option {self.name!r} expects {self.type.__name__}, "
                f"got {value!r}") from None


@dataclass
class AnalysisResult:
    """Structured output of one analysis over one event stream.

    ``data`` is the canonical, JSON-able payload — deterministic for a
    given event stream, so a live run and a replay of its recording
    produce *equal* ``to_dict()`` values (the registry parity test
    asserts exactly this). ``payload`` optionally carries the rich
    in-process object (e.g. a ``ProfileReport``) for callers that want
    more than the serialized view; it never enters ``to_dict()``.
    """

    analysis: str
    data: dict[str, Any]
    text: str
    payload: Any = None

    def __post_init__(self) -> None:
        if "analysis" in self.data:
            raise AnalysisError(
                f"analysis {self.analysis!r}: 'analysis' is a reserved "
                "data key (it labels the result in to_dict())")

    def to_dict(self) -> dict[str, Any]:
        return {"analysis": self.analysis, **self.data}

    def to_json(self, indent: int | None = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)

    def to_text(self) -> str:
        return self.text


@dataclass
class SegmentSeed:
    """Checkpoint-derived state handed to :meth:`Analysis.begin_segment`.

    Built by the parallel replay driver from a
    :class:`repro.trace.shards.Checkpoint`; kept as plain data here so
    analyses never import the trace layer.
    """

    #: Global event index / clock at the segment's first event.
    index: int = 0
    time: int = 0
    #: Shadow snapshot: ``[(addr, (pc, t) | None, {pc: t}), ...]`` —
    #: last write and per-pc reads since it, per tracked address.
    shadow: list = field(default_factory=list)
    #: Execution-index stack at the seam: ``[(head pc, Tenter), ...]``.
    construct_stack: list = field(default_factory=list)
    #: Call stack at the seam, function names bottom-to-top.
    call_stack: list = field(default_factory=list)
    is_first: bool = False
    is_last: bool = False


class AnalysisSegment:
    """Mergeable partial result of one replayed trace segment.

    ``merge(other)`` is the contract parallel replay is built on: fold
    the segments of one trace left-to-right (``s0.merge(s1).merge(s2)
    ...``) and ``finalize`` the result, and you get an
    :class:`AnalysisResult` equal to what a serial replay's ``finish``
    produces — including cross-segment dependence pairs, which workers
    defer and the merge resolves against the accumulated live-writer
    frontier. The fold is ordered (``other`` must be the segment
    immediately after ``self``) and not commutative.
    """

    __slots__ = ("analysis", "cls", "state")

    def __init__(self, cls: type["Analysis"], state: dict):
        self.analysis = cls.name
        self.cls = cls
        self.state = state

    def merge(self, other: "AnalysisSegment") -> "AnalysisSegment":
        """Fold the next segment's partial state into this one."""
        if other.cls is not self.cls:
            raise AnalysisError(
                f"cannot merge segment of {other.analysis!r} into "
                f"{self.analysis!r}")
        return AnalysisSegment(
            self.cls, self.cls.merge_segment_states(self.state,
                                                    other.state))

    def finalize(self, ctx: AnalysisContext) -> AnalysisResult:
        """Turn the folded state into the analysis's final result."""
        return self.cls.finalize_segments(self.state, ctx)


@dataclass
class _FooterView:
    """Duck-type of the old ``TraceFooter`` for ``ctx.footer`` readers."""

    exit_value: int
    output: list
    events: int
    final_time: int


@dataclass
class AnalysisContext:
    """What an analysis receives in :meth:`Analysis.finish`.

    Built by whichever engine drove the events — the interpreter (live)
    or the replay engine (trace) — with identical program/memory/
    final-time semantics, so ``finish`` needs no mode awareness.
    ``events`` counts trace records on replay and is ``None`` live;
    ``wall_seconds`` is honest wall time either way. Neither belongs in
    ``AnalysisResult.data`` (they would break live/replay parity).
    """

    program: ProgramIR
    memory: Memory
    final_time: int = 0
    exit_value: int = 0
    output: list = field(default_factory=list)
    events: int | None = None
    wall_seconds: float = 0.0
    mode: str = "live"
    #: Sampling spec of the trace the events came from, or ``None`` for
    #: a full-fidelity stream (always ``None`` live — the interpreter
    #: emits everything; a sampling gate sits in front of individual
    #: tracers, not the run). Analyses use this to label their results
    #: as approximate.
    sampling: str | None = None
    #: Path of the trace the events were replayed from (``None`` live).
    #: Lets an analysis that needs a *second* pass over the same event
    #: stream (e.g. ``whatif``'s task-graph extraction for candidates
    #: only known after the profile exists) re-read the recording
    #: instead of re-executing the program. Never part of result data —
    #: it would break live/replay parity.
    trace_path: str | None = None
    #: Telemetry handle of the engine that drove the events (never
    #: None — defaults to the shared no-op). Plugins emit their own
    #: spans/counters through it (``with ctx.telemetry.span(...)``);
    #: like the other context fields it must never leak into
    #: ``AnalysisResult.data`` (telemetry on/off cannot change results).
    telemetry: Any = None

    def __post_init__(self) -> None:
        if self.telemetry is None:
            from repro.telemetry import NULL_TELEMETRY

            self.telemetry = NULL_TELEMETRY

    @property
    def footer(self) -> _FooterView:
        """Deprecated: the old ``ReplayContext`` exposed exit/output
        through the trace footer; read the fields directly instead."""
        return _FooterView(exit_value=self.exit_value,
                           output=[list(v) for v in self.output],
                           events=self.events or 0,
                           final_time=self.final_time)


class Analysis(Tracer):
    """Base class for registered analyses: tracer hooks + ``finish``.

    Subclasses override whichever hooks they need (unoverridden hooks
    cost nothing — both engines drop base-class no-ops from dispatch)
    and must implement :meth:`finish`. Set ``requires_live = True`` for
    analyses that genuinely need a live interpreter (e.g. ones that
    inspect runtime values not present in the event stream); the
    session will then execute the program rather than replay a trace.
    """

    #: Registry key; also the result key in every multi-analysis report.
    name: str = ""
    #: One-line human description (shown by ``alchemist analyses``).
    description: str = ""
    #: Options schema; constructor keywords must match the spec names.
    options: tuple[OptionSpec, ...] = ()
    #: True if the analysis cannot run from a recorded trace.
    requires_live: bool = False
    #: True if the analysis implements the segment/merge protocol
    #: (``begin_segment`` / ``export_segment`` / ``merge_segment_states``
    #: / ``finalize_segments``) and can therefore run under sharded
    #: parallel replay. Analyses that leave it False simply fall back
    #: to a serial pass — parallel replay is an optimization, never a
    #: requirement.
    supports_segments: bool = False
    #: Optional replay fast path. With ``batch_kind`` left ``None`` the
    #: replay engine dispatches per-event hooks — always correct, and
    #: what live runs use regardless. Setting it (together with a
    #: ``consume_batch(batch)`` method taking a
    #: :class:`repro.trace.columnar.EventBatch`) opts into block-at-a-
    #: time dispatch on replay:
    #:
    #: * ``"block"`` — ``consume_batch`` receives every decoded block
    #:   once and must handle *all* event types it cares about from the
    #:   columns (including structural ENTER/EXIT/ALLOC/FREE and
    #:   FINISH); no per-event hooks fire for in-batch events. Only
    #:   valid for analyses that never read shared replay state (the
    #:   reconstructed ``Memory``) while consuming — counters and
    #:   histograms.
    #: * ``"span"`` — ``consume_batch`` receives maximal sub-batches
    #:   containing no memory-mutating events; ENTER/EXIT/ALLOC/FREE
    #:   and FINISH still arrive through the per-event hooks, with the
    #:   reconstructed memory synchronized to each of them. Right for
    #:   analyses that resolve addresses or names against ``Memory``
    #:   mid-stream (the dependence profilers).
    #:
    #: Either way ``consume_batch`` must be observationally equivalent
    #: to the per-event hooks: live runs use the hooks, replay uses the
    #: batches, and the live-vs-replay parity suites assert results
    #: match.
    batch_kind: str | None = None
    #: Overridden (as a method) by analyses that set ``batch_kind``.
    consume_batch = None

    #: Last ``finish`` output, stashed by the engines so the deprecated
    #: ``describe`` surface can still render after a run.
    last_result: AnalysisResult | None = None

    def finish(self, ctx: AnalysisContext) -> AnalysisResult:
        """Turn accumulated state into the structured result.

        The default adapts pre-registry consumers that implement only
        the legacy ``result()``/``describe()`` protocol; new analyses
        override ``finish`` directly.
        """
        cls = type(self)
        if cls.result is not Analysis.result:  # legacy consumer
            payload = self.result(ctx)
            if cls.describe is not Analysis.describe:
                text = self.describe(payload)
            else:
                text = repr(payload)
            data = (payload if isinstance(payload, dict)
                    and "analysis" not in payload else {})
            return AnalysisResult(analysis=self.name, data=data,
                                  text=text, payload=payload)
        raise NotImplementedError(
            f"{cls.__qualname__} must implement finish()")

    # -- segment/merge protocol (parallel replay) -------------------------

    def begin_segment(self, program: ProgramIR, memory: Memory,
                      seed: SegmentSeed) -> None:
        """Prepare to observe one mid-trace segment.

        Replaces ``on_start`` in a parallel worker: ``memory`` is
        already reconstructed to the checkpoint, and ``seed`` carries
        the shadow/stack snapshots an analysis needs so that every
        in-segment event is handled exactly as a serial pass would
        handle it. The default just calls ``on_start`` — correct for
        analyses whose per-event handling never looks at pre-segment
        state (counters, histograms).
        """
        self.on_start(program, memory)

    def export_segment(self, ctx: AnalysisContext) -> AnalysisSegment:
        """Package this segment's partial state for the merge.

        Called in the worker after its slice of events (in place of
        ``finish``); the returned :class:`AnalysisSegment` must be
        picklable.
        """
        raise NotImplementedError(
            f"{type(self).__qualname__} does not implement the segment "
            "protocol")

    @classmethod
    def merge_segment_states(cls, acc: dict, part: dict) -> dict:
        """Fold ``part`` (the next segment) into ``acc``; returns the
        combined state. Invoked via :meth:`AnalysisSegment.merge`."""
        raise NotImplementedError(
            f"{cls.__qualname__} does not implement the segment "
            "protocol")

    @classmethod
    def finalize_segments(cls, state: dict,
                          ctx: AnalysisContext) -> AnalysisResult:
        """Build the final result from fully folded state; must equal
        what ``finish`` produces after a serial replay."""
        raise NotImplementedError(
            f"{cls.__qualname__} does not implement the segment "
            "protocol")

    # -- deprecated TraceConsumer surface --------------------------------

    def result(self, ctx: AnalysisContext) -> Any:
        """Deprecated: pre-registry consumers returned a raw payload."""
        outcome = self.finish(ctx)
        self.last_result = outcome
        return outcome.payload if outcome.payload is not None \
            else outcome.data

    def describe(self, outcome: Any = None) -> str:
        """Deprecated: pre-registry consumers rendered raw payloads;
        the rendering now lives on :class:`AnalysisResult`."""
        if self.last_result is not None:
            return self.last_result.text
        return repr(outcome)

    @classmethod
    def option_names(cls) -> list[str]:
        return [spec.name for spec in cls.options]


# ---------------------------------------------------------------------------
# Registry
# ---------------------------------------------------------------------------

_REGISTRY: dict[str, type[Analysis]] = {}


def register(cls: type[Analysis]) -> type[Analysis]:
    """Class decorator: add an :class:`Analysis` subclass to the
    registry under its ``name``. Duplicate names are an error — plugins
    must not silently shadow each other."""
    if not (isinstance(cls, type) and issubclass(cls, Analysis)):
        raise AnalysisError(
            f"@register expects an Analysis subclass, got {cls!r}")
    name = cls.name
    if not name:
        raise AnalysisError(
            f"{cls.__qualname__} must set a non-empty 'name'")
    existing = _REGISTRY.get(name)
    if existing is not None:
        raise AnalysisError(
            f"duplicate analysis name {name!r}: already registered by "
            f"{existing.__module__}.{existing.__qualname__}")
    _REGISTRY[name] = cls
    return cls


def unregister(name: str) -> None:
    """Remove a registered analysis (tests and plugin reloads)."""
    _REGISTRY.pop(name, None)


def registry() -> Mapping[str, type[Analysis]]:
    """Read-only live view of the registry (name -> class)."""
    return MappingProxyType(_REGISTRY)


def analysis_names() -> list[str]:
    """Registered names, sorted."""
    return sorted(_REGISTRY)


def get_analysis(name: str) -> type[Analysis]:
    """Look up one analysis class; unknown names list every valid one."""
    try:
        return _REGISTRY[name]
    except KeyError:
        known = ", ".join(analysis_names())
        raise AnalysisError(
            f"unknown analysis {name!r} (known: {known})") from None


def parse_spec(spec: str | Iterable[str]) -> list[str]:
    """``"dep,locality"`` or any iterable of names -> list of names."""
    if isinstance(spec, str):
        names = [name.strip() for name in spec.split(",") if name.strip()]
    else:
        names = [str(name) for name in spec]
    return names


def make_analyses(spec: str | Iterable[str],
                  options: Mapping[str, Mapping[str, Any]] | None = None
                  ) -> list[Analysis]:
    """Instantiate analyses from a spec, validating per-analysis options.

    ``options`` maps analysis name -> {option name: value}; every value
    is checked against the plugin's :class:`OptionSpec` schema (unknown
    options and un-coercible values raise :class:`AnalysisError`).
    """
    names = parse_spec(spec)
    if not names:
        raise AnalysisError("no analyses requested")
    seen: set[str] = set()
    instances: list[Analysis] = []
    for name in names:
        if name in seen:
            raise AnalysisError(f"analysis {name!r} requested twice")
        seen.add(name)
        cls = get_analysis(name)
        kwargs: dict[str, Any] = {}
        for opt_name, value in dict((options or {}).get(name, {})).items():
            spec_obj = next((s for s in cls.options
                             if s.name == opt_name), None)
            if spec_obj is None:
                valid = ", ".join(cls.option_names()) or "none"
                raise AnalysisError(
                    f"analysis {name!r} has no option {opt_name!r} "
                    f"(valid options: {valid})")
            kwargs[opt_name] = spec_obj.coerce(value)
        try:
            instances.append(cls(**kwargs))
        except ValueError as exc:
            # Constructors own semantic validation (e.g. positivity);
            # surface it as the registry's error type.
            raise AnalysisError(f"analysis {name!r}: {exc}") from None
    return instances


#: Re-export of :func:`repro.runtime.tracing.overridden_hooks` — the
#: one dispatch filter shared by the replay engine and the live tee.
live_hooks = overridden_hooks
