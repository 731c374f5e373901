"""Static/dynamic concordance checking.

The static analyzer predicts, per loop candidate, whether the reuse
controller can capture it and which revoke causes are possible.  The
dynamic controller logs every decision it actually takes
(:class:`~repro.core.controller.ControllerEvent`).  :func:`crosscheck`
runs a program through :func:`repro.sim.simulator.run_timing` with a
:class:`ControllerEventProbe` attached and asserts that the two views
agree:

* every ``buffer_start`` names a static loop candidate whose distance
  fits the issue queue (the detector and :func:`is_loop_candidate` must
  agree on what a capturable loop is),
* every ``promote`` concerns a loop the analyzer classified capturable
  (not ``too-large``, not guaranteed-``overflow``), and the captured
  iterations fit the queue: ``iterations x min_iteration_length <=
  iq_size`` whenever the static minimum is known (buffered entries never
  leave the queue, so they can never exceed it),
* every NBLT-registering ``revoke`` carries a reason whose static hazard
  (:data:`REASON_TO_HAZARD`) the analyzer flagged for that loop.

A disagreement is a :class:`ConcordanceViolation` -- either a simulator
bug or an analyzer bug, which is exactly the point: the two
implementations verify each other.

The module also hosts the *prediction-error harness* built on top of the
static reuse-benefit predictor (:mod:`repro.analysis.predict`):
:func:`check_prediction` runs one program/config/engine cell and compares
the predicted buffered fraction, per-loop supply counts and blocking
verdicts against the dynamic controller's event log and commit counters;
:func:`prediction_harness` sweeps a grid of programs x IQ sizes x engines
and aggregates three acceptance criteria:

* predicted buffered fraction within an absolute tolerance (default
  5 percentage points) of the dynamic fraction in every cell,
* per-loop benefit *ranking* agreement: pooled Kendall tau-b between
  predicted and dynamic per-loop supply counts at or above a threshold
  (default 0.8),
* zero static/dynamic bufferability contradictions (e.g. a loop the
  predictor called ``too-large`` must never see a dynamic
  ``buffer_start``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.analysis.cfg import build_cfg
from repro.analysis.loops import (
    CLASS_OVERFLOW,
    CLASS_TOO_LARGE,
    HAZARD_EXIT,
    HAZARD_INNER_LOOP,
    HAZARD_IQ_OVERFLOW,
    StaticLoop,
    analyze_loops,
    loops_by_tail,
)
from repro.analysis.predict import (
    BLOCK_INNER_LOOP,
    BLOCK_OVERFLOW,
    BLOCK_TOO_LARGE,
    PredictionReport,
    predict_grid,
    predict_reuse,
)
from repro.arch.config import MachineConfig
from repro.arch.probe import PipelineProbe
from repro.core.controller import ControllerEvent
from repro.isa.program import Program

#: Dynamic revoke reason -> static hazard tag.  Only the NBLT-registering
#: reasons appear; mispredict recovery and normal reuse exit do not mark
#: a loop non-bufferable and carry no static claim.
REASON_TO_HAZARD: Dict[str, str] = {
    "exit": HAZARD_EXIT,
    "exit at tail": HAZARD_EXIT,
    "inner loop": HAZARD_INNER_LOOP,
    "issue queue full": HAZARD_IQ_OVERFLOW,
    # trace-reuse controller only: the buffered path stopped repeating.
    # Statically this is an exit from the traced path, but it carries no
    # per-loop hazard claim (any control in the body can diverge), so
    # the hazard-subset check is skipped in trace mode (see
    # _check_revoke).
    "trace divergence": HAZARD_EXIT,
}


class ControllerEventProbe(PipelineProbe):
    """Cycle probe collecting the controller's event log.

    The controller appends events as decisions happen, stamping each with
    the cycle it was taken in; this probe copies the new ones into
    :attr:`events` at the end of every cycle through the controller's
    :meth:`~repro.core.controller.ReuseController.iter_events_since`
    cursor helper.  A cursor (rather than clearing the log) keeps the
    probe passive, as the probe contract requires.
    """

    def __init__(self) -> None:
        self.events: List[ControllerEvent] = []
        self._cursor = 0

    def on_cycle(self, pipeline: Any) -> None:
        fresh, self._cursor = \
            pipeline.controller.iter_events_since(self._cursor)
        self.events.extend(fresh)


@dataclass(frozen=True)
class ConcordanceViolation:
    """One disagreement between the static and dynamic views."""

    #: Which check failed (``buffer_start`` / ``promote`` / ``revoke``).
    check: str
    #: The event's cycle.
    cycle: int
    #: The loop tail the event concerned (None when missing).
    tail_pc: Optional[int]
    #: Explanation.
    message: str


@dataclass
class CrosscheckResult:
    """Outcome of one program/config concordance run."""

    program: str
    iq_size: int
    #: Controller events observed during the run (each carries its cycle).
    events: List[ControllerEvent]
    #: Static loops keyed by tail pc.
    static_loops: Dict[int, StaticLoop]
    #: Disagreements (empty = full concordance).
    violations: List[ConcordanceViolation] = field(default_factory=list)
    #: Event counts by kind, for reporting.
    counts: Dict[str, int] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        """True when static and dynamic views fully agree."""
        return not self.violations

    def to_dict(self) -> Dict[str, object]:
        """JSON-ready summary."""
        return {
            "program": self.program,
            "iq_size": self.iq_size,
            "ok": self.ok,
            "counts": dict(sorted(self.counts.items())),
            "violations": [
                {
                    "check": v.check,
                    "cycle": v.cycle,
                    "tail_pc": (None if v.tail_pc is None
                                else f"{v.tail_pc:#x}"),
                    "message": v.message,
                }
                for v in self.violations
            ],
        }


def _check_buffer_start(event: ControllerEvent, cycle: int,
                        loops: Dict[int, StaticLoop], iq_size: int,
                        out: List[ConcordanceViolation],
                        mode: str = "loop") -> None:
    loop = loops.get(event.tail_pc) if event.tail_pc is not None else None
    if loop is None:
        out.append(ConcordanceViolation(
            "buffer_start", cycle, event.tail_pc,
            f"dynamic detector fired at {event.tail_pc!r} but no static "
            f"loop candidate has that tail"))
        return
    if event.head_pc != loop.head_pc:
        out.append(ConcordanceViolation(
            "buffer_start", cycle, event.tail_pc,
            f"head mismatch: dynamic {event.head_pc:#x} vs static "
            f"{loop.head_pc:#x}"))
    if mode == "trace":
        # the trace controller buffers one dynamic path through the
        # body, which may be much shorter than the static head..tail
        # distance; the static claim that must hold is that the
        # *shortest* path fits the queue
        if (loop.min_iteration_length is not None
                and loop.min_iteration_length > iq_size):
            out.append(ConcordanceViolation(
                "buffer_start", cycle, event.tail_pc,
                f"trace buffering started on a loop whose shortest "
                f"iteration ({loop.min_iteration_length} instructions) "
                f"cannot fit the {iq_size}-entry queue"))
        return
    if not loop.fits(iq_size):
        out.append(ConcordanceViolation(
            "buffer_start", cycle, event.tail_pc,
            f"buffering started on a loop of size {loop.size} that "
            f"cannot fit the {iq_size}-entry queue"))


def _check_promote(event: ControllerEvent, cycle: int,
                   loops: Dict[int, StaticLoop], iq_size: int,
                   out: List[ConcordanceViolation],
                   mode: str = "loop") -> None:
    loop = loops.get(event.tail_pc) if event.tail_pc is not None else None
    if loop is None:
        out.append(ConcordanceViolation(
            "promote", cycle, event.tail_pc,
            f"promoted loop {event.tail_pc!r} has no static candidate"))
        return
    verdict = loop.classify(iq_size)
    if mode != "trace" and verdict in (CLASS_TOO_LARGE, CLASS_OVERFLOW):
        # the trace controller legitimately promotes loops the loop
        # classifier rejects: a statically-too-large body whose hot path
        # is short, or a variable-length body pinned to one path
        out.append(ConcordanceViolation(
            "promote", cycle, event.tail_pc,
            f"loop statically classified {verdict!r} was promoted to "
            f"Code Reuse"))
    if event.iterations < 1:
        out.append(ConcordanceViolation(
            "promote", cycle, event.tail_pc,
            "promotion with no complete iteration buffered"))
    if loop.min_iteration_length is not None:
        need = event.iterations * loop.min_iteration_length
        if need > iq_size:
            out.append(ConcordanceViolation(
                "promote", cycle, event.tail_pc,
                f"{event.iterations} buffered iteration(s) of at least "
                f"{loop.min_iteration_length} instructions cannot fit "
                f"the {iq_size}-entry queue"))


def _check_revoke(event: ControllerEvent, cycle: int,
                  loops: Dict[int, StaticLoop], iq_size: int,
                  out: List[ConcordanceViolation],
                  mode: str = "loop") -> None:
    if not event.nblt_insert:
        return                 # mispredict / reuse exit: no static claim
    reason = event.reason or ""
    hazard = REASON_TO_HAZARD.get(reason)
    if hazard is None:
        out.append(ConcordanceViolation(
            "revoke", cycle, event.tail_pc,
            f"NBLT insert with unmapped revoke reason {reason!r}"))
        return
    loop = loops.get(event.tail_pc) if event.tail_pc is not None else None
    if loop is None:
        out.append(ConcordanceViolation(
            "revoke", cycle, event.tail_pc,
            f"NBLT insert for {event.tail_pc!r} with no static "
            f"candidate"))
        return
    if mode == "trace":
        # a traced path can diverge (or exit) at any control in the
        # body whether or not the loop analyzer flagged a hazard, so
        # trace-mode revokes carry no hazard-subset claim
        return
    if hazard not in loop.hazards(iq_size):
        out.append(ConcordanceViolation(
            "revoke", cycle, event.tail_pc,
            f"dynamic revoke {reason!r} (hazard {hazard!r}) was not "
            f"statically flagged for the loop at {event.tail_pc:#x} "
            f"(static hazards: {sorted(loop.hazards(iq_size))})"))


def _concordance(events: List[ControllerEvent],
                 static: Dict[int, StaticLoop], iq_size: int,
                 mode: str = "loop",
                 ) -> Tuple[List[ConcordanceViolation], Dict[str, int]]:
    """Run every concordance check over one event log.

    ``mode`` is the controller variant that produced the log
    (``MachineConfig.reuse_mode``); trace-mode logs relax the checks
    that assume the buffered region is the full static loop body.
    """
    violations: List[ConcordanceViolation] = []
    counts: Dict[str, int] = {}
    for event in events:
        counts[event.kind] = counts.get(event.kind, 0) + 1
        if event.kind == "buffer_start":
            _check_buffer_start(event, event.cycle, static, iq_size,
                                violations, mode)
        elif event.kind == "promote":
            _check_promote(event, event.cycle, static, iq_size, violations,
                           mode)
        elif event.kind == "revoke":
            _check_revoke(event, event.cycle, static, iq_size, violations,
                          mode)
    return violations, counts


def crosscheck(program: Program, config: MachineConfig,
               max_cycles: Optional[int] = None,
               engine: str = "object") -> CrosscheckResult:
    """Run ``program`` and compare controller decisions to the analyzer.

    The config's ``reuse_enabled`` flag is forced on (without the
    mechanism there is nothing to check).  ``engine`` selects the
    pipeline core; the event log is read off the finished pipeline's
    controller (not via a probe, which would force the array engine to
    fall back to the object core).  Returns a :class:`CrosscheckResult`;
    callers assert :attr:`CrosscheckResult.ok`.
    """
    from repro.sim.simulator import run_timing

    if not config.reuse_enabled:
        config = config.replace(reuse_enabled=True)
    static = loops_by_tail(analyze_loops(build_cfg(program)))
    _record, pipeline = run_timing(program, config, max_cycles=max_cycles,
                                   keep_pipeline=True, engine=engine)
    events = list(pipeline.controller.events)
    iq_size = config.iq_size
    violations, counts = _concordance(events, static, iq_size,
                                      config.reuse_mode)
    return CrosscheckResult(
        program=program.name,
        iq_size=iq_size,
        events=events,
        static_loops=static,
        violations=violations,
        counts=counts,
    )

# -- prediction-error harness -------------------------------------------------

#: Structural blocking verdicts: a loop carrying one of these can never be
#: promoted to Code Reuse, so a dynamic promote is a contradiction.
_STRUCTURAL_BLOCKS = (BLOCK_TOO_LARGE, BLOCK_INNER_LOOP, BLOCK_OVERFLOW)


def kendall_tau(pairs: Sequence[Tuple[float, float]]) -> float:
    """Kendall tau-b rank correlation of ``(x, y)`` pairs.

    Hand-rolled (no scipy in the image): tau-b = (C - D) /
    sqrt((n0 - tx) * (n0 - ty)) where n0 = n(n-1)/2 and tx/ty count
    pairs tied on x/y.  Fewer than two pairs, or a degenerate set where
    every pair is tied on one variable, scores 1.0 -- there is no
    ranking to disagree about.
    """
    n = len(pairs)
    if n < 2:
        return 1.0
    concordant = discordant = ties_x = ties_y = 0
    for i in range(n):
        x_i, y_i = pairs[i]
        for j in range(i + 1, n):
            x_j, y_j = pairs[j]
            dx = (x_i > x_j) - (x_i < x_j)
            dy = (y_i > y_j) - (y_i < y_j)
            if dx == 0:
                ties_x += 1
            if dy == 0:
                ties_y += 1
            if dx == 0 or dy == 0:
                continue
            if dx == dy:
                concordant += 1
            else:
                discordant += 1
    n0 = n * (n - 1) // 2
    denom = math.sqrt(float(n0 - ties_x) * float(n0 - ties_y))
    if denom == 0.0:
        return 1.0
    return (concordant - discordant) / denom


@dataclass(frozen=True)
class LoopComparison:
    """Predicted vs observed reuse supply for one loop in one cell."""

    tail_pc: int
    #: Committed-from-buffer instructions the predictor expects.
    predicted_supplied: int
    #: Instructions the dynamic controller actually supplied (summed
    #: over every session's revoke event for this tail).
    dynamic_supplied: int
    #: The predictor's blocking verdict (None = expected to supply).
    blocked: Optional[str]
    #: Dynamic ``buffer_start`` / ``promote`` event counts for the tail.
    buffer_starts: int
    promotes: int

    def to_dict(self) -> Dict[str, object]:
        """JSON-ready summary."""
        return {
            "tail_pc": f"{self.tail_pc:#x}",
            "predicted_supplied": self.predicted_supplied,
            "dynamic_supplied": self.dynamic_supplied,
            "blocked": self.blocked,
            "buffer_starts": self.buffer_starts,
            "promotes": self.promotes,
        }


@dataclass
class PredictionCheck:
    """Predicted vs dynamic reuse behaviour of one grid cell."""

    program: str
    iq_size: int
    engine: str
    #: Static prediction of the committed buffered fraction.
    predicted_fraction: float
    #: ``reuse_committed / committed`` from the finished run.
    dynamic_fraction: float
    predicted_committed: int
    dynamic_committed: int
    #: True when the predictor had to approximate (unknown trip count,
    #: indirect call, recursion); exactness claims are relaxed then.
    approximate: bool
    loops: List[LoopComparison] = field(default_factory=list)
    #: Static/dynamic bufferability contradictions (must be empty).
    contradictions: List[str] = field(default_factory=list)
    #: Concordance violations from the same run (must be empty).
    violations: List[ConcordanceViolation] = field(default_factory=list)

    @property
    def abs_error(self) -> float:
        """Absolute predicted-vs-dynamic buffered-fraction error."""
        return abs(self.predicted_fraction - self.dynamic_fraction)

    def ok(self, tolerance: float = 0.05) -> bool:
        """True when the cell meets every acceptance criterion."""
        return (self.abs_error <= tolerance
                and not self.contradictions
                and not self.violations)

    def to_dict(self) -> Dict[str, object]:
        """JSON-ready summary."""
        return {
            "program": self.program,
            "iq_size": self.iq_size,
            "engine": self.engine,
            "predicted_fraction": round(self.predicted_fraction, 6),
            "dynamic_fraction": round(self.dynamic_fraction, 6),
            "abs_error": round(self.abs_error, 6),
            "predicted_committed": self.predicted_committed,
            "dynamic_committed": self.dynamic_committed,
            "approximate": self.approximate,
            "loops": [loop.to_dict() for loop in self.loops],
            "contradictions": list(self.contradictions),
            "concordance_violations": [
                {"check": v.check, "cycle": v.cycle,
                 "tail_pc": (None if v.tail_pc is None
                             else f"{v.tail_pc:#x}"),
                 "message": v.message}
                for v in self.violations
            ],
        }


def _contradictions(prediction: "PredictionReport",
                    comparisons: List[LoopComparison]) -> List[str]:
    """Static/dynamic bufferability contradictions for one cell.

    These are one-sided *structural* claims that hold regardless of
    modelling error in the arithmetic: a ``too-large`` loop can never
    even start buffering, a structurally blocked loop can never be
    promoted, and (when the static instruction counts are exact) a loop
    predicted to supply must have been promoted at least once.
    """
    out: List[str] = []
    for cmp in comparisons:
        tag = f"loop {cmp.tail_pc:#x}"
        if cmp.blocked == BLOCK_TOO_LARGE and cmp.buffer_starts:
            out.append(
                f"{tag}: statically too-large for the queue but the "
                f"dynamic detector started buffering it "
                f"{cmp.buffer_starts} time(s)")
        if cmp.blocked in _STRUCTURAL_BLOCKS and cmp.promotes:
            out.append(
                f"{tag}: statically blocked ({cmp.blocked}) but "
                f"dynamically promoted {cmp.promotes} time(s)")
        if cmp.blocked == BLOCK_TOO_LARGE and cmp.dynamic_supplied:
            out.append(
                f"{tag}: statically too-large but the controller "
                f"supplied {cmp.dynamic_supplied} instruction(s) from "
                f"its buffer")
        if (cmp.predicted_supplied > 0 and not prediction.approximate
                and not cmp.promotes):
            out.append(
                f"{tag}: predicted to supply {cmp.predicted_supplied} "
                f"instruction(s) but was never dynamically promoted")
    return out


def check_prediction(program: Program, config: MachineConfig,
                     engine: str = "object",
                     prediction: Optional[PredictionReport] = None,
                     max_cycles: Optional[int] = None) -> PredictionCheck:
    """Compare the static predictor against one dynamic run.

    Runs ``program`` on the selected engine (reuse forced on, no probes
    so the array core stays on its fast path), then lines the
    :class:`~repro.analysis.predict.PredictionReport` up against the
    run's commit counters and controller event log.  ``prediction`` may
    be passed in to reuse a report computed by
    :func:`~repro.analysis.predict.predict_grid`.
    """
    from repro.sim.simulator import run_timing

    if not config.reuse_enabled:
        config = config.replace(reuse_enabled=True)
    if prediction is None:
        prediction = predict_reuse(program, config.iq_size)
    record, pipeline = run_timing(program, config, max_cycles=max_cycles,
                                  keep_pipeline=True, engine=engine)
    events = list(pipeline.controller.events)
    static = loops_by_tail(analyze_loops(build_cfg(program)))
    violations, _counts = _concordance(events, static, config.iq_size)

    supplied_by_tail: Dict[int, int] = {}
    starts_by_tail: Dict[int, int] = {}
    promotes_by_tail: Dict[int, int] = {}
    for event in events:
        if event.tail_pc is None:
            continue
        if event.kind == "buffer_start":
            starts_by_tail[event.tail_pc] = \
                starts_by_tail.get(event.tail_pc, 0) + 1
        elif event.kind == "promote":
            promotes_by_tail[event.tail_pc] = \
                promotes_by_tail.get(event.tail_pc, 0) + 1
        elif event.kind == "revoke":
            supplied_by_tail[event.tail_pc] = \
                supplied_by_tail.get(event.tail_pc, 0) + event.supplied

    comparisons = [
        LoopComparison(
            tail_pc=loop.tail_pc,
            predicted_supplied=loop.predicted_supplied,
            dynamic_supplied=supplied_by_tail.get(loop.tail_pc, 0),
            blocked=loop.blocked,
            buffer_starts=starts_by_tail.get(loop.tail_pc, 0),
            promotes=promotes_by_tail.get(loop.tail_pc, 0),
        )
        for loop in prediction.loops
    ]
    committed = int(record["committed"])
    reuse_committed = int(record["reuse_committed"])
    dynamic_fraction = reuse_committed / committed if committed else 0.0
    return PredictionCheck(
        program=program.name,
        iq_size=config.iq_size,
        engine=engine,
        predicted_fraction=prediction.predicted_fraction,
        dynamic_fraction=dynamic_fraction,
        predicted_committed=prediction.predicted_committed,
        dynamic_committed=committed,
        approximate=prediction.approximate,
        loops=comparisons,
        contradictions=_contradictions(prediction, comparisons),
        violations=violations,
    )


@dataclass
class HarnessResult:
    """Aggregated outcome of a prediction-error grid sweep."""

    cells: List[PredictionCheck]
    #: Max tolerated per-cell absolute buffered-fraction error.
    fraction_tolerance: float = 0.05
    #: Min pooled Kendall tau-b over per-loop supply rankings.
    tau_threshold: float = 0.8

    @property
    def max_abs_error(self) -> float:
        """Worst per-cell absolute buffered-fraction error."""
        return max((cell.abs_error for cell in self.cells), default=0.0)

    @property
    def tau(self) -> float:
        """Pooled Kendall tau-b over every loop in every cell."""
        pairs = [(float(cmp.predicted_supplied), float(cmp.dynamic_supplied))
                 for cell in self.cells for cmp in cell.loops]
        return kendall_tau(pairs)

    @property
    def contradiction_count(self) -> int:
        """Total bufferability contradictions across the grid."""
        return sum(len(cell.contradictions) for cell in self.cells)

    @property
    def violation_count(self) -> int:
        """Total concordance violations across the grid."""
        return sum(len(cell.violations) for cell in self.cells)

    @property
    def ok(self) -> bool:
        """True when all three acceptance criteria hold."""
        return (self.max_abs_error <= self.fraction_tolerance
                and self.tau >= self.tau_threshold
                and self.contradiction_count == 0
                and self.violation_count == 0)

    def to_dict(self) -> Dict[str, object]:
        """JSON-ready summary."""
        return {
            "ok": self.ok,
            "cells": len(self.cells),
            "max_abs_error": round(self.max_abs_error, 6),
            "fraction_tolerance": self.fraction_tolerance,
            "kendall_tau": round(self.tau, 6),
            "tau_threshold": self.tau_threshold,
            "contradictions": self.contradiction_count,
            "concordance_violations": self.violation_count,
            "results": [cell.to_dict() for cell in self.cells],
        }


def prediction_harness(programs: Sequence[Program], config: MachineConfig,
                       iq_sizes: Sequence[int] = (32, 64, 96, 128),
                       engines: Sequence[str] = ("object", "array"),
                       fraction_tolerance: float = 0.05,
                       tau_threshold: float = 0.8,
                       max_cycles: Optional[int] = None) -> HarnessResult:
    """Sweep the prediction-error grid and aggregate acceptance criteria.

    Every ``program x iq_size x engine`` cell is one
    :func:`check_prediction` run; static predictions are shared across
    engines (and, via :func:`~repro.analysis.predict.predict_grid`,
    reuse one CFG/interval analysis across queue sizes).  ``config``
    supplies every machine parameter except ``iq_size`` and
    ``reuse_enabled``, which the sweep owns.
    """
    cells: List[PredictionCheck] = []
    for program in programs:
        reports = dict(zip(iq_sizes, predict_grid(program, iq_sizes)))
        for iq_size in iq_sizes:
            cell_config = config.replace(iq_size=iq_size,
                                         reuse_enabled=True)
            for engine in engines:
                cells.append(check_prediction(
                    program, cell_config, engine=engine,
                    prediction=reports[iq_size], max_cycles=max_cycles))
    return HarnessResult(cells=cells,
                         fraction_tolerance=fraction_tolerance,
                         tau_threshold=tau_threshold)
