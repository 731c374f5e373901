"""Top-level simulation entry points.

The timing/power split the paper's methodology implies (Wattch sitting on
top of SimpleScalar) is explicit here:

* :func:`run_timing` runs the cycle-level pipeline and returns an
  :class:`~repro.power.activity.ActivityRecord` -- the complete,
  serializable snapshot of what happened;
* :func:`evaluate_power` turns a record into a
  :class:`~repro.sim.results.SimulationResult` under any
  :class:`~repro.power.params.PowerParams` -- pure arithmetic, no
  simulation;
* :func:`simulate` composes the two and remains the one call the
  examples, tests and benchmark harness use.

Because a record is all power evaluation needs, one timing run can be
re-costed under any number of parameter sets (clocking styles,
calibration sweeps) -- the persistent result cache exploits exactly this.
"""

from __future__ import annotations

from typing import Iterable, Optional

from repro.arch.config import MachineConfig
from repro.arch.fastcore import FastPipeline
from repro.arch.pipeline import Pipeline
from repro.isa.program import Program
from repro.power.activity import ActivityRecord
from repro.power.params import DEFAULT_PARAMS, PowerParams
from repro.sim.results import SimulationResult

#: The selectable pipeline-core engines (see ``docs/pipeline.md``).
#: Both implement :class:`repro.arch.interface.CoreInterface` and
#: produce byte-identical activity records; ``array`` is the default,
#: production core, ``object`` the reference implementation the oracles
#: check it against.
ENGINES = {
    "object": Pipeline,
    "array": FastPipeline,
}


def core_for(engine: str):
    """The pipeline-core class registered under ``engine``."""
    try:
        return ENGINES[engine]
    except KeyError:
        raise ValueError(
            f"unknown engine {engine!r}; choose from "
            f"{', '.join(sorted(ENGINES))}") from None


def run_timing(program: Program, config: MachineConfig,
               max_cycles: Optional[int] = None,
               probes: Iterable = (),
               keep_pipeline: bool = False,
               telemetry=None,
               engine: str = "array"):
    """Run ``program`` to its committed ``halt``; timing only.

    Returns the run's :class:`~repro.power.activity.ActivityRecord`.
    ``probes`` are attached to the pipeline before it runs (tracers,
    invariant checkers, ...).  ``telemetry`` is an optional
    :class:`~repro.telemetry.TelemetrySession`: its probes are attached
    too, its self-profiler times the build/run/capture phases, and it
    absorbs the finished run so trace/metric artifacts can be exported
    afterwards (see ``docs/telemetry.md``).  With ``keep_pipeline=True``
    the return value is a ``(record, pipeline)`` pair instead.

    ``engine`` selects the pipeline core (:data:`ENGINES`, default
    ``array``): the two engines leave identical records, so the choice
    only affects wall time.  On the ``array`` engine the telemetry
    sampler and the energy-attribution probe run natively; a stage probe
    (a tracer, e.g. ``TelemetrySession(stages=True)``) or an invariant
    checker makes it fall back to a delegate object core internally --
    observability always wins over speed.
    """
    core = core_for(engine)
    if telemetry is None:
        pipeline = core(program, config)
        for probe in probes:
            pipeline.attach_probe(probe)
        pipeline.run(max_cycles=max_cycles)
        record = ActivityRecord.capture(pipeline)
    else:
        profiler = telemetry.profiler
        with profiler.phase("build-pipeline"):
            pipeline = core(program, config)
            for probe in probes:
                pipeline.attach_probe(probe)
            for probe in telemetry.probes:
                pipeline.attach_probe(probe)
        with profiler.phase("run-timing"):
            pipeline.run(max_cycles=max_cycles)
        with profiler.phase("capture-record"):
            record = ActivityRecord.capture(pipeline)
            telemetry.absorb(pipeline, record)
    if keep_pipeline:
        return record, pipeline
    return record


def evaluate_power(record: ActivityRecord, config: MachineConfig,
                   params: PowerParams = DEFAULT_PARAMS) -> SimulationResult:
    """Cost a finished timing run under ``params``; no simulation.

    Pure post-hoc arithmetic over the record's activity counters: calling
    this any number of times with different parameter sets (clocking
    styles, calibration variants) re-costs the same run for free.
    """
    return SimulationResult(
        program_name=record.program_name,
        config=config,
        stats=record.pipeline_stats(),
        activity=record,
        registers=list(record.registers),
        params=params,
    )


def simulate(program: Program, config: MachineConfig,
             params: PowerParams = DEFAULT_PARAMS,
             max_cycles: Optional[int] = None,
             keep_pipeline: bool = False,
             telemetry=None,
             engine: str = "array") -> SimulationResult:
    """Run ``program`` to its committed ``halt`` on ``config``.

    Parameters
    ----------
    program:
        An assembled :class:`~repro.isa.program.Program`.
    config:
        The machine configuration (set ``reuse_enabled=True`` for the
        paper's mechanism).
    params:
        Power-model parameters (the calibrated defaults reproduce the
        paper's component weights).
    max_cycles:
        Optional cycle budget override.
    keep_pipeline:
        Attach the finished pipeline core to the result (pass
        ``engine="object"`` to inspect per-instruction microarchitectural
        state).
    telemetry:
        Optional :class:`~repro.telemetry.TelemetrySession` threaded
        through the timing run and attached to the result.
    engine:
        Pipeline-core engine (``array``, the default, or ``object``; see
        :data:`ENGINES` and ``docs/pipeline.md``).
    """
    record, pipeline = run_timing(program, config, max_cycles=max_cycles,
                                  keep_pipeline=True, telemetry=telemetry,
                                  engine=engine)
    result = evaluate_power(record, config, params)
    result.telemetry = telemetry
    if keep_pipeline:
        result.pipeline = pipeline
    return result
