"""Unified telemetry: metrics registry, cycle sampling, timeline export.

The observability substrate for the whole stack (see
``docs/telemetry.md``):

* :mod:`repro.telemetry.metrics` -- typed Counter/Gauge/Histogram
  registry with labels and schema-versioned, byte-deterministic JSON
  snapshots,
* :mod:`repro.telemetry.sampler` -- :class:`SamplingProbe`, a passive
  cycle probe recording strided occupancy/state time series plus exact
  controller-state intervals and gating windows,
* :mod:`repro.telemetry.timeline` -- Chrome trace-event export
  (Perfetto / ``chrome://tracing``) of controller states, gating
  windows, buffering episodes, occupancy counters, instruction stage
  spans and host wall-clock phases.

:class:`TelemetrySession` bundles the three for one simulation:
:func:`repro.sim.simulator.run_timing` accepts a session, attaches its
probes, wraps its phases in the self-profiler, and the session then
renders the trace and metric artifacts the CLI ``trace`` subcommand
(and the ``--trace-out`` flags) write out.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional

from repro.arch.trace import PipelineTracer
from repro.telemetry.log import (
    LogSink,
    StructLogger,
    configure_logging,
    default_sink,
    get_logger,
)
from repro.telemetry.metrics import (
    METRICS_SCHEMA_VERSION,
    Counter,
    Gauge,
    Histogram,
    MetricRegistry,
    PrometheusParseError,
    parse_prometheus,
    registry_from_activity,
)
from repro.telemetry.sampler import SAMPLER_SCHEMA_VERSION, SamplingProbe
from repro.telemetry.timeline import (
    PhaseProfiler,
    TimelineBuilder,
    runner_timeline,
    validate_trace,
    validate_trace_file,
)
from repro.telemetry.tracing import (
    TRACE_HEADER,
    SpanRecorder,
    new_trace_id,
    valid_trace_id,
)

__all__ = [
    "METRICS_SCHEMA_VERSION",
    "SAMPLER_SCHEMA_VERSION",
    "TRACE_HEADER",
    "Counter",
    "Gauge",
    "Histogram",
    "LogSink",
    "MetricRegistry",
    "PhaseProfiler",
    "PrometheusParseError",
    "SamplingProbe",
    "SpanRecorder",
    "StructLogger",
    "TelemetrySession",
    "TimelineBuilder",
    "configure_logging",
    "default_sink",
    "get_logger",
    "new_trace_id",
    "parse_prometheus",
    "registry_from_activity",
    "runner_timeline",
    "valid_trace_id",
    "validate_trace",
    "validate_trace_file",
]


class TelemetrySession:
    """One simulation's telemetry: probes, profiler and exporters.

    Create a session, pass it to
    :func:`~repro.sim.simulator.run_timing` (or
    :func:`~repro.sim.simulator.simulate`) via ``telemetry=``, then ask
    it for artifacts::

        session = TelemetrySession(stride=16, stages=True)
        record = run_timing(program, config, telemetry=session)
        session.write_trace("trace.json")
        session.metrics_registry(record).write("metrics.json")

    ``stride`` controls the sampling density of the occupancy series
    (state intervals and gating windows stay exact at any stride);
    ``stages`` additionally attaches a bounded
    :class:`~repro.arch.trace.PipelineTracer` so per-instruction stage
    spans appear in the timeline; ``energy`` attaches an
    :class:`~repro.power.attribution.EnergyAttributionProbe` that folds
    the live per-component energy breakdown (the paper's Fig. 6) into
    the session's metric snapshot.
    """

    def __init__(self, stride: int = 1, stages: bool = False,
                 trace_capacity: int = 2000, energy: bool = False,
                 energy_stride: int = 64):
        self.sampler = SamplingProbe(stride=stride)
        self.tracer: Optional[PipelineTracer] = \
            PipelineTracer(capacity=trace_capacity) if stages else None
        self.energy_probe: Optional[Any] = None
        if energy:
            # local import: repro.power imports repro.telemetry.metrics
            from repro.power.attribution import EnergyAttributionProbe

            self.energy_probe = EnergyAttributionProbe(
                stride=energy_stride)
        self.profiler = PhaseProfiler()
        #: Filled in by ``run_timing`` when the session is threaded
        #: through a simulation.
        self.program_name = ""
        self.record: Optional[Any] = None
        self.controller_events: List[Any] = []

    @property
    def probes(self) -> List[Any]:
        """The pipeline probes this session wants attached."""
        probes: List[Any] = [self.sampler]
        if self.tracer is not None:
            probes.append(self.tracer)
        if self.energy_probe is not None:
            probes.append(self.energy_probe)
        return probes

    def absorb(self, pipeline, record) -> None:
        """Capture run context once a simulation finishes.

        Called by :func:`~repro.sim.simulator.run_timing`; copies the
        controller's (cycle-stamped) event log and remembers the record
        so the exporters below need no further arguments.
        """
        self.program_name = pipeline.program.name
        self.record = record
        events, _ = pipeline.controller.iter_events_since(0)
        self.controller_events = list(events)
        if self.energy_probe is not None:
            self.energy_probe.finalize(record)

    # -- exporters ---------------------------------------------------------

    def build_timeline(self) -> Dict[str, Any]:
        """The session's complete Chrome trace-event object."""
        builder = TimelineBuilder(self.program_name)
        builder.add_controller_states(
            self.sampler.closed_state_intervals())
        builder.add_gating_windows(self.sampler.closed_gating_windows())
        builder.add_buffering_episodes(self.controller_events)
        builder.add_counters(self.sampler)
        if self.tracer is not None:
            builder.add_instruction_spans(self.tracer)
        builder.add_host_phases(self.profiler)
        return builder.build()

    def write_trace(self, path) -> Dict[str, Any]:
        """Build, validate and write the trace JSON; returns it.

        Written compact in one ``json.dumps`` call: ``json.dump`` and any
        ``indent`` use the pure-Python encoder, several times slower on
        a trace of tens of thousands of events.
        """
        import json

        payload = self.build_timeline()
        validate_trace(payload)
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(json.dumps(payload, separators=(",", ":")))
            handle.write("\n")
        return payload

    def metrics_registry(self, record=None,
                         registry: Optional[MetricRegistry] = None,
                         **labels: Any) -> MetricRegistry:
        """Metric snapshot: activity counters + sampled aggregates.

        ``record`` defaults to the one captured by :meth:`absorb`.
        """
        registry = registry if registry is not None else MetricRegistry()
        record = record if record is not None else self.record
        if record is not None:
            registry_from_activity(record, registry, **labels)
        summary = self.sampler.summary()
        for name in ("iq_occupancy_mean", "iq_occupancy_max",
                     "iq_buffered_mean", "iq_buffered_max",
                     "rob_occupancy_mean", "lsq_occupancy_mean",
                     "nblt_fill_max"):
            registry.gauge(
                f"sampled_{name}",
                help=f"sampled-series aggregate (stride "
                     f"{self.sampler.stride})").set(summary[name],
                                                    **labels)
        registry.counter(
            "sampled_cycles_total",
            help="cycles captured by the sampling probe").inc(
            summary["samples"], **labels)
        if self.energy_probe is not None:
            source = self.energy_probe._counter
            sink = registry.counter(source.name, help=source.help)
            for key, value in sorted(source._samples.items()):
                sink.inc(value, **dict(dict(key), **labels))
        return registry

    def write_metrics(self, path, record=None, **labels: Any) -> None:
        """Serialise :meth:`metrics_registry` to a JSON file."""
        self.metrics_registry(record, **labels).write(path)
