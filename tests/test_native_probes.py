"""Cycle probes running natively on the array core.

Probes that declare ``core_interface_only`` (the telemetry sampler and
the energy-attribution probe) are driven by
:class:`~repro.arch.fastcore.FastPipeline` itself, one cycle at a time,
instead of through an object-core delegate.  The contract checked here:

* the sampled series, state intervals, gating windows and energy totals
  equal the object core's, at every stride;
* a probed array run leaves the same record as a probe-free one;
* a stage probe (tracer) or the invariant checker still needs the
  delegate, in either attach order, and takes the native probes with it;
* the cycle budget still raises.
"""

from __future__ import annotations

import json

import pytest

from repro.arch.config import MachineConfig
from repro.arch.fastcore import FastPipeline
from repro.arch.pipeline import Pipeline, SimulationTimeout
from repro.arch.trace import PipelineTracer
from repro.arch.validate import InvariantProbe
from repro.power.activity import ActivityRecord
from repro.power.attribution import EnergyAttributionProbe
from repro.sim.simulator import evaluate_power, run_timing
from repro.telemetry import SamplingProbe, TelemetrySession

RECONCILE_TOL = 1e-6


@pytest.fixture
def tight_loop(tight_loop_program):
    return tight_loop_program


def _config(mode: str) -> MachineConfig:
    return MachineConfig().with_iq_size(32).replace(
        reuse_enabled=True, reuse_mode=mode)


def _payload(record) -> str:
    return json.dumps(record.to_payload(), sort_keys=True)


def _probed_run(program, config, engine):
    """One run with samplers at stride 1 and 7 and an energy probe."""
    probes = (SamplingProbe(stride=1), SamplingProbe(stride=7),
              EnergyAttributionProbe(stride=5))
    record, pipeline = run_timing(program, config, probes=probes,
                                  keep_pipeline=True, engine=engine)
    probes[2].finalize(record)
    return record, pipeline, probes


@pytest.mark.parametrize("mode", ["loop", "trace"])
@pytest.mark.parametrize("kernel", ["tsf", "wss"])
def test_native_probes_match_the_object_core(suite, kernel, mode):
    program = suite.program(kernel)
    config = _config(mode)
    want_record, _, want = _probed_run(program, config, "object")
    record, pipeline, got = _probed_run(program, config, "array")
    assert isinstance(pipeline, FastPipeline)
    assert pipeline._delegate is None           # no fallback happened
    for wanted, native in zip(want[:2], got[:2]):
        assert native.to_payload() == wanted.to_payload()
    assert got[2].totals() == want[2].totals()
    expected = evaluate_power(record, config).total_energy
    assert sum(got[2].totals().values()) == pytest.approx(
        expected, rel=RECONCILE_TOL)
    # probed and probe-free array records are byte-identical
    plain = run_timing(program, config, engine="array")
    assert _payload(record) == _payload(plain) == _payload(want_record)


def test_telemetry_session_stays_on_the_array_core(suite):
    program = suite.program("tsf")
    config = _config("loop")
    session = TelemetrySession(stride=1, energy=True)
    _, pipeline = run_timing(program, config, telemetry=session,
                             keep_pipeline=True)
    assert pipeline._delegate is None
    assert len(session.sampler) == pipeline.cycle
    staged = TelemetrySession(stages=True)
    _, pipeline = run_timing(program, config, telemetry=staged,
                             keep_pipeline=True)
    assert isinstance(pipeline._delegate, Pipeline)


@pytest.mark.parametrize("native_first", [True, False])
@pytest.mark.parametrize("other", [PipelineTracer, InvariantProbe])
def test_object_core_probes_still_delegate(tight_loop, small_config, other,
                                           native_first):
    want = SamplingProbe(stride=3)
    run_timing(tight_loop, small_config, probes=(want,),
               engine="object")
    sampler, probe = SamplingProbe(stride=3), other()
    pipeline = FastPipeline(tight_loop, small_config)
    for attach in ((sampler, probe) if native_first else (probe, sampler)):
        pipeline.attach_probe(attach)
    assert isinstance(pipeline._delegate, Pipeline)
    assert pipeline.iq is pipeline._delegate.iq
    pipeline.run()
    assert sampler.to_payload() == want.to_payload()
    plain = FastPipeline(tight_loop, small_config)
    plain.run()
    assert _payload(ActivityRecord.capture(pipeline)) \
        == _payload(ActivityRecord.capture(plain))


def test_native_probe_moves_with_its_attach_hooks(tight_loop,
                                                  small_config):
    """An energy probe moved onto the delegate is re-attached there, so
    its model and totals come from the core that actually runs."""
    energy = EnergyAttributionProbe(stride=4)
    pipeline = FastPipeline(tight_loop, small_config)
    pipeline.attach_probe(energy)
    pipeline.attach_probe(PipelineTracer())
    record = run_timing(tight_loop, small_config, engine="object")
    pipeline.run()
    folded = energy.finalize(ActivityRecord.capture(pipeline))
    assert folded == pytest.approx(
        evaluate_power(record, small_config).total_energy,
        rel=RECONCILE_TOL)


def test_probed_run_hits_the_cycle_budget(tight_loop, small_config):
    pipeline = FastPipeline(tight_loop, small_config)
    sampler = SamplingProbe()
    pipeline.attach_probe(sampler)
    with pytest.raises(SimulationTimeout, match="no halt after 25 cycles"):
        pipeline.run(max_cycles=25)
    assert pipeline._delegate is None
    assert pipeline.cycle == 25 and sampler.last_cycle == 25


def test_native_probe_attach_step_and_detach(tight_loop, small_config):
    """Native probes need no delegate, so they may come and go mid-run;
    ``step()`` drives them like ``run()`` does."""
    plain = FastPipeline(tight_loop, small_config)
    plain.run()
    pipeline = FastPipeline(tight_loop, small_config)
    for _ in range(5):
        pipeline.step()
    sampler = SamplingProbe()
    pipeline.attach_probe(sampler)
    with pytest.raises(ValueError, match="already attached"):
        pipeline.attach_probe(sampler)
    pipeline.step()
    assert sampler.samples["cycle"] == [6]
    for _ in range(10):
        pipeline.step()
    pipeline.detach_probe(sampler)
    with pytest.raises(ValueError, match="not attached"):
        pipeline.detach_probe(sampler)
    pipeline.run()
    assert sampler.samples["cycle"] == list(range(6, 17))
    assert pipeline._delegate is None
    assert _payload(ActivityRecord.capture(pipeline)) \
        == _payload(ActivityRecord.capture(plain))


def test_occupancy_views_are_read_only_lengths(tight_loop, small_config):
    pipeline = FastPipeline(tight_loop, small_config)
    for _ in range(40):
        pipeline.step()
    assert pipeline.iq.occupancy == len(pipeline.iq) \
        == len(pipeline._iq_set)
    assert len(pipeline.rob) == len(pipeline._rob)
    assert len(pipeline.lsq) == len(pipeline._lsq)
    with pytest.raises(AttributeError):
        pipeline.iq.occupancy = 0
