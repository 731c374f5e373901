"""Live per-component energy attribution (the paper's Fig. 6, online).

:func:`~repro.power.model.PowerModel.component_energies` is pure post-hoc
arithmetic over an activity record.  This module turns that batch
computation into a *live metric*: an :class:`EnergyAttributionProbe`
rides a running pipeline, periodically re-costs the current counters and
folds the per-component energy *deltas* into a
``sim_energy_component{component=..., stage=...}`` counter in a
:class:`~repro.telemetry.metrics.MetricRegistry`.

Correctness rests on the power model being **monotone and linear** in
the activity counters for a fixed configuration: every counter only
grows cycle over cycle, every component energy is a non-negative linear
combination of counters (plus a term in ``gated_base_cycles``, itself
monotone in cycles), so per-stride deltas telescope -- the folded
counter equals the one-shot :meth:`PowerModel.component_energies` total
up to floating-point rounding.  :meth:`EnergyAttributionProbe.finalize`
closes the last partial stride from the finished
:class:`~repro.power.activity.ActivityRecord`, so the reconciliation
against ``evaluate_power()`` is exact modulo FP accumulation (~1e-9
relative in practice; tests allow 1e-6).

The service folds completed jobs through :func:`fold_component_energies`
(the one-shot form) so ``GET /metrics?format=prom`` exposes a running
energy breakdown across every simulated job.
"""

from __future__ import annotations

from typing import Any, Dict, Mapping, Optional

from repro.arch.probe import PipelineProbe
from repro.power.activity import harvest_counters
from repro.power.components import COMPONENT_STAGES
from repro.power.model import PowerModel
from repro.power.params import DEFAULT_PARAMS, PowerParams
from repro.telemetry.metrics import MetricRegistry

#: Name of the attribution counter in the registry.
ENERGY_COUNTER = "sim_energy_component"

_ENERGY_HELP = ("Attributed simulation energy by microarchitectural "
                "component (arbitrary Wattch-style units)")


def fold_component_energies(registry: MetricRegistry, activity: Mapping,
                            config, params: PowerParams = DEFAULT_PARAMS,
                            **labels: Any) -> float:
    """Cost ``activity`` once and fold it into ``registry``.

    One-shot companion to :class:`EnergyAttributionProbe` for callers
    that already hold a finished record (the service's job-completion
    path).  Extra ``labels`` ride on every sample.  Returns the total
    energy folded (== ``PowerModel.total_energy`` on the record).
    """
    counter = registry.counter(ENERGY_COUNTER, help=_ENERGY_HELP)
    energies = PowerModel(config, params).component_energies(activity)
    total = 0.0
    for name, component in energies.items():
        energy = component.total_energy
        counter.inc(energy, component=name,
                    stage=COMPONENT_STAGES.get(name, "global"), **labels)
        total += energy
    return total


class EnergyAttributionProbe(PipelineProbe):
    """Cycle probe folding live energy deltas into a metric registry.

    Passive by contract: it only reads counters (via
    :func:`~repro.power.activity.harvest_counters`) and writes to its
    own registry.  That is all of the core it touches, so it declares
    ``core_interface_only`` and runs natively on the array core.

    ``stride`` trades sampling freshness against cost: the model is
    re-evaluated every ``stride`` cycles (and once more at
    :meth:`finalize`, which closes the run exactly).
    """

    core_interface_only = True

    def __init__(self, registry: Optional[MetricRegistry] = None,
                 params: PowerParams = DEFAULT_PARAMS, stride: int = 64,
                 **labels: Any):
        if stride < 1:
            raise ValueError("stride must be >= 1")
        self.registry = registry if registry is not None \
            else MetricRegistry()
        self.params = params
        self.stride = stride
        self.labels = dict(labels)
        self._counter = self.registry.counter(ENERGY_COUNTER,
                                              help=_ENERGY_HELP)
        self._model: Optional[PowerModel] = None
        #: Cumulative energy already folded, per component.
        self._last: Dict[str, float] = {}
        self._ticks = 0
        self._finalized = False

    # -- probe hooks -------------------------------------------------------

    def on_attach(self, pipeline) -> None:
        self._model = PowerModel(pipeline.config, self.params)
        self._last = {}
        self._ticks = 0
        self._finalized = False

    def on_cycle(self, pipeline) -> None:
        self._ticks += 1
        if self._ticks % self.stride == 0:
            self._fold(harvest_counters(pipeline))

    # -- folding -----------------------------------------------------------

    def _fold(self, activity: Mapping) -> None:
        assert self._model is not None, "probe used before on_attach"
        for name, component in \
                self._model.component_energies(activity).items():
            delta = component.total_energy - self._last.get(name, 0.0)
            # FP noise can make a no-progress stride microscopically
            # negative; emit only real growth so the counter stays valid
            if delta > 0.0:
                self._counter.inc(
                    delta, component=name,
                    stage=COMPONENT_STAGES.get(name, "global"),
                    **self.labels)
                self._last[name] = self._last.get(name, 0.0) + delta

    def finalize(self, activity: Mapping) -> float:
        """Close the run from its finished activity record.

        Folds whatever the last stride missed so the counter totals
        reconcile with the one-shot model on the same record.  Idempotent
        (a second call folds a zero delta).  Returns the cumulative
        total folded over the run's lifetime.
        """
        self._fold(activity)
        self._finalized = True
        return sum(self._last.values())

    # -- inspection --------------------------------------------------------

    def totals(self) -> Dict[str, float]:
        """Cumulative folded energy per component."""
        return dict(self._last)


__all__ = [
    "ENERGY_COUNTER",
    "EnergyAttributionProbe",
    "fold_component_energies",
]
