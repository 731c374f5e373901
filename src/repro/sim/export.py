"""Machine-readable export of simulation results.

Turns :class:`~repro.sim.results.SimulationResult` and
:class:`~repro.sim.results.RunComparison` objects into plain dicts / JSON
for downstream tooling (plotting scripts, regression dashboards).  The CLI
exposes this through ``--json``.

Two levels of export exist:

* :func:`result_to_dict` -- the *reporting* export: headline metrics,
  counters and per-component power, for humans and plotting scripts;
* :func:`result_to_payload` / :func:`result_from_payload` -- the
  *round-trip* export used by the persistent result cache in
  :mod:`repro.runner.cache`.  Since schema 3 the payload carries only the
  run's :class:`~repro.power.activity.ActivityRecord` -- timing facts,
  never derived energies -- and :func:`result_from_payload` re-derives a
  :class:`SimulationResult` under whatever power parameters the caller
  wants.  JSON preserves Python floats bit-for-bit, so re-derived metrics
  are byte-identical to a fresh simulation's.

:data:`SCHEMA_VERSION` versions the round-trip payload; cache entries
written under a different version are treated as stale and re-run.
"""

from __future__ import annotations

import json
from typing import Any, Dict

from repro.arch.stats import PipelineStats
from repro.power.activity import ActivityRecord
from repro.power.params import DEFAULT_PARAMS, PowerParams
from repro.sim.results import RunComparison, SimulationResult
from repro.sim.simulator import evaluate_power

__all__ = [
    "SCHEMA_VERSION", "result_to_dict",
    "comparison_to_dict", "result_to_payload", "result_from_payload",
    "stats_from_dict", "to_json",
]

#: Version of the round-trip payload layout.  Bump whenever the payload
#: shape or the meaning of a persisted field changes; persistent cache
#: entries with a different version are evicted and recomputed.
#: History: 2 carried a full result (stats + energies under one parameter
#: set); 3 carries the activity record only, so one cached timing run
#: serves every power parameterization; 4 adds the pipeline-core engine
#: to the job content-hash key (array/object runs never share entries),
#: invalidating every pre-engine cache entry; 5 adds the reuse-mode
#: selector (loop vs trace controller) and trace-head table size to the
#: config payload and the activity record's ``trace`` counter group.
SCHEMA_VERSION = 5


def result_to_dict(result: SimulationResult) -> Dict[str, Any]:
    """Full export of one run: config (:meth:`MachineConfig.to_dict`),
    headline metrics, counters, power."""
    stats = result.stats
    return {
        "program": result.program_name,
        "config": result.config.to_dict(),
        "metrics": {
            "cycles": result.cycles,
            "committed": result.stats.committed,
            "ipc": result.ipc,
            "gated_fraction": result.gated_fraction,
            "total_energy": result.total_energy,
            "avg_power": result.avg_power,
            "revoke_rate": stats.revoke_rate,
            "loop_detections": stats.loop_detections,
            "buffering_started": stats.buffering_started,
        },
        "counters": {key: int(value)
                     for key, value in result.activity.items()},
        "revokes": {
            "total": stats.revokes,
            "buffering": stats.buffering_revokes,
            "inner_loop": stats.revokes_inner_loop,
            "exit": stats.revokes_exit,
            "iq_full": stats.revokes_iq_full,
            "mispredict": stats.revokes_mispredict,
            "divergence": stats.revokes_divergence,
        },
        "power": {
            name: {
                "active_energy": component.active_energy,
                "base_energy": component.base_energy,
                "avg_power": component.avg_power,
            }
            for name, component in result.energies.items()
        },
    }


def comparison_to_dict(comparison: RunComparison) -> Dict[str, Any]:
    """Export a baseline-vs-reuse comparison with both runs embedded."""
    return {
        "summary": comparison.summary(),
        "baseline": result_to_dict(comparison.baseline),
        "reuse": result_to_dict(comparison.reuse),
    }


def result_to_payload(result: SimulationResult) -> Dict[str, Any]:
    """Round-trip export: the timing facts needed to rebuild the result.

    Unlike :func:`result_to_dict` (a reporting format), this persists the
    run's :class:`~repro.power.activity.ActivityRecord` -- every counter
    plus the final architectural register file -- from which
    :func:`result_from_payload` re-derives a :class:`SimulationResult`
    under any power parameters.  Energies are *not* stored: they are
    arithmetic over the record.  The machine configuration is likewise
    not embedded -- the caller (the job cache) already owns the
    authoritative :class:`~repro.arch.config.MachineConfig` and passes it
    back in.
    """
    activity = result.activity
    if not isinstance(activity, ActivityRecord):
        activity = ActivityRecord(program_name=result.program_name,
                                  counters=dict(activity),
                                  registers=list(result.registers))
    return {
        "schema": SCHEMA_VERSION,
        "record": activity.to_payload(),
    }


def stats_from_dict(counters: Dict[str, int]) -> PipelineStats:
    """Rebuild a :class:`PipelineStats` from its :meth:`as_dict` export.

    Unknown keys (from a different stats layout) raise ``KeyError`` so the
    cache treats the entry as stale rather than silently dropping data.
    """
    stats = PipelineStats()
    for name, value in counters.items():
        if name not in PipelineStats.__slots__:
            raise KeyError(f"unknown pipeline counter {name!r}")
        setattr(stats, name, value)
    return stats


def result_from_payload(payload: Dict[str, Any], config,
                        params: PowerParams = DEFAULT_PARAMS
                        ) -> SimulationResult:
    """Inverse of :func:`result_to_payload`.

    ``config`` is the :class:`~repro.arch.config.MachineConfig` the run was
    executed under (owned by the job spec, not the payload); ``params``
    selects the power parameterization the rebuilt result is costed
    under -- the payload itself is parameter-free.  Raises ``KeyError`` /
    ``TypeError`` / ``ValueError`` on malformed payloads -- callers (the
    persistent cache) treat any of those as a stale entry.
    """
    if payload.get("schema") != SCHEMA_VERSION:
        raise ValueError(
            f"payload schema {payload.get('schema')!r} != {SCHEMA_VERSION}")
    record = ActivityRecord.from_payload(payload["record"])
    return evaluate_power(record, config, params)


def to_json(obj, indent: int = 2) -> str:
    """Serialise a result or comparison to JSON text."""
    if isinstance(obj, SimulationResult):
        payload = result_to_dict(obj)
    elif isinstance(obj, RunComparison):
        payload = comparison_to_dict(obj)
    elif isinstance(obj, dict):
        payload = obj
    else:
        raise TypeError(f"cannot export {type(obj).__name__}")
    return json.dumps(payload, indent=indent, sort_keys=True)
