"""The seam between simulation drivers and pipeline core engines.

:class:`CoreInterface` is the structural protocol every cycle-level core
implements.  Two engines exist today:

* :class:`repro.arch.pipeline.Pipeline` -- the **object core**: one
  ``DynInst`` object per in-flight instruction, queue entries as objects.
  Reference semantics and full probe support: the executable spec the
  fuzz oracle and the crosscheck harness check against, and the core
  stage tracers and the invariant checker run on.
* :class:`repro.arch.fastcore.FastPipeline` -- the **array core**, the
  default: all in-flight state lives in preallocated parallel columns
  indexed by slot id.  Bit-exact with the object core (byte-identical
  activity records) but several times faster.  Cycle probes that declare
  :attr:`~repro.arch.probe.PipelineProbe.core_interface_only` run on it
  natively; attaching any other probe *before the first cycle*
  transparently falls back to a delegate object core so observers keep
  working unchanged.

``sim.simulator.run_timing(engine=...)`` selects between them; see
``docs/pipeline.md`` for when to pick which.
"""

from __future__ import annotations

from typing import List, Optional, Protocol, runtime_checkable

from repro.arch.stats import PipelineStats


@runtime_checkable
class CoreInterface(Protocol):
    """What a pipeline core must expose to drivers and activity capture.

    Attributes (all read after or between cycles, never mutated by
    callers): ``program``, ``config``, ``stats``, ``hierarchy``,
    ``predictor``, ``mem_image``, ``fetch_unit`` (needs ``.loop_cache``),
    ``controller`` (needs ``.events`` / ``.transitions`` / ``.state`` /
    ``.gated`` / ``.enabled``), ``cycle`` and ``halted``; and, for cycle
    probes, ``iq`` (needs ``.occupancy``), ``rob`` and ``lsq`` (need
    ``len()``).  This is the surface a ``core_interface_only`` probe may
    read.
    """

    cycle: int
    halted: bool
    stats: PipelineStats

    def run(self, max_cycles: Optional[int] = None) -> PipelineStats:
        """Run to the committed halt; raises SimulationTimeout otherwise."""
        ...

    def step(self) -> None:
        """Advance the machine by exactly one cycle."""
        ...

    def attach_probe(self, probe) -> None:
        """Attach an observer (see :mod:`repro.arch.probe`)."""
        ...

    def detach_probe(self, probe) -> None:
        """Detach a previously attached observer."""
        ...

    def architectural_registers(self) -> List:
        """Committed register values (for oracle comparison)."""
        ...
