"""Pluggable pipeline probes.

A probe is an observer attached to a :class:`~repro.arch.pipeline.Pipeline`
via :meth:`~repro.arch.pipeline.Pipeline.attach_probe`.  Two hook families
exist, and a probe subscribes to a family simply by overriding its hooks:

* **stage hooks** -- :meth:`PipelineProbe.record` fires once per
  per-instruction lifecycle event (``fetch``, ``decode``, ``dispatch``,
  ``issue``, ``complete``, ``commit``) and
  :meth:`PipelineProbe.record_squash` once per squashed instruction.
  The tracer (:class:`~repro.arch.trace.PipelineTracer`) is a stage probe.
* **cycle hooks** -- :meth:`PipelineProbe.on_cycle` fires once at the end
  of every :meth:`~repro.arch.pipeline.Pipeline.step`.  The invariant
  validator (:class:`~repro.arch.validate.InvariantProbe`) is a cycle
  probe.

The pipeline inspects which hooks a probe actually overrides at attach
time and registers it only for those families, so a cycle-only probe never
costs a call per stage event and vice versa.  With no probes attached the
pipeline's dispatch slots stay ``None`` and the hot loop pays nothing
beyond the ``is not None`` checks it always performed.

Probes must be **passive**: they may read any pipeline state but must not
mutate it -- the test suite asserts that probed and probe-free runs produce
bit-identical statistics.

The array core (:class:`~repro.arch.fastcore.FastPipeline`) has no
per-instruction objects.  It drives a cycle probe itself only when the
probe's class declares :attr:`PipelineProbe.core_interface_only`; any
other probe makes it fall back to an object-core delegate.
"""

from __future__ import annotations


class PipelineProbe:
    """Base class for pipeline observers; every hook is an optional no-op.

    Subclassing is recommended but not required: any object whose class
    defines ``record`` / ``record_squash`` / ``on_cycle`` methods can be
    attached, and is registered for exactly the hooks it defines.
    """

    #: Declared by a cycle probe whose ``on_cycle`` reads only the
    #: observation surface of :class:`~repro.arch.interface.CoreInterface`
    #: (counters, controller, ``iq.occupancy``, ``len(rob)``,
    #: ``len(lsq)``): the array core then runs it natively instead of
    #: falling back to the object core.  A property of the probe's code,
    #: not a setting; ``False`` (the default) means "needs the object
    #: core".
    core_interface_only: bool = False

    def on_attach(self, pipeline) -> None:
        """Called when the probe is attached to ``pipeline``."""

    def on_detach(self, pipeline) -> None:
        """Called when the probe is detached from ``pipeline``."""

    def record(self, stage: str, dyn, cycle: int) -> None:
        """One instruction lifecycle event (see module doc for stages)."""

    def record_squash(self, dyn) -> None:
        """One instruction squashed by misprediction recovery."""

    def on_cycle(self, pipeline) -> None:
        """End of one pipeline cycle (after all stages have run)."""


def overrides_hook(probe, name: str) -> bool:
    """True if ``probe`` provides a real (non-default) ``name`` hook.

    A :class:`PipelineProbe` subclass counts only if it overrides the
    base no-op; a duck-typed object counts if it has the method at all.
    """
    method = getattr(type(probe), name, None)
    if method is None:
        return False
    return method is not getattr(PipelineProbe, name)
