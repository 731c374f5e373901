"""Cycle-sampled time series of the machine's occupancy and state.

A :class:`SamplingProbe` is an ordinary passive cycle probe
(:mod:`repro.arch.probe`): attach it to a pipeline and it records, every
``stride`` cycles, one row of the quantities the paper's figures are
built from over *time* rather than as end-of-run aggregates:

* issue-queue occupancy, split into buffered (classification-bit) and
  conventional entries,
* the controller state (Normal / Buffering / Reuse) and front-end gate
  flag,
* ROB and LSQ occupancy,
* NBLT fill.

Independently of the stride, the probe edge-tracks the controller state
and the gate signal every cycle (two attribute compares per cycle), so
the state *intervals* and gating *windows* exported to the timeline are
exact even when the series are sampled coarsely.

The probe is passive and zero-overhead when detached -- with no probe
attached the pipeline pays nothing, and the test suite asserts probed
and probe-free runs produce bit-identical statistics at every stride.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Tuple

from repro.arch.probe import PipelineProbe

#: Version stamped on serialized sampler payloads.
SAMPLER_SCHEMA_VERSION = 1

#: Column names of one sample row, in recorded order.
SERIES = ("cycle", "iq_occupancy", "iq_buffered", "rob_occupancy",
          "lsq_occupancy", "nblt_fill", "state", "gated")


class SamplingProbe(PipelineProbe):
    """Passive cycle probe recording strided occupancy/state series."""

    # reads only the controller, iq.occupancy, len(rob) and len(lsq)
    core_interface_only = True

    def __init__(self, stride: int = 1):
        if stride < 1:
            raise ValueError(f"stride must be >= 1, got {stride}")
        self.stride = stride
        #: Struct-of-arrays sample storage (see :data:`SERIES`).
        self.samples: Dict[str, List] = {name: [] for name in SERIES}
        #: Exact ``(state_name, first_cycle, last_cycle)`` intervals.
        self.state_intervals: List[Tuple[str, int, int]] = []
        #: Exact ``(first_cycle, last_cycle)`` front-end gating windows.
        self.gating_windows: List[Tuple[int, int]] = []
        self.last_cycle = 0
        self._open_state: Optional[Tuple[str, int]] = None
        self._gate_up_since: Optional[int] = None

    # -- probe hook --------------------------------------------------------

    def on_cycle(self, pipeline: Any) -> None:
        cycle = pipeline.cycle
        self.last_cycle = cycle
        controller = pipeline.controller
        state_name = controller.state.name
        # exact edge tracking, every cycle
        open_state = self._open_state
        if open_state is None:
            self._open_state = (state_name, cycle)
        elif open_state[0] != state_name:
            self.state_intervals.append(
                (open_state[0], open_state[1], cycle - 1))
            self._open_state = (state_name, cycle)
        gated = controller.gated
        if gated and self._gate_up_since is None:
            self._gate_up_since = cycle
        elif not gated and self._gate_up_since is not None:
            self.gating_windows.append((self._gate_up_since, cycle - 1))
            self._gate_up_since = None
        # strided series sampling
        if (cycle - 1) % self.stride:
            return
        samples = self.samples
        samples["cycle"].append(cycle)
        samples["iq_occupancy"].append(pipeline.iq.occupancy)
        samples["iq_buffered"].append(controller.resident_buffered())
        samples["rob_occupancy"].append(len(pipeline.rob))
        samples["lsq_occupancy"].append(len(pipeline.lsq))
        samples["nblt_fill"].append(len(controller.nblt))
        samples["state"].append(state_name)
        samples["gated"].append(1 if gated else 0)

    # -- queries -----------------------------------------------------------

    def __len__(self) -> int:
        return len(self.samples["cycle"])

    def closed_state_intervals(self) -> List[Tuple[str, int, int]]:
        """Every state interval, the still-open tail closed at the end."""
        intervals = list(self.state_intervals)
        if self._open_state is not None:
            name, start = self._open_state
            intervals.append((name, start, self.last_cycle))
        return intervals

    def closed_gating_windows(self) -> List[Tuple[int, int]]:
        """Every gating window, a still-raised gate closed at the end."""
        windows = list(self.gating_windows)
        if self._gate_up_since is not None:
            windows.append((self._gate_up_since, self.last_cycle))
        return windows

    def gated_cycle_total(self) -> int:
        """Total gated cycles implied by the (exact) gating windows."""
        return sum(last - first + 1
                   for first, last in self.closed_gating_windows())

    def summary(self) -> Dict[str, Any]:
        """Aggregates over the sampled series (for metric snapshots)."""
        count = len(self)
        occ = self.samples["iq_occupancy"]
        buffered = self.samples["iq_buffered"]
        rob = self.samples["rob_occupancy"]
        lsq = self.samples["lsq_occupancy"]

        def mean(values: List[int]) -> float:
            return sum(values) / count if count else 0.0

        return {
            "stride": self.stride,
            "samples": count,
            "last_cycle": self.last_cycle,
            "iq_occupancy_mean": mean(occ),
            "iq_occupancy_max": max(occ) if occ else 0,
            "iq_buffered_mean": mean(buffered),
            "iq_buffered_max": max(buffered) if buffered else 0,
            "rob_occupancy_mean": mean(rob),
            "lsq_occupancy_mean": mean(lsq),
            "nblt_fill_max": (max(self.samples["nblt_fill"])
                              if count else 0),
            "gated_cycles": self.gated_cycle_total(),
            "state_intervals": len(self.closed_state_intervals()),
            "gating_windows": len(self.closed_gating_windows()),
        }

    def to_payload(self) -> Dict[str, Any]:
        """Schema-versioned JSON-ready export of the full series."""
        return {
            "schema": SAMPLER_SCHEMA_VERSION,
            "stride": self.stride,
            "series": {name: list(values)
                       for name, values in self.samples.items()},
            "state_intervals": [list(iv) for iv
                                in self.closed_state_intervals()],
            "gating_windows": [list(w) for w
                               in self.closed_gating_windows()],
        }
