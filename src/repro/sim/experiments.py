"""The paper's experiments.

Every table and figure in the evaluation (Section 3) and the compiler study
(Section 4) is regenerated from the functions here:

* :func:`sweep` -- the master baseline-vs-reuse sweep over issue-queue
  sizes {32, 64, 128, 256} (ROB = IQ, LSQ = IQ/2) that Figures 5-8 share,
* :func:`figure5_gating`, :func:`figure6_component_power`,
  :func:`figure7_overall_power`, :func:`figure8_performance` -- the
  per-figure tables extracted from the sweep,
* :func:`figure9_compiler_optimization` -- original vs loop-distributed
  code at the 64-entry baseline,
* :func:`nblt_ablation` -- the Section 3 claim that an 8-entry NBLT cuts
  the buffering revoke rate from ~40 % to below 10 %,
* :func:`strategy_ablation` -- single- vs multi-iteration buffering
  (Section 2.2.1).

Results are cached per (program, config) within a :class:`ExperimentRunner`
so that the four figures sharing one sweep pay for it once.  All
simulations execute through a :class:`~repro.runner.executor.JobExecutor`:
the default is serial and memory-only (identical behaviour to running
:func:`~repro.sim.simulator.simulate` directly), while
:func:`repro.runner.build_runner` wires in process-pool parallelism and
the persistent on-disk result cache.  Every experiment *prefetches* the
full set of simulations it needs in one executor batch before reading any
of them, so a parallel executor sees the whole sweep at once.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.arch.config import SWEEP_IQ_SIZES, MachineConfig
from repro.power.params import PowerParams
from repro.runner.executor import JobExecutor
from repro.runner.jobs import SimJob
from repro.sim.results import RunComparison, SimulationResult
from repro.workloads.suite import BENCHMARK_NAMES, WorkloadSuite


@dataclass
class SweepCell:
    """One (benchmark, issue-queue size) cell of the master sweep."""

    benchmark: str
    iq_size: int
    comparison: RunComparison

    @property
    def summary(self) -> Dict[str, float]:
        """Headline metrics of this cell."""
        return self.comparison.summary()


@dataclass
class ExperimentRunner:
    """Runs and caches all simulations behind the paper's figures."""

    benchmarks: Tuple[str, ...] = BENCHMARK_NAMES
    iq_sizes: Tuple[int, ...] = SWEEP_IQ_SIZES
    base_config: MachineConfig = field(default_factory=MachineConfig)
    suite: WorkloadSuite = field(default_factory=WorkloadSuite)
    executor: Optional[JobExecutor] = None
    _cache: Dict[tuple, SimulationResult] = field(default_factory=dict)

    def __post_init__(self):
        if self.executor is None:
            # serial, memory-only default: same behaviour as calling
            # simulate() directly, no persistent state
            self.executor = JobExecutor(jobs=1, cache=None,
                                        suite=self.suite)

    # -- execution through the runner subsystem -----------------------------

    def _pair_specs(self, benchmark: str, iq_size: int,
                    optimize: bool = False, **overrides) -> List[tuple]:
        """The (benchmark, config, optimize) baseline/reuse spec pair;
        ``overrides`` replace ``MachineConfig`` fields."""
        config = self.base_config.with_iq_size(iq_size).replace(**overrides)
        return [(benchmark, config.replace(reuse_enabled=reuse), optimize)
                for reuse in (False, True)]

    def prefetch(self, specs: Sequence[tuple]) -> None:
        """Resolve many (benchmark, config, optimize) specs in one batch.

        Specs already held in memory are skipped; the rest go to the
        executor as a single batch, so a parallel executor fans the whole
        sweep out at once and a persistent cache is probed exactly once
        per simulation.
        """
        wanted = []
        for benchmark, config, optimize in specs:
            key = (benchmark, optimize, config)
            if key not in self._cache:
                job = SimJob(benchmark=benchmark, config=config,
                             optimize=optimize)
                if job not in wanted:
                    wanted.append(job)
        if not wanted:
            return
        for job, result in self.executor.run(wanted).items():
            self._cache[(job.benchmark, job.optimize, job.config)] = result

    def _run(self, benchmark: str, config: MachineConfig,
             optimize: bool = False) -> SimulationResult:
        key = (benchmark, optimize, config)
        if key not in self._cache:
            self.prefetch([(benchmark, config, optimize)])
        return self._cache[key]

    def compare(self, benchmark: str, iq_size: int,
                optimize: bool = False, **overrides) -> RunComparison:
        """Baseline vs reuse for one benchmark/configuration."""
        specs = self._pair_specs(benchmark, iq_size, optimize, **overrides)
        self.prefetch(specs)
        (_, base_config, _), (_, reuse_config, _) = specs
        baseline = self._run(benchmark, base_config, optimize)
        reuse = self._run(benchmark, reuse_config, optimize)
        return RunComparison(baseline, reuse)

    def reevaluate(self, benchmark: str, iq_size: int,
                   params: Optional[PowerParams] = None,
                   style: Optional[str] = None,
                   optimize: bool = False, **overrides) -> RunComparison:
        """A :meth:`compare` pair re-costed under other power parameters.

        The timing runs come from the cache (in-memory or persistent) --
        re-costing an already-simulated pair under a new clocking style
        or parameter file performs zero simulations.
        """
        comparison = self.compare(benchmark, iq_size, optimize=optimize,
                                  **overrides)
        return comparison.reevaluate(params=params, style=style)

    # -- the master sweep (Figures 5-8) -------------------------------------

    def sweep(self, optimize: bool = False) -> List[SweepCell]:
        """All (benchmark, iq_size) cells.

        The full grid (benchmarks x IQ sizes x {baseline, reuse}) is
        prefetched as one executor batch, so the four figures sharing
        this sweep also share one parallel pass.
        """
        self.prefetch([
            spec
            for benchmark in self.benchmarks
            for iq_size in self.iq_sizes
            for spec in self._pair_specs(benchmark, iq_size,
                                         optimize=optimize)
        ])
        return [
            SweepCell(benchmark, iq_size,
                      self.compare(benchmark, iq_size, optimize=optimize))
            for benchmark in self.benchmarks
            for iq_size in self.iq_sizes
        ]

    def _metric_table(self, metric: str,
                      optimize: bool = False) -> Dict[str, Dict[int, float]]:
        table: Dict[str, Dict[int, float]] = {}
        for cell in self.sweep(optimize=optimize):
            table.setdefault(cell.benchmark, {})[cell.iq_size] = \
                cell.summary[metric]
        table["average"] = {
            iq: sum(table[b][iq] for b in self.benchmarks)
            / len(self.benchmarks)
            for iq in self.iq_sizes
        }
        return table

    def figure5_gating(self) -> Dict[str, Dict[int, float]]:
        """Figure 5: fraction of cycles with the front-end gated."""
        return self._metric_table("gated_fraction")

    def figure6_component_power(self) -> Dict[str, Dict[int, float]]:
        """Figure 6: average power reduction per component vs IQ size.

        Rows: icache / bpred / issue_queue / overhead; columns: IQ sizes.
        """
        rows = {"icache": "icache_power_reduction",
                "bpred": "bpred_power_reduction",
                "issue_queue": "iq_power_reduction",
                "overhead": "overhead_fraction"}
        cells = self.sweep()
        table: Dict[str, Dict[int, float]] = {}
        for row_name, metric in rows.items():
            table[row_name] = {}
            for iq in self.iq_sizes:
                values = [c.summary[metric] for c in cells
                          if c.iq_size == iq]
                table[row_name][iq] = sum(values) / len(values)
        return table

    def figure7_overall_power(self) -> Dict[str, Dict[int, float]]:
        """Figure 7: overall per-cycle power reduction per benchmark."""
        return self._metric_table("overall_power_reduction")

    def figure8_performance(self) -> Dict[str, Dict[int, float]]:
        """Figure 8: IPC degradation per benchmark."""
        return self._metric_table("ipc_degradation")

    # -- Figure 9 (Section 4) ---------------------------------------------------

    def figure9_compiler_optimization(
            self, iq_size: int = 64) -> Dict[str, Dict[str, float]]:
        """Figure 9: overall power reduction, original vs optimized code.

        Also reports the gated fractions and IPC degradation behind the
        text's 48 % -> 86 % and 1 % -> 2 % claims.
        """
        self.prefetch([
            spec
            for benchmark in self.benchmarks
            for optimize in (False, True)
            for spec in self._pair_specs(benchmark, iq_size,
                                         optimize=optimize)
        ])
        table: Dict[str, Dict[str, float]] = {}
        for benchmark in self.benchmarks:
            original = self.compare(benchmark, iq_size, optimize=False)
            optimized = self.compare(benchmark, iq_size, optimize=True)
            table[benchmark] = {
                "original": original.overall_power_reduction,
                "optimized": optimized.overall_power_reduction,
                "original_gated": original.gated_fraction,
                "optimized_gated": optimized.gated_fraction,
                "original_ipc_degradation": original.ipc_degradation,
                "optimized_ipc_degradation": optimized.ipc_degradation,
            }
        table["average"] = {
            key: sum(table[b][key] for b in self.benchmarks)
            / len(self.benchmarks)
            for key in next(iter(table.values()))
        }
        return table

    # -- ablations ---------------------------------------------------------------

    def nblt_ablation(self, iq_size: int = 64,
                      benchmarks: Optional[Iterable[str]] = None
                      ) -> Dict[str, Dict[str, float]]:
        """Buffering revoke rate with and without the NBLT (Section 3)."""
        names = tuple(benchmarks) if benchmarks else self.benchmarks
        self.prefetch([
            spec
            for benchmark in names
            for nblt_size in (8, 0)
            for spec in self._pair_specs(benchmark, iq_size,
                                         nblt_size=nblt_size)
        ])
        table: Dict[str, Dict[str, float]] = {}
        for benchmark in names:
            with_nblt = self.compare(benchmark, iq_size, nblt_size=8)
            without = self.compare(benchmark, iq_size, nblt_size=0)
            table[benchmark] = {
                "revoke_rate_with_nblt":
                    with_nblt.reuse.stats.revoke_rate,
                "revoke_rate_without_nblt":
                    without.reuse.stats.revoke_rate,
                "gated_with_nblt": with_nblt.gated_fraction,
                "gated_without_nblt": without.gated_fraction,
            }
        return table

    def strategy_ablation(self, iq_size: int = 64,
                          benchmarks: Optional[Iterable[str]] = None
                          ) -> Dict[str, Dict[str, float]]:
        """Single- vs multi-iteration buffering (Section 2.2.1)."""
        names = tuple(benchmarks) if benchmarks else self.benchmarks
        self.prefetch([
            spec
            for benchmark in names
            for strategy in ("multi", "single")
            for spec in self._pair_specs(benchmark, iq_size,
                                         buffering_strategy=strategy)
        ])
        table: Dict[str, Dict[str, float]] = {}
        for benchmark in names:
            multi = self.compare(benchmark, iq_size,
                                 buffering_strategy="multi")
            single = self.compare(benchmark, iq_size,
                                  buffering_strategy="single")
            table[benchmark] = {
                "gated_multi": multi.gated_fraction,
                "gated_single": single.gated_fraction,
                "ipc_degradation_multi": multi.ipc_degradation,
                "ipc_degradation_single": single.ipc_degradation,
            }
        return table
