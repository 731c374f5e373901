"""Parallel experiment-runner subsystem.

The execution layer between the paper's experiment definitions
(:mod:`repro.sim.experiments`) and the simulator: declarative job specs,
a persistent content-addressed result cache, a process-pool executor with
serial fallback, and structured progress reporting.

=====================================  =================================
:mod:`repro.runner.jobs`               :class:`SimJob` spec + content-
                                       hash cache keys
:mod:`repro.runner.cache`              on-disk schema-versioned
                                       :class:`ResultCache`
:mod:`repro.runner.executor`           :class:`JobExecutor` fan-out /
                                       fallback engine
:mod:`repro.runner.progress`           :class:`ProgressReporter` events
                                       and run manifests
=====================================  =================================

:func:`build_runner` is the one-call constructor the CLI, the scripts and
the benchmark harness share.
"""

from __future__ import annotations

from typing import Optional

from repro.runner.cache import CACHE_DIR_ENV, ResultCache, default_cache_dir
from repro.runner.executor import (
    JobExecutor,
    default_job_count,
    execute_job,
    run_tasks,
    worker_suite,
)
from repro.runner.jobs import SimJob, job_key
from repro.runner.progress import ProgressReporter, RunEvent

__all__ = [
    "SimJob",
    "job_key",
    "ResultCache",
    "default_cache_dir",
    "CACHE_DIR_ENV",
    "JobExecutor",
    "default_job_count",
    "execute_job",
    "run_tasks",
    "ProgressReporter",
    "RunEvent",
    "build_runner",
    "worker_suite",
]


def build_runner(jobs: int = 1,
                 cache_dir=None,
                 no_cache: bool = False,
                 timeout: Optional[float] = None,
                 verbose: bool = False,
                 progress: Optional[ProgressReporter] = None,
                 **runner_kwargs):
    """Construct an :class:`~repro.sim.experiments.ExperimentRunner`
    backed by this subsystem.

    Parameters mirror the CLI flags: ``jobs`` (0 = one worker per CPU),
    ``cache_dir`` (None = the default directory), ``no_cache`` (disable
    the persistent store entirely), ``timeout`` (per-job seconds before
    the pool is declared stalled), ``verbose`` (render progress events to
    stderr).  Extra keyword arguments (``benchmarks``, ``iq_sizes``, ...)
    pass through to the :class:`ExperimentRunner` constructor; without
    a ``suite`` the runners share the compiled :func:`worker_suite`.
    """
    # imported here: repro.sim.experiments imports this package's modules
    from repro.sim.experiments import ExperimentRunner

    reporter = progress or ProgressReporter(verbose=verbose)
    cache = None if no_cache else ResultCache(cache_dir)
    suite = runner_kwargs.pop("suite", None) or worker_suite()
    executor = JobExecutor(jobs=jobs, cache=cache, timeout=timeout,
                           progress=reporter, suite=suite)
    return ExperimentRunner(suite=suite, executor=executor,
                            **runner_kwargs)
