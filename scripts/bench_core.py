#!/usr/bin/env python3
"""Simulator-core speed scoreboard: object engine vs. array engine.

Runs every Table 2 kernel on both pipeline-core engines over the
no-probe fast path, verifies the activity records are byte-identical,
and writes ``benchmarks/BENCH_core.json``:

* **cycles/sec per kernel per engine** -- wall time of construct+run,
  best of ``--repeats`` (the quantity a sweep actually pays; the
  predecoded program image is shared and cached, exactly as in a sweep);
* **speedup** (array over object) per kernel -- the median of paired
  ratios: each repeat times one object run and one array run back to
  back, alternating which goes first, so a drift in the host's speed
  moves both halves of a pair instead of deciding the ratio -- plus a
  min/geomean summary;
* **peak traced heap bytes** per kernel per engine (``tracemalloc``
  around construct+run) so the two cores' memory profiles are
  comparable -- skipped under ``--quick``.

CI runs ``--quick --fail-below 3.0``: no memory pass, exit non-zero if
any kernel's median paired speedup is below 3x.  The committed
``BENCH_core.json`` comes from a full (default) run and is the repo's
tracked perf trajectory -- regenerate it when either core changes
materially.

Usage::

    PYTHONPATH=src python scripts/bench_core.py [--quick]
        [--repeats N] [--out PATH] [--fail-below RATIO]
        [--kernels NAME ...]
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import statistics
import sys
import time
import tracemalloc

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "src"))

from repro.arch.config import MachineConfig  # noqa: E402
from repro.power.activity import ActivityRecord  # noqa: E402
from repro.sim.simulator import ENGINES  # noqa: E402
from repro.workloads.suite import BENCHMARK_NAMES, WorkloadSuite  # noqa: E402

DEFAULT_OUT = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "benchmarks", "BENCH_core.json")


def _bench_config(reuse_mode: str = "loop") -> MachineConfig:
    """The benchmarked machine: the paper's reuse machine at IQ 64."""
    return MachineConfig(reuse_enabled=True, reuse_mode=reuse_mode)


def _record_json(pipeline) -> str:
    return json.dumps(ActivityRecord.capture(pipeline).to_payload(),
                      sort_keys=True)


def _time_paired(program, config, repeats: int):
    """Time ``repeats`` object/array pairs of construct+run, alternating
    which engine goes first; returns ``(walls, cycles, records,
    ratios)`` with ``walls[engine]`` the per-repeat wall seconds and
    ``ratios`` the per-pair object/array wall ratios (== speedups: both
    runs simulate the same cycles)."""
    walls = {engine: [] for engine in ENGINES}
    cycles = {}
    records = {}
    for repeat in range(repeats):
        order = sorted(ENGINES, reverse=bool(repeat % 2))
        for engine in order:
            start = time.perf_counter()
            pipeline = ENGINES[engine](program, config)
            stats = pipeline.run()
            walls[engine].append(time.perf_counter() - start)
            cycles[engine] = stats.cycles
            if engine not in records:  # captured outside the timed region
                records[engine] = _record_json(pipeline)
    ratios = [obj / arr for obj, arr in zip(walls["object"], walls["array"])]
    return walls, cycles, records, ratios


def _peak_bytes(core, program, config) -> int:
    """Peak traced heap bytes over one construct+run."""
    tracemalloc.start()
    try:
        pipeline = core(program, config)
        pipeline.run()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    del pipeline
    return peak


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true",
                        help="CI mode: skip the memory pass")
    parser.add_argument("--repeats", type=int, default=3, metavar="N",
                        help="object/array timing pairs per kernel "
                             "(default 3)")
    parser.add_argument("--out", default=DEFAULT_OUT, metavar="PATH",
                        help="report path (default benchmarks/"
                             "BENCH_core.json)")
    parser.add_argument("--fail-below", type=float, default=None,
                        metavar="RATIO",
                        help="exit non-zero if any kernel's median "
                             "paired array/object speedup is below RATIO")
    parser.add_argument("--kernels", nargs="+", metavar="NAME",
                        default=list(BENCHMARK_NAMES),
                        help="kernels to benchmark (default: all)")
    parser.add_argument("--reuse-mode", default="loop",
                        choices=("loop", "trace"), dest="reuse_mode",
                        help="reuse controller variant the benchmarked "
                             "machine runs (default: loop)")
    args = parser.parse_args(argv)
    repeats = args.repeats
    if repeats < 1:
        parser.error("--repeats must be >= 1")

    for name in args.kernels:
        if name not in BENCHMARK_NAMES:
            parser.error(f"unknown kernel {name!r}; choose from "
                         f"{', '.join(BENCHMARK_NAMES)}")

    suite = WorkloadSuite()
    config = _bench_config(args.reuse_mode)
    kernels = {}
    speedups = []
    for name in args.kernels:
        program = suite.program(name)
        walls, cycles, records, ratios = _time_paired(program, config,
                                                      repeats)
        per_engine = {}
        for engine, core in sorted(ENGINES.items()):
            best = min(walls[engine])
            per_engine[engine] = {
                "best_wall_seconds": round(best, 6),
                "cycles_per_second": round(cycles[engine] / best, 1),
            }
            if not args.quick:
                per_engine[engine]["peak_traced_bytes"] = \
                    _peak_bytes(core, program, config)
        if len(set(records.values())) != 1:
            print(f"FATAL: {name}: activity records differ across "
                  f"engines -- the array core is NOT bit-exact here; "
                  f"refusing to report a speedup for broken output",
                  file=sys.stderr)
            return 2
        speedup = statistics.median(ratios)
        speedups.append(speedup)
        kernels[name] = {
            "engines": per_engine,
            "speedup_array_over_object": round(speedup, 2),
            "paired_speedups": [round(ratio, 3) for ratio in ratios],
            "records_identical": True,
        }
        print(f"{name:8s} object {per_engine['object']['cycles_per_second']:>10,.0f} c/s   "
              f"array {per_engine['array']['cycles_per_second']:>10,.0f} c/s   "
              f"{speedup:.2f}x")

    geomean = math.exp(sum(math.log(s) for s in speedups) / len(speedups))
    report = {
        "schema": 1,
        "description": "pipeline-core engine comparison, no-probe path "
                       "(see docs/pipeline.md)",
        "machine": {
            "iq_size": config.iq_size,
            "reuse_enabled": config.reuse_enabled,
            "reuse_mode": config.reuse_mode,
        },
        "method": {
            "repeats": repeats,
            "quick": args.quick,
            "timed_region": "pipeline construction + run() to halt",
            "speedup": "median of per-repeat object/array wall ratios, "
                       "the two runs of a pair back to back, order "
                       "alternating",
            "python": platform.python_version(),
        },
        "kernels": kernels,
        "summary": {
            "min_speedup": round(min(speedups), 2),
            "geomean_speedup": round(geomean, 2),
            "kernels_at_3x": sum(1 for s in speedups if s >= 3.0),
            "kernels_at_5x": sum(1 for s in speedups if s >= 5.0),
            "kernel_count": len(speedups),
        },
    }
    os.makedirs(os.path.dirname(os.path.abspath(args.out)), exist_ok=True)
    with open(args.out, "w", encoding="utf-8") as handle:
        json.dump(report, handle, indent=2, sort_keys=True)
        handle.write("\n")
    print(f"geomean {geomean:.2f}x, min {min(speedups):.2f}x "
          f"-> {args.out}")

    if args.fail_below is not None and min(speedups) < args.fail_below:
        print(f"FAIL: min speedup {min(speedups):.2f}x is below the "
              f"{args.fail_below}x floor", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
