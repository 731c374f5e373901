"""Command-line interface (``python -m repro``).

Subcommands
-----------

``run FILE.s``
    Assemble and simulate one program; print timing, gating, power and
    (with ``--stats``) the full counter dump.  ``--compare`` runs both
    machine modes and prints the paper's comparison metrics.

``reproduce [EXPERIMENT ...]``
    Regenerate the paper's tables/figures (default: all of
    table1 table2 fig5 fig6 fig7 fig8 fig9 nblt strategy).
    ``--jobs N`` fans the simulations out over a process pool;
    ``--cache-dir`` / ``--no-cache`` control the persistent result cache;
    ``--manifest PATH`` exports a JSON run manifest.

``bench NAME``
    Simulate one Table 2 benchmark in both modes at a chosen issue-queue
    size (same ``--jobs`` / cache flags as ``reproduce``).

``power``
    Re-cost an already-simulated sweep under another power
    parameterization -- a Wattch conditional-clocking style
    (``--style cc0|cc1|cc3``) and/or a JSON parameter-override file
    (``--params FILE``).  Timing runs come from the persistent cache;
    with a warm cache no simulation executes (verify with
    ``--manifest``).

``lint [TARGET ...]``
    Static bufferability analysis (rules B001-B010) over kernel names
    and/or ``.s`` files (default: the whole Table 2 suite).  ``--iq``
    sweeps issue-queue sizes, ``--format`` selects text/JSON/SARIF,
    ``--fail-on`` sets the exit-code threshold and ``--crosscheck``
    additionally verifies static predictions against the dynamic
    controller on the engine picked by ``--engine`` (see
    ``docs/analysis.md``).

``analyze [TARGET ...]``
    Static reuse-benefit prediction over the same targets: per-loop and
    per-instruction-type predicted buffered fraction plus the front-end
    energy delta under the paper's cost model, as JSON (default) or
    SARIF.  ``--check`` validates each prediction against a dynamic run
    on the ``--engine`` of choice (buffered fraction within
    ``--tolerance``, zero bufferability contradictions) and exits
    non-zero on any miss (see ``docs/analysis.md``).

``fuzz``
    Coverage-guided differential fuzzing campaign over mutated
    always-terminating programs: interpreter vs. baseline pipeline vs.
    reuse pipeline (vs. the array-core reuse pipeline with the default
    ``--engine array``), steered by a controller-behaviour coverage map.
    Prints a deterministic JSON campaign report; exits non-zero when any
    divergence was found.  ``--programs`` / ``--time-budget`` bound the
    run, ``--jobs`` fans mutants out over processes, ``--corpus-dir``
    collects replayable reproducers (see ``docs/fuzzing.md``).

``trace TARGET``
    Simulate one kernel (a ``.s`` file or a Table 2 benchmark name,
    reuse machine by default) with the telemetry session attached and
    export a Chrome trace-event JSON timeline (``--out``) viewable in
    Perfetto, plus an optional metric snapshot (``--metrics``).
    ``--stride`` thins the occupancy counter series; ``--stages`` adds
    per-instruction stage spans (see ``docs/telemetry.md``).  ``run``
    and ``reproduce`` accept ``--trace-out`` for the same timeline of,
    respectively, the simulated run and the runner's job schedule.

``serve``
    Run the simulation service: an asyncio HTTP job server over the
    runner (submit sweep -> job id -> poll/stream progress -> fetch
    results), with a crash-recoverable journal queue, a sharded worker
    pool, cache-first admission, per-client rate limiting and a
    ``/metrics`` telemetry endpoint (see ``docs/service.md``).

``cache``
    Inspect (``stats``) or clean (``purge``) the persistent result
    cache the runner and the service share.

``disasm FILE.s``
    Assemble a file and print the disassembly listing with labels.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
import time
from typing import List, Optional

from repro.analysis.crosscheck import crosscheck
from repro.analysis.lint import Severity, parse_severity, run_lint
from repro.arch.config import MachineConfig
from repro.isa.assembler import AssemblerError, assemble
from repro.power.params import CLOCKING_STYLES, DEFAULT_PARAMS
from repro.runner import SimJob, build_runner
from repro.sim.export import to_json
from repro.sim.report import format_percent_table
from repro.sim.reproduce import EXPERIMENT_NAMES, reproduce
from repro.sim.results import RunComparison
from repro.sim.simulator import simulate
from repro.sim.statsdump import render_stats
from repro.workloads.suite import BENCHMARK_NAMES, WorkloadSuite


def _machine_config(args) -> MachineConfig:
    config = MachineConfig().with_iq_size(args.iq)
    # --reuse is a three-way selector; the bare flag and the legacy
    # boolean default map onto the paper's loop controller
    mode = getattr(args, "reuse", "off")
    if mode is True:
        mode = "loop"
    elif mode in (False, None):
        mode = "off"
    return config.replace(
        reuse_enabled=mode != "off",
        reuse_mode=mode if mode != "off" else "loop",
        buffering_strategy=args.strategy,
        nblt_size=args.nblt,
    )


def _add_engine_option(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--engine", choices=("object", "array"),
                        default="array",
                        help="pipeline-core engine: 'array' is the "
                             "flat-state production core, 'object' the "
                             "reference core (bit-exact; see "
                             "docs/pipeline.md); default array")


def _add_machine_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--iq", type=int, default=64,
                        help="issue-queue entries (ROB=IQ, LSQ=IQ/2); "
                             "default 64")
    parser.add_argument("--reuse", nargs="?", const="loop", default="off",
                        choices=("loop", "trace", "off"),
                        help="reuse-capable issue queue controller: "
                             "'loop' (the paper's tight-loop detector; "
                             "also what a bare --reuse selects), 'trace' "
                             "(hot-trace generalization, see "
                             "docs/trace_reuse.md) or 'off' (default)")
    parser.add_argument("--strategy", choices=("single", "multi"),
                        default="multi",
                        help="buffering strategy (default: multi)")
    parser.add_argument("--nblt", type=int, default=8,
                        help="non-bufferable loop table entries "
                             "(0 disables); default 8")


def _add_runner_options(parser: argparse.ArgumentParser) -> None:
    """Flags shared by every command that executes through the runner."""
    parser.add_argument("--jobs", type=int, default=1, metavar="N",
                        help="simulations to run in parallel "
                             "(0 = one per CPU; default 1)")
    parser.add_argument("--cache-dir", metavar="DIR", default=None,
                        help="persistent result cache directory "
                             "(default: $REPRO_CACHE_DIR or "
                             "~/.cache/repro-sim)")
    parser.add_argument("--no-cache", action="store_true",
                        help="disable the persistent result cache")
    parser.add_argument("--timeout", type=float, default=None,
                        metavar="SECONDS",
                        help="per-job stall timeout before parallel "
                             "execution falls back to serial")
    parser.add_argument("--quiet", action="store_true",
                        help="suppress runner progress on stderr")
    parser.add_argument("--manifest", metavar="PATH", default=None,
                        help="write a JSON run manifest (events, wall "
                             "times, cache hit rate) to PATH")


def _load_program(path: str):
    try:
        with open(path) as handle:
            source = handle.read()
    except OSError as exc:
        raise SystemExit(f"error: cannot read {path}: {exc}")
    try:
        return assemble(source, name=path)
    except AssemblerError as exc:
        raise SystemExit(f"{path}: {exc}")


def _print_result(result, label: str) -> None:
    stats = result.stats
    print(f"[{label}] cycles={stats.cycles}  committed={stats.committed}  "
          f"ipc={stats.ipc:.3f}  gated={stats.gated_fraction:.1%}  "
          f"avg power={result.avg_power:.1f}/cycle")


def _emit_comparison(comparison: RunComparison, args) -> int:
    """Shared baseline-vs-reuse output block (``run --compare``, ``bench``).

    Honours ``--json`` (machine-readable dump and nothing else) and
    ``--stats`` (full counter dump of the reuse run after the summary).
    """
    if args.json:
        print(to_json(comparison))
        return 0
    _print_result(comparison.baseline, "baseline")
    _print_result(comparison.reuse, "reuse")
    print()
    for key, value in comparison.summary().items():
        print(f"{key:28s} {value:8.2%}")
    if args.stats:
        print()
        print(render_stats(comparison.reuse))
    return 0


def _build_runner_from_args(args, **runner_kwargs):
    """Construct the executor-backed experiment runner from CLI flags."""
    try:
        return build_runner(jobs=args.jobs,
                            cache_dir=args.cache_dir,
                            no_cache=args.no_cache,
                            timeout=args.timeout,
                            verbose=not args.quiet,
                            **runner_kwargs)
    except ValueError as exc:
        raise SystemExit(f"error: {exc}")


def _telemetry_session(args):
    """A TelemetrySession when ``--trace-out`` asked for one, else None."""
    if not getattr(args, "trace_out", None):
        return None
    from repro.telemetry import TelemetrySession
    return TelemetrySession(stride=getattr(args, "stride", 1),
                            stages=getattr(args, "stages", False))


def _cmd_run(args) -> int:
    program = _load_program(args.file)
    config = _machine_config(args)
    session = _telemetry_session(args)
    if args.compare:
        baseline = simulate(program, config.replace(reuse_enabled=False),
                            engine=args.engine)
        # with --compare the timeline shows the reuse run (the one whose
        # controller behaviour is worth looking at)
        reuse = simulate(program, config.replace(reuse_enabled=True),
                         telemetry=session, engine=args.engine)
        status = _emit_comparison(RunComparison(baseline, reuse), args)
    else:
        result = simulate(program, config, telemetry=session,
                          engine=args.engine)
        status = 0
        if args.json:
            print(to_json(result))
        else:
            _print_result(result, "reuse" if config.reuse_enabled
                          else "baseline")
            if args.stats:
                print()
                print(render_stats(result))
    if session is not None:
        session.write_trace(args.trace_out)
    return status


def _write_manifest(args, runner) -> None:
    """Export the run manifest when ``--manifest PATH`` was given."""
    if getattr(args, "manifest", None):
        runner.executor.progress.write_manifest(args.manifest)


def _write_runner_timeline(args, runner) -> None:
    """Export the runner's job-schedule timeline for ``--trace-out``."""
    if not getattr(args, "trace_out", None):
        return
    from repro.telemetry import runner_timeline, validate_trace
    payload = runner_timeline(runner.executor.progress)
    validate_trace(payload)
    with open(args.trace_out, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=1)
        handle.write("\n")


def _cmd_reproduce(args) -> int:
    names = args.experiments or None
    runner = _build_runner_from_args(args)
    try:
        reproduce(names, runner=runner)
    except ValueError as exc:
        raise SystemExit(f"error: {exc}")
    _write_manifest(args, runner)
    _write_runner_timeline(args, runner)
    return 0


def _cmd_bench(args) -> int:
    if args.name not in BENCHMARK_NAMES:
        raise SystemExit(f"error: unknown benchmark {args.name!r}; "
                         f"choose from {', '.join(BENCHMARK_NAMES)}")
    runner = _build_runner_from_args(args)
    executor = runner.executor
    config = _machine_config(args)
    jobs = [SimJob(benchmark=args.name,
                   config=config.replace(reuse_enabled=reuse),
                   optimize=args.optimize,
                   engine=args.engine)
            for reuse in (False, True)]
    start = time.perf_counter()
    results = executor.run(jobs)
    wall = time.perf_counter() - start
    comparison = RunComparison(results[jobs[0]], results[jobs[1]])
    status = _emit_comparison(comparison, args)
    if not args.json:
        cycles = (comparison.baseline.stats.cycles
                  + comparison.reuse.stats.cycles)
        print(f"[{args.engine} engine] {args.name}: {cycles} cycles in "
              f"{wall:.2f}s wall -> {cycles / wall:,.0f} cycles/sec "
              f"(both modes; includes runner + cache overhead -- see "
              f"scripts/bench_core.py for the no-overhead comparison)")
    if args.metrics_out:
        # both modes merged into one snapshot, split by the mode label;
        # activity records are deterministic, so the bytes written here
        # are identical at any --jobs level / cache temperature (the CI
        # telemetry-smoke job asserts exactly this)
        from repro.telemetry.metrics import registry_from_activity
        registry = registry_from_activity(comparison.baseline.activity,
                                          mode="baseline")
        registry_from_activity(comparison.reuse.activity, registry,
                               mode="reuse")
        registry.write(args.metrics_out)
    _write_manifest(args, runner)
    return status


def _load_params_file(path: str):
    """Build a :class:`PowerParams` from a JSON field-override file."""
    try:
        with open(path) as handle:
            overrides = json.load(handle)
    except OSError as exc:
        raise SystemExit(f"error: cannot read {path}: {exc}")
    except ValueError as exc:
        raise SystemExit(f"error: {path} is not valid JSON: {exc}")
    if not isinstance(overrides, dict):
        raise SystemExit(f"error: {path} must hold a JSON object of "
                         f"PowerParams field overrides")
    try:
        return dataclasses.replace(DEFAULT_PARAMS, **overrides)
    except TypeError as exc:
        raise SystemExit(f"error: bad parameter override in {path}: {exc}")


def _cmd_power(args) -> int:
    benchmarks = tuple(args.bench) if args.bench else BENCHMARK_NAMES
    for name in benchmarks:
        if name not in BENCHMARK_NAMES:
            raise SystemExit(f"error: unknown benchmark {name!r}; "
                             f"choose from {', '.join(BENCHMARK_NAMES)}")
    params = _load_params_file(args.params) if args.params \
        else DEFAULT_PARAMS
    runner_kwargs = {"benchmarks": benchmarks}
    if args.iq:
        runner_kwargs["iq_sizes"] = tuple(args.iq)
    runner = _build_runner_from_args(args, **runner_kwargs)
    cells = runner.sweep()
    # pure re-costing of the sweep's cached timing runs -- with a warm
    # cache the manifest shows zero simulations
    table = {}
    for cell in cells:
        recosted = cell.comparison.reevaluate(params=params,
                                              style=args.style)
        table.setdefault(cell.benchmark, {})[cell.iq_size] = \
            recosted.overall_power_reduction
    iq_sizes = tuple(runner.iq_sizes)
    if args.json:
        print(to_json({
            "style": args.style,
            "params_file": args.params,
            "overall_power_reduction": table,
        }))
    else:
        label = args.style or "cc3 (default)"
        print(format_percent_table(
            f"overall power reduction, clocking style {label}",
            table, columns=iq_sizes, column_header="bench \\ iq"))
    _write_manifest(args, runner)
    return 0


def _lint_programs(args):
    """Resolve lint targets: kernel names and/or ``.s`` source files."""
    targets = args.targets or list(BENCHMARK_NAMES)
    suite = WorkloadSuite()
    programs = []
    for target in targets:
        if target in BENCHMARK_NAMES:
            programs.append(suite.program(target,
                                          optimize=args.optimize))
        elif target.endswith(".s"):
            programs.append(_load_program(target))
        else:
            raise SystemExit(
                f"error: unknown lint target {target!r}; pass a "
                f"benchmark name ({', '.join(BENCHMARK_NAMES)}) or a "
                f".s file")
    return programs


def _cmd_lint(args) -> int:
    try:
        threshold = parse_severity(args.fail_on)
    except ValueError as exc:
        raise SystemExit(f"error: {exc}")
    programs = _lint_programs(args)
    iq_sizes = args.iq or [64]
    reports = []
    checks = []
    failed = False
    for iq in iq_sizes:
        config = MachineConfig().with_iq_size(iq)
        for program in programs:
            report = run_lint(program, config)
            reports.append(report)
            if report.fails(threshold):
                failed = True
            if args.crosscheck:
                result = crosscheck(
                    program, config.replace(reuse_enabled=True),
                    engine=args.engine)
                checks.append(result)
                if not result.ok:
                    failed = True
    if args.format == "json":
        payload = {"reports": [r.to_dict() for r in reports]}
        if args.crosscheck:
            payload["crosschecks"] = [c.to_dict() for c in checks]
        print(json.dumps(payload, indent=2))
    elif args.format == "sarif":
        logs = [r.to_sarif() for r in reports]
        merged = logs[0]
        for log in logs[1:]:
            merged["runs"].extend(log["runs"])
        print(json.dumps(merged, indent=2))
    else:
        for report in reports:
            print(report.render_text())
        for result in checks:
            verdict = "ok" if result.ok else "FAIL"
            print(f"crosscheck {result.program} iq={result.iq_size}: "
                  f"{verdict} {dict(sorted(result.counts.items()))}")
            for violation in result.violations:
                print(f"  {violation.check} @ cycle {violation.cycle}: "
                      f"{violation.message}")
    return 1 if failed else 0


def _render_prediction(report) -> str:
    """Human-readable block for one program/IQ prediction cell."""
    lines = [f"analyze {report.program} iq={report.iq_size}: "
             f"predicted buffered fraction "
             f"{report.predicted_fraction:.2%} "
             f"({report.predicted_supplied}/{report.predicted_committed} "
             f"committed), energy delta {report.energy_delta:+.1f} pJ"
             f"{' [approximate]' if report.approximate else ''}"]
    for loop in report.loops:
        if loop.blocked is None:
            verdict = (f"supplies {loop.predicted_supplied} "
                       f"({loop.buffered_iterations} buffered it x "
                       f"{loop.sessions} sessions)")
        else:
            verdict = f"blocked: {loop.blocked}"
        lines.append(
            f"  loop @{loop.tail_pc:#x} size={loop.size} "
            f"len={loop.iteration_length} trip={loop.trip.kind} "
            f"-> {verdict}")
    return "\n".join(lines)


def _cmd_analyze(args) -> int:
    from repro.analysis.crosscheck import check_prediction
    from repro.analysis.predict import predict_grid

    programs = _lint_programs(args)
    iq_sizes = args.iq or [64]
    params = _load_params_file(args.params) if args.params else None
    pairs = []
    for program in programs:
        for report in predict_grid(program, iq_sizes, params=params):
            pairs.append((program, report))
    checks = []
    failed = False
    if args.check:
        for program, report in pairs:
            config = MachineConfig().with_iq_size(report.iq_size)
            cell = check_prediction(program,
                                    config.replace(reuse_enabled=True),
                                    engine=args.engine,
                                    prediction=report)
            checks.append(cell)
            if not cell.ok(args.tolerance):
                failed = True
    if args.format == "json":
        payload = {"reports": [report.to_dict() for _, report in pairs]}
        if args.check:
            payload["checks"] = [cell.to_dict() for cell in checks]
        print(json.dumps(payload, indent=2))
    elif args.format == "sarif":
        logs = [report.to_sarif() for _, report in pairs]
        merged = logs[0]
        for log in logs[1:]:
            merged["runs"].extend(log["runs"])
        print(json.dumps(merged, indent=2))
    else:
        for _, report in pairs:
            print(_render_prediction(report))
        for cell in checks:
            verdict = "ok" if cell.ok(args.tolerance) else "FAIL"
            print(f"check {cell.program} iq={cell.iq_size} "
                  f"engine={cell.engine}: {verdict} "
                  f"predicted={cell.predicted_fraction:.2%} "
                  f"dynamic={cell.dynamic_fraction:.2%} "
                  f"|err|={cell.abs_error:.4f}")
            for message in cell.contradictions:
                print(f"  contradiction: {message}")
            for violation in cell.violations:
                print(f"  {violation.check} @ cycle {violation.cycle}: "
                      f"{violation.message}")
    return 1 if failed else 0


def _cmd_fuzz(args) -> int:
    from repro.fuzz import CampaignConfig, FuzzCampaign
    from repro.runner.progress import ProgressReporter

    if args.jobs < 0:
        raise SystemExit("error: jobs must be >= 0 (0 = one per CPU)")
    config = CampaignConfig(
        seed=args.seed,
        programs=args.programs,
        time_budget=args.time_budget,
        jobs=args.jobs,
        machine=_machine_config(args).replace(reuse_mode=args.reuse_mode),
        minimize=args.minimize,
        corpus_dir=args.corpus_dir,
        inject_bug=args.inject_bug,
        engine=args.engine,
    )
    reporter = ProgressReporter(verbose=not args.quiet)
    campaign = FuzzCampaign(config, progress=reporter)
    report = campaign.run()
    payload = json.dumps(report, indent=2, sort_keys=True)
    if args.report:
        parent = os.path.dirname(args.report)
        if parent:
            os.makedirs(parent, exist_ok=True)
        with open(args.report, "w", encoding="utf-8") as handle:
            handle.write(payload + "\n")
    else:
        print(payload)
    if args.manifest:
        parent = os.path.dirname(args.manifest)
        if parent:
            os.makedirs(parent, exist_ok=True)
        reporter.write_manifest(args.manifest)
    return 1 if report["findings"] else 0


def _cmd_trace(args) -> int:
    from repro.telemetry import TelemetrySession

    target = args.target
    if target in BENCHMARK_NAMES:
        program = WorkloadSuite().program(target, optimize=args.optimize)
    elif target.endswith(".s"):
        program = _load_program(target)
    else:
        raise SystemExit(
            f"error: unknown trace target {target!r}; pass a benchmark "
            f"name ({', '.join(BENCHMARK_NAMES)}) or a .s file")
    if args.stride < 1:
        raise SystemExit("error: --stride must be >= 1")
    config = _machine_config(args)
    if args.baseline:
        config = config.replace(reuse_enabled=False)
    session = TelemetrySession(stride=args.stride, stages=args.stages,
                               energy=args.energy)
    result = simulate(program, config, telemetry=session)
    session.write_trace(args.out)
    mode = "reuse" if config.reuse_enabled else "baseline"
    if args.metrics:
        session.write_metrics(args.metrics, mode=mode)
    summary = session.sampler.summary()
    print(f"[trace] {program.name} ({mode}): {result.cycles} cycles, "
          f"{summary['samples']} samples @ stride {args.stride}, "
          f"{summary['state_intervals']} state intervals, "
          f"{summary['gating_windows']} gating windows -> {args.out}",
          file=sys.stderr)
    if config.reuse_enabled:
        _print_reuse_contribution(result.stats, config.reuse_mode)
    if session.energy_probe is not None:
        _print_energy_attribution(session.energy_probe, result.cycles)
    return 0


def _print_reuse_contribution(stats, reuse_mode: str) -> None:
    """Per-instruction-type reuse-contribution table (``trace`` output)."""
    from repro.arch.stats import REUSE_TYPE_BUCKETS

    supplied = stats.reuse_supplied
    print(f"[trace] reuse contribution by instruction type "
          f"(controller={reuse_mode}, supplied={supplied}):",
          file=sys.stderr)
    for bucket in REUSE_TYPE_BUCKETS:
        count = getattr(stats, f"reuse_supplied_{bucket}")
        share = count / supplied if supplied else 0.0
        print(f"[trace]   {bucket:8s} {count:10d}  {share:6.1%}",
              file=sys.stderr)


def _print_energy_attribution(probe, cycles: int) -> None:
    """Per-component energy table (the paper's Fig. 6, live)."""
    from repro.power import COMPONENT_STAGES
    from repro.power.components import REPORT_COMPONENTS

    totals = probe.totals()
    grand = sum(totals.values())
    print(f"[trace] energy attribution by component "
          f"(total={grand:.0f}, avg={grand / cycles if cycles else 0.0:.2f}"
          f"/cycle):", file=sys.stderr)
    for name in REPORT_COMPONENTS:
        energy = totals.get(name, 0.0)
        share = energy / grand if grand else 0.0
        print(f"[trace]   {name:12s} {COMPONENT_STAGES[name]:8s}"
              f" {energy:14.0f}  {share:6.1%}", file=sys.stderr)


def _cmd_serve(args) -> int:
    import asyncio

    from repro.service import ServiceConfig, serve
    from repro.telemetry import configure_logging

    if args.workers < 1:
        raise SystemExit("error: --workers must be >= 1")
    if args.max_queue_depth < 1:
        raise SystemExit("error: --max-queue-depth must be >= 1")
    configure_logging(path=args.log_out, level=args.log_level,
                      default_stream=sys.stderr)
    config = ServiceConfig(
        host=args.host,
        port=args.port,
        workers=args.workers,
        cache_dir=args.cache_dir,
        state_dir=args.state_dir,
        max_queue_depth=args.max_queue_depth,
        rate=args.rate,
        burst=args.burst,
        per_job_timeout=args.timeout,
        max_retries=args.retries,
    )
    try:
        asyncio.run(serve(config))
    except KeyboardInterrupt:
        pass
    return 0


def _cmd_cache(args) -> int:
    from repro.runner.cache import ResultCache

    cache = ResultCache(args.cache_dir)
    as_json = args.json or args.format == "json"
    if args.action == "stats":
        stats = cache.stats()
        if as_json:
            print(json.dumps(stats, indent=2, sort_keys=True))
        else:
            print(f"cache directory  {stats['directory']}")
            print(f"payload schema   {stats['schema']}")
            print(f"entries          {stats['entries']}")
            print(f"bytes            {stats['bytes']}")
    else:  # purge
        removed = cache.purge_stale()
        if as_json:
            print(json.dumps({"evicted": removed}, indent=2,
                             sort_keys=True))
        else:
            print(f"evicted {removed} stale cache "
                  f"entr{'y' if removed == 1 else 'ies'} from "
                  f"{cache.cache_dir}")
    return 0


def _cmd_disasm(args) -> int:
    program = _load_program(args.file)
    print(program.listing())
    return 0


def build_parser() -> argparse.ArgumentParser:
    """Construct the CLI argument parser."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduction of 'Scheduling Reusable Instructions "
                    "for Power Reduction' (DATE 2004)")
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="assemble and simulate a program")
    run.add_argument("file", help="assembly source file")
    run.add_argument("--compare", action="store_true",
                     help="run baseline and reuse machines and compare")
    run.add_argument("--stats", action="store_true",
                     help="print the full statistics dump")
    run.add_argument("--json", action="store_true",
                     help="emit machine-readable JSON instead of text")
    run.add_argument("--trace-out", metavar="PATH", default=None,
                     help="write a Chrome trace-event timeline of the "
                          "run (with --compare: of the reuse run)")
    _add_machine_options(run)
    _add_engine_option(run)
    run.set_defaults(func=_cmd_run)

    rep = sub.add_parser("reproduce",
                         help="regenerate the paper's tables and figures")
    rep.add_argument("experiments", nargs="*", metavar="EXPERIMENT",
                     help=f"subset to run (default: all of "
                          f"{' '.join(EXPERIMENT_NAMES)})")
    rep.add_argument("--trace-out", metavar="PATH", default=None,
                     help="write a Chrome trace-event timeline of the "
                          "runner's job schedule")
    _add_runner_options(rep)
    rep.set_defaults(func=_cmd_reproduce)

    bench = sub.add_parser("bench",
                           help="run one Table 2 benchmark in both modes")
    bench.add_argument("name", help="benchmark name (e.g. aps, btrix)")
    bench.add_argument("--optimize", action="store_true",
                       help="use the loop-distributed variant (Section 4)")
    bench.add_argument("--stats", action="store_true",
                       help="print the full statistics dump")
    bench.add_argument("--json", action="store_true",
                       help="emit machine-readable JSON instead of text")
    bench.add_argument("--metrics-out", metavar="PATH", default=None,
                       help="write a telemetry metric snapshot of both "
                            "modes (byte-identical at any --jobs level)")
    _add_machine_options(bench)
    _add_engine_option(bench)
    _add_runner_options(bench)
    bench.set_defaults(func=_cmd_bench)

    power = sub.add_parser(
        "power",
        help="re-cost cached timing runs under other power parameters")
    power.add_argument("--style", choices=CLOCKING_STYLES, default=None,
                       help="Wattch conditional-clocking style "
                            "(default: the calibrated cc3 parameters)")
    power.add_argument("--params", metavar="FILE", default=None,
                       help="JSON file of PowerParams field overrides")
    power.add_argument("--bench", nargs="+", metavar="NAME", default=None,
                       help="benchmarks to include (default: all)")
    power.add_argument("--iq", nargs="+", type=int, metavar="N",
                       default=None,
                       help="issue-queue sizes to include "
                            "(default: the paper's sweep)")
    power.add_argument("--json", action="store_true",
                       help="emit machine-readable JSON instead of text")
    _add_runner_options(power)
    power.set_defaults(func=_cmd_power)

    lint = sub.add_parser(
        "lint",
        help="static bufferability analysis (rules B001-B010)")
    lint.add_argument("targets", nargs="*", metavar="TARGET",
                      help="benchmark names and/or .s files "
                           "(default: the whole suite)")
    lint.add_argument("--iq", nargs="+", type=int, metavar="N",
                      default=None,
                      help="issue-queue size(s) to evaluate the loop "
                           "rules at (default: 64)")
    lint.add_argument("--format", choices=("text", "json", "sarif"),
                      default="text",
                      help="report format (default: text)")
    lint.add_argument("--fail-on",
                      choices=tuple(s.label for s in Severity),
                      default="error",
                      help="exit non-zero when a finding at or above "
                           "this severity exists (default: error)")
    lint.add_argument("--crosscheck", action="store_true",
                      help="also run each program through the timing "
                           "simulator and verify static/dynamic "
                           "concordance")
    lint.add_argument("--optimize", action="store_true",
                      help="lint the loop-distributed kernel variants")
    _add_engine_option(lint)
    lint.set_defaults(func=_cmd_lint)

    analyze = sub.add_parser(
        "analyze",
        help="static reuse-benefit prediction (buffered fraction, "
             "energy delta)")
    analyze.add_argument("targets", nargs="*", metavar="TARGET",
                         help="benchmark names and/or .s files "
                              "(default: the whole suite)")
    analyze.add_argument("--iq", nargs="+", type=int, metavar="N",
                         default=None,
                         help="issue-queue size(s) to predict at "
                              "(default: 64)")
    analyze.add_argument("--format", choices=("json", "sarif", "text"),
                         default="json",
                         help="report format (default: json)")
    analyze.add_argument("--params", metavar="FILE", default=None,
                         help="JSON file of PowerParams field overrides "
                              "for the energy model")
    analyze.add_argument("--check", action="store_true",
                         help="validate each prediction against a "
                              "dynamic timing run and exit non-zero on "
                              "any miss")
    analyze.add_argument("--tolerance", type=float, default=0.05,
                         metavar="F",
                         help="max absolute buffered-fraction error "
                              "--check accepts (default 0.05)")
    analyze.add_argument("--optimize", action="store_true",
                         help="analyze the loop-distributed kernel "
                              "variants")
    _add_engine_option(analyze)
    analyze.set_defaults(func=_cmd_analyze)

    fuzz = sub.add_parser(
        "fuzz",
        help="coverage-guided differential fuzzing campaign")
    fuzz.add_argument("--seed", type=int, default=0,
                      help="campaign PRNG seed (default 0); the report "
                           "is a deterministic function of it")
    fuzz.add_argument("--programs", type=int, default=200, metavar="N",
                      help="mutant budget (default 200)")
    fuzz.add_argument("--time-budget", type=float, default=60.0,
                      metavar="SECONDS",
                      help="wall-clock safety cap (default 60; 0 "
                           "disables -- determinism holds when the "
                           "program budget binds first)")
    fuzz.add_argument("--jobs", type=int, default=1, metavar="N",
                      help="mutants to evaluate in parallel "
                           "(0 = one per CPU; default 1)")
    fuzz.add_argument("--corpus-dir", metavar="DIR", default=None,
                      help="write findings (minimized reproducers + "
                           "manifests) to this directory")
    fuzz.add_argument("--minimize", default=True,
                      action=argparse.BooleanOptionalAction,
                      help="shrink findings to minimal reproducers "
                           "(default on)")
    fuzz.add_argument("--iq", type=int, default=32,
                      help="issue-queue entries for the campaign "
                           "machine (default 32)")
    fuzz.add_argument("--nblt", type=int, default=8,
                      help="non-bufferable loop table entries "
                           "(default 8)")
    fuzz.add_argument("--strategy", choices=("single", "multi"),
                      default="multi",
                      help="buffering strategy (default: multi)")
    fuzz.add_argument("--reuse-mode", choices=("loop", "trace"),
                      default="loop", dest="reuse_mode",
                      help="controller variant the reuse oracle legs "
                           "run (default: loop; see docs/trace_reuse.md)")
    fuzz.add_argument("--engine", choices=("object", "array"),
                      default="array",
                      help="oracle engine: 'array' (default) runs the "
                           "four-way oracle including the flat-state "
                           "fast core, 'object' the historical "
                           "three-way oracle")
    fuzz.add_argument("--report", metavar="PATH", default=None,
                      help="write the JSON campaign report to PATH "
                           "instead of stdout")
    fuzz.add_argument("--manifest", metavar="PATH", default=None,
                      help="write a JSON runner manifest (events, wall "
                           "times) to PATH")
    fuzz.add_argument("--quiet", action="store_true",
                      help="suppress progress events on stderr")
    fuzz.add_argument("--inject-bug", default=None,
                      help=argparse.SUPPRESS)
    fuzz.set_defaults(func=_cmd_fuzz)

    trace = sub.add_parser(
        "trace",
        help="simulate a kernel and export a Perfetto-viewable timeline")
    trace.add_argument("target",
                       help="a .s source file or a Table 2 benchmark "
                            "name")
    trace.add_argument("--out", metavar="PATH", default="trace.json",
                       help="trace-event JSON output path "
                            "(default: trace.json)")
    trace.add_argument("--metrics", metavar="PATH", default=None,
                       help="also write a metric snapshot to PATH")
    trace.add_argument("--stride", type=int, default=1, metavar="N",
                       help="sample the occupancy counter series every "
                            "N cycles (state/gating intervals stay "
                            "exact; default 1)")
    trace.add_argument("--stages", action="store_true",
                       help="include per-instruction stage spans "
                            "(bounded tracer; adds async slices)")
    trace.add_argument("--baseline", action="store_true",
                       help="trace the baseline machine instead of the "
                            "reuse machine")
    trace.add_argument("--no-energy", dest="energy",
                       action="store_false", default=True,
                       help="skip the live per-component energy "
                            "attribution (Fig. 6 table + "
                            "sim_energy_component metrics)")
    trace.add_argument("--optimize", action="store_true",
                       help="use the loop-distributed kernel variant")
    _add_machine_options(trace)
    # the interesting timeline is the reuse machine's -- default it on
    # (--baseline flips it back off)
    trace.set_defaults(func=_cmd_trace, reuse="loop")

    srv = sub.add_parser(
        "serve",
        help="run the simulation service (async HTTP job server)")
    srv.add_argument("--host", default="127.0.0.1",
                     help="bind address (default 127.0.0.1)")
    srv.add_argument("--port", type=int, default=8642,
                     help="bind port (default 8642; 0 = ephemeral)")
    srv.add_argument("--workers", type=int, default=2, metavar="N",
                     help="worker lanes sharding the job-key space; "
                          "each runs simulations in its own child "
                          "process (default 2)")
    srv.add_argument("--cache-dir", metavar="DIR", default=None,
                     help="persistent result cache directory "
                          "(default: $REPRO_CACHE_DIR or "
                          "~/.cache/repro-sim)")
    srv.add_argument("--state-dir", metavar="DIR",
                     default=".repro-service",
                     help="directory for the job journal "
                          "(default .repro-service)")
    srv.add_argument("--max-queue-depth", type=int, default=256,
                     metavar="N",
                     help="reject submissions that would push the "
                          "queue past N jobs with 503 (default 256)")
    srv.add_argument("--rate", type=float, default=0.0, metavar="R",
                     help="per-client token-bucket refill rate in "
                          "requests/second (0 disables; default 0)")
    srv.add_argument("--burst", type=float, default=20.0, metavar="B",
                     help="per-client token-bucket capacity "
                          "(default 20)")
    srv.add_argument("--timeout", type=float, default=None,
                     metavar="SECONDS",
                     help="per-job simulation timeout; a job past it "
                          "fails instead of wedging a worker lane")
    srv.add_argument("--retries", type=int, default=1, metavar="N",
                     help="failed-job retry budget (default 1)")
    srv.add_argument("--log-out", metavar="PATH", default=None,
                     help="append structured JSONL logs to PATH "
                          "(default: $REPRO_LOG, else stderr)")
    srv.add_argument("--log-level",
                     choices=("debug", "info", "warning", "error"),
                     default=None,
                     help="log threshold (default: $REPRO_LOG_LEVEL "
                          "or info)")
    srv.set_defaults(func=_cmd_serve)

    cache = sub.add_parser(
        "cache",
        help="inspect or clean the persistent result cache")
    cache.add_argument("action", choices=("stats", "purge"),
                       help="'stats' prints an inventory; 'purge' "
                            "evicts stale-schema entries")
    cache.add_argument("--cache-dir", metavar="DIR", default=None,
                       help="cache directory (default: "
                            "$REPRO_CACHE_DIR or ~/.cache/repro-sim)")
    cache.add_argument("--json", action="store_true",
                       help="emit machine-readable JSON instead of "
                            "text (alias for --format json)")
    cache.add_argument("--format", choices=("text", "json"),
                       default="text",
                       help="output format (default text)")
    cache.set_defaults(func=_cmd_cache)

    dis = sub.add_parser("disasm", help="assemble and list a program")
    dis.add_argument("file", help="assembly source file")
    dis.set_defaults(func=_cmd_disasm)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except BrokenPipeError:
        # output piped into a pager/head that closed early: not an error
        return 0
    except KeyboardInterrupt:
        # Ctrl-C mid-sweep: exit cleanly with the conventional code
        # instead of dumping a traceback across the report
        print("interrupted", file=sys.stderr)
        return 130


if __name__ == "__main__":
    sys.exit(main())
