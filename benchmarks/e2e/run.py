#!/usr/bin/env python3
"""End-to-end benchmark of record: four workloads, timed from outside.

Run from the repository root::

    python3 benchmarks/e2e/run.py                      # all four workloads
    python3 benchmarks/e2e/run.py --workload sweep-direct --seed 7
    python3 benchmarks/e2e/run.py --workload fuzz-oracle --trace 1 --out DIR
    python3 benchmarks/e2e/run.py --smoke              # < 20 s self-check

Workloads (see README.md for why each was chosen):

* ``sweep-direct``  -- cold Figure 5 (8 kernels x IQ 32-256 x base/reuse,
  64 timing runs) through ``build_runner(jobs=2)``, then warm re-runs of
  the same figure on the now-warm result cache for ``--seconds``;
* ``sweep-service`` -- three fresh ``repro serve --workers 2`` in turn,
  each sent the IQ-32 column of Figure 5 cold over HTTP; then, on the
  last, ``--seconds`` of open-loop warm traffic at 20 req/s over 2
  connections;
* ``fuzz-oracle``   -- ``FuzzCampaign`` of 400 programs on the default
  four-way oracle, then ``--seconds`` of in-process oracle replays of
  the corpus the campaign kept;
* ``trace-energy``  -- the ``repro trace`` path (stride 1, live energy
  attribution, trace export) for all 8 kernels.

Every workload calls the program's public entry points with their
default settings (no ``engine=``), checks its outputs against
``golden.json``, prints every metric as ``name value unit`` and ends with
one JSON line ``{"correct", "attempted", "failed", "metrics"}``: the
``end_to_end`` metrics of ``BENCHMARK.json`` untraced, its ``per_layer``
metrics with ``--trace 1``.  The traced run replays the workload
serially with spans around each public call and writes them as a
Chrome trace (Perfetto-loadable) into ``--out``.  Any failed check makes
the command exit 1.
"""

from __future__ import annotations

import argparse
import asyncio
from contextlib import contextmanager
import hashlib
import inspect
import json
import multiprocessing
import os
import pathlib
import platform
import random
import resource
import shutil
import signal
import socket
import statistics
import subprocess
import sys
import time
import traceback
from typing import Any, Callable, Dict, List, Optional, Tuple

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent.parent
SRC = ROOT / "src"
BENCHMARK_JSON = ROOT / "BENCHMARK.json"
GOLDEN_PATH = HERE / "golden.json"

if not (SRC / "repro" / "__init__.py").is_file():
    sys.exit(f"error: {SRC / 'repro'} is missing; run from a full checkout")
sys.path.insert(0, str(SRC))

from repro.arch.config import SWEEP_IQ_SIZES, MachineConfig  # noqa: E402
from repro.fuzz.campaign import CampaignConfig, FuzzCampaign  # noqa: E402
from repro.fuzz.coverage import CoverageMap, CoverageProbe  # noqa: E402
from repro.fuzz.mutate import MutationEngine, render  # noqa: E402
from repro.fuzz.oracle import (  # noqa: E402
    cycle_limit_for,
    first_divergence,
    run_differential,
)
from repro.isa.assembler import assemble  # noqa: E402
from repro.isa.interpreter import run_program  # noqa: E402
from repro.power.activity import ActivityRecord  # noqa: E402
from repro.power.model import PowerModel  # noqa: E402
from repro.runner import (  # noqa: E402
    ResultCache,
    SimJob,
    build_runner,
    execute_job,
    job_key,
    run_tasks,
)
from repro.runner.progress import ProgressReporter  # noqa: E402
from repro.service.client import ServiceClient, ServiceError  # noqa: E402
from repro.service.jobqueue import JobSpec  # noqa: E402
from repro.sim.export import result_to_dict  # noqa: E402
from repro.sim.results import RunComparison  # noqa: E402
from repro.sim.simulator import (  # noqa: E402
    ENGINES,
    evaluate_power,
    simulate,
)
from repro.telemetry import TelemetrySession, validate_trace_file  # noqa: E402
from repro.workloads.suite import BENCHMARK_NAMES, WorkloadSuite  # noqa: E402

WORKLOADS = ("sweep-direct", "sweep-service", "fuzz-oracle", "trace-energy")
DEFAULT_SEED = 7
#: Load is sized for a 2-core host: 2 pool workers, 2 service lanes,
#: 2 client connections, one load-generating process.
JOBS = 2
CONNECTIONS = 2
#: Open-loop warm request rate of ``sweep-service`` (about 45 % of the
#: closed-loop capacity measured on a 2-core host).
WARM_RATE = 20.0
#: Cold IQ-32 columns an untraced ``sweep-service`` run submits, each to
#: a fresh server and cache; it reports their median.
COLD_REPEATS = 3
#: Warm request mix: three resubmits per ``/results`` fetch.
WARM_BLOCK = ("submit", "submit", "submit", "results")
#: The fuzz campaign is pinned to one seed: its cost depends strongly on
#: the seed (13-23 s for seeds 7-9 at 600 programs), which would swamp
#: any change under test.  ``--seed`` orders the other workloads' inputs.
FUZZ_SEED = 7
FUZZ_PROGRAMS = 400
#: Fuzz programs replayed serially by the traced run.
FUZZ_REPLAY = 600
#: Jobs whose pool-dispatch overhead the traced sweep replay samples.
DISPATCH_SAMPLES = 4
#: The Figure 5 band the IQ-32 average gated fraction must lie in.
FIG5_IQ32_BAND = (0.2, 0.6)
#: Relative tolerance of the energy-attribution reconciliation.
RECONCILE_TOL = 1e-6
CLIENT_ERRORS = (ServiceError, ConnectionError, OSError,
                 asyncio.TimeoutError, asyncio.IncompleteReadError)


# -- small helpers -------------------------------------------------------------


def percentile(values: List[float], fraction: float) -> float:
    """Linear-interpolated percentile (``fraction`` in [0, 1])."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of no samples")
    position = fraction * (len(ordered) - 1)
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def tail_fraction(count: int) -> float:
    """Highest percentile with at least ten samples beyond it."""
    return max(0.5, 1.0 - 10.0 / count) if count else 0.5


def payload_digest(payload: Dict[str, Any]) -> str:
    """sha256 of an activity-record payload in canonical JSON."""
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def record_name(benchmark: str, iq_size: int, reuse: bool) -> str:
    return f"{benchmark}/{iq_size}/{'reuse' if reuse else 'baseline'}"


def records_digest(digests: Dict[str, str]) -> str:
    """One digest over per-record digests, sorted by (kernel, IQ, mode)."""
    def order(name: str) -> Tuple[str, int, str]:
        benchmark, iq, mode = name.split("/")
        return benchmark, int(iq), mode

    sha = hashlib.sha256()
    for name in sorted(digests, key=order):
        sha.update(f"{name}={digests[name]}\n".encode("ascii"))
    return sha.hexdigest()


def peak_rss_mb(extra_kb: int = 0) -> float:
    """Largest RSS of this process, its waited-for children, or extra."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children, extra_kb) / 1024.0


def default_engines() -> Dict[str, str]:
    """The pipeline engine each entry point's defaults actually use."""
    return {
        "runner": SimJob(benchmark="tsf", config=MachineConfig()).engine,
        "simulate": inspect.signature(simulate).parameters["engine"].default,
        "fuzz": CampaignConfig().engine,
    }


def git_rev() -> str:
    if not (ROOT / ".git").exists():
        return "unknown"
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() or "unknown"


def environment() -> Dict[str, Any]:
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "git_rev": git_rev(),
        "engines": default_engines(),
        "loadavg_at_start": list(os.getloadavg()),
    }


def load_json(path: pathlib.Path) -> Dict[str, Any]:
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)


def repro_env() -> Dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


# -- accounting ----------------------------------------------------------------


class Tally:
    """Attempted and failed operations of one run."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.failures: List[str] = []

    def check(self, label: str, ok: bool, detail: str = "") -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.failures.append(f"{label}: {detail}" if detail else label)
        return ok

    def record(self, attempted: int, failures: List[str]) -> None:
        """Count a batch of operations, ``failures`` of which failed."""
        self.attempted += attempted
        self.failed += len(failures)
        self.failures += failures


class Spans:
    """In-memory span list, written once at exit as Chrome trace events.

    Each span has a name, a layer, start and end (``perf_counter``
    seconds), the index of its parent span and the workload.  Nesting of
    synchronous calls follows a stack; concurrent callers pass ``parent``
    explicitly through :meth:`record`.
    """

    def __init__(self, workload: str, enabled: bool):
        self.workload = workload
        self.enabled = enabled
        self.items: List[Dict[str, Any]] = []
        self._stack: List[int] = []

    @contextmanager
    def span(self, name: str, layer: str):
        if not self.enabled:
            yield None
            return
        index = self.open(name, layer)
        try:
            yield index
        finally:
            self.close(index)

    def open(self, name: str, layer: str) -> int:
        parent = self._stack[-1] if self._stack else None
        self.items.append({"name": name, "layer": layer,
                           "start": time.perf_counter(), "end": None,
                           "parent": parent, "workload": self.workload})
        self._stack.append(len(self.items) - 1)
        return len(self.items) - 1

    def close(self, index: int) -> None:
        self.items[index]["end"] = time.perf_counter()
        self._stack.remove(index)

    def record(self, name: str, layer: str, start: float, end: float,
               parent: Optional[int]) -> None:
        if self.enabled:
            self.items.append({"name": name, "layer": layer, "start": start,
                               "end": end, "parent": parent,
                               "workload": self.workload})

    def total(self, name: str) -> float:
        """Summed duration of every span called ``name``."""
        return sum(s["end"] - s["start"] for s in self.items
                   if s["name"] == name)

    def self_times(self) -> Dict[str, float]:
        """Per-layer self time: span duration minus its children's union."""
        children: Dict[int, List[Tuple[float, float]]] = {}
        for span in self.items:
            if span["parent"] is not None:
                children.setdefault(span["parent"], []).append(
                    (span["start"], span["end"]))
        totals: Dict[str, float] = {}
        for index, span in enumerate(self.items):
            covered = union_length(children.get(index, []),
                                   span["start"], span["end"])
            totals[span["layer"]] = totals.get(span["layer"], 0.0) \
                + (span["end"] - span["start"]) - covered
        return totals

    def coverage(self, start: float, end: float) -> float:
        """Share of ``[start, end]`` covered by top-level spans."""
        tops = [(s["start"], s["end"]) for s in self.items
                if s["parent"] is None]
        return union_length(tops, start, end) / (end - start)

    def chrome_trace(self, origin: float) -> Dict[str, Any]:
        layers = sorted({s["layer"] for s in self.items})
        tids = {layer: index + 1 for index, layer in enumerate(layers)}
        events: List[Dict[str, Any]] = [
            {"ph": "M", "name": "process_name", "pid": 1,
             "args": {"name": f"e2e bench: {self.workload}"}}]
        events += [{"ph": "M", "name": "thread_name", "pid": 1,
                    "tid": tids[layer], "args": {"name": layer}}
                   for layer in layers]
        for index, span in enumerate(self.items):
            events.append({
                "ph": "X", "name": span["name"], "cat": span["layer"],
                "pid": 1, "tid": tids[span["layer"]],
                "ts": round((span["start"] - origin) * 1e6, 3),
                "dur": round((span["end"] - span["start"]) * 1e6, 3),
                "args": {"span": index, "parent": span["parent"],
                         "workload": span["workload"]}})
        return {"traceEvents": events, "displayTimeUnit": "ms"}


def union_length(intervals: List[Tuple[float, float]], low: float,
                 high: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[low, high]``."""
    total = 0.0
    cursor = low
    for start, end in sorted(intervals):
        start, end = max(start, cursor), min(end, high)
        if end > start:
            total += end - start
            cursor = end
    return total


# -- open-loop load ------------------------------------------------------------


async def open_loop(send: Callable[[int, str], Any], kinds: List[str],
                    rate: float, connections: int) -> List[Dict[str, Any]]:
    """Issue ``kinds[i]`` when due at ``i / rate`` over ``connections``.

    A generator enqueues each request at its due time; each connection
    takes the oldest queued request once its previous one completed.
    Latency is measured from the due time, so a stalled request delays
    -- and is charged to -- every request queued behind it.  ``send``
    is ``await send(connection, kind) -> ok``.  Returns one sample per
    request: kind, latency and how late the generator enqueued it.
    """
    loop = asyncio.get_running_loop()
    queue: asyncio.Queue = asyncio.Queue()
    samples: List[Dict[str, Any]] = []
    start = loop.time()

    async def generate() -> None:
        for index, kind in enumerate(kinds):
            due = start + index / rate
            delay = due - loop.time()
            if delay > 0:
                await asyncio.sleep(delay)
            queue.put_nowait((kind, due, loop.time() - due))
        for _ in range(connections):
            queue.put_nowait(None)

    async def serve(connection: int) -> None:
        while True:
            item = await queue.get()
            if item is None:
                return
            kind, due, late = item
            ok = await send(connection, kind)
            samples.append({"kind": kind, "latency": loop.time() - due,
                            "late": late, "ok": ok})

    await asyncio.gather(generate(),
                         *[serve(index) for index in range(connections)])
    return samples


# -- the run context -----------------------------------------------------------


class Run:
    """Everything one workload run measures and checks."""

    def __init__(self, workload: str, seed: int, seconds: float,
                 trace: bool, smoke: bool, workdir: pathlib.Path,
                 golden: Dict[str, Any]):
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.smoke = smoke
        self.workdir = workdir
        self.golden = golden
        self.rng = random.Random(seed)
        self.tally = Tally()
        self.spans = Spans(workload, enabled=trace)
        self.metrics: Dict[str, Dict[str, Any]] = {}
        self.details: Dict[str, Any] = {}
        #: (build seconds, run seconds, cycles) of every pipeline run of a
        #: traced replay, and the gated fraction of every reuse run.
        self.sims: List[Tuple[float, float, int]] = []
        self.gated: List[float] = []
        self.program_builds: List[float] = []
        #: Set-up time samples (seconds), spread over the run.
        self.setups: List[float] = []
        #: The ``sims`` entry of each replayed sweep record, by name.
        self.timings: Dict[str, Tuple[float, float, int]] = {}

    def metric(self, name: str, value: float, unit: str) -> None:
        self.metrics[name] = {"value": value, "unit": unit}

    def latency_metrics(self, prefix: str, seconds: List[float]) -> None:
        """Median and p95 in ms, with the sample count in the details."""
        millis = [value * 1000.0 for value in seconds]
        self.metric(f"{prefix}_p50_ms", statistics.median(millis), "ms")
        self.metric(f"{prefix}_p95_ms", percentile(millis, 0.95), "ms")
        self.details[f"{prefix}_n"] = len(millis)
        self.details[f"{prefix}_tail"] = {
            "percentile": round(100 * tail_fraction(len(millis)), 2),
            "ms": percentile(millis, tail_fraction(len(millis)))}

    def check_record(self, name: str, payload: Dict[str, Any]) -> None:
        """An activity record must equal the pinned one byte for byte."""
        want = self.golden["records"].get(name)
        got = payload_digest(payload)
        self.tally.check(f"record {name}", got == want,
                         f"digest {got[:12]} != golden {str(want)[:12]}")

    def grid(self, names=BENCHMARK_NAMES, iq_sizes=SWEEP_IQ_SIZES
             ) -> Tuple[Tuple[str, ...], Tuple[int, ...]]:
        """Seed-ordered benchmarks and IQ sizes (the submission order)."""
        if self.smoke:
            names, iq_sizes = ("tsf",), (32,)
        return (tuple(self.rng.sample(list(names), len(names))),
                tuple(self.rng.sample(list(iq_sizes), len(iq_sizes))))

    def simulate_timed(self, program, config, engine: str) -> ActivityRecord:
        """Construct, run and capture one pipeline with layer spans."""
        start = time.perf_counter()
        with self.spans.span(f"ENGINES[{engine}]()", "arch"):
            pipeline = ENGINES[engine](program, config)
        built = time.perf_counter()
        with self.spans.span(".run()", "arch"):
            pipeline.run()
        ran = time.perf_counter()
        with self.spans.span("ActivityRecord.capture", "power"):
            record = ActivityRecord.capture(pipeline)
        self.sims.append((built - start, ran - built, record["cycles"]))
        if config.reuse_enabled:
            self.gated.append(record.pipeline_stats().gated_fraction)
        return record


# -- set-up time ---------------------------------------------------------------

#: What each workload sets up before its first operation, run in a fresh
#: interpreter so imports count.  ``{cache}`` is a scratch directory.
SETUP_CODE = {
    "sweep-direct": (
        "from repro.runner import build_runner\n"
        "runner = build_runner(jobs={jobs}, cache_dir={cache!r})\n"
        "for name in runner.benchmarks:\n"
        "    runner.suite.program(name)\n"),
    "fuzz-oracle": (
        "from repro.fuzz.campaign import CampaignConfig, FuzzCampaign\n"
        "FuzzCampaign(CampaignConfig(seed={seed}, programs={programs}, "
        "time_budget=0, jobs={jobs}))\n"),
    "trace-energy": (
        "from repro.arch.config import MachineConfig\n"
        "from repro.sim.simulator import simulate\n"
        "from repro.telemetry import TelemetrySession\n"
        "from repro.workloads.suite import BENCHMARK_NAMES, WorkloadSuite\n"
        "suite = WorkloadSuite()\n"
        "for name in BENCHMARK_NAMES:\n"
        "    suite.program(name)\n"
        "TelemetrySession(stride=1, energy=True)\n"
        "MachineConfig(reuse_enabled=True)\n"),
}


def measure_setup(run: Run, repeats: int) -> None:
    """Time the workload's set-up ``repeats`` times, each in a new process.

    Workloads call this before and after their measured phases: the
    host's speed drifts over seconds, and samples spread over the run
    give a median that drifts less than back-to-back ones.
    """
    code = SETUP_CODE[run.workload].format(
        jobs=JOBS, cache=str(run.workdir / "setup-cache"),
        seed=FUZZ_SEED, programs=FUZZ_PROGRAMS)
    probe = ("import time\n_t = time.perf_counter()\n" + code
             + "print(time.perf_counter() - _t)\n")
    for _ in range(0 if run.smoke and run.setups else repeats):
        out = subprocess.run([sys.executable, "-c", probe], cwd=ROOT,
                             env=repro_env(), capture_output=True,
                             text=True, timeout=120)
        if run.tally.check("setup", out.returncode == 0,
                           out.stderr.strip()[-300:]):
            run.setups.append(float(out.stdout.strip().splitlines()[-1]))


# -- sweep-direct --------------------------------------------------------------


def sweep_records(runner) -> Dict[str, Dict[str, Any]]:
    """Activity-record payloads of a resolved sweep, by record name."""
    payloads = {}
    for cell in runner.sweep():
        for reuse, result in ((False, cell.comparison.baseline),
                              (True, cell.comparison.reuse)):
            name = record_name(cell.benchmark, cell.iq_size, reuse)
            payloads[name] = result.activity.to_payload()
    return payloads


def check_band(run: Run, average: float) -> None:
    """Figure 5's IQ-32 average gated fraction (full kernel set only)."""
    if run.smoke:
        return
    low, high = FIG5_IQ32_BAND
    run.tally.check("figure 5 IQ-32 band", low <= average <= high,
                    f"{average:.4f} outside [{low}, {high}]")


def sweep_direct(run: Run) -> None:
    names, iq_sizes = run.grid()
    cache_dir = run.workdir / "cache"
    measure_setup(run, 3)

    start = time.perf_counter()
    runner = build_runner(jobs=JOBS, cache_dir=cache_dir,
                          benchmarks=names, iq_sizes=iq_sizes)
    table = runner.figure5_gating()
    wall = time.perf_counter() - start
    records = sweep_records(runner)
    run.tally.check("sweep size",
                    len(records) == 2 * len(names) * len(iq_sizes))
    for name, payload in records.items():
        run.check_record(name, payload)
    check_band(run, table["average"][32])
    committed = sum(p["counters"]["committed"] for p in records.values())
    run.metric("time_to_result_s", wall, "s")
    run.metric("sim_kips", committed / wall / 1000.0, "kinstr/s")

    # the second `repro reproduce fig5`: every job a cache hit
    latencies = []
    deadline = time.perf_counter() + run.seconds
    while time.perf_counter() < deadline:
        start = time.perf_counter()
        warm = build_runner(jobs=JOBS, cache_dir=cache_dir,
                            benchmarks=names, iq_sizes=iq_sizes)
        again = warm.figure5_gating()
        latencies.append(time.perf_counter() - start)
        simulated = warm.executor.progress.summary()["simulated"]
        run.tally.check("warm figure 5", again == table and not simulated,
                        f"{simulated} simulated or table differs")
    run.latency_metrics("request", latencies)
    measure_setup(run, 2)
    run.metric("peak_rss_mb", peak_rss_mb(), "MB")


def replay_sweep(run: Run, names, iq_sizes) -> Dict[str, Any]:
    """Serial in-process replay of a sweep grid, one span per public call.

    Returns the jobs, records and job wall times, by record name.
    """
    suite = WorkloadSuite()
    with run.spans.span("build programs", "bench"):
        for name in names if run.smoke else BENCHMARK_NAMES:
            for optimize in (False, True):
                start = time.perf_counter()
                with run.spans.span("WorkloadSuite.program", "workloads"):
                    suite.program(name, optimize=optimize)
                run.program_builds.append(time.perf_counter() - start)
    cache = ResultCache(run.workdir / "replay-cache")
    replay: Dict[str, Any] = {"jobs": {}, "records": {}, "wall": {}}
    with run.spans.span("replay jobs", "bench"):
        for name in names:
            program = suite.program(name)
            for iq_size in iq_sizes:
                for reuse in (False, True):
                    label = record_name(name, iq_size, reuse)
                    job = JobSpec(benchmark=name, iq_size=iq_size,
                                  reuse=reuse).to_sim_job()
                    start = time.perf_counter()
                    with run.spans.span("job_key", "runner"):
                        key = job_key(job, program)
                    with run.spans.span("ResultCache.load", "runner"):
                        cached = cache.load(key)
                    run.tally.check(f"cold cache {label}", cached is None)
                    record = run.simulate_timed(program, job.config,
                                                   job.engine)
                    run.timings[label] = run.sims[-1]
                    with run.spans.span("payload round trip", "power"):
                        record = ActivityRecord.from_payload(
                            record.to_payload())
                    with run.spans.span("ResultCache.store", "runner"):
                        cache.store(key, job, record)
                    replay["wall"][label] = time.perf_counter() - start
                    replay["jobs"][label] = job
                    replay["records"][label] = record
                    run.check_record(label, record.to_payload())
    with run.spans.span("evaluate", "bench"):
        for name in names:
            for iq_size in iq_sizes:
                pair = [record_name(name, iq_size, reuse)
                        for reuse in (False, True)]
                with run.spans.span("evaluate_power+summary", "power"):
                    comparison = RunComparison(*[
                        evaluate_power(replay["records"][label],
                                       replay["jobs"][label].config)
                        for label in pair])
                    comparison.summary()
                for result in (comparison.baseline, comparison.reuse):
                    with run.spans.span("result_to_dict", "sim"):
                        result_to_dict(result)
    return replay


def reuse_cost_ratio(run: Run) -> float:
    """Host ns per cycle with reuse on / off over the replayed pairs."""
    def ns_per_cycle(mode: str) -> float:
        picked = [timing for label, timing in run.timings.items()
                  if label.endswith(mode)]
        return sum(t[1] for t in picked) / sum(t[2] for t in picked)

    return ns_per_cycle("/reuse") / ns_per_cycle("/baseline")


def replay_metrics(run: Run, replay: Dict[str, Any]) -> None:
    """The runner/power/sim/core layer metrics of a sweep replay."""
    spans = run.spans
    walls = list(replay["wall"].values())
    run.metric("workloads.build_s", spans.total("WorkloadSuite.program"),
               "s")
    run.metric("runner.key_s", spans.total("job_key"), "s")
    run.metric("runner.cache_store_s", spans.total("ResultCache.store"), "s")
    run.metric("arch.job_p50_s", statistics.median(walls), "s")
    run.metric("arch.job_p80_s", percentile(walls, 0.8), "s")
    run.metric("core.reuse_cost_ratio", reuse_cost_ratio(run), "ratio")
    run.metric("power.capture_s", spans.total("ActivityRecord.capture"), "s")
    run.metric("power.payload_s", spans.total("payload round trip"), "s")
    run.metric("power.evaluate_s", spans.total("evaluate_power+summary"),
               "s")
    run.metric("sim.export_s", spans.total("result_to_dict"), "s")


def execute_job_timed(job: SimJob) -> Tuple[Dict[str, Any], float]:
    """``execute_job`` timed inside the process that runs it."""
    start = time.perf_counter()
    payload = execute_job(job)
    return payload, time.perf_counter() - start


def sweep_direct_traced(run: Run) -> None:
    names, iq_sizes = run.grid(iq_sizes=(32,))
    replay = replay_sweep(run, names, iq_sizes)
    replay_metrics(run, replay)
    with run.spans.span("figure 5 table", "bench"):
        with run.spans.span("figure5_gating", "sim"):
            runner = build_runner(jobs=JOBS,
                                  cache_dir=run.workdir / "replay-cache",
                                  benchmarks=names, iq_sizes=iq_sizes)
            table = runner.figure5_gating()
    summary = runner.executor.progress.summary()
    run.tally.check("figure 5 from the replay's cache",
                    summary["simulated"] == 0,
                    f"{summary['simulated']} simulated")
    check_band(run, table["average"][32])
    run.metric("sim.table_s", run.spans.total("figure5_gating"), "s")
    run.metric("runner.cache_load_s", run.spans.total("ResultCache.load"),
               "s")
    run.metric("runner.cache_hits", summary["cache_hits"], "count")
    run.metric("runner.cache_misses", len(replay["records"]), "count")
    run.metric("core.gated_fraction_iq32", table["average"][32], "ratio")

    # pool dispatch: a one-job pool's wall time minus the job's own run
    # time inside the worker (both taken at once, so host drift cancels)
    overheads = []
    cheapest = sorted(replay["wall"], key=replay["wall"].get)
    with run.spans.span("dispatch sample", "bench"):
        for label in cheapest[:1 if run.smoke else DISPATCH_SAMPLES]:
            start = time.perf_counter()
            with run.spans.span("run_tasks(force_pool)", "runner"):
                result = run_tasks(execute_job_timed, [replay["jobs"][label]],
                                   force_pool=True)[0]
            pooled = time.perf_counter() - start
            ok = not isinstance(result, Exception)
            if run.tally.check(f"dispatch {label}", ok, repr(result)):
                payload, inside = result
                run.check_record(label, payload)
                overheads.append(pooled - inside)
    run.metric("runner.dispatch_s", statistics.median(overheads), "s")


# -- sweep-service -------------------------------------------------------------


def free_port() -> int:
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


class Server:
    """One ``repro serve`` subprocess in its own process group."""

    def __init__(self, run: Run, tag: str):
        self.port = free_port()
        self.log = open(run.workdir / f"server-{tag}.log", "wb")
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--port",
             str(self.port), "--workers", str(JOBS),
             "--state-dir", str(run.workdir / f"state-{tag}"),
             "--cache-dir", str(run.workdir / f"service-cache-{tag}"),
             "--log-level", "warning"],
            cwd=ROOT, env=repro_env(), stdout=self.log,
            stderr=subprocess.STDOUT, start_new_session=True)

    def client(self, client_id: str) -> ServiceClient:
        return ServiceClient("127.0.0.1", self.port, client_id=client_id)

    async def wait_healthy(self, timeout: float = 60.0) -> None:
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            if self.proc.poll() is not None:
                raise RuntimeError(
                    f"server exited early ({self.proc.returncode})")
            try:
                async with self.client("bench-health") as client:
                    await client.health()
                return
            except CLIENT_ERRORS:
                await asyncio.sleep(0.01)
        raise RuntimeError("server never became healthy")

    def vm_hwm_kb(self) -> int:
        """The server's peak resident set (``VmHWM``), read while alive."""
        try:
            with open(f"/proc/{self.proc.pid}/status") as handle:
                for line in handle:
                    if line.startswith("VmHWM:"):
                        return int(line.split()[1])
        except OSError:
            pass
        return 0

    def stop(self) -> None:
        for signum, wait in ((signal.SIGTERM, 30), (signal.SIGKILL, 30)):
            try:
                os.killpg(self.proc.pid, signum)
            except ProcessLookupError:
                break
            try:
                self.proc.wait(timeout=wait)
                break
            except subprocess.TimeoutExpired:
                continue
        self.log.close()


async def timed_call(run: Run, name: str, call, parent=None):
    """Await one HTTP call inside a client-side ``service`` span."""
    start = time.perf_counter()
    try:
        return await call
    finally:
        run.spans.record(name, "service", start, time.perf_counter(),
                         parent)


def histogram_summary(snapshot: Dict[str, Any], name: str,
                      **labels: str) -> Dict[str, float]:
    """Median (bucket upper bound) and mean of a scraped histogram."""
    bounds, buckets, count, total = None, None, 0, 0.0
    for metric in snapshot["metrics"]:
        if metric["name"] != name:
            continue
        for sample in metric["samples"]:
            if any(sample["labels"].get(k) != v for k, v in labels.items()):
                continue
            bounds = sample["bounds"]
            buckets = [a + b for a, b in zip(buckets or [0] * len(bounds),
                                             sample["buckets"])]
            count += sample["count"]
            total += sample["sum"]
    if not count:
        return {"count": 0}
    median = next((bound for bound, cumulative in zip(bounds, buckets)
                   if cumulative >= count / 2), float("inf"))
    return {"count": count, "p50_le": median, "mean": total / count}


async def service_session(run: Run, names) -> None:
    """Cold columns on fresh servers, then warm traffic on the last one.

    One cold column is a single 8 s sample of a host whose speed drifts,
    so an untraced run takes the median of ``COLD_REPEATS``.
    """
    column = {"benchmarks": list(names), "iq_sizes": [32],
              "modes": ["baseline", "reuse"]}
    total = 2 * len(names)
    repeats = 1 if run.trace or run.smoke else COLD_REPEATS
    walls, rates, hwm_kb = [], [], 0
    for repeat in range(repeats):
        server = await spawn_server(run, str(repeat))
        try:
            sweep_id, wall, kips = await cold_sweep(run, server, column,
                                                    total)
            walls.append(wall)
            rates.append(kips)
            if repeat == repeats - 1:
                await warm_traffic(run, server, column, sweep_id, total)
                if run.trace:
                    await scrape_histograms(run, server)
            hwm_kb = max(hwm_kb, server.vm_hwm_kb())
        finally:
            with run.spans.span("stop repro serve", "bench"):
                server.stop()
    run.details["cold_sweep_s"] = walls
    if not run.trace:
        run.metric("time_to_result_s", statistics.median(walls), "s")
        run.metric("sim_kips", statistics.median(rates), "kinstr/s")
        run.metric("peak_rss_mb", peak_rss_mb(hwm_kb), "MB")


async def scrape_histograms(run: Run, server: Server) -> None:
    """The server's own latency histograms, from ``GET /metrics``."""
    async with server.client("bench-scrape") as client:
        snapshot = await timed_call(run, "GET /metrics", client.metrics())
    scraped = {
        "request_seconds": {
            route: histogram_summary(
                snapshot, "service_request_seconds", route=route)
            for route in ("/api/sweeps", "/api/sweeps/<sweep_id>/results")},
        "queue_wait_seconds": histogram_summary(
            snapshot, "service_queue_wait_seconds"),
        "worker_run_seconds": histogram_summary(
            snapshot, "service_worker_run_seconds"),
    }
    run.details["scraped"] = scraped
    run.metric("service.queue_wait_p50_s",
               scraped["queue_wait_seconds"]["p50_le"], "s")
    run.metric("service.worker_run_p50_s",
               scraped["worker_run_seconds"]["p50_le"], "s")
    run.metric("service.request_p50_ms", 1000.0
               * scraped["request_seconds"]["/api/sweeps"]["p50_le"], "ms")


async def spawn_server(run: Run, tag: str) -> Server:
    """Start a server; the spawn-to-healthy time is a set-up sample."""
    start = time.perf_counter()
    with run.spans.span("spawn repro serve", "bench"):
        server = Server(run, tag)
        try:
            await server.wait_healthy()
        except BaseException:
            server.stop()
            raise
    run.setups.append(time.perf_counter() - start)
    return server


async def cold_sweep(run: Run, server: Server, column: Dict[str, Any],
                     total: int) -> Tuple[str, float, float]:
    """Submit the column cold over HTTP and fetch its checked results.

    Returns the sweep id, the wall time from submit until the Figure 5
    average is built, and the simulated kinstr per second.
    """
    async with server.client("bench-cold") as client:
        phase = run.spans.open("cold sweep", "bench") if run.trace else None
        start = time.perf_counter()
        receipt = await timed_call(run, "POST /api/sweeps (cold)",
                                   client.submit_sweep(**column), phase)
        run.tally.check("cold submit enqueues the column",
                        receipt["enqueued"] == total, str(receipt))
        sweep_id = receipt["sweep_id"]
        since, deadline = 0, time.monotonic() + 150.0
        while True:
            status = await timed_call(run, "GET /api/sweeps/<id>",
                                      client.status(sweep_id), phase)
            if status["complete"] or status["failed"] \
                    or time.monotonic() > deadline:
                break
            page = await timed_call(
                run, "GET /api/sweeps/<id>/events",
                client.events(sweep_id, since=since, wait=5.0), phase)
            since = page["next_since"]
        simulated = time.perf_counter() - start
        run.tally.check("cold sweep completes",
                        status["complete"] and not status["failed"],
                        str(status.get("states")))
        results = await timed_call(run, "GET /api/sweeps/<id>/results",
                                   client.results(sweep_id), phase)
        rows = results["results"]
        gated = [row["result"]["metrics"]["gated_fraction"]
                 for row in rows if row["reuse"]]
        average = sum(gated) / len(gated)
        wall = time.perf_counter() - start
        if phase is not None:
            run.spans.close(phase)
    run.tally.check("results cover the column", len(rows) == total)
    for row in rows:
        run.check_record(record_name(row["benchmark"], row["iq_size"],
                                     row["reuse"]), row["record"])
    check_band(run, average)
    committed = sum(row["record"]["counters"]["committed"] for row in rows)
    if run.trace:
        run.metric("service.cold_submit_ms", 1000.0 * run.spans.total(
            "POST /api/sweeps (cold)"), "ms")
        serial = sum(b + r for b, r, _ in run.timings.values())
        run.metric("service.overhead_ratio", wall / (serial / JOBS),
                   "ratio")
    return sweep_id, wall, committed / simulated / 1000.0


async def warm_traffic(run: Run, server: Server, column: Dict[str, Any],
                       sweep_id: str, total: int) -> None:
    """``--seconds`` of open-loop warm resubmits and result fetches."""
    kinds: List[str] = []
    count = int(run.seconds * WARM_RATE)
    while len(kinds) < count:
        block = list(WARM_BLOCK)
        run.rng.shuffle(block)
        kinds += block
    kinds = kinds[:count]
    clients = [server.client(f"bench-warm-{index}")
               for index in range(CONNECTIONS)]
    by_kind: Dict[str, List[float]] = {kind: [] for kind in WARM_BLOCK}
    phase = run.spans.open("warm open loop", "bench") if run.trace else None

    async def send(connection: int, kind: str) -> bool:
        client = clients[connection]
        start = time.perf_counter()
        try:
            if kind == "submit":
                receipt = await client.submit_sweep(**column)
                ok = receipt["enqueued"] == 0
            else:
                page = await client.results(sweep_id)
                ok = len(page["results"]) == total
        except CLIENT_ERRORS:
            ok = False
        end = time.perf_counter()
        by_kind[kind].append(end - start)
        run.spans.record(f"warm {kind}", "service", start, end, phase)
        return ok

    try:
        samples = await open_loop(send, kinds, WARM_RATE, CONNECTIONS)
    finally:
        for client in clients:
            await client.close()
        if phase is not None:
            run.spans.close(phase)
    for sample in samples:
        run.tally.check(f"warm {sample['kind']}", sample["ok"])
    lateness = [sample["late"] for sample in samples]
    run.details["gen_late_max_ms"] = 1000.0 * max(lateness)
    if run.trace:
        run.metric("service.submit_p50_ms",
                   1000.0 * statistics.median(by_kind["submit"]), "ms")
        run.metric("service.results_p50_ms",
                   1000.0 * statistics.median(by_kind["results"]), "ms")
        run.metric("bench.gen_late_ms", 1000.0 * percentile(lateness, 0.95),
                   "ms")
    else:
        run.latency_metrics("request",
                            [sample["latency"] for sample in samples])


def sweep_service(run: Run) -> None:
    names, _ = run.grid(iq_sizes=(32,))
    asyncio.run(service_session(run, names))


def sweep_service_traced(run: Run) -> None:
    names, _ = run.grid(iq_sizes=(32,))
    replay_metrics(run, replay_sweep(run, names, (32,)))
    asyncio.run(service_session(run, names))


# -- fuzz-oracle ---------------------------------------------------------------

#: Pipeline legs :func:`run_differential` runs per program, by oracle
#: engine: baseline and reuse object cores, plus the reuse array core.
ORACLE_PIPELINE_LEGS = {"object": 2, "array": 3}


def fuzz_oracle(run: Run) -> None:
    programs = 10 if run.smoke else FUZZ_PROGRAMS
    measure_setup(run, 3)
    config = CampaignConfig(seed=FUZZ_SEED, programs=programs,
                            time_budget=0, jobs=JOBS)
    reporter = ProgressReporter()
    start = time.perf_counter()
    campaign = FuzzCampaign(config, progress=reporter)
    report = campaign.run()
    wall = time.perf_counter() - start
    run.tally.record(report["programs_run"],
                     [f"finding: {finding['summary']}"
                      for finding in report["findings"]])
    run.tally.check("programs run", report["programs_run"] == programs)
    coverage = report["coverage"]["cardinality"]
    pinned = run.golden["fuzz_coverage"][str(programs)]
    run.tally.check("fuzz coverage", coverage == pinned,
                    f"{coverage} != pinned {pinned}")
    latencies = [event.wall_time for event in reporter.events
                 if event.kind == "done" and event.wall_time is not None]
    run.metric("time_to_result_s", wall, "s")
    run.latency_metrics("request", latencies)
    run.details["fuzz_coverage"] = coverage
    run.details["corpus"] = len(campaign.corpus_specs)

    # simulation speed of the oracle: replay the corpus the campaign kept
    machine = config.machine_config()
    corpus = [assemble(render(spec), name=f"corpus-{index:03d}")
              for index, spec in enumerate(campaign.corpus_specs)]
    if not run.tally.check("corpus kept", bool(corpus)):
        return
    rates = []
    deadline = time.perf_counter() + run.seconds
    while not rates or (time.perf_counter() < deadline and not run.smoke):
        for program in corpus:
            begin = time.perf_counter()
            outcome = run_differential(program, machine,
                                       engine=config.engine)
            seconds = time.perf_counter() - begin
            run.tally.check(f"replay {program.name}", outcome.ok,
                            outcome.divergence.describe()
                            if outcome.divergence else "")
            rates.append(ORACLE_PIPELINE_LEGS[config.engine]
                         * outcome.oracle_instructions / seconds)
    run.metric("sim_kips", statistics.median(rates) / 1000.0, "kinstr/s")
    measure_setup(run, 2)
    run.metric("peak_rss_mb", peak_rss_mb(), "MB")


def fuzz_oracle_traced(run: Run) -> None:
    """Replay mutants serially, timing each oracle step as its own span."""
    config = CampaignConfig(seed=FUZZ_SEED)
    machine = config.machine_config()
    legs = [("baseline", "object", False), ("reuse", "object", True)]
    if config.engine == "array":
        legs.append(("reuse-array", "array", True))
    rng = random.Random(FUZZ_SEED)
    engine = MutationEngine(rng)
    parents = engine.seed_specs()
    seeds = list(parents)
    coverage = CoverageMap()
    builds: Dict[str, List[float]] = {}
    with run.spans.span("replay programs", "bench"):
        for index in range(10 if run.smoke else FUZZ_REPLAY):
            if index < len(seeds):
                spec = seeds[index]
            else:
                with run.spans.span("MutationEngine.mutate", "fuzz"):
                    spec = engine.mutate(rng.choice(parents))
                parents.append(spec)
            start = time.perf_counter()
            with run.spans.span("render", "fuzz"):
                source = render(spec)
            with run.spans.span("assemble", "isa"):
                program = assemble(source, name=f"mutant-{index:05d}")
            run.program_builds.append(time.perf_counter() - start)
            with run.spans.span("run_program", "isa"):
                oracle = run_program(program, max_instructions=1_000_000)
            limit = cycle_limit_for(oracle.instructions_executed)
            for mode, engine_name, reuse in legs:
                start = time.perf_counter()
                with run.spans.span(f"ENGINES[{engine_name}]()", "arch"):
                    pipeline = ENGINES[engine_name](
                        program, machine.replace(reuse_enabled=reuse))
                built = time.perf_counter()
                probe = CoverageProbe() if mode == "reuse" else None
                if probe is not None:
                    pipeline.attach_probe(probe)
                try:
                    with run.spans.span(f"{mode} .run()", "arch"):
                        pipeline.run(max_cycles=limit)
                except Exception as exc:  # a crash is an oracle finding
                    run.tally.check(f"{program.name} {mode}", False,
                                    repr(exc))
                    continue
                ran = time.perf_counter()
                builds.setdefault(engine_name, []).append(built - start)
                run.sims.append((built - start, ran - built,
                                 pipeline.stats.cycles))
                if reuse:
                    run.gated.append(pipeline.stats.gated_fraction)
                with run.spans.span("first_divergence", "fuzz"):
                    divergence = first_divergence(pipeline, oracle, mode)
                run.tally.check(f"{program.name} {mode}", divergence is None,
                                divergence.describe() if divergence else "")
                if probe is not None:
                    coverage.add_all(probe.signatures)
    run.metric("isa.assemble_s", run.spans.total("assemble"), "s")
    run.metric("isa.interp_s", run.spans.total("run_program"), "s")
    run.metric("fuzz.mutate_s", run.spans.total("MutationEngine.mutate")
               + run.spans.total("render"), "s")
    run.metric("fuzz.first_divergence_s",
               run.spans.total("first_divergence"), "s")
    run.metric("fuzz.coverage", coverage.cardinality, "count")
    for engine_name, seconds in sorted(builds.items()):
        run.metric(f"arch.{engine_name}.build_s", sum(seconds), "s")


# -- trace-energy --------------------------------------------------------------


def check_trace(run: Run, kernel: str, config: MachineConfig, session,
                record: ActivityRecord, path: pathlib.Path) -> None:
    """Trace file validity, energy reconciliation and record identity."""
    try:
        validate_trace_file(path)
        valid, detail = True, ""
    except ValueError as exc:
        valid, detail = False, str(exc)
    run.tally.check(f"trace file {kernel}", valid, detail)
    path.unlink()
    folded = sum(session.energy_probe.totals().values())
    expected = PowerModel(config).total_energy(record)
    run.tally.check(f"energy reconciles {kernel}",
                    abs(folded - expected) <= RECONCILE_TOL * expected,
                    f"{folded} != {expected}")
    job = JobSpec(benchmark=kernel, iq_size=config.iq_size,
                  reuse=True).to_sim_job()
    if job.config == config:
        run.check_record(record_name(kernel, config.iq_size, True),
                         record.to_payload())


def trace_energy(run: Run) -> None:
    kernels, _ = run.grid(iq_sizes=(64,))
    measure_setup(run, 3)
    suite = WorkloadSuite()
    config = MachineConfig(reuse_enabled=True)
    latencies, simulating, committed = [], 0.0, 0
    for kernel in kernels:
        program = suite.program(kernel)
        path = run.workdir / f"{kernel}.trace.json"
        start = time.perf_counter()
        session = TelemetrySession(stride=1, energy=True)
        result = simulate(program, config, telemetry=session)
        simulated = time.perf_counter()
        session.write_trace(path)
        latencies.append(time.perf_counter() - start)
        simulating += simulated - start
        committed += result.stats.committed
        check_trace(run, kernel, config, session, result.activity, path)
    run.metric("time_to_result_s", sum(latencies), "s")
    run.metric("sim_kips", committed / simulating / 1000.0, "kinstr/s")
    run.latency_metrics("request", latencies)
    measure_setup(run, 2)
    run.metric("peak_rss_mb", peak_rss_mb(), "MB")


def trace_energy_traced(run: Run) -> None:
    """Each kernel untraced (layer by layer), then through telemetry."""
    kernels, _ = run.grid(iq_sizes=(64,))
    suite = WorkloadSuite()
    with run.spans.span("build programs", "bench"):
        for kernel in kernels:
            start = time.perf_counter()
            with run.spans.span("WorkloadSuite.program", "workloads"):
                suite.program(kernel)
            run.program_builds.append(time.perf_counter() - start)
    config = MachineConfig(reuse_enabled=True)
    engine = default_engines()["simulate"]
    untraced = traced = 0.0
    for kernel in kernels:
        program = suite.program(kernel)
        path = run.workdir / f"{kernel}.trace.json"
        with run.spans.span(kernel, "bench"):
            start = time.perf_counter()
            clean = run.simulate_timed(program, config, engine)
            untraced += time.perf_counter() - start
            start = time.perf_counter()
            with run.spans.span("simulate(telemetry)", "telemetry"):
                session = TelemetrySession(stride=1, energy=True)
                result = simulate(program, config, telemetry=session)
            traced += time.perf_counter() - start
            with run.spans.span("write_trace", "telemetry"):
                session.write_trace(path)
            with run.spans.span("check trace", "bench"):
                check_trace(run, kernel, config, session, result.activity,
                            path)
        run.tally.check(f"probes are passive {kernel}",
                        result.activity.to_payload() == clean.to_payload())
    run.metric("telemetry.run_s", traced, "s")
    run.metric("telemetry.export_s", run.spans.total("write_trace"), "s")
    run.metric("telemetry.overhead_ratio", traced / untraced, "ratio")


# -- entry point ---------------------------------------------------------------

UNTRACED = {"sweep-direct": sweep_direct, "sweep-service": sweep_service,
            "fuzz-oracle": fuzz_oracle, "trace-energy": trace_energy}
TRACED = {"sweep-direct": sweep_direct_traced,
          "sweep-service": sweep_service_traced,
          "fuzz-oracle": fuzz_oracle_traced,
          "trace-energy": trace_energy_traced}


def layer_metrics(run: Run, start: float, end: float) -> None:
    """Layer metrics every traced replay measures, plus self times."""
    builds = [build for build, _, _ in run.sims]
    loops = [loop for _, loop, _ in run.sims]
    cycles = sum(count for _, _, count in run.sims)
    run.metric("program.build_ms",
               1000.0 * statistics.median(run.program_builds), "ms")
    run.metric("arch.build_ms", 1000.0 * statistics.median(builds), "ms")
    run.metric("arch.run_s", sum(loops), "s")
    run.metric("arch.ns_per_cycle", 1e9 * sum(loops) / cycles, "ns")
    run.metric("arch.cycles", cycles, "count")
    run.metric("arch.sim_p50_ms", 1000.0 * statistics.median(
        [build + loop for build, loop, _ in run.sims]), "ms")
    run.metric("core.gated_fraction", statistics.fmean(run.gated), "ratio")
    run.metric("bench.span_coverage", run.spans.coverage(start, end),
               "ratio")
    run.metric("bench.traced_wall_s", end - start, "s")
    for layer, seconds in sorted(run.spans.self_times().items()):
        run.metric(f"{layer}.self_s", seconds, "s")


def report_path(out: pathlib.Path, run: Run, suffix: str) -> pathlib.Path:
    trace = "-trace" if run.trace else ""
    smoke = "-smoke" if run.smoke else ""
    return out / f"{run.workload}-seed{run.seed}{trace}{smoke}{suffix}"


def run_workload(workload: str, seed: int, seconds: float, trace: bool,
                 smoke: bool, out: Optional[pathlib.Path],
                 golden: Dict[str, Any]) -> Run:
    """Run one workload in a scratch directory it deletes afterwards."""
    workdir = ROOT / ".e2e-work" / f"{workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    run = Run(workload, seed, seconds, trace, smoke, workdir, golden)
    try:
        start = time.perf_counter()
        (TRACED if trace else UNTRACED)[workload](run)
        end = time.perf_counter()
        if not trace:
            run.metric("setup_s", statistics.median(run.setups), "s")
            run.details["setup_samples"] = run.setups
        else:
            layer_metrics(run, start, end)
            path = report_path(out or workdir, run, ".chrome.json")
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(json.dumps(run.spans.chrome_trace(start)) + "\n",
                            encoding="utf-8")
            validate_trace_file(path)
            run.details["chrome_trace"] = path.name
    except Exception as exc:  # report the crash as a failed operation
        traceback.print_exc()
        run.tally.check(workload, False, f"{type(exc).__name__}: {exc}")
    finally:
        for child in multiprocessing.active_children():
            child.join(timeout=30)
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:  # another run still uses it
            pass
    return run


def result_line(run: Run, names: List[str]) -> Dict[str, Any]:
    """The result object ``BENCHMARK.json`` asks for, for one run."""
    for name in names:
        run.tally.check(f"metric {name} emitted", name in run.metrics)
    return {"correct": run.tally.failed == 0,
            "attempted": run.tally.attempted,
            "failed": run.tally.failed,
            "metrics": {name: run.metrics[name] for name in names
                        if name in run.metrics}}


def write_golden() -> None:
    """Pin the Figure 5 records and fuzz coverage of this commit."""
    workdir = ROOT / ".e2e-work" / f"golden-{os.getpid()}"
    try:
        runner = build_runner(jobs=JOBS, cache_dir=workdir)
        average = runner.figure5_gating()["average"][32]
        digests = {name: payload_digest(payload)
                   for name, payload in sweep_records(runner).items()}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    coverage = {
        str(programs): FuzzCampaign(CampaignConfig(
            seed=FUZZ_SEED, programs=programs, time_budget=0,
            jobs=JOBS)).run()["coverage"]["cardinality"]
        for programs in (10, FUZZ_PROGRAMS)}
    golden = {"records": digests, "records_sha256": records_digest(digests),
              "fig5_iq32_average": average, "fuzz_seed": FUZZ_SEED,
              "fuzz_coverage": coverage}
    GOLDEN_PATH.write_text(json.dumps(golden, indent=1, sort_keys=True)
                           + "\n", encoding="utf-8")
    print(f"wrote {GOLDEN_PATH}")


def main(argv: Optional[List[str]] = None) -> int:
    spec = load_json(BENCHMARK_JSON)
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS,
                        help="one workload (default: all four)")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float,
                        default=spec["run_seconds"],
                        help="length of the warm-request phase")
    parser.add_argument("--trace", type=int, choices=(0, 1), nargs="?",
                        const=1, default=0,
                        help="traced replay reporting per-layer metrics")
    parser.add_argument("--out", type=pathlib.Path,
                        help="directory for JSON reports and Chrome traces")
    parser.add_argument("--smoke", action="store_true",
                        help="tsf at IQ 32, 10 fuzz programs, 2 s warm "
                             "phase, 1 traced kernel")
    parser.add_argument("--write-golden", action="store_true",
                        help="re-pin golden.json from this commit")
    args = parser.parse_args(argv)
    if args.write_golden:
        write_golden()
        return 0
    golden = load_json(GOLDEN_PATH)
    seconds = 2.0 if args.smoke else args.seconds
    section = "per_layer" if args.trace else "end_to_end"
    names = [metric["name"] for metric in spec[section]]
    env = environment()
    lines = []
    for workload in [args.workload] if args.workload else WORKLOADS:
        started_at = time.time()
        run = run_workload(workload, args.seed, seconds, bool(args.trace),
                           args.smoke, args.out, golden)
        line = result_line(run, names)
        for name, metric in run.metrics.items():
            print(f"{name} {metric['value']:.6g} {metric['unit']}")
        for failure in run.tally.failures:
            print(f"[{workload}] FAILED {failure}", file=sys.stderr)
        if args.out:
            args.out.mkdir(parents=True, exist_ok=True)
            report = {"workload": workload, "seed": args.seed,
                      "seconds": seconds, "trace": bool(args.trace),
                      "smoke": args.smoke, "started_at": started_at,
                      "env": env, **line, "all_metrics": run.metrics,
                      "details": run.details,
                      "failures": run.tally.failures}
            report_path(args.out, run, ".json").write_text(
                json.dumps(report, indent=1, sort_keys=True) + "\n",
                encoding="utf-8")
        lines.append((workload, line))
    if len(lines) == 1:
        final = lines[0][1]
    else:
        for workload, line in lines:
            print(f"[{workload}] {json.dumps(line)}")
        final = {"correct": all(line["correct"] for _, line in lines),
                 "attempted": sum(line["attempted"] for _, line in lines),
                 "failed": sum(line["failed"] for _, line in lines),
                 "metrics": {f"{workload}:{name}": metric
                             for workload, line in lines
                             for name, metric in line["metrics"].items()}}
    print(json.dumps(final))
    return 0 if final["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
