"""The simulation service: HTTP API over queue, workers and cache.

:class:`SimService` owns the whole stack -- journal-backed
:class:`~repro.service.jobqueue.JobQueue`, sharded
:class:`~repro.service.workers.WorkerPool`, persistent
:class:`~repro.runner.cache.ResultCache`, per-client
:class:`~repro.service.ratelimit.RateLimiter` and a telemetry
:class:`~repro.telemetry.metrics.MetricRegistry` -- and registers the
API routes on the stdlib HTTP framework:

=====================================  ================================
``POST /api/sweeps``                   submit a sweep; returns the
                                       content-addressed ``sweep_id``
``GET  /api/sweeps/<id>``              poll status + hit/sim manifest
``GET  /api/sweeps/<id>/events``       incremental events (long-poll
                                       with ``?since=SEQ&wait=SECONDS``)
``GET  /api/sweeps/<id>/stream``       chunked NDJSON live progress
``GET  /api/sweeps/<id>/results``      full results once complete
``GET  /api/jobs/<key>``               one job's state (+ result)
``GET  /api/traces/<trace_id>``        one trace as a Chrome trace
``GET  /metrics``                      telemetry snapshot (JSON; add
                                       ``?format=prom`` for Prometheus
                                       text exposition)
``GET  /healthz``                      liveness + queue depth
=====================================  ================================

**Cache-first admission**: every submitted job probes the result cache
before it can reach the queue, so a warm sweep is a pure cache read --
the response and the sweep manifest record exactly how many jobs were
served as hits versus enqueued for simulation.  **Idempotency** is
structural: job keys are the runner's content hashes and the sweep id is
the hash of its sorted job keys, so identical submissions -- concurrent
or repeated, from any client -- converge on the same jobs and the same
id without locks.
"""

from __future__ import annotations

import asyncio
from collections import deque
from dataclasses import dataclass
import hashlib
import json
from typing import Any, AsyncIterator, Dict, List, Optional, Tuple

from repro.power.activity import ActivityRecord
from repro.power.attribution import fold_component_energies
from repro.power.params import DEFAULT_PARAMS
from repro.runner.cache import ResultCache
from repro.runner.executor import worker_suite
from repro.runner.jobs import job_key
from repro.service.http import (
    HttpError,
    HttpServer,
    Request,
    Response,
    Router,
)
from repro.service.jobqueue import JobQueue, JobSpec, QueuedJob
from repro.service.ratelimit import RateLimiter
from repro.service.workers import WorkerPool
from repro.sim.export import result_to_dict
from repro.sim.simulator import evaluate_power
from repro.telemetry.log import get_logger
from repro.telemetry.metrics import MetricRegistry
from repro.telemetry.tracing import SpanRecorder
from repro.workloads.suite import BENCHMARK_NAMES

_log = get_logger("service.app")

#: Ceiling on jobs in one submission: a sweep request is a frontier
#: description, not a bulk loader.
MAX_SWEEP_JOBS = 1024

#: Event ring capacity; ``since`` cursors older than the ring answer
#: with a ``truncated`` marker so clients know to re-poll full status.
EVENT_RING = 16384

#: Latency histogram buckets (seconds) shared by the endpoint, queue-wait
#: and worker-run-time histograms: finer than the telemetry default at
#: the fast end (an HTTP handler runs in microseconds) and wide enough
#: at the top for a cold multi-benchmark simulation.
SERVICE_LATENCY_BUCKETS = (0.0005, 0.002, 0.01, 0.05, 0.25, 1.0, 5.0,
                           30.0, 120.0)


@dataclass
class ServiceConfig:
    """Everything ``repro serve`` can tune."""

    host: str = "127.0.0.1"
    port: int = 8642
    workers: int = 2
    cache_dir: Optional[str] = None
    #: Directory holding the job journal (``journal.jsonl``).
    state_dir: str = ".repro-service"
    max_queue_depth: int = 256
    #: Token-bucket refill rate per client (requests/second);
    #: ``0`` disables rate limiting.
    rate: float = 0.0
    burst: float = 20.0
    per_job_timeout: Optional[float] = None
    max_retries: int = 1


def sweep_id_for(keys: List[str]) -> str:
    """Content-addressed sweep identity: hash of the sorted job keys."""
    sha = hashlib.sha256()
    for key in sorted(keys):
        sha.update(key.encode("ascii"))
        sha.update(b"\0")
    return sha.hexdigest()[:16]


def parse_sweep_request(payload: Any) -> Tuple[List[JobSpec],
                                               Dict[str, Any]]:
    """Validate a submit body into job specs (raises 400 on bad input).

    Shape::

        {"benchmarks": ["tsf", ...],        # default: the whole suite
         "iq_sizes": [32, 64, ...],         # required
         "modes": ["baseline", "reuse"],    # default: both
         "optimize": false,
         "nblt_size": 8,
         "buffering_strategy": "multi"}
    """
    if not isinstance(payload, dict):
        raise HttpError(400, "body must be a JSON object")
    benchmarks = payload.get("benchmarks") or list(BENCHMARK_NAMES)
    if not isinstance(benchmarks, list) or not benchmarks:
        raise HttpError(400, "benchmarks must be a non-empty list")
    for name in benchmarks:
        if name not in BENCHMARK_NAMES:
            raise HttpError(
                400, f"unknown benchmark {name!r}; choose from "
                     f"{', '.join(BENCHMARK_NAMES)}")
    iq_sizes = payload.get("iq_sizes")
    if not isinstance(iq_sizes, list) or not iq_sizes:
        raise HttpError(400, "iq_sizes must be a non-empty list")
    for size in iq_sizes:
        if not isinstance(size, int) or isinstance(size, bool) \
                or not 2 <= size <= 1024:
            raise HttpError(400, "iq_sizes entries must be integers "
                                 f"in [2, 1024], got {size!r}")
    modes = payload.get("modes") or ["baseline", "reuse"]
    if not isinstance(modes, list) or not modes or \
            any(mode not in ("baseline", "reuse") for mode in modes):
        raise HttpError(400, "modes must be a non-empty subset of "
                             "['baseline', 'reuse']")
    optimize = payload.get("optimize", False)
    if not isinstance(optimize, bool):
        raise HttpError(400, "optimize must be a boolean")
    nblt_size = payload.get("nblt_size", 8)
    if not isinstance(nblt_size, int) or isinstance(nblt_size, bool) \
            or nblt_size < 0:
        raise HttpError(400, "nblt_size must be an integer >= 0")
    strategy = payload.get("buffering_strategy", "multi")
    if strategy not in ("single", "multi"):
        raise HttpError(400, "buffering_strategy must be 'single' or "
                             "'multi'")
    specs = [JobSpec(benchmark=benchmark, iq_size=iq,
                     reuse=(mode == "reuse"), optimize=optimize,
                     nblt_size=nblt_size, buffering_strategy=strategy)
             for benchmark in dict.fromkeys(benchmarks)
             for iq in dict.fromkeys(iq_sizes)
             for mode in dict.fromkeys(modes)]
    if len(specs) > MAX_SWEEP_JOBS:
        raise HttpError(400, f"sweep of {len(specs)} jobs exceeds the "
                             f"{MAX_SWEEP_JOBS}-job ceiling")
    request_echo = {
        "benchmarks": list(dict.fromkeys(benchmarks)),
        "iq_sizes": list(dict.fromkeys(iq_sizes)),
        "modes": list(dict.fromkeys(modes)),
        "optimize": optimize,
        "nblt_size": nblt_size,
        "buffering_strategy": strategy,
    }
    return specs, request_echo


class SimService:
    """The assembled service; create, ``await start()``, ``await stop()``."""

    def __init__(self, config: Optional[ServiceConfig] = None):
        self.config = config or ServiceConfig()
        self.cache = ResultCache(self.config.cache_dir)
        journal = f"{self.config.state_dir}/journal.jsonl"
        self.queue = JobQueue(journal)
        self.metrics = MetricRegistry()
        self.limiter = RateLimiter(rate=self.config.rate,
                                   burst=self.config.burst)
        self.tracer = SpanRecorder()
        self.pool = WorkerPool(self.queue, self.cache,
                               workers=self.config.workers,
                               per_job_timeout=self.config.per_job_timeout,
                               max_retries=self.config.max_retries,
                               events=self._on_job_event,
                               tracer=self.tracer,
                               completed=self._on_job_complete)
        self.router = Router()
        self._register_routes()
        self.http = HttpServer(self.router, observer=self._observe)
        self._events: deque = deque(maxlen=EVENT_RING)
        self._event_seq = 0
        self._event_cond: Optional[asyncio.Condition] = None
        self._key_memo: Dict[Tuple, str] = {}
        self.address: Optional[Tuple[str, int]] = None

    # -- lifecycle --------------------------------------------------------

    async def start(self) -> Tuple[str, int]:
        """Start workers and the HTTP listener; returns (host, port)."""
        self._event_cond = asyncio.Condition()
        await self.pool.start()
        self.address = await self.http.start(self.config.host,
                                             self.config.port)
        if self.queue.recovered:
            self._record_event("recovered", None,
                               detail=f"{self.queue.recovered} running "
                                      "job(s) requeued from journal")
        _log.info("service-started", host=self.address[0],
                  port=self.address[1], workers=self.config.workers,
                  recovered=self.queue.recovered)
        return self.address

    async def stop(self) -> None:
        """Graceful drain: stop admission, finish in-flight, close."""
        await self.http.stop()
        await self.pool.stop()
        self.queue.close()
        _log.info("service-stopped", jobs=self.queue.counts())

    # -- telemetry --------------------------------------------------------

    def _observe(self, route: str, status: int, seconds: float,
                 request: Optional[Request]) -> None:
        self.metrics.counter(
            "service_requests_total",
            help="HTTP requests handled, by route and status").inc(
            route=route, status=status)
        self.metrics.histogram(
            "service_request_seconds", unit="seconds",
            help="request handling latency",
            buckets=SERVICE_LATENCY_BUCKETS).observe(seconds,
                                                     route=route)
        trace_id = request.trace_id if request is not None else ""
        if trace_id:
            end = SpanRecorder.now()
            self.tracer.record(
                trace_id, f"{request.method} {route}", "http",
                end - seconds, end, track="request",
                status=status, client=request.client)
        _log.debug("request", route=route, status=status,
                   seconds=round(seconds, 6), trace_id=trace_id)

    def _job_counter(self, kind: str) -> None:
        self.metrics.counter(
            "service_jobs_total",
            help="job lifecycle events, by kind").inc(kind=kind)

    def _record_event(self, kind: str, job: Optional[QueuedJob],
                      detail: str = "") -> None:
        self._event_seq += 1
        event: Dict[str, Any] = {"seq": self._event_seq, "kind": kind}
        if job is not None:
            event.update(key=job.key, state=job.state,
                         benchmark=job.spec.benchmark,
                         iq_size=job.spec.iq_size,
                         reuse=job.spec.reuse,
                         attempts=job.attempts)
            if job.source:
                event["source"] = job.source
            if job.error:
                event["error"] = job.error
        if detail:
            event["detail"] = detail
        self._events.append(event)
        self._notify_waiters()

    def _notify_waiters(self) -> None:
        cond = self._event_cond
        if cond is None:
            return

        async def _notify() -> None:
            async with cond:
                cond.notify_all()

        asyncio.ensure_future(_notify())

    def _on_job_event(self, kind: str, job: QueuedJob) -> None:
        """Worker-pool callback -> client events + counters."""
        counter_kind = {"done": "completed", "cache-hit": "cache-hit",
                        "failed": "failed", "retry": "retried",
                        "started": "started"}.get(kind, kind)
        self._job_counter(counter_kind)
        self._record_event(kind, job)
        if kind == "started":
            self.metrics.histogram(
                "service_queue_wait_seconds", unit="seconds",
                help="admission-to-pickup wait of executed jobs",
                buckets=SERVICE_LATENCY_BUCKETS).observe(
                max(SpanRecorder.now() - job.enqueued_at, 0.0))
        elif kind in ("done", "cache-hit"):
            self.metrics.histogram(
                "service_worker_run_seconds", unit="seconds",
                help="worker lane wall time per completed job",
                buckets=SERVICE_LATENCY_BUCKETS).observe(
                job.wall_time, result=job.source or kind)
        self.metrics.gauge(
            "service_queue_depth",
            help="jobs pending or running").set(self.queue.depth())

    def _on_job_complete(self, job: QueuedJob,
                         record: ActivityRecord) -> None:
        """Fold a completed job's energy breakdown into the registry.

        Fires once per lane-completed job (simulated or worker-side
        cache hit), so the ``sim_energy_component`` counters accumulate
        exactly one attribution per performed unit of work -- warm
        admission-time cache hits never re-fold.
        """
        fold_component_energies(self.metrics, record,
                                job.spec.to_sim_job().config)

    # -- key computation --------------------------------------------------

    def _keys_for(self, specs: List[JobSpec]) -> List[str]:
        """Content-hash keys for a spec batch (thread-pool worker).

        Uses the fork-shared worker suite so child simulation processes
        inherit the compiled programs, and memoises per spec -- the warm
        path of an already-seen sweep never recompiles anything.
        """
        suite = worker_suite()
        keys = []
        for spec in specs:
            memo_key = (spec.benchmark, spec.iq_size, spec.reuse,
                        spec.optimize, spec.nblt_size,
                        spec.buffering_strategy)
            key = self._key_memo.get(memo_key)
            if key is None:
                program = suite.program(spec.benchmark,
                                        optimize=spec.optimize)
                key = job_key(spec.to_sim_job(), program)
                self._key_memo[memo_key] = key
            keys.append(key)
        return keys

    # -- routes -----------------------------------------------------------

    def _register_routes(self) -> None:
        add = self.router.add
        add("POST", "/api/sweeps", self._handle_submit)
        add("GET", "/api/sweeps/<sweep_id>", self._handle_status)
        add("GET", "/api/sweeps/<sweep_id>/events", self._handle_events)
        add("GET", "/api/sweeps/<sweep_id>/stream", self._handle_stream)
        add("GET", "/api/sweeps/<sweep_id>/results",
            self._handle_results)
        add("GET", "/api/jobs/<key>", self._handle_job)
        add("GET", "/api/traces/<trace_id>", self._handle_trace)
        add("GET", "/metrics", self._handle_metrics)
        add("GET", "/healthz", self._handle_health)

    async def _handle_submit(self, request: Request) -> Response:
        trace_id = request.trace_id
        admission_start = SpanRecorder.now()
        allowed, retry_after = self.limiter.check(request.client)
        if not allowed:
            self._job_counter("rate-limited")
            _log.warning("rate-limited", client=request.client,
                         trace_id=trace_id,
                         retry_after=round(retry_after, 3))
            raise HttpError(429, "rate limit exceeded",
                            retry_after=retry_after)
        if self.pool.draining:
            raise HttpError(503, "server is draining", retry_after=5.0)
        specs, request_echo = parse_sweep_request(request.json())

        loop = asyncio.get_event_loop()
        keys = await loop.run_in_executor(self.pool._threads,
                                          self._keys_for, specs)
        sweep_id = sweep_id_for(keys)
        # probe the cache off-loop, and only for keys not already done
        # (admission never reads a done key's hit, and done is final);
        # admission below is await-free, so a concurrent identical
        # submission interleaves only before or after it and converges
        # on the same jobs either way
        jobs = self.queue.jobs
        unresolved = [key for key in keys
                      if key not in jobs or jobs[key].state != "done"]
        hits = set()
        if unresolved:
            hits = await loop.run_in_executor(
                self.pool._threads,
                lambda: {key for key in unresolved
                         if self.cache.load(key) is not None})
        cached = [key in hits for key in keys]

        new_jobs = sum(
            1 for key, hit in zip(keys, cached)
            if not hit and (key not in self.queue.jobs
                            or self.queue.jobs[key].state == "failed"))
        depth = self.queue.depth()
        if new_jobs and depth + new_jobs > self.config.max_queue_depth:
            self._job_counter("backpressure")
            _log.warning("backpressure", sweep_id=sweep_id,
                         trace_id=trace_id, depth=depth,
                         new_jobs=new_jobs)
            raise HttpError(
                503, f"queue full ({depth} deep, {new_jobs} new jobs "
                     f"over the {self.config.max_queue_depth} ceiling)",
                retry_after=max(1.0, depth * 0.25))

        cache_hits = 0
        enqueued = 0
        attached = 0
        for spec, key, hit in zip(specs, keys, cached):
            known = key in self.queue.jobs and \
                self.queue.jobs[key].state != "failed"
            job = self.queue.admit(key, spec, trace_id=trace_id)
            self._job_counter("submitted")
            if job.state == "done":
                # resolved before this submission: no new simulation
                cache_hits += 1
            elif hit and job.state == "pending" and job.attempts == 0:
                job = self.queue.transition(key, "done", source="cache")
                self._job_counter("cache-hit")
                self._record_event("cache-hit", job)
                cache_hits += 1
            elif known:
                # in flight from an earlier submission: attach, do not
                # duplicate the work
                attached += 1
            else:
                enqueued += 1
                self._record_event("submitted", job)
        self.queue.register_sweep(sweep_id, keys, request_echo,
                                  trace_id=trace_id)
        self.metrics.gauge(
            "service_queue_depth",
            help="jobs pending or running").set(self.queue.depth())
        if enqueued:
            self.pool.kick()
        if trace_id:
            self.tracer.record(
                trace_id, f"admit sweep {sweep_id}", "admission",
                admission_start, SpanRecorder.now(), track="admission",
                sweep_id=sweep_id, jobs=len(keys),
                cache_hits=cache_hits, enqueued=enqueued,
                attached=attached)
        _log.info("sweep-admitted", sweep_id=sweep_id,
                  trace_id=trace_id, client=request.client,
                  jobs=len(keys), cache_hits=cache_hits,
                  enqueued=enqueued, attached=attached)
        return Response.json({
            "sweep_id": sweep_id,
            "total": len(keys),
            "cache_hits": cache_hits,
            "enqueued": enqueued,
            "attached": attached,
            "links": {
                "status": f"/api/sweeps/{sweep_id}",
                "events": f"/api/sweeps/{sweep_id}/events",
                "stream": f"/api/sweeps/{sweep_id}/stream",
                "results": f"/api/sweeps/{sweep_id}/results",
            },
        }, status=202)

    def _sweep_or_404(self, sweep_id: str) -> None:
        if sweep_id not in self.queue.sweeps:
            raise HttpError(404, f"unknown sweep {sweep_id!r}")

    async def _handle_status(self, request: Request,
                             sweep_id: str) -> Response:
        self._sweep_or_404(sweep_id)
        return Response.json(self.queue.sweep_status(sweep_id))

    def _sweep_events(self, sweep_id: str,
                      since: int) -> Tuple[List[Dict[str, Any]], bool]:
        """Events after cursor ``since`` visible to one sweep."""
        keys = set(self.queue.sweeps[sweep_id].keys)
        truncated = bool(self._events) and \
            since and self._events[0]["seq"] > since + 1
        events = [event for event in self._events
                  if event["seq"] > since
                  and (event.get("key") in keys or "key" not in event)]
        return events, truncated

    async def _handle_events(self, request: Request,
                             sweep_id: str) -> Response:
        self._sweep_or_404(sweep_id)
        since = request.query_int("since", 0)
        wait = min(request.query_float("wait", 0.0), 30.0)
        events, truncated = self._sweep_events(sweep_id, since)
        if not events and wait > 0:
            cond = self._event_cond
            try:
                async with cond:
                    await asyncio.wait_for(cond.wait(), timeout=wait)
            except asyncio.TimeoutError:
                pass
            events, truncated = self._sweep_events(sweep_id, since)
        status = self.queue.sweep_status(sweep_id)
        return Response.json({
            "sweep_id": sweep_id,
            "events": events,
            "next_since": events[-1]["seq"] if events
            else self._event_seq,
            "truncated": truncated,
            "complete": status["complete"],
        })

    async def _handle_stream(self, request: Request,
                             sweep_id: str) -> Response:
        self._sweep_or_404(sweep_id)
        since = request.query_int("since", 0)

        async def ndjson() -> AsyncIterator[bytes]:
            cursor = since
            while True:
                events, _ = self._sweep_events(sweep_id, cursor)
                for event in events:
                    cursor = event["seq"]
                    yield (json.dumps(event, sort_keys=True)
                           + "\n").encode("utf-8")
                status = self.queue.sweep_status(sweep_id)
                if status["complete"] or status["failed"]:
                    yield (json.dumps(
                        {"kind": "end",
                         "complete": status["complete"],
                         "manifest": status["manifest"]},
                        sort_keys=True) + "\n").encode("utf-8")
                    return
                cond = self._event_cond
                try:
                    async with cond:
                        await asyncio.wait_for(cond.wait(), timeout=15.0)
                except asyncio.TimeoutError:
                    # heartbeat so proxies/clients see a live stream
                    yield b'{"kind": "heartbeat"}\n'

        return Response(stream=ndjson())

    async def _handle_results(self, request: Request,
                              sweep_id: str) -> Response:
        self._sweep_or_404(sweep_id)
        status = self.queue.sweep_status(sweep_id)
        if status["failed"]:
            raise HttpError(409, "sweep has failed jobs",
                            sweep=status)
        if not status["complete"]:
            raise HttpError(409, "sweep not complete yet",
                            sweep=status)
        loop = asyncio.get_event_loop()
        jobs = self.queue.sweep_jobs(sweep_id)
        payloads = []
        for job in jobs:
            record = await loop.run_in_executor(
                self.pool._threads, self.cache.load, job.key)
            if record is None:
                # evicted between completion and fetch: requeue and ask
                # the client to come back
                self.queue.transition(job.key, "pending")
                self.pool.kick()
                raise HttpError(409, f"result for {job.key} was evicted; "
                                     "re-simulating", retry_after=2.0)
            sim_job = job.spec.to_sim_job()
            result = evaluate_power(record, sim_job.config,
                                    DEFAULT_PARAMS)
            payloads.append({
                "key": job.key,
                "source": job.source,
                "wall_time": round(job.wall_time, 6),
                **job.spec.to_dict(),
                "record": record.to_payload(),
                "result": result_to_dict(result),
            })
        return Response.json({
            "sweep_id": sweep_id,
            "manifest": status["manifest"],
            "results": payloads,
        })

    async def _handle_job(self, request: Request, key: str) -> Response:
        job = self.queue.jobs.get(key)
        if job is None:
            raise HttpError(404, f"unknown job {key!r}")
        return Response.json(job.to_dict())

    async def _handle_trace(self, request: Request,
                            trace_id: str) -> Response:
        if not self.tracer.has(trace_id):
            raise HttpError(404, f"unknown trace {trace_id!r}",
                            known=len(self.tracer.trace_ids()))
        return Response.json(self.tracer.timeline(trace_id))

    async def _handle_metrics(self, request: Request) -> Response:
        self.metrics.gauge(
            "service_queue_depth",
            help="jobs pending or running").set(self.queue.depth())
        fmt = request.query.get("format", "json")
        if fmt == "prom":
            return Response(
                body=self.metrics.to_prometheus().encode("utf-8"),
                content_type="text/plain; version=0.0.4; "
                             "charset=utf-8")
        if fmt != "json":
            raise HttpError(400, f"unknown metrics format {fmt!r}; "
                                 "choose 'json' or 'prom'")
        return Response(body=self.metrics.to_json().encode("utf-8"))

    async def _handle_health(self, request: Request) -> Response:
        return Response.json({
            "status": "draining" if self.pool.draining else "ok",
            "queue": self.queue.counts(),
            "depth": self.queue.depth(),
            "recovered": self.queue.recovered,
            "cache": self.cache.stats(),
        })


async def serve(config: Optional[ServiceConfig] = None,
                ready: Optional[asyncio.Event] = None) -> None:
    """Run a service until cancelled (the ``repro serve`` entry point)."""
    import signal
    import sys

    service = SimService(config)
    host, port = await service.start()
    print(f"[serve] listening on http://{host}:{port} "
          f"({service.config.workers} workers, journal "
          f"{service.queue.journal_path})", file=sys.stderr, flush=True)
    if ready is not None:
        ready.set()
    stop = asyncio.Event()
    loop = asyncio.get_event_loop()
    for signum in (signal.SIGINT, signal.SIGTERM):
        try:
            loop.add_signal_handler(signum, stop.set)
        except (NotImplementedError, RuntimeError):
            pass
    try:
        await stop.wait()
    finally:
        print("[serve] draining...", file=sys.stderr, flush=True)
        await service.stop()
        print("[serve] stopped", file=sys.stderr, flush=True)
