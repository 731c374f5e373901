"""End-to-end tests for the simulation service over real HTTP.

Each test boots a real :class:`SimService` on an ephemeral port inside
``asyncio.run`` and talks to it through :class:`ServiceClient` -- the
same code path as ``repro serve`` + ``scripts/loadtest.py``, minus the
process boundary.  The result cache is per-test (conftest points
``REPRO_CACHE_DIR`` at a tmp dir), so cold/warm behaviour is
deterministic.

The sweep under test is tsf at IQ 32 in both modes: two short timing
simulations, enough to exercise the full submit -> queue -> worker ->
cache -> results pipeline without slowing the suite down.
"""

from __future__ import annotations

import asyncio
import contextlib
import json
import pathlib
import shutil

import pytest

from repro.arch.config import MachineConfig
from repro.power.activity import ActivityRecord
from repro.power.params import DEFAULT_PARAMS
from repro.runner.executor import execute_job, worker_suite
from repro.runner.jobs import job_key
from repro.service.app import ServiceConfig, SimService
from repro.service.client import ServiceClient, ServiceError
from repro.service.jobqueue import JobSpec
import repro.service.workers as workers_module
from repro.sim.export import result_to_dict
from repro.sim.simulator import evaluate_power, run_timing

SWEEP = {"benchmarks": ["tsf"], "iq_sizes": [32],
         "modes": ["baseline", "reuse"]}

#: A journal and result cache written by the service before job specs
#: carried a sparse ``MachineConfig.to_dict`` (see its README).
LEGACY_STATE = pathlib.Path(__file__).parent / "fixtures" / "legacy_state"

#: Hard ceiling on any single await in these tests; generous next to
#: the ~1s a tsf timing run takes, tiny next to a hung-test timeout.
DEADLINE = 120.0


@contextlib.asynccontextmanager
async def service(tmp_path, **overrides):
    overrides.setdefault("workers", 2)
    config = ServiceConfig(port=0,
                           state_dir=str(tmp_path / "state"),
                           **overrides)
    svc = SimService(config)
    host, port = await svc.start()
    try:
        yield svc, host, port
    finally:
        await svc.stop()


def _direct_payloads(svc, sweep_id):
    """What a direct runner invocation produces for each sweep job.

    Runs every job's timing simulation in-process via the same
    ``execute_job`` the runner/service workers use, then evaluates power
    exactly like ``_handle_results`` -- the reference the service's HTTP
    payloads must match byte for byte.
    """
    reference = {}
    for job in svc.queue.sweep_jobs(sweep_id):
        sim_job = job.spec.to_sim_job()
        payload = execute_job(sim_job)
        record = ActivityRecord.from_payload(payload)
        result = evaluate_power(record, sim_job.config, DEFAULT_PARAMS)
        reference[job.key] = {"record": payload,
                              "result": result_to_dict(result)}
    return reference


def _canonical(payload) -> str:
    return json.dumps(payload, sort_keys=True)


def test_submit_stream_results_and_warm_resubmit(tmp_path):
    async def case():
        async with service(tmp_path) as (svc, host, port):
            async with ServiceClient(host, port,
                                     client_id="e2e") as client:
                receipt = await client.submit_sweep(**SWEEP)
                assert receipt["total"] == 2
                assert receipt["enqueued"] == 2
                assert receipt["cache_hits"] == 0
                sweep_id = receipt["sweep_id"]

                # live progress: chunked NDJSON until the "end" marker
                async def collect():
                    collected = []
                    async for event in client.stream(sweep_id):
                        collected.append(event)
                    return collected

                events = await asyncio.wait_for(collect(),
                                                timeout=DEADLINE)
                assert events[-1]["kind"] == "end"
                assert events[-1]["complete"]
                assert events[-1]["manifest"] == {
                    "cache_hits": 0, "simulated": 2, "hit_rate": 0.0}
                kinds = [event["kind"] for event in events]
                assert kinds.count("started") == 2
                assert kinds.count("done") == 2

                results = await client.results(sweep_id)
                assert results["manifest"]["simulated"] == 2
                assert {job["source"]
                        for job in results["results"]} == {"sim"}

                # byte-for-byte identical to a direct runner invocation
                reference = _direct_payloads(svc, sweep_id)
                for job in results["results"]:
                    expected = reference[job["key"]]
                    assert _canonical(job["record"]) == \
                        _canonical(expected["record"])
                    assert _canonical(job["result"]) == \
                        _canonical(expected["result"])

                # resubmitting the identical sweep is a pure cache read
                warm = await client.submit_sweep(**SWEEP)
                assert warm["sweep_id"] == sweep_id
                assert warm["cache_hits"] == 2
                assert warm["enqueued"] == 0
                assert warm["attached"] == 0

                metrics = await client.metrics()
                names = {metric["name"] for metric in metrics["metrics"]}
                assert {"service_requests_total", "service_jobs_total",
                        "service_queue_depth"} <= names

    asyncio.run(case())


def test_concurrent_identical_sweeps_share_one_simulation(tmp_path):
    """Satellite: two clients racing the same sweep do the work once."""

    async def case():
        async with service(tmp_path) as (svc, host, port):
            async with ServiceClient(host, port, client_id="alice") as a, \
                    ServiceClient(host, port, client_id="bob") as b:
                first, second = await asyncio.gather(
                    a.submit_sweep(**SWEEP), b.submit_sweep(**SWEEP))
                assert first["sweep_id"] == second["sweep_id"]
                sweep_id = first["sweep_id"]
                # between them: every job enqueued exactly once, the
                # racing submission attached to the in-flight jobs
                assert first["enqueued"] + second["enqueued"] == 2
                assert first["attached"] + second["attached"] == 2

                status = await a.wait_complete(sweep_id,
                                               timeout=DEADLINE)
                assert status["complete"]
                # one simulation per job, not per client
                assert status["manifest"] == {
                    "cache_hits": 0, "simulated": 2, "hit_rate": 0.0}
                poll = await a.events(sweep_id)
                started = [event for event in poll["events"]
                           if event["kind"] == "started"]
                assert len(started) == 2

                ours, theirs = await asyncio.gather(
                    a.results(sweep_id), b.results(sweep_id))
                assert _canonical(ours) == _canonical(theirs)

    asyncio.run(case())


def test_rate_limit_and_backpressure(tmp_path):
    async def case():
        async with service(tmp_path, workers=1, rate=2.0, burst=2,
                           max_queue_depth=1) as (svc, host, port):
            async with ServiceClient(host, port,
                                     client_id="greedy") as client:
                outcomes = []
                for _ in range(3):
                    try:
                        await client.submit_sweep(**SWEEP)
                        outcomes.append((202, None))
                    except ServiceError as exc:
                        outcomes.append((exc.status, exc.retry_after))
                # the 2-job sweep overflows the depth-1 queue -> 503,
                # and the third attempt exhausts the burst of 2 -> 429
                assert [status for status, _ in outcomes] == \
                    [503, 503, 429]
                assert all(retry_after and retry_after > 0
                           for _, retry_after in outcomes)
                # pushback never admitted anything
                health = await client.health()
                assert health["depth"] == 0

    asyncio.run(case())


def test_restart_resumes_from_journal_without_resimulating(
        tmp_path, monkeypatch):
    """Kill mid-sweep, restart: journal + cache finish the sweep.

    Phase one completes a sweep normally, then the journal is doctored
    to look like the server died while one job was ``running``.  Phase
    two boots a fresh service on the same state dir with simulation
    *forbidden* (monkeypatched to explode): replay must roll the torn
    job back to pending, the worker must serve it from the warm cache,
    and the finished job must never run again.
    """

    async def phase_one():
        async with service(tmp_path) as (svc, host, port):
            async with ServiceClient(host, port,
                                     client_id="phase1") as client:
                receipt = await client.submit_sweep(**SWEEP)
                sweep_id = receipt["sweep_id"]
                status = await client.wait_complete(sweep_id,
                                                    timeout=DEADLINE)
                assert status["complete"]
                results = await client.results(sweep_id)
                return sweep_id, results

    sweep_id, before = asyncio.run(phase_one())
    torn_key = before["results"][0]["key"]

    # the crash: one job was mid-flight when the process died
    journal = tmp_path / "state" / "journal.jsonl"
    with open(journal, "a", encoding="utf-8") as handle:
        handle.write(json.dumps({"op": "state", "key": torn_key,
                                 "state": "running", "attempts": 1},
                                sort_keys=True) + "\n")

    def forbidden(job, timeout=None):
        raise AssertionError(
            f"restart re-simulated {job.describe()} despite warm cache")

    monkeypatch.setattr(workers_module, "_simulate_out_of_process",
                        forbidden)

    async def phase_two():
        async with service(tmp_path) as (svc, host, port):
            assert svc.queue.recovered == 1
            async with ServiceClient(host, port,
                                     client_id="phase2") as client:
                status = await client.wait_complete(sweep_id,
                                                    timeout=DEADLINE)
                assert status["complete"]
                assert status["failed"] == 0
                sources = {job["key"]: job["source"]
                           for job in status["jobs"]}
                # the recovered job was served from cache; the job that
                # finished before the crash kept its journaled state
                assert sources[torn_key] == "cache"
                assert set(sources.values()) == {"cache", "sim"}
                return await client.results(sweep_id)

    after = asyncio.run(phase_two())
    # payloads survive the restart bit-exactly (source labels differ)
    stable = {job["key"]: (job["record"], job["result"])
              for job in after["results"]}
    for job in before["results"]:
        record, result = stable[job["key"]]
        assert _canonical(record) == _canonical(job["record"])
        assert _canonical(result) == _canonical(job["result"])


def test_traced_sweep_spans_every_observability_plane(tmp_path):
    """One X-Trace-Id is visible in logs, trace, metrics and energy.

    The in-process twin of ``scripts/obs_smoke.py``: a sweep submitted
    with a known trace id must produce (1) a Perfetto-valid timeline
    with http + admission + worker + simulation spans, (2) a strictly
    parseable Prometheus exposition whose latency histograms saw the
    work, (3) ``sim_energy_component`` counters that reconcile with
    ``evaluate_power()`` over the results, and (4) structured log
    records carrying the id at every hop.
    """
    from repro.power.model import PowerModel
    from repro.telemetry import (
        default_sink,
        parse_prometheus,
        validate_trace,
    )

    trace_id = "e2e-trace-0001"

    async def case():
        async with service(tmp_path) as (svc, host, port):
            async with ServiceClient(host, port, client_id="e2e",
                                     trace_id=trace_id) as client:
                receipt = await client.submit_sweep(**SWEEP)
                await client.wait_complete(receipt["sweep_id"],
                                           timeout=DEADLINE)

                timeline = await client.trace_timeline(trace_id)
                validate_trace(timeline)
                categories = {event.get("cat", "")
                              for event in timeline["traceEvents"]
                              if event.get("ph") != "M"}
                assert {"http", "admission", "worker",
                        "instruction"} <= categories
                assert timeline["otherData"]["trace_id"] == trace_id
                assert len(timeline["otherData"]["jobs"]) == 2

                prom = await client.scrape_metrics(format="prom")
                families = parse_prometheus(prom)
                for name in ("service_request_seconds",
                             "service_queue_wait_seconds",
                             "service_worker_run_seconds"):
                    family = families[name]
                    assert family["kind"] == "histogram"
                    count = sum(v for n, _, v in family["samples"]
                                if n == f"{name}_count")
                    assert count > 0, name

                # json and prom scrapes describe the same registry
                snapshot = await client.scrape_metrics(format="json")
                assert set(families) == {
                    metric["name"]
                    for metric in snapshot["metrics"]}

                folded = sum(
                    value for _, _, value
                    in families["sim_energy_component"]["samples"])
                results = await client.results(receipt["sweep_id"])
                expected = 0.0
                for row in results["results"]:
                    config = MachineConfig.from_dict(
                        row["result"]["config"])
                    record = ActivityRecord.from_payload(row["record"])
                    expected += PowerModel(config).total_energy(record)
                assert folded == pytest.approx(expected, rel=1e-6)

                # unknown ids 404; malformed ids are dropped, not traced
                with pytest.raises(ServiceError) as excinfo:
                    await client.trace_timeline("no-such-trace")
                assert excinfo.value.status == 404
                await client.request("GET", "/healthz",
                                     trace_id="bad trace id!")
                assert not svc.tracer.has("bad trace id!")

    asyncio.run(case())

    hops = {record["logger"]
            for record in default_sink().records(trace_id=trace_id)}
    assert {"service.app", "service.journal",
            "service.workers"} <= hops


def test_unknown_sweep_and_incomplete_results(tmp_path):
    async def case():
        async with service(tmp_path, workers=1) as (svc, host, port):
            async with ServiceClient(host, port,
                                     client_id="poker") as client:
                with pytest.raises(ServiceError) as excinfo:
                    await client.status("deadbeef")
                assert excinfo.value.status == 404

                receipt = await client.submit_sweep(**SWEEP)
                with pytest.raises(ServiceError) as excinfo:
                    await client.results(receipt["sweep_id"])
                assert excinfo.value.status == 409
                await client.wait_complete(receipt["sweep_id"],
                                           timeout=DEADLINE)

    asyncio.run(case())


def test_request_latency_excludes_keep_alive_idle_time(tmp_path):
    """``service_request_seconds`` times a request from the arrival of
    its request line: the idle gap before the second request on a
    kept-alive connection must not show up in the histogram."""
    gap = 0.5
    request = b"GET /healthz HTTP/1.1\r\nHost: test\r\n\r\n"

    async def exchange(reader, writer):
        writer.write(request)
        await writer.drain()
        head = await reader.readuntil(b"\r\n\r\n")
        assert head.startswith(b"HTTP/1.1 200")
        length = next(int(line.split(b":", 1)[1])
                      for line in head.split(b"\r\n")
                      if line.lower().startswith(b"content-length:"))
        await reader.readexactly(length)

    async def case():
        async with service(tmp_path, workers=1) as (svc, host, port):
            reader, writer = await asyncio.open_connection(host, port)
            try:
                await asyncio.wait_for(exchange(reader, writer), DEADLINE)
                await asyncio.sleep(gap)
                await asyncio.wait_for(exchange(reader, writer), DEADLINE)
            finally:
                writer.close()
                await writer.wait_closed()
            histogram = svc.metrics.get("service_request_seconds")
            assert histogram.count(route="/healthz") == 2
            assert histogram.sum(route="/healthz") < gap / 2

    asyncio.run(case())


def test_warm_resubmit_of_a_finished_sweep_reads_no_cache_entry(
        tmp_path, monkeypatch):
    """Admission never reads a done job's cache hit, and done is final:
    resubmitting a finished sweep must not load a single cache entry,
    and still returns the all-hits receipt."""
    async def case():
        async with service(tmp_path, workers=1) as (svc, host, port):
            async with ServiceClient(host, port,
                                     client_id="warm") as client:
                cold = await client.submit_sweep(**SWEEP)
                await client.wait_complete(cold["sweep_id"],
                                           timeout=DEADLINE)
                loads = []
                real_load = svc.cache.load

                def counting_load(key):
                    loads.append(key)
                    return real_load(key)

                monkeypatch.setattr(svc.cache, "load", counting_load)
                first = await client.submit_sweep(**SWEEP)
                second = await client.submit_sweep(**SWEEP)
                assert loads == []
                assert first == second
                assert first["sweep_id"] == cold["sweep_id"]
                assert (first["total"], first["cache_hits"],
                        first["enqueued"], first["attached"]) \
                    == (2, 2, 0, 0)

    asyncio.run(case())


def _forbid_simulation(monkeypatch):
    def forbidden(job, timeout=None, traced=False):
        raise AssertionError(f"re-simulated {job.describe()}")

    monkeypatch.setattr(workers_module, "_simulate_out_of_process",
                        forbidden)


def test_legacy_journal_replays_and_resumes_from_its_cache(
        tmp_path, monkeypatch):
    """A journal and cache written before specs carried a sparse config
    load unchanged: replay rebuilds every spec under its journaled key,
    a job torn mid-flight resumes from the cache, and the old sweep
    bodies resubmit onto the same jobs -- no key moved."""
    journal = tmp_path / "state" / "journal.jsonl"
    journal.parent.mkdir()
    shutil.copy(LEGACY_STATE / "journal.jsonl", journal)
    shutil.copytree(LEGACY_STATE / "cache", tmp_path / "cache")
    records = [json.loads(line) for line in journal.read_text().splitlines()]
    job_ops = [record for record in records if record["op"] == "job"]
    sweeps = [record for record in records if record["op"] == "sweep"]
    torn_key = job_ops[-1]["key"]
    with open(journal, "a", encoding="utf-8") as handle:
        handle.write(json.dumps({"op": "state", "key": torn_key,
                                 "state": "running", "attempts": 1},
                                sort_keys=True) + "\n")
    _forbid_simulation(monkeypatch)
    suite = worker_suite()

    async def case():
        async with service(tmp_path, cache_dir=str(tmp_path / "cache")) \
                as (svc, host, port):
            assert svc.queue.recovered == 1
            assert svc.queue.skipped_lines == 0
            for op in job_ops:
                spec = svc.queue.jobs[op["key"]].spec
                assert spec == JobSpec.from_dict(op["spec"])
                sim_job = spec.to_sim_job()
                assert job_key(sim_job,
                               suite.program(sim_job.benchmark)) == op["key"]
            async with ServiceClient(host, port,
                                     client_id="legacy") as client:
                for sweep in sweeps:
                    status = await client.wait_complete(
                        sweep["sweep_id"], timeout=DEADLINE)
                    assert status["complete"] and not status["failed"]
                assert svc.queue.jobs[torn_key].source == "cache"
                for sweep in sweeps:
                    receipt = await client.submit_sweep(**sweep["request"])
                    assert receipt["sweep_id"] == sweep["sweep_id"]
                    assert receipt["enqueued"] == 0
                    assert receipt["cache_hits"] == receipt["total"]

    asyncio.run(case())


def test_gshare_trace_sweep_matches_direct_runs(tmp_path):
    """Machine fields beyond the Figure 5 grid reach the simulation: a
    gshare + trace-reuse sweep returns what direct runs produce."""
    machine = {"bpred_kind": "gshare", "reuse_mode": "trace"}

    async def case():
        async with service(tmp_path) as (svc, host, port):
            async with ServiceClient(host, port,
                                     client_id="gshare") as client:
                receipt = await client.submit_sweep(**SWEEP, **machine)
                await client.wait_complete(receipt["sweep_id"],
                                           timeout=DEADLINE)
                return (await client.results(receipt["sweep_id"]))[
                    "results"]

    rows = asyncio.run(case())
    assert sorted(row["reuse"] for row in rows) == [False, True]
    program = worker_suite().program("tsf")
    for row in rows:
        assert row["bpred_kind"] == "gshare"
        config = MachineConfig().with_iq_size(32).replace(
            reuse_enabled=row["reuse"], **machine)
        assert MachineConfig.from_dict(row["result"]["config"]) == config
        record = run_timing(program, config)
        assert _canonical(row["record"]) == _canonical(record.to_payload())
        result = evaluate_power(record, config, DEFAULT_PARAMS)
        assert _canonical(row["result"]) == \
            _canonical(result_to_dict(result))
        if row["reuse"]:
            loop_bimod = run_timing(program, config.replace(
                bpred_kind="bimod", reuse_mode="loop"))
            assert row["record"] != loop_bimod.to_payload()
