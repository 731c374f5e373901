#!/usr/bin/env python3
"""CI smoke test: one traced sweep through every observability plane.

Starts a real ``repro serve`` subprocess with ``--log-out``, submits a
sweep stamped with a known ``X-Trace-Id``, and then checks that the one
request is visible in each of the four planes the service exports:

1. **structured logs** -- the JSONL file contains records carrying the
   trace id at the admission, journal, and worker hops;
2. **distributed trace** -- ``GET /api/traces/<id>`` returns a
   Perfetto-loadable timeline that passes the strict trace-event schema
   checker and shows the HTTP request, the admission decision, the
   worker-lane spans, and the embedded per-instruction simulation
   stages under a single trace;
3. **Prometheus metrics** -- ``GET /metrics?format=prom`` parses with
   the strict exposition parser and contains the endpoint / queue-wait
   / worker-run latency histograms;
4. **energy attribution** -- the ``sim_energy_component`` counters sum
   to the same joules as re-costing every result row through
   :class:`~repro.power.model.PowerModel` (Fig. 6, live).

Exits non-zero on any violated invariant.  Used by the ``obs-smoke`` CI
job; runnable locally::

    python scripts/obs_smoke.py --state-dir /tmp/obs --cache-dir /tmp/obs-cache
"""

from __future__ import annotations

import argparse
import asyncio
import json
import os
import pathlib
import signal
import socket
import subprocess
import sys
import time

REPO = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO / "src"))

from repro.arch.config import MachineConfig  # noqa: E402
from repro.power.activity import ActivityRecord  # noqa: E402
from repro.power.model import PowerModel  # noqa: E402
from repro.service.client import ServiceClient  # noqa: E402
from repro.telemetry import parse_prometheus, validate_trace  # noqa: E402

SWEEP = {"benchmarks": ["tsf"], "iq_sizes": [32],
         "modes": ["baseline", "reuse"]}  # 2 jobs
TRACE_ID = "obs-smoke-0001"

#: Loggers that must mention the trace id in the structured log file:
#: one per hop of the request's journey through the service.
TRACED_LOGGERS = ("service.app", "service.journal", "service.workers")

#: Latency histograms the Prometheus exposition must carry.
LATENCY_HISTOGRAMS = ("service_request_seconds",
                      "service_queue_wait_seconds",
                      "service_worker_run_seconds")


def log(message: str) -> None:
    print(f"[obs-smoke] {message}", file=sys.stderr, flush=True)


def free_port() -> int:
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


def start_server(port: int, state_dir: str, cache_dir: str,
                 log_path: str, struct_log: str) -> subprocess.Popen:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO / "src")
    handle = open(log_path, "a")
    return subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--port", str(port),
         "--workers", "2", "--state-dir", state_dir,
         "--cache-dir", cache_dir, "--log-out", struct_log,
         "--log-level", "debug"],
        cwd=REPO, env=env, stdout=handle, stderr=subprocess.STDOUT,
        start_new_session=True)


def kill_group(proc: subprocess.Popen, signum: int) -> None:
    try:
        os.killpg(proc.pid, signum)
    except ProcessLookupError:
        pass
    proc.wait()


async def wait_healthy(port: int, proc: subprocess.Popen,
                       timeout: float = 30.0) -> None:
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if proc.poll() is not None:
            raise SystemExit(f"server exited early ({proc.returncode})")
        try:
            async with ServiceClient("127.0.0.1", port,
                                     client_id="obs-smoke") as client:
                await client.health()
                return
        except OSError:
            await asyncio.sleep(0.2)
    raise SystemExit("server never became healthy")


def check_structured_logs(struct_log: str) -> None:
    """Every hop logged a record carrying the trace id."""
    loggers_seen = set()
    events_seen = set()
    with open(struct_log, encoding="utf-8") as handle:
        for line in handle:
            if not line.strip():
                continue
            record = json.loads(line)  # every line must be valid JSON
            if record.get("trace_id") != TRACE_ID:
                continue
            loggers_seen.add(record["logger"])
            events_seen.add(record["event"])
    missing = set(TRACED_LOGGERS) - loggers_seen
    assert not missing, \
        f"no structured log with the trace id from {sorted(missing)}"
    assert "sweep-admitted" in events_seen, events_seen
    assert "job-done" in events_seen or "job-cache-hit" in events_seen, \
        events_seen
    log(f"structured logs OK: hops {sorted(loggers_seen)}, "
        f"events {sorted(events_seen)}")


def check_timeline(timeline: dict) -> None:
    """The exported trace validates and spans every layer."""
    validate_trace(timeline)
    events = timeline["traceEvents"]
    categories = {event.get("cat", "") for event in events
                  if event.get("ph") != "M"}
    for needed in ("http", "admission", "worker", "instruction"):
        assert needed in categories, \
            f"no {needed!r} span in the timeline (have {sorted(categories)})"
    assert timeline["otherData"]["trace_id"] == TRACE_ID
    # the embedded simulation timelines live in remapped job pids
    sim_pids = {event["pid"] for event in events
                if event.get("cat") == "instruction"}
    assert sim_pids, "simulation stage spans missing"
    log(f"timeline OK: {len(events)} events, "
        f"categories {sorted(categories)}, sim pids {sorted(sim_pids)}")


def check_prometheus(text: str) -> dict:
    """Strict-parse the exposition; return the family table."""
    families = parse_prometheus(text)
    for name in LATENCY_HISTOGRAMS:
        family = families.get(name)
        assert family is not None, f"missing histogram {name}"
        assert family["kind"] == "histogram", (name, family["kind"])
        assert any(sample_name.endswith("_bucket")
                   for sample_name, _, _ in family["samples"]), name
    assert "sim_energy_component" in families, sorted(families)
    log(f"prometheus OK: {len(families)} families, "
        f"histograms {list(LATENCY_HISTOGRAMS)}")
    return families


def check_energy(families: dict, results: dict) -> None:
    """Attribution counters reconcile with evaluate_power() joules."""
    folded = sum(value for _, _, value
                 in families["sim_energy_component"]["samples"])
    expected = 0.0
    for row in results["results"]:
        config = MachineConfig.from_dict(row["result"]["config"])
        record = ActivityRecord.from_payload(row["record"])
        expected += PowerModel(config).total_energy(record)
    assert expected > 0.0, "no energy to reconcile"
    rel = abs(folded - expected) / expected
    assert rel < 1e-6, \
        f"attribution drifted: folded={folded} expected={expected} rel={rel}"
    log(f"energy attribution OK: {folded:.6f} vs {expected:.6f} "
        f"(rel err {rel:.2e})")


async def run(args) -> int:
    port = args.port or free_port()
    server = start_server(port, args.state_dir, args.cache_dir,
                          args.server_log, args.struct_log)
    try:
        await wait_healthy(port, server)
        async with ServiceClient("127.0.0.1", port,
                                 client_id="obs-smoke",
                                 trace_id=TRACE_ID) as client:
            receipt = await client.submit_sweep(**SWEEP)
            sweep_id = receipt["sweep_id"]
            log(f"traced submit: sweep {sweep_id}, "
                f"{receipt['total']} jobs, trace {TRACE_ID}")
            status = await client.wait_complete(sweep_id,
                                                timeout=args.timeout)
            assert status["complete"], f"sweep did not finish: {status}"
            assert status["failed"] == 0, f"failed jobs: {status}"

            timeline = await client.trace_timeline(TRACE_ID)
            check_timeline(timeline)
            if args.trace_out:
                pathlib.Path(args.trace_out).write_text(
                    json.dumps(timeline, indent=2, sort_keys=True) + "\n",
                    encoding="utf-8")
                log(f"timeline written to {args.trace_out}")

            prom_text = await client.scrape_metrics(format="prom")
            families = check_prometheus(prom_text)

            results = await client.results(sweep_id)
            check_energy(families, results)
    finally:
        kill_group(server, signal.SIGTERM)

    check_structured_logs(args.struct_log)
    log("OK")
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(
        description="observability smoke test (traced sweep end to end)")
    parser.add_argument("--port", type=int, default=0,
                        help="server port (0 = pick a free one)")
    parser.add_argument("--state-dir", default=".obs-state")
    parser.add_argument("--cache-dir", default=".obs-cache")
    parser.add_argument("--server-log", default="obs-server.log")
    parser.add_argument("--struct-log", default="obs-structured.jsonl")
    parser.add_argument("--trace-out", default=None, metavar="PATH",
                        help="also write the exported timeline to PATH")
    parser.add_argument("--timeout", type=float, default=300.0)
    args = parser.parse_args()
    return asyncio.run(run(args))


if __name__ == "__main__":
    sys.exit(main())
