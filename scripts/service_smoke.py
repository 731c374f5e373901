#!/usr/bin/env python3
"""CI smoke test: the full service lifecycle, including a kill -9.

Drives a real ``repro serve`` subprocess through the scenario the
service exists for:

1. cold sweep submitted, progress polled;
2. the server is killed with SIGKILL mid-sweep;
3. a fresh server on the same state/cache dirs replays the journal and
   finishes the sweep -- jobs that finished before the crash must NOT
   be re-simulated;
4. the identical sweep is resubmitted -- the receipt must show 100%
   cache hits and zero enqueued simulations (the warm-cache path);
5. a gshare + trace-reuse column (machine fields beyond the Figure 5
   grid) is submitted, and its records must be byte-identical to
   direct ``run_timing`` runs of the same configurations.

Exits non-zero on any violated invariant.  Used by the ``service-smoke``
CI job; runnable locally::

    python scripts/service_smoke.py --state-dir /tmp/svc --cache-dir /tmp/cache
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
from repro.service.client import ServiceClient  # noqa: E402
from repro.sim.simulator import run_timing  # noqa: E402
from repro.workloads.suite import WorkloadSuite  # noqa: E402

SWEEP = {"benchmarks": ["tsf", "wss"], "iq_sizes": [32, 64],
         "modes": ["baseline", "reuse"]}  # 8 jobs

#: Machine fields beyond the grid, on one kernel's IQ-32 column.
MACHINE = {"bpred_kind": "gshare", "reuse_mode": "trace"}
MACHINE_SWEEP = {"benchmarks": ["tsf"], "iq_sizes": [32],
                 "modes": ["baseline", "reuse"], **MACHINE}  # 2 jobs


def log(message: str) -> None:
    print(f"[smoke] {message}", file=sys.stderr, flush=True)


def free_port() -> int:
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


def start_server(port: int, state_dir: str, cache_dir: str,
                 log_path: str) -> subprocess.Popen:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO / "src")
    handle = open(log_path, "a")
    # own process group so SIGKILL takes the simulation child processes
    # with it -- they inherit the listen socket and would otherwise keep
    # the port bound after the parent dies
    return subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--port", str(port),
         "--workers", "2", "--state-dir", state_dir,
         "--cache-dir", cache_dir],
        cwd=REPO, env=env, stdout=handle, stderr=subprocess.STDOUT,
        start_new_session=True)


def kill_group(proc: subprocess.Popen, signum: int) -> None:
    try:
        os.killpg(proc.pid, signum)
    except ProcessLookupError:
        pass
    proc.wait()


def wait_port_free(port: int, timeout: float = 30.0) -> None:
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        with socket.socket() as sock:
            try:
                sock.bind(("127.0.0.1", port))
                return
            except OSError:
                time.sleep(0.2)
    raise SystemExit(f"port {port} never freed after the kill")


async def wait_healthy(port: int, proc: subprocess.Popen,
                       timeout: float = 30.0) -> None:
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if proc.poll() is not None:
            raise SystemExit(f"server exited early ({proc.returncode})")
        try:
            async with ServiceClient("127.0.0.1", port,
                                     client_id="smoke") as client:
                await client.health()
                return
        except OSError:
            await asyncio.sleep(0.2)
    raise SystemExit("server never became healthy")


async def check_machine_sweep(client: ServiceClient,
                              timeout: float) -> None:
    """Phase 5: a gshare/trace column matches direct runs byte for byte."""
    receipt = await client.submit_sweep(**MACHINE_SWEEP)
    status = await client.wait_complete(receipt["sweep_id"],
                                        timeout=timeout)
    assert status["complete"] and not status["failed"], status
    rows = (await client.results(receipt["sweep_id"]))["results"]
    assert len(rows) == 2, rows
    program = WorkloadSuite().program("tsf")
    for row in rows:
        config = MachineConfig().with_iq_size(32).replace(
            reuse_enabled=row["reuse"], **MACHINE)
        direct = run_timing(program, config).to_payload()
        assert json.dumps(row["record"], sort_keys=True) == \
            json.dumps(direct, sort_keys=True), \
            f"served record differs from direct run_timing: {row['key']}"
    log(f"machine sweep: {MACHINE} column byte-identical to run_timing")


def counter_total(metrics: dict, name: str, **labels) -> int:
    for metric in metrics["metrics"]:
        if metric["name"] == name:
            return sum(
                sample["value"] for sample in metric["samples"]
                if all(sample["labels"].get(k) == v
                       for k, v in labels.items()))
    return 0


async def run(args) -> int:
    port = args.port or free_port()

    # -- phase 1: cold sweep, killed mid-flight ---------------------------
    server = start_server(port, args.state_dir, args.cache_dir,
                          args.server_log)
    await wait_healthy(port, server)
    async with ServiceClient("127.0.0.1", port,
                             client_id="smoke") as client:
        receipt = await client.submit_sweep(**SWEEP)
        sweep_id = receipt["sweep_id"]
        total = receipt["total"]
        log(f"cold submit: sweep {sweep_id}, {total} jobs, "
            f"{receipt['cache_hits']} hits, {receipt['enqueued']} enqueued")
        assert receipt["enqueued"] == total, \
            "expected a fully cold first sweep (is the cache dir clean?)"
        # poll until some jobs finished, then pull the plug
        done_before = 0
        deadline = time.monotonic() + args.timeout
        while time.monotonic() < deadline:
            status = await client.events(sweep_id, wait=5.0)
            full = await client.status(sweep_id)
            done_before = full["states"]["done"]
            if done_before >= 1:
                break
            if status["complete"]:
                break
        assert done_before >= 1, "no job completed before the deadline"
    kill_group(server, signal.SIGKILL)
    wait_port_free(port)
    log(f"killed -9 with {done_before}/{total} jobs done")

    # -- phase 2: restart resumes from the journal ------------------------
    server = start_server(port, args.state_dir, args.cache_dir,
                          args.server_log)
    try:
        await wait_healthy(port, server)
        async with ServiceClient("127.0.0.1", port,
                                 client_id="smoke") as client:
            health = await client.health()
            log(f"restarted: recovered={health['recovered']} "
                f"queue={health['queue']}")
            status = await client.wait_complete(sweep_id,
                                                timeout=args.timeout)
            assert status["complete"], f"sweep did not finish: {status}"
            assert status["failed"] == 0, f"failed jobs: {status}"
            # finished jobs were not re-run: what the second server
            # simulated + what it served from cache + what the journal
            # already recorded as done must cover the sweep exactly
            metrics = await client.metrics()
            simulated_after = counter_total(
                metrics, "service_jobs_total", kind="completed")
            cache_after = counter_total(
                metrics, "service_jobs_total", kind="cache-hit")
            log(f"after restart: simulated={simulated_after} "
                f"cache-served={cache_after} done-before={done_before}")
            assert done_before + simulated_after + cache_after == total, \
                "restart re-ran already-finished jobs"
            assert simulated_after < total, \
                "restart restarted the sweep from scratch"

            results = await client.results(sweep_id)
            assert len(results["results"]) == total

            # -- phase 3: warm resubmission is a pure cache read ----------
            warm = await client.submit_sweep(**SWEEP)
            assert warm["sweep_id"] == sweep_id
            assert warm["cache_hits"] == total, f"warm receipt: {warm}"
            assert warm["enqueued"] == 0, f"warm receipt: {warm}"
            log(f"warm resubmit: {warm['cache_hits']}/{total} cache hits, "
                "0 enqueued")

            # -- phase 5: machine fields beyond the grid ------------------
            await check_machine_sweep(client, args.timeout)
    finally:
        kill_group(server, signal.SIGTERM)
    log("OK")
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(
        description="service lifecycle smoke test (kill -9 + resume, "
                    "then a gshare/trace column checked against direct "
                    "runs)")
    parser.add_argument("--port", type=int, default=0,
                        help="server port (0 = pick a free one)")
    parser.add_argument("--state-dir", default=".smoke-state")
    parser.add_argument("--cache-dir", default=".smoke-cache")
    parser.add_argument("--server-log", default="smoke-server.log")
    parser.add_argument("--timeout", type=float, default=300.0)
    args = parser.parse_args()
    return asyncio.run(run(args))


if __name__ == "__main__":
    sys.exit(main())
