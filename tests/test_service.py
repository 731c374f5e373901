"""Unit tests for the simulation service's building blocks.

The end-to-end server behaviour (HTTP round trips, cache-first
admission, journal resume across a restart) lives in
``tests/test_service_e2e.py``; this file covers the pieces in
isolation: the journal-backed job queue, the sweep-request validator,
content-addressed sweep ids, the token-bucket rate limiter, the key
sharding rule and the HTTP router/parser.
"""

from __future__ import annotations

import asyncio
import hashlib
import json

import pytest

from repro.arch.config import MachineConfig
from repro.service.app import (
    MAX_SWEEP_JOBS,
    parse_sweep_request,
    sweep_id_for,
)
from repro.service.http import HttpError, Request, Router, read_request
from repro.service.jobqueue import JobQueue, JobSpec, shard_of
from repro.service.ratelimit import RateLimiter


@pytest.fixture
def journal(tmp_path):
    return tmp_path / "journal.jsonl"


def _spec(benchmark="tsf", iq=32, reuse=False, **kwargs):
    return JobSpec(benchmark=benchmark, iq_size=iq, reuse=reuse,
                   **kwargs)


class TestJobSpec:
    def test_round_trips_through_dict(self):
        spec = _spec(reuse=True, optimize=True, config={
            "nblt_size": 4, "buffering_strategy": "single"})
        assert JobSpec.from_dict(spec.to_dict()) == spec

    def test_reconstructs_the_sweep_rule_config(self):
        job = _spec(iq=128, reuse=True).to_sim_job()
        assert job.config.iq_size == 128
        assert job.config.rob_size == 128
        assert job.config.lsq_size == 64
        assert job.config.reuse_enabled

    def test_legacy_flat_spec_loads(self):
        spec = JobSpec.from_dict({
            "benchmark": "tsf", "iq_size": 32, "reuse": True,
            "optimize": False, "nblt_size": 8,
            "buffering_strategy": "multi"})
        assert spec.to_sim_job().config == \
            MachineConfig().with_iq_size(32).replace(reuse_enabled=True)


class TestJobQueue:
    def test_admit_is_idempotent_by_key(self, journal):
        queue = JobQueue(journal)
        first = queue.admit("k1", _spec())
        second = queue.admit("k1", _spec())
        assert first is second
        assert len(queue.jobs) == 1

    def test_admit_resets_a_failed_job(self, journal):
        queue = JobQueue(journal)
        queue.admit("k1", _spec())
        queue.transition("k1", "failed", attempts=3, error="boom")
        job = queue.admit("k1", _spec())
        assert job.state == "pending"
        assert job.attempts == 0

    def test_replay_rebuilds_state(self, journal):
        queue = JobQueue(journal)
        queue.admit("k1", _spec())
        queue.admit("k2", _spec(reuse=True))
        queue.register_sweep("s1", ["k1", "k2"], {"iq_sizes": [32]})
        queue.transition("k1", "done", source="sim", wall_time=1.5)
        queue.close()

        replayed = JobQueue(journal)
        assert replayed.jobs["k1"].state == "done"
        assert replayed.jobs["k1"].source == "sim"
        assert replayed.jobs["k2"].state == "pending"
        assert replayed.sweeps["s1"].keys == ["k1", "k2"]
        assert replayed.recovered == 0

    def test_replay_requeues_running_jobs(self, journal):
        queue = JobQueue(journal)
        queue.admit("k1", _spec())
        queue.transition("k1", "running", attempts=1)
        queue.close()

        replayed = JobQueue(journal)
        assert replayed.jobs["k1"].state == "pending"
        assert replayed.recovered == 1

    def test_replay_skips_torn_final_line(self, journal):
        queue = JobQueue(journal)
        queue.admit("k1", _spec())
        queue.close()
        with open(journal, "a", encoding="utf-8") as handle:
            handle.write('{"op": "state", "key": "k1", "sta')

        replayed = JobQueue(journal)
        assert replayed.skipped_lines == 1
        assert replayed.jobs["k1"].state == "pending"
        # and the queue keeps appending valid records afterwards
        replayed.transition("k1", "done", source="cache")
        replayed.close()
        assert JobQueue(journal).jobs["k1"].state == "done"

    def test_depth_counts_pending_and_running(self, journal):
        queue = JobQueue(journal)
        queue.admit("k1", _spec())
        queue.admit("k2", _spec(reuse=True))
        queue.admit("k3", _spec(iq=64))
        queue.transition("k1", "running", attempts=1)
        queue.transition("k2", "done", source="cache")
        assert queue.depth() == 2
        assert queue.counts() == {"pending": 1, "running": 1,
                                  "done": 1, "failed": 0}

    def test_sweep_status_manifest_splits_hits_from_sims(self, journal):
        queue = JobQueue(journal)
        queue.admit("k1", _spec())
        queue.admit("k2", _spec(reuse=True))
        queue.register_sweep("s1", ["k1", "k2"])
        queue.transition("k1", "done", source="cache")
        queue.transition("k2", "done", source="sim")
        status = queue.sweep_status("s1")
        assert status["complete"]
        assert status["manifest"] == {"cache_hits": 1, "simulated": 1,
                                      "hit_rate": 0.5}


class TestSharding:
    def _keys(self, count):
        return [hashlib.sha256(str(value).encode()).hexdigest()[:40]
                for value in range(count)]

    def test_shard_is_deterministic_and_in_range(self):
        keys = self._keys(100)
        for shards in (1, 2, 3, 8):
            owners = [shard_of(key, shards) for key in keys]
            assert owners == [shard_of(key, shards) for key in keys]
            assert all(0 <= owner < shards for owner in owners)

    def test_two_lanes_split_the_key_space(self):
        owners = {shard_of(key, 2) for key in self._keys(32)}
        assert owners == {0, 1}


class TestSweepRequest:
    def test_defaults_expand_to_both_modes(self):
        specs, echo = parse_sweep_request({"iq_sizes": [32]})
        # whole suite x 1 iq size x both modes
        assert len(specs) == len(echo["benchmarks"]) * 2
        assert {spec.reuse for spec in specs} == {False, True}

    def test_explicit_request_round_trips(self):
        specs, echo = parse_sweep_request({
            "benchmarks": ["tsf", "wss"],
            "iq_sizes": [32, 64],
            "modes": ["reuse"],
            "optimize": True,
            "nblt_size": 4,
            "buffering_strategy": "single",
        })
        assert len(specs) == 4
        assert all(spec.reuse and spec.optimize for spec in specs)
        assert echo["buffering_strategy"] == "single"

    def test_machine_fields_become_a_sparse_spec_config(self):
        specs, echo = parse_sweep_request({
            "benchmarks": ["tsf"], "iq_sizes": [32], "modes": ["reuse"],
            "bpred_kind": "gshare", "reuse_mode": "trace",
            "nblt_size": 8, "loop_cache_size": 16,
            "loop_cache_decoded": True})
        (spec,) = specs
        assert spec.config == {"bpred_kind": "gshare",
                               "reuse_mode": "trace",
                               "loop_cache_size": 16,
                               "loop_cache_decoded": True}
        assert spec.to_sim_job().config == \
            MachineConfig().with_iq_size(32).replace(
                reuse_enabled=True, **spec.config)
        assert echo["bpred_kind"] == "gshare"
        assert "nblt_size" not in echo  # the default is not repeated

    @pytest.mark.parametrize("extra", [
        {"rob_size": 64},                 # fields outside the allowlist
        {"max_cycles": 10},
        {"reuse_enabled": True},
        {"dl1": {"assoc": 8}},
        {"nblt": 8},
        {"nblt_size": 1025},              # out of range
        {"tht_size": 100000},
        {"loop_cache_size": -1},
        {"nblt_size": True},              # wrong type
        {"tht_size": "16"},
        {"loop_cache_decoded": 1},
        {"bpred_kind": "neural"},         # rejected by MachineConfig
        {"reuse_mode": "supertrace"},
        {"loop_cache_decoded": True},     # needs a loop cache
    ], ids=lambda extra: "-".join(f"{k}={v}" for k, v in extra.items()))
    def test_machine_fields_outside_allowlist_or_bounds_are_400(self,
                                                               extra):
        with pytest.raises(HttpError) as excinfo:
            parse_sweep_request({"iq_sizes": [32], **extra})
        assert excinfo.value.status == 400

    def test_duplicates_are_collapsed(self):
        specs, _ = parse_sweep_request({
            "benchmarks": ["tsf", "tsf"], "iq_sizes": [32, 32],
            "modes": ["reuse", "reuse"]})
        assert len(specs) == 1

    @pytest.mark.parametrize("payload", [
        None,
        [],
        {},
        {"iq_sizes": []},
        {"iq_sizes": ["x"]},
        {"iq_sizes": [1]},
        {"iq_sizes": [True]},
        {"iq_sizes": [32], "benchmarks": ["nope"]},
        {"iq_sizes": [32], "modes": ["turbo"]},
        {"iq_sizes": [32], "optimize": "yes"},
        {"iq_sizes": [32], "nblt_size": -1},
        {"iq_sizes": [32], "buffering_strategy": "triple"},
    ])
    def test_bad_requests_are_400(self, payload):
        with pytest.raises(HttpError) as excinfo:
            parse_sweep_request(payload)
        assert excinfo.value.status == 400

    def test_job_ceiling_enforced(self):
        with pytest.raises(HttpError) as excinfo:
            parse_sweep_request({
                "iq_sizes": list(range(2, 2 + MAX_SWEEP_JOBS))})
        assert excinfo.value.status == 400

    def test_sweep_id_is_content_addressed(self):
        assert sweep_id_for(["b", "a"]) == sweep_id_for(["a", "b"])
        assert sweep_id_for(["a"]) != sweep_id_for(["a", "b"])


class TestRateLimiter:
    def test_disabled_by_default(self):
        limiter = RateLimiter()
        assert all(limiter.check("c")[0] for _ in range(1000))

    def test_burst_then_429_then_refill(self):
        now = [0.0]
        limiter = RateLimiter(rate=2.0, burst=3,
                              clock=lambda: now[0])
        assert [limiter.check("c")[0] for _ in range(3)] == [True] * 3
        allowed, retry_after = limiter.check("c")
        assert not allowed
        assert retry_after == pytest.approx(0.5)
        now[0] += retry_after
        assert limiter.check("c")[0]
        assert limiter.denied == 1

    def test_clients_have_independent_buckets(self):
        now = [0.0]
        limiter = RateLimiter(rate=1.0, burst=1, clock=lambda: now[0])
        assert limiter.check("alice")[0]
        assert not limiter.check("alice")[0]
        assert limiter.check("bob")[0]


def _parse(raw: bytes) -> Request:
    async def parse():
        reader = asyncio.StreamReader()
        reader.feed_data(raw)
        reader.feed_eof()
        return await read_request(reader, client="peer")

    return asyncio.run(parse())


class TestHttpParsing:
    def test_parses_request_with_body_and_query(self):
        body = json.dumps({"iq_sizes": [32]}).encode()
        raw = (b"POST /api/sweeps?x=1&y=two HTTP/1.1\r\n"
               b"Host: h\r\nContent-Length: " +
               str(len(body)).encode() + b"\r\n\r\n" + body)
        request = _parse(raw)
        assert request.method == "POST"
        assert request.path == "/api/sweeps"
        assert request.query == {"x": "1", "y": "two"}
        assert request.json() == {"iq_sizes": [32]}
        assert request.client == "peer"

    def test_client_id_header_overrides_peer(self):
        request = _parse(b"GET / HTTP/1.1\r\nX-Client-Id: me\r\n\r\n")
        assert request.client == "me"

    def test_clean_eof_returns_none(self):
        async def parse():
            reader = asyncio.StreamReader()
            reader.feed_eof()
            return await read_request(reader)

        assert asyncio.run(parse()) is None

    @pytest.mark.parametrize("raw", [
        b"GARBAGE\r\n\r\n",
        b"GET / HTTP/4.2\r\n\r\n",
        b"POST / HTTP/1.1\r\nContent-Length: nope\r\n\r\n",
        b"POST / HTTP/1.1\r\nContent-Length: 10\r\n\r\nshort",
    ])
    def test_malformed_requests_are_400(self, raw):
        with pytest.raises(HttpError) as excinfo:
            _parse(raw)
        assert excinfo.value.status == 400

    def test_oversized_body_is_413(self):
        raw = (b"POST / HTTP/1.1\r\nContent-Length: 999999999\r\n\r\n")
        with pytest.raises(HttpError) as excinfo:
            _parse(raw)
        assert excinfo.value.status == 413


class TestRouter:
    def _router(self):
        async def handler(request, **params):
            return params

        router = Router()
        router.add("GET", "/api/sweeps/<sweep_id>", handler)
        router.add("POST", "/api/sweeps", handler)
        return router

    def test_resolves_path_params(self):
        handler, params, route = self._router().resolve(
            "GET", "/api/sweeps/abc123")
        assert params == {"sweep_id": "abc123"}
        assert route == "/api/sweeps/<sweep_id>"

    def test_unknown_path_is_404(self):
        with pytest.raises(HttpError) as excinfo:
            self._router().resolve("GET", "/nope")
        assert excinfo.value.status == 404

    def test_wrong_method_is_405(self):
        with pytest.raises(HttpError) as excinfo:
            self._router().resolve("DELETE", "/api/sweeps")
        assert excinfo.value.status == 405
