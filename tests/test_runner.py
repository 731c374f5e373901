"""Tests for the parallel experiment-runner subsystem.

Covers the acceptance properties of :mod:`repro.runner`:

* parallel execution produces results identical to the serial path,
* a second run against the same cache directory is served entirely from
  the persistent cache (zero simulations),
* power params are not part of the cache key: jobs differing only in
  params share one timing simulation, and a warm cache re-costs under
  any clocking style without simulating,
* corrupted, version-mismatched or pre-params-free-keying cache entries
  are evicted and re-run, never crash,
* content-hash job keys react to every timing input,
* transient in-process failures are retried; executor errors surface
  only after the retry budget is exhausted.
"""

from __future__ import annotations

import json
import pathlib

import pytest

from repro.arch.config import MachineConfig
from repro.compiler.passes import build_program
from repro.runner import SimJob, build_runner, job_key
from repro.runner.cache import ResultCache
from repro.runner.executor import JobExecutor, execute_job
from repro.runner.jobs import config_digest, program_digest
from repro.runner.progress import ProgressReporter
from repro.sim.experiments import ExperimentRunner
from repro.sim.export import (
    SCHEMA_VERSION,
    result_from_payload,
    result_to_payload,
)
from repro.power.params import DEFAULT_PARAMS
from repro.sim.simulator import run_timing, simulate
from repro.workloads.generator import synthetic_loop_kernel
from repro.workloads.suite import WorkloadSuite

BENCHMARKS = ("tsf",)
IQ_SIZES = (32,)


@pytest.fixture(scope="module")
def cache_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("result-cache")


@pytest.fixture(scope="module")
def serial_table():
    """Figure 5 table from the default serial, uncached path."""
    runner = ExperimentRunner(benchmarks=BENCHMARKS, iq_sizes=IQ_SIZES)
    return runner.figure5_gating()


@pytest.fixture(scope="module")
def first_parallel_run(cache_dir, serial_table):
    """One parallel run that also populates the persistent cache."""
    runner = build_runner(jobs=2, cache_dir=cache_dir,
                          benchmarks=BENCHMARKS, iq_sizes=IQ_SIZES)
    table = runner.figure5_gating()
    return table, runner.executor.progress.summary()


class TestJobKeys:
    def test_key_is_deterministic(self):
        suite = WorkloadSuite()
        job = SimJob("tsf", MachineConfig().with_iq_size(32))
        program = suite.program("tsf")
        assert job_key(job, program) == job_key(job, program)

    def test_key_reacts_to_config(self):
        program = WorkloadSuite().program("tsf")
        base = SimJob("tsf", MachineConfig().with_iq_size(32))
        for variant in (
                SimJob("tsf", MachineConfig().with_iq_size(64)),
                SimJob("tsf", MachineConfig().with_iq_size(32).replace(
                    reuse_enabled=True)),
                SimJob("tsf", MachineConfig().with_iq_size(32).replace(
                    nblt_size=0)),
        ):
            assert job_key(variant, program) != job_key(base, program)

    def test_key_reacts_to_program(self):
        # wss is a kernel the loop-distribution pass actually rewrites
        suite = WorkloadSuite()
        config = MachineConfig()
        job = SimJob("wss", config)
        original = suite.program("wss", optimize=False)
        optimized = suite.program("wss", optimize=True)
        assert program_digest(original) != program_digest(optimized)
        assert job_key(job, original) != job_key(job, optimized)

    def test_memoized_keys_equal_fresh_keys_over_the_figure5_grid(
            self, monkeypatch):
        """Both digests are memoized (per program object, per config
        value): over every Figure 5 job a memoized key must equal one
        computed from scratch, and re-keying must not disassemble a
        program again."""
        import copy

        from repro.arch.config import SWEEP_IQ_SIZES
        from repro.isa.program import Program
        from repro.workloads.suite import BENCHMARK_NAMES

        suite = WorkloadSuite()
        grid = [(name, MachineConfig().with_iq_size(iq).replace(
                    reuse_enabled=reuse))
                for name in BENCHMARK_NAMES for iq in SWEEP_IQ_SIZES
                for reuse in (False, True)]
        for name, config in grid:               # warm both memos
            job_key(SimJob(name, config), suite.program(name))
        listings = []
        real_listing = Program.listing

        def counting_listing(program):
            listings.append(program.name)
            return real_listing(program)

        monkeypatch.setattr(Program, "listing", counting_listing)
        memoized = [job_key(SimJob(name, config), suite.program(name))
                    for name, config in grid]
        assert listings == []
        config_digest.cache_clear()
        fresh = [job_key(SimJob(name, config),
                         copy.deepcopy(suite.program(name)))
                 for name, config in grid]
        assert len(listings) == len(grid)
        assert memoized == fresh
        assert len(set(memoized)) == len(grid)

    def test_config_digest_covers_all_fields(self):
        base = MachineConfig()
        assert config_digest(base) != config_digest(
            base.replace(mem_first_chunk=81))

    def test_describe_names_every_differing_config_field(self):
        config = MachineConfig().with_iq_size(32).replace(
            reuse_enabled=True)
        bimod = SimJob("tsf", config).describe()
        gshare = SimJob("tsf", config.replace(bpred_kind="gshare"))
        assert bimod == "tsf iq=32 reuse array"
        assert gshare.describe() == \
            "tsf iq=32 reuse array bpred_kind=gshare"
        assert "nblt_size=0" in SimJob(
            "tsf", config.replace(nblt_size=0)).describe()


class TestPayloadRoundTrip:
    def test_reconstructed_result_is_equivalent(self):
        program = build_program(synthetic_loop_kernel(
            "rt", statements=1, trip_count=50))
        config = MachineConfig().with_iq_size(32).replace(
            reuse_enabled=True)
        original = simulate(program, config)
        rebuilt = result_from_payload(result_to_payload(original), config)
        assert rebuilt.program_name == original.program_name
        assert rebuilt.stats.as_dict() == original.stats.as_dict()
        assert rebuilt.activity == original.activity
        assert rebuilt.registers == original.registers
        assert rebuilt.total_energy == original.total_energy
        assert rebuilt.avg_power == original.avg_power
        for name, component in original.energies.items():
            assert rebuilt.energies[name].avg_power == component.avg_power

    def test_schema_mismatch_rejected(self):
        program = build_program(synthetic_loop_kernel(
            "rt2", statements=1, trip_count=10))
        config = MachineConfig().with_iq_size(32)
        payload = result_to_payload(simulate(program, config))
        payload["schema"] = SCHEMA_VERSION + 1
        with pytest.raises(ValueError):
            result_from_payload(payload, config)


class TestParallelEquivalence:
    def test_parallel_matches_serial_exactly(self, serial_table,
                                             first_parallel_run):
        parallel_table, _ = first_parallel_run
        assert parallel_table == serial_table

    def test_first_run_simulates_everything(self, first_parallel_run):
        _, summary = first_parallel_run
        assert summary["simulated"] == 2 * len(BENCHMARKS) * len(IQ_SIZES)
        assert summary["cache_hits"] == 0
        assert summary["failed"] == 0


class TestPersistentCache:
    def test_second_run_is_all_cache_hits(self, cache_dir, serial_table,
                                          first_parallel_run):
        runner = build_runner(jobs=2, cache_dir=cache_dir,
                              benchmarks=BENCHMARKS, iq_sizes=IQ_SIZES)
        assert runner.figure5_gating() == serial_table
        summary = runner.executor.progress.summary()
        assert summary["simulated"] == 0
        assert summary["hit_rate"] == 1.0

    def test_corrupted_entry_is_evicted_and_rerun(self, cache_dir,
                                                  serial_table,
                                                  first_parallel_run):
        victim = sorted(cache_dir.glob("*.json"))[0]
        victim.write_text("{ this is not json", encoding="utf-8")
        runner = build_runner(jobs=1, cache_dir=cache_dir,
                              benchmarks=BENCHMARKS, iq_sizes=IQ_SIZES)
        assert runner.figure5_gating() == serial_table
        summary = runner.executor.progress.summary()
        assert summary["simulated"] == 1          # only the victim re-ran
        assert runner.executor.cache.evictions == 1
        # the re-run re-stored a valid entry
        assert json.loads(victim.read_text())["schema"] == SCHEMA_VERSION

    def test_truncated_entry_is_evicted_not_raised(self, cache_dir,
                                                   serial_table,
                                                   first_parallel_run):
        # a crash (or full disk) mid-write leaves a prefix of valid JSON
        victim = sorted(cache_dir.glob("*.json"))[0]
        text = victim.read_text(encoding="utf-8")
        victim.write_text(text[:len(text) // 2], encoding="utf-8")
        cache = ResultCache(cache_dir)
        assert cache.load(victim.stem) is None   # miss, never a raise
        assert cache.evictions == 1
        assert not victim.exists()               # evicted for re-store
        # the runner then transparently re-simulates just the victim
        runner = build_runner(jobs=1, cache_dir=cache_dir,
                              benchmarks=BENCHMARKS, iq_sizes=IQ_SIZES)
        assert runner.figure5_gating() == serial_table
        assert runner.executor.progress.summary()["simulated"] == 1

    def test_version_mismatch_is_evicted_and_rerun(self, cache_dir,
                                                   serial_table,
                                                   first_parallel_run):
        victim = sorted(cache_dir.glob("*.json"))[1]
        entry = json.loads(victim.read_text())
        entry["schema"] = SCHEMA_VERSION + 99
        victim.write_text(json.dumps(entry), encoding="utf-8")
        runner = build_runner(jobs=1, cache_dir=cache_dir,
                              benchmarks=BENCHMARKS, iq_sizes=IQ_SIZES)
        assert runner.figure5_gating() == serial_table
        assert runner.executor.progress.summary()["simulated"] == 1
        assert json.loads(victim.read_text())["schema"] == SCHEMA_VERSION

    def test_unwritable_cache_degrades_gracefully(self, tmp_path):
        cache = ResultCache(tmp_path / "file-not-dir")
        (tmp_path / "file-not-dir").write_text("occupied")
        program = build_program(synthetic_loop_kernel(
            "nc", statements=1, trip_count=10))
        config = MachineConfig().with_iq_size(32)
        job = SimJob("tsf", config)
        record = run_timing(program, config)
        cache.store("deadbeef", job, record)     # must not raise
        assert cache.load("deadbeef") is None

    def test_legacy_pre_schema3_entry_is_purged_silently(self, tmp_path):
        # a pre-params-free-keying (schema 2) entry: full result payload
        # under a params-dependent key that will never be probed again
        legacy = tmp_path / "0123456789abcdef0123456789abcdef01234567.json"
        legacy.write_text(json.dumps({
            "schema": 2,
            "repro_version": "0.0.0",
            "key": legacy.stem,
            "job": {"benchmark": "tsf"},
            "result": {"schema": 2, "program": "tsf", "stats": {},
                       "activity": {}, "energies": {}, "registers": []},
        }), encoding="utf-8")
        cache = ResultCache(tmp_path)
        assert cache.load("somekey") is None     # must not raise
        assert not legacy.exists()               # orphan swept on first use
        assert cache.evictions == 1

    def test_purge_leaves_current_schema_entries_alone(self, tmp_path):
        program = build_program(synthetic_loop_kernel(
            "keep", statements=1, trip_count=10))
        config = MachineConfig().with_iq_size(32)
        cache = ResultCache(tmp_path)
        record = run_timing(program, config)
        cache.store("feedface", SimJob("tsf", config), record)
        fresh = ResultCache(tmp_path)
        assert fresh.purge_stale() == 0
        loaded = fresh.load("feedface")
        assert loaded is not None
        assert loaded == record


class TestLegacyCache:
    def test_entries_written_before_sparse_configs_all_hit(self, tmp_path):
        """Cache keys did not move: every entry of a cache written before
        jobs carried ``MachineConfig.to_dict`` is hit, none simulated."""
        import shutil

        from repro.service.jobqueue import JobSpec

        legacy = pathlib.Path(__file__).parent / "fixtures" / \
            "legacy_state" / "cache"
        shutil.copytree(legacy, tmp_path / "cache")
        jobs = [
            JobSpec("tsf", 32, reuse=False).to_sim_job(),
            JobSpec("tsf", 32, reuse=True).to_sim_job(),
            JobSpec("tsf", 32, reuse=True, config={
                "nblt_size": 4, "buffering_strategy": "single"}
            ).to_sim_job(),
            SimJob("tsf", MachineConfig.from_dict({
                "iq_size": 32, "reuse_enabled": True,
                "reuse_mode": "trace", "bpred_kind": "gshare"})),
        ]
        executor = JobExecutor(jobs=1,
                               cache=ResultCache(tmp_path / "cache"))
        assert {executor.key(job) for job in jobs} == \
            {path.stem for path in legacy.glob("*.json")}
        assert len(executor.run(jobs)) == len(jobs)
        assert executor.progress.count("cache-hit") == len(jobs)
        assert executor.progress.count("started") == 0


class TestParamsFreeCache:
    """Power params never trigger a simulation of their own."""

    STYLES = ("cc0", "cc1", "cc3")

    def _style_jobs(self, config):
        return [SimJob("tsf", config,
                       params=DEFAULT_PARAMS.for_clocking_style(style))
                for style in self.STYLES]

    def test_params_variants_share_one_key(self):
        program = WorkloadSuite().program("tsf")
        config = MachineConfig().with_iq_size(32)
        keys = {job_key(job, program) for job in self._style_jobs(config)}
        assert len(keys) == 1

    def test_one_simulation_serves_every_style(self, tmp_path):
        config = MachineConfig().with_iq_size(32).replace(
            reuse_enabled=True)
        executor = JobExecutor(jobs=1, cache=ResultCache(tmp_path))
        jobs = self._style_jobs(config)
        results = executor.run(jobs)
        # one timing run, the other two styles derived from it
        assert executor.progress.count("done") == 1
        program = WorkloadSuite().program("tsf")
        for job in jobs:
            fresh = simulate(program, config, params=job.params)
            assert results[job].total_energy == fresh.total_energy
            for name, component in fresh.energies.items():
                assert results[job].energies[name].avg_power \
                    == component.avg_power

    def test_warm_cache_restyles_without_simulating(self, tmp_path):
        # reuse-enabled so cycles are actually gated and the styles'
        # idle fractions produce distinct energies
        config = MachineConfig().with_iq_size(32).replace(
            reuse_enabled=True)
        JobExecutor(jobs=1, cache=ResultCache(tmp_path)).run(
            [SimJob("tsf", config)])
        warm = JobExecutor(jobs=1, cache=ResultCache(tmp_path))
        results = warm.run(self._style_jobs(config))
        assert warm.progress.count("done") == 0
        assert warm.progress.summary()["simulated"] == 0
        energies = {job.params.idle_fraction: results[job].total_energy
                    for job in results}
        assert len(set(energies.values())) == len(energies)


class TestExecutorFallback:
    def test_transient_failure_is_retried(self, monkeypatch):
        calls = {"n": 0}
        real = execute_job

        def flaky(job):
            calls["n"] += 1
            if calls["n"] == 1:
                raise OSError("transient")
            return real(job)

        import repro.runner.executor as executor_module
        monkeypatch.setattr(executor_module, "execute_job", flaky)
        executor = JobExecutor(jobs=1, retries=2,
                               progress=ProgressReporter(verbose=False))
        job = SimJob("tsf", MachineConfig().with_iq_size(32))
        results = executor.run([job])
        assert results[job].cycles > 0
        assert calls["n"] == 2
        assert executor.progress.count("retry") == 1

    def test_persistent_failure_raises_after_budget(self, monkeypatch):
        import repro.runner.executor as executor_module

        def broken(job):
            raise OSError("permanent")

        monkeypatch.setattr(executor_module, "execute_job", broken)
        executor = JobExecutor(jobs=1, retries=1,
                               progress=ProgressReporter(verbose=False))
        job = SimJob("tsf", MachineConfig().with_iq_size(32))
        with pytest.raises(OSError):
            executor.run([job])

    def test_duplicate_jobs_resolved_once(self):
        executor = JobExecutor(jobs=1)
        job = SimJob("tsf", MachineConfig().with_iq_size(32))
        results = executor.run([job, job, job])
        assert len(results) == 1
        assert executor.progress.count("done") == 1


class TestSharedSuite:
    def test_runners_share_compiled_programs(self):
        first = build_runner(jobs=1, no_cache=True)
        second = build_runner(jobs=1, no_cache=True)
        assert first.suite is second.suite
        assert first.suite.program("tsf") is second.suite.program("tsf")

    def test_simulation_leaves_the_program_digest_unchanged(self):
        # a shared Program must be immutable under simulation: its data
        # segments are bytes, and load_image copies them
        import repro.runner.jobs as jobs_module

        program = build_runner(jobs=1, no_cache=True).suite.program("wss")
        before = program_digest(program)
        for engine in ("array", "object"):
            run_timing(program, MachineConfig().with_iq_size(32).replace(
                reuse_enabled=True), engine=engine)
        jobs_module._PROGRAM_DIGESTS.pop(program)
        assert program_digest(program) == before


class TestProgressManifest:
    def test_manifest_contents(self, tmp_path, cache_dir, serial_table,
                               first_parallel_run):
        runner = build_runner(jobs=1, cache_dir=cache_dir,
                              benchmarks=BENCHMARKS, iq_sizes=IQ_SIZES)
        runner.figure5_gating()
        path = tmp_path / "manifest.json"
        runner.executor.progress.write_manifest(path)
        manifest = json.loads(path.read_text())
        assert set(manifest) == {"summary", "events", "metrics"}
        kinds = {event["kind"] for event in manifest["events"]}
        assert "queued" in kinds
        assert "cache-hit" in kinds
        assert manifest["summary"]["jobs"] == 2

    def test_manifest_counts_hits_and_misses(self, tmp_path, cache_dir,
                                             serial_table,
                                             first_parallel_run):
        # the cold fixture run probed an empty cache: all misses
        _, cold = first_parallel_run
        assert cold["cache_misses"] == cold["simulated"]
        assert cold["cache_hits"] == 0
        # a warm run against the same cache is all hits, zero misses
        runner = build_runner(jobs=1, cache_dir=cache_dir,
                              benchmarks=BENCHMARKS, iq_sizes=IQ_SIZES)
        runner.figure5_gating()
        path = tmp_path / "warm-manifest.json"
        runner.executor.progress.write_manifest(path)
        summary = json.loads(path.read_text())["summary"]
        assert summary["cache_hits"] == summary["jobs"] == 2
        assert summary["cache_misses"] == 0
        assert summary["cache_evictions"] == 0
        assert {event["kind"]
                for event in json.loads(path.read_text())["events"]} \
            == {"queued", "cache-hit"}
