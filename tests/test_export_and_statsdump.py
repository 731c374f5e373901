"""Tests for the JSON export module and the statistics dump."""

import json

import pytest

from repro.arch.config import MachineConfig
from repro.compiler.passes import build_program
from repro.sim.export import (
    comparison_to_dict,
    result_to_dict,
    to_json,
)
from repro.sim.results import RunComparison
from repro.sim.simulator import simulate
from repro.sim.statsdump import render_stats
from repro.workloads.generator import synthetic_loop_kernel


@pytest.fixture(scope="module")
def results():
    program = build_program(synthetic_loop_kernel(
        "exp", statements=1, trip_count=60))
    config = MachineConfig().with_iq_size(32)
    baseline = simulate(program, config)
    reuse = simulate(program, config.replace(reuse_enabled=True))
    return baseline, reuse


class TestExport:
    def test_config_dict(self):
        config = MachineConfig().with_iq_size(128).replace(
            reuse_enabled=True, loop_cache_size=16)
        exported = config.to_dict()
        assert exported == {"iq_size": 128, "reuse_enabled": True,
                            "loop_cache_size": 16}
        assert MachineConfig.from_dict(exported) == config

    def test_result_dict_structure(self, results):
        baseline, _ = results
        exported = result_to_dict(baseline)
        assert exported["program"] == "exp"
        assert exported["metrics"]["committed"] == \
            baseline.stats.committed
        assert "icache" in exported["power"]
        assert exported["counters"]["cycles"] == baseline.cycles

    def test_result_dict_reuse_metrics(self, results):
        _, reuse = results
        exported = result_to_dict(reuse)
        metrics = exported["metrics"]
        assert metrics["revoke_rate"] == reuse.stats.revoke_rate
        assert metrics["loop_detections"] == reuse.stats.loop_detections
        assert metrics["buffering_started"] == \
            reuse.stats.buffering_started
        assert metrics["loop_detections"] > 0

    def test_result_dict_revokes_by_cause(self, results):
        _, reuse = results
        revokes = result_to_dict(reuse)["revokes"]
        assert set(revokes) == {"total", "buffering", "inner_loop",
                                "exit", "iq_full", "mispredict",
                                "divergence"}
        assert revokes["total"] == reuse.stats.revokes
        assert revokes["buffering"] == reuse.stats.buffering_revokes

    def test_comparison_dict(self, results):
        baseline, reuse = results
        exported = comparison_to_dict(RunComparison(baseline, reuse))
        assert set(exported) == {"summary", "baseline", "reuse"}
        assert exported["summary"]["gated_fraction"] == \
            reuse.gated_fraction

    def test_json_roundtrip(self, results):
        baseline, reuse = results
        for obj in (baseline, RunComparison(baseline, reuse)):
            parsed = json.loads(to_json(obj))
            assert isinstance(parsed, dict)

    def test_json_rejects_unknown(self):
        with pytest.raises(TypeError):
            to_json(object())


class TestStatsDump:
    def test_baseline_dump_sections(self, results):
        baseline, _ = results
        text = render_stats(baseline)
        for fragment in ("## pipeline", "## control flow",
                         "## memory hierarchy", "power breakdown",
                         "sim_cycle", "sim_IPC"):
            assert fragment in text
        assert "## reuse mechanism" not in text        # reuse off

    def test_reuse_dump_has_mechanism_section(self, results):
        _, reuse = results
        text = render_stats(reuse)
        assert "## reuse mechanism" in text
        assert "reuse_supplied" in text
        assert "gated_cycles" in text

    def test_power_shares_sum_to_one(self, results):
        from repro.power.components import REPORT_COMPONENTS

        baseline, _ = results
        text = render_stats(baseline)
        shares = []
        for line in text.splitlines():
            parts = line.split()
            if parts and parts[0] in REPORT_COMPONENTS:
                percent = [p for p in parts if p.endswith("%")]
                assert percent, line
                shares.append(float(percent[0][:-1]))
        assert len(shares) == len(REPORT_COMPONENTS)
        assert sum(shares) == pytest.approx(100.0, abs=2.0)

    def test_counts_match_result(self, results):
        baseline, _ = results
        text = render_stats(baseline)
        assert str(baseline.stats.committed) in text
        assert str(baseline.cycles) in text
