"""Campaign-level properties: determinism, coverage growth, CLI plumbing.

The campaign report is specified to be a pure function of the seed and
the program budget -- byte-identical across runs and across ``jobs``
levels -- and the coverage map must actually grow as mutants explore
controller behaviour.
"""

from __future__ import annotations

import json

import pytest

from repro.arch.config import MachineConfig
from repro.cli import main
from repro.fuzz import CampaignConfig, FuzzCampaign, load_corpus

_SMOKE = dict(seed=0, programs=30, time_budget=0.0)


def _run(**overrides):
    params = dict(_SMOKE)
    params.update(overrides)
    return FuzzCampaign(CampaignConfig(**params)).run()


class TestDeterminism:
    def test_same_seed_identical_report(self):
        first = _run()
        second = _run()
        assert first == second

    def test_jobs_do_not_change_the_report(self):
        serial = _run(jobs=1)
        parallel = _run(jobs=2)
        # the jobs count is recorded in the report config but must not
        # influence anything else
        assert serial["config"].pop("jobs") == 1
        assert parallel["config"].pop("jobs") == 2
        assert serial == parallel

    def test_report_is_json_clean(self):
        report = _run(programs=10)
        assert json.loads(json.dumps(report, sort_keys=True)) == report


class TestCoverageGrowth:
    def test_cardinality_strictly_grows(self):
        report = _run()
        history = report["coverage"]["history"]
        assert len(history) == report["programs_run"] == 30
        assert history == sorted(history), "coverage can never shrink"
        assert history[-1] > history[0], \
            "30 mutants explored no new controller behaviour"
        assert report["coverage"]["cardinality"] == history[-1]
        assert report["corpus_admitted"] >= 1

    def test_clean_campaign_has_no_findings(self):
        report = _run()
        assert report["findings"] == []
        assert report["unshrunk_findings"] == 0
        assert report["stopped_by"] == "programs"


class TestCorpusOutput:
    def test_findings_written_as_replayable_entries(self, tmp_path):
        corpus_dir = str(tmp_path / "corpus")
        report = _run(programs=25, seed=1, corpus_dir=corpus_dir,
                      inject_bug="skip-lrl-update")
        assert report["findings"]
        entries = load_corpus(corpus_dir)
        assert len(entries) == len(report["findings"])
        for entry in entries:
            assert entry.expect == "divergence"
            assert entry.kind == "divergence"
            assert entry.spec is not None
            assert entry.source.strip()

    def test_findings_keep_the_campaign_machine_config(self, tmp_path):
        corpus_dir = str(tmp_path / "corpus")
        machine = MachineConfig().with_iq_size(32).replace(
            reuse_mode="trace")
        report = _run(programs=25, seed=1, corpus_dir=corpus_dir,
                      inject_bug="skip-lrl-update", machine=machine)
        assert report["config"]["machine"] == {"iq_size": 32,
                                               "reuse_mode": "trace"}
        entries = load_corpus(corpus_dir)
        assert entries
        for entry in entries:
            assert entry.machine_config().reuse_mode == "trace"
            assert entry.machine_config() == machine


class TestCli:
    def test_fuzz_subcommand_reports_and_exits_clean(
            self, tmp_path, capsys):
        report_path = tmp_path / "report.json"
        rc = main(["fuzz", "--seed", "0", "--programs", "12",
                   "--time-budget", "0", "--quiet",
                   "--report", str(report_path)])
        capsys.readouterr()
        assert rc == 0
        report = json.loads(report_path.read_text())
        assert report["seed"] == 0
        assert report["programs_run"] == 12
        assert report["findings"] == []

    def test_fuzz_subcommand_exit_code_flags_findings(
            self, tmp_path, capsys):
        rc = main(["fuzz", "--seed", "1", "--programs", "25",
                   "--time-budget", "0", "--quiet",
                   "--inject-bug", "skip-lrl-update",
                   "--report", str(tmp_path / "report.json")])
        capsys.readouterr()
        assert rc == 1

    def test_stdout_report_matches_file_report(self, tmp_path, capsys):
        rc = main(["fuzz", "--seed", "0", "--programs", "8",
                   "--time-budget", "0", "--quiet"])
        stdout = capsys.readouterr().out
        assert rc == 0
        report_path = tmp_path / "report.json"
        rc = main(["fuzz", "--seed", "0", "--programs", "8",
                   "--time-budget", "0", "--quiet",
                   "--report", str(report_path)])
        capsys.readouterr()
        assert rc == 0
        assert json.loads(stdout) == json.loads(report_path.read_text())

    def test_rejects_negative_jobs(self, capsys):
        with pytest.raises(SystemExit):
            main(["fuzz", "--jobs", "-1", "--programs", "1"])
        capsys.readouterr()
