"""Self-test of the end-to-end benchmark (``run.py --smoke``).

Run from the repository root (about 30 s)::

    PYTHONPATH=src python3 -m pytest benchmarks/e2e/test_smoke.py
"""

from __future__ import annotations

import asyncio
import importlib.util
import json
import pathlib
import subprocess
import sys

import pytest

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent.parent

_spec = importlib.util.spec_from_file_location("e2e_run", HERE / "run.py")
bench = importlib.util.module_from_spec(_spec)
sys.modules[_spec.name] = bench  # so pool workers can unpickle its functions
_spec.loader.exec_module(bench)


@pytest.mark.parametrize("trace,section", [(0, "end_to_end"),
                                           (1, "per_layer")])
def test_every_benchmark_metric_is_emitted_with_its_unit(trace, section):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    out = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--smoke", "--trace",
         str(trace)], cwd=ROOT, capture_output=True, text=True,
        timeout=180)
    assert out.returncode == 0, out.stderr[-3000:]
    lines = out.stdout.strip().splitlines()
    final = json.loads(lines[-1])
    assert final["correct"] and final["failed"] == 0
    assert final["attempted"] >= 1
    printed = {tuple(line.split()[::2]) for line in lines
               if len(line.split()) == 3}
    for workload in bench.WORKLOADS:
        for metric in spec[section]:
            emitted = final["metrics"][f"{workload}:{metric['name']}"]
            assert emitted["unit"] == metric["unit"]
            assert isinstance(emitted["value"], (int, float))
            assert (metric["name"], metric["unit"]) in printed


def test_open_loop_latency_counts_from_the_due_time():
    stall = 0.3

    async def send(connection, kind):
        await asyncio.sleep(stall if kind == "stall" else 0.0)
        return True

    kinds = ["stall"] + ["quick"] * 5
    samples = asyncio.run(bench.open_loop(send, kinds, rate=20.0,
                                          connections=1))
    assert [sample["kind"] for sample in samples] == kinds
    # request i was due at i / 20 s but waited behind the stalled one
    for index, sample in enumerate(samples[1:], start=1):
        assert sample["latency"] >= stall - index / 20.0 - 0.01
    assert all(sample["late"] < 0.05 for sample in samples)


def test_an_injected_failure_is_counted_and_fails_the_run(
        tmp_path, monkeypatch, capsys):
    golden = json.loads(bench.GOLDEN_PATH.read_text())
    golden["records"]["tsf/32/reuse"] = "0" * 64
    tampered = tmp_path / "golden.json"
    tampered.write_text(json.dumps(golden))
    monkeypatch.setattr(bench, "GOLDEN_PATH", tampered)
    code = bench.main(["--workload", "sweep-direct", "--smoke"])
    final = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert code == 1
    assert not final["correct"]
    assert final["failed"] >= 1
    assert final["failed"] / final["attempted"] > 0
