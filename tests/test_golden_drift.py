"""Drift check against the benchmark of record's golden record pins.

``benchmarks/e2e/golden.json`` pins the sha256 of every Figure 5
activity record (``benchmarks/e2e/README.md``).  This test re-simulates
the cheapest cells -- tsf and wss at IQ 32, baseline and reuse -- on
both pipeline engines through the runner's own job path and compares
each record's digest with its pin, so a change in simulator behaviour
shows up in the tier-1 suite instead of only in a full benchmark run.
The pins are read, never rewritten here.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import pytest

from repro.arch.config import MachineConfig
from repro.runner.executor import execute_job
from repro.runner.jobs import SimJob

GOLDEN = (Path(__file__).resolve().parent.parent
          / "benchmarks" / "e2e" / "golden.json")


@pytest.fixture(scope="module")
def pins():
    return json.loads(GOLDEN.read_text(encoding="utf-8"))["records"]


def _digest(payload) -> str:
    # the canonical form benchmarks/e2e/run.py pins
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


@pytest.mark.parametrize("engine", ["object", "array"])
@pytest.mark.parametrize("reuse", [False, True],
                         ids=["baseline", "reuse"])
@pytest.mark.parametrize("kernel", ["tsf", "wss"])
def test_record_matches_golden_pin(pins, kernel, reuse, engine):
    # the Figure 5 sweep's cell configuration (ExperimentRunner._config)
    config = MachineConfig().with_iq_size(32).replace(reuse_enabled=reuse)
    payload = execute_job(SimJob(benchmark=kernel, config=config,
                                 engine=engine))
    name = f"{kernel}/32/{'reuse' if reuse else 'baseline'}"
    assert _digest(payload) == pins[name], name
