"""Shared assertion helpers for the test suite.

The differential-state assertion graduated into the fuzzing subsystem
(:mod:`repro.fuzz.oracle`) so the fuzzer's oracle and the unit tests
agree byte-for-byte on what "architecturally equal" means.  This module
keeps the historical import path alive and adds the cross-engine check
the hand-written controller scenarios share.
"""

from __future__ import annotations

from repro.arch.fastcore import FastPipeline
from repro.fuzz.oracle import assert_matches_oracle, record_divergence
from repro.power.activity import ActivityRecord

__all__ = ["assert_engines_agree", "assert_matches_oracle"]


def assert_engines_agree(pipeline) -> None:
    """Assert a probe-free array core leaves the same activity record as
    ``pipeline`` (a finished object core) on its program and config."""
    fast = FastPipeline(pipeline.program, pipeline.config)
    fast.run()
    divergence = record_divergence(
        fast, ActivityRecord.capture(pipeline).to_payload(), mode="array")
    if divergence is not None:
        raise AssertionError(divergence.describe())
