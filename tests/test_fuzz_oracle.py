"""The promoted differential oracle and the coverage probe.

``assert_matches_oracle`` moved from ``tests/helpers.py`` into
:mod:`repro.fuzz.oracle`; these tests pin its contract (the failure
message names the *first* diverging register or memory word) and the
three- and four-way :func:`run_differential` entry point the fuzzer
drives.
"""

from __future__ import annotations

import pytest

from repro.arch.fastcore import FastPipeline
from repro.arch.pipeline import Pipeline
from repro.fuzz.coverage import CoverageProbe, occupancy_bucket
from repro.fuzz.oracle import (
    Divergence,
    assert_matches_oracle,
    first_divergence,
    run_differential,
)
from repro.isa.assembler import assemble
from repro.isa.interpreter import run_program


class _FakeStats:
    def __init__(self, committed):
        self.committed = committed


class _FakeMemory:
    def __init__(self, pages):
        self._pages = pages


class _FakeOracle:
    def __init__(self, committed, regs, pages=None):
        self.instructions_executed = committed
        self.regs = regs
        self.memory = _FakeMemory(pages or {})


class _FakePipeline:
    def __init__(self, committed, regs, mem=b""):
        self.stats = _FakeStats(committed)
        self._regs = regs
        self._mem = mem

    def architectural_registers(self):
        return self._regs

    class _Image:
        def __init__(self, data):
            self._data = data

        def read_bytes(self, addr, length):
            offset = addr & 0xFFF
            return self._data[offset:offset + length]

    @property
    def mem_image(self):
        return self._Image(self._mem)


class TestFirstDivergence:
    def test_matching_states_return_none(self):
        regs = [0] * 64
        assert first_divergence(_FakePipeline(5, regs),
                                _FakeOracle(5, list(regs))) is None

    def test_committed_count_checked_first(self):
        divergence = first_divergence(_FakePipeline(4, [1] * 64),
                                      _FakeOracle(5, [0] * 64))
        assert divergence.kind == "committed"
        assert "4" in divergence.describe()
        assert "5" in divergence.describe()

    def test_message_names_first_diverging_register(self):
        regs = [0] * 64
        bad = list(regs)
        bad[8] = 99  # $t0 is logical register 8
        with pytest.raises(AssertionError) as excinfo:
            assert_matches_oracle(_FakePipeline(5, bad),
                                  _FakeOracle(5, regs))
        assert "$t0" in str(excinfo.value)
        assert "99" in str(excinfo.value)

    def test_memory_divergence_names_lowest_word(self):
        page = bytearray(4096)
        page[16] = 0xAB
        divergence = first_divergence(
            _FakePipeline(1, [0] * 64, mem=bytes(4096)),
            _FakeOracle(1, [0] * 64, pages={2: page}))
        assert divergence.kind == "memory"
        assert divergence.location == hex((2 << 12) + 16)

    def test_divergence_roundtrips_through_dict(self):
        divergence = Divergence("reuse", "register", "$t3", "1", "2")
        assert Divergence.from_dict(divergence.to_dict()) == divergence


class TestRunDifferential:
    def test_tight_loop_agrees_and_covers(
            self, tight_loop_program, small_config):
        outcome = run_differential(tight_loop_program, small_config)
        assert outcome.ok
        assert outcome.event_counts.get("promote", 0) >= 1
        assert outcome.signatures
        assert any(sig.startswith("event ") for sig in outcome.signatures)

    def test_coverage_probe_is_passive(
            self, tight_loop_program, small_config):
        config = small_config.replace(reuse_enabled=True)
        plain = Pipeline(tight_loop_program, config)
        plain.run()
        probed = Pipeline(tight_loop_program, config)
        probed.attach_probe(CoverageProbe())
        probed.run()
        assert probed.stats.committed == plain.stats.committed
        assert probed.stats.cycles == plain.stats.cycles
        assert probed.stats.promotions == plain.stats.promotions

    def test_crash_is_reported_not_raised(self, small_config, monkeypatch):
        program = assemble(".text\nmain:\n    halt\n", name="crash")

        def boom(self, max_cycles=None):
            raise RuntimeError("injected simulator fault")

        monkeypatch.setattr(Pipeline, "run", boom)
        outcome = run_differential(program, small_config)
        assert outcome.divergence is not None
        assert outcome.divergence.kind == "crash"
        assert "injected simulator fault" in outcome.divergence.got

    def test_four_way_oracle_agrees_on_records(
            self, tight_loop_program, small_config):
        outcome = run_differential(tight_loop_program, small_config,
                                   engine="array")
        assert outcome.ok

    def test_array_record_mismatch_is_a_record_divergence(
            self, tight_loop_program, small_config, monkeypatch):
        # skew one counter only the array core's cycle loop writes: the
        # architectural state still matches, the record does not
        real_run = FastPipeline._run

        def skewed(self, limit, single):
            real_run(self, limit, single)
            self.stats.btb_bubbles += 1

        monkeypatch.setattr(FastPipeline, "_run", skewed)
        fast = FastPipeline(tight_loop_program,
                            small_config.replace(reuse_enabled=True))
        fast.run()
        assert first_divergence(fast, run_program(tight_loop_program)) \
            is None
        outcome = run_differential(tight_loop_program, small_config,
                                   engine="array")
        divergence = outcome.divergence
        assert divergence is not None
        assert (divergence.mode, divergence.kind, divergence.location) \
            == ("reuse-array", "record", "btb_bubbles")
        assert int(divergence.got) == int(divergence.want) + 1
        assert divergence.describe().startswith(
            "[reuse-array] activity record btb_bubbles: ")


class TestOccupancyBucket:
    def test_extremes_and_interior(self):
        assert occupancy_bucket(0, 32) == 0
        assert occupancy_bucket(32, 32) == 5
        assert occupancy_bucket(1, 32) == 1
        assert occupancy_bucket(31, 32) == 4

    def test_monotone(self):
        buckets = [occupancy_bucket(n, 32) for n in range(33)]
        assert buckets == sorted(buckets)


def test_helpers_reexport_is_the_same_function():
    from tests.helpers import assert_matches_oracle as legacy
    assert legacy is assert_matches_oracle
