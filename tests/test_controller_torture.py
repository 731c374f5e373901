"""Adversarial edge cases for the reuse controller.

Each scenario targets a boundary the mechanism must survive with exact
architectural state: loops exactly at capacity, single-instruction loops,
deep nesting, NBLT churn beyond its FIFO depth, trip counts that end during
every phase of the state machine, and back-to-back distinct loops.
"""

import pytest

from repro.arch.config import MachineConfig
from repro.arch.pipeline import Pipeline
from repro.arch.validate import run_validated
from repro.isa.assembler import assemble
from repro.isa.interpreter import run_program

from tests.helpers import assert_engines_agree, assert_matches_oracle


def run_exact(source, iq_size=16, **config_kwargs):
    program = assemble(source, name="torture")
    oracle = run_program(program)
    config = MachineConfig().with_iq_size(iq_size).replace(
        reuse_enabled=True, **config_kwargs)
    pipeline = Pipeline(program, config)
    run_validated(pipeline, every=4)
    assert_matches_oracle(pipeline, oracle)
    assert_engines_agree(pipeline)
    return pipeline


def counted_loop(body_lines, trips, label="top", counter="$s0",
                 bound="$s1"):
    lines = [f"li {counter}, 0", f"li {bound}, {trips}", f"{label}:"]
    lines += body_lines
    lines += [
        f"addiu {counter}, {counter}, 1",
        f"slt $at, {counter}, {bound}",
        f"bne $at, $zero, {label}",
    ]
    return lines


class TestCapacityBoundaries:
    def _loop_of_size(self, body_insts, trips=30, iq_size=16):
        body = [f"addiu $t{i % 8}, $t{i % 8}, 1" for i in range(body_insts)]
        source = ".text\n" + "\n".join(counted_loop(body, trips)) \
            + "\nhalt\n"
        return run_exact(source, iq_size=iq_size)

    def test_loop_exactly_queue_size(self):
        # static loop = 13 body + 3 overhead = 16 == IQ: capturable edge
        pipeline = self._loop_of_size(13, iq_size=16)
        assert pipeline.stats.loop_detections >= 1

    def test_loop_one_over_queue_size(self):
        # 17 > 16: the detector must refuse it outright
        pipeline = self._loop_of_size(14, iq_size=16)
        assert pipeline.stats.buffering_started == 0
        assert pipeline.stats.gated_cycles == 0

    def test_loop_one_under_queue_size(self):
        pipeline = self._loop_of_size(12, iq_size=16)
        assert pipeline.stats.loop_detections >= 1

    def test_single_instruction_body(self):
        pipeline = self._loop_of_size(1, trips=50)
        assert pipeline.stats.promotions >= 1
        # cold-start cycles dominate such a short run; compare gating to
        # the cycles actually spent inside the mechanism instead
        assert (pipeline.stats.gated_cycles
                > 0.5 * pipeline.stats.cycles_reuse)


class TestSelfLoop:
    def test_branch_to_itself(self):
        # a degenerate 1-instruction loop: bne jumping to itself while the
        # counter (decremented in the delay-free body... none) -- build a
        # self-loop via a counter that reaches zero
        source = """
        .text
            li $t0, 20
        spin:
            addiu $t0, $t0, -1
            bgtz $t0, spin
            halt
        """
        # loop = addiu + bgtz = 2 instructions
        pipeline = run_exact(source, iq_size=16)
        assert pipeline.stats.loop_detections >= 1


class TestTripCountPhases:
    @pytest.mark.parametrize("trips", [1, 2, 3, 4, 5, 8, 13])
    def test_every_small_trip_count(self, trips):
        # trip 1: loop branch never taken (no detection);
        # trip 2: detection at the only taken branch, exit during buffering;
        # trip 3-4: exit around the promote boundary;
        # larger: exit during reuse
        body = ["addiu $t2, $t2, 7", "sll $t3, $t2, 1"]
        source = ".text\n" + "\n".join(counted_loop(body, trips)) \
            + "\nhalt\n"
        run_exact(source, iq_size=16)

    def test_trip_count_one_buffers_speculatively(self):
        # the loop branch is never *actually* taken, but detection uses the
        # decode-stage *prediction* (weakly-taken bimodal init), so a
        # speculative buffering attempt starts and is revoked by the
        # misprediction recovery -- with exact architectural state
        body = ["addiu $t2, $t2, 7"]
        source = ".text\n" + "\n".join(counted_loop(body, 1)) + "\nhalt\n"
        pipeline = run_exact(source)
        assert pipeline.stats.promotions == 0
        assert pipeline.stats.reuse_supplied == 0


class TestNbltChurn:
    def test_more_loops_than_nblt_entries(self):
        # twelve distinct non-bufferable outer loops (each contains an
        # inner loop) cycle through the 8-entry FIFO
        chunks = []
        for index in range(12):
            inner = counted_loop(["addiu $t2, $t2, 1"], 6,
                                 label=f"inner{index}", counter="$t0",
                                 bound="$t1")
            outer = counted_loop(inner, 3, label=f"outer{index}",
                                 counter="$s2", bound="$s3")
            chunks.append("\n".join(outer))
        source = ".text\n" + "\n".join(chunks) + "\nhalt\n"
        pipeline = run_exact(source, iq_size=32)
        nblt = pipeline.controller.nblt
        assert nblt.inserts >= 8
        assert len(nblt) <= 8                      # FIFO stayed bounded

    def test_nblt_disabled_still_exact(self):
        inner = counted_loop(["addiu $t2, $t2, 1"], 10, label="in0",
                             counter="$t0", bound="$t1")
        outer = counted_loop(inner, 8, label="out0", counter="$s2",
                             bound="$s3")
        source = ".text\n" + "\n".join(outer) + "\nhalt\n"
        run_exact(source, iq_size=32, nblt_size=0)


class TestDeepNesting:
    def test_three_level_nest(self):
        level0 = counted_loop(["addiu $t2, $t2, 1"], 10, label="l0",
                              counter="$t0", bound="$t1")
        level1 = counted_loop(level0, 3, label="l1", counter="$s2",
                              bound="$s3")
        level2 = counted_loop(level1, 3, label="l2", counter="$s4",
                              bound="$s5")
        source = ".text\n" + "\n".join(level2) + "\nhalt\n"
        pipeline = run_exact(source, iq_size=32)
        assert pipeline.stats.promotions >= 1

    def test_back_to_back_distinct_loops(self):
        first = counted_loop(["addiu $t2, $t2, 3"], 20, label="a")
        second = counted_loop(["sll $t3, $t2, 1"], 20, label="b",
                              counter="$s2", bound="$s3")
        third = counted_loop(["subu $t4, $t3, $t2"], 20, label="c",
                             counter="$s4", bound="$s5")
        source = ".text\n" + "\n".join(first + second + third) + "\nhalt\n"
        pipeline = run_exact(source, iq_size=16)
        assert pipeline.stats.promotions >= 3


class TestCallEdgeCases:
    def test_call_as_first_loop_instruction(self):
        source = """
        .text
            li $s0, 0
            li $s1, 15
        top:
            jal leaf
            addiu $s0, $s0, 1
            slt $at, $s0, $s1
            bne $at, $zero, top
            halt
        leaf:
            addiu $t0, $t0, 1
            jr $ra
        """
        pipeline = run_exact(source, iq_size=32)
        assert pipeline.stats.promotions >= 1

    def test_two_calls_per_iteration(self):
        source = """
        .text
            li $s0, 0
            li $s1, 12
        top:
            jal one
            jal two
            addiu $s0, $s0, 1
            slt $at, $s0, $s1
            bne $at, $zero, top
            halt
        one:
            addiu $t0, $t0, 1
            jr $ra
        two:
            addiu $t1, $t1, 2
            jr $ra
        """
        run_exact(source, iq_size=32)

    def test_conditional_exit_inside_loop(self):
        # an early-exit branch fires on iteration 7 of 50: the recorded
        # static prediction becomes wrong mid-reuse
        source = """
        .text
            li $s0, 0
            li $s1, 50
            li $s2, 7
        top:
            addiu $t2, $t2, 1
            beq $s0, $s2, done
            addiu $s0, $s0, 1
            slt $at, $s0, $s1
            bne $at, $zero, top
        done:
            halt
        """
        pipeline = run_exact(source, iq_size=16)
        assert pipeline.stats.mispredicts >= 1
