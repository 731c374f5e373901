"""Focused scenario tests: NBLT FIFO ageing rehabilitates loops.

The paper's FIFO replacement means a loop that once failed buffering gets
a second chance after eight newer failures push it out.  These tests pin
that rehabilitation end to end and the interaction between NBLT capacity
and gating.
"""

from repro.arch.config import MachineConfig
from repro.arch.pipeline import Pipeline
from repro.isa.assembler import assemble
from repro.isa.interpreter import run_program

from tests.helpers import assert_engines_agree, assert_matches_oracle


def nested_block(index, inner_trips=6, outer_trips=3):
    """One outer loop (non-bufferable: contains an inner loop)."""
    return f"""
    li $s2, 0
    li $s3, {outer_trips}
outer{index}:
    li $t0, 0
    li $t1, {inner_trips}
inner{index}:
    addiu $t2, $t2, 1
    slt $t3, $t0, $t1
    addiu $t0, $t0, 1
    slt $t3, $t0, $t1
    bne $t3, $zero, inner{index}
    addiu $s2, $s2, 1
    slt $t4, $s2, $s3
    bne $t4, $zero, outer{index}
"""


def run(source, nblt_size=8, iq_size=32):
    program = assemble(source, name="nblt_age")
    oracle = run_program(program)
    config = MachineConfig().with_iq_size(iq_size).replace(
        reuse_enabled=True, nblt_size=nblt_size)
    pipeline = Pipeline(program, config)
    pipeline.run()
    assert_matches_oracle(pipeline, oracle)
    assert_engines_agree(pipeline)
    return pipeline


class TestFifoAgeing:
    def test_evicted_loop_retried(self):
        # 10 distinct non-bufferable outer loops followed by a REPEAT of
        # the first one: by then it has aged out of the 8-entry FIFO, so
        # buffering is attempted (and revoked) again
        blocks = "".join(nested_block(i) for i in range(10))
        source = ".text\n" + blocks + """
    li $s4, 0
    li $s5, 2
again:
""" + nested_block(99) + """
    addiu $s4, $s4, 1
    slt $t9, $s4, $s5
    bne $t9, $zero, again
    halt
"""
        pipeline = run(source)
        nblt = pipeline.controller.nblt
        # more inserts than capacity proves FIFO churn happened
        assert nblt.inserts > nblt.size
        assert len(nblt) <= nblt.size

    def test_larger_nblt_remembers_more(self):
        blocks = "".join(nested_block(i) for i in range(10)) + "\nhalt\n"
        source = ".text\n" + blocks
        small = run(source, nblt_size=2)
        large = run(source, nblt_size=16)
        # a larger table suppresses more repeat buffering attempts
        assert large.stats.buffering_started <= \
            small.stats.buffering_started
        assert large.stats.nblt_hits >= small.stats.nblt_hits

    def test_inner_loops_still_reused_through_churn(self):
        blocks = "".join(nested_block(i, inner_trips=12)
                         for i in range(10)) + "\nhalt\n"
        pipeline = run(".text\n" + blocks)
        # every block's inner loop should still promote and gate
        assert pipeline.stats.promotions >= 8
        assert pipeline.stats.gated_cycles > 0
