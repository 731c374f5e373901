"""Behavioural tests of the reuse controller, driven through the pipeline.

Each test runs a small assembly program on a reuse-enabled machine and
inspects the controller's state machine, the NBLT, gating statistics and
the buffered entries -- the mechanisms of the paper's Section 2.
"""

from repro.arch.config import MachineConfig
from repro.arch.pipeline import Pipeline
from repro.core.states import IQState
from repro.isa.assembler import assemble
from repro.isa.interpreter import run_program

from tests.helpers import assert_engines_agree, assert_matches_oracle

REUSE32 = MachineConfig().with_iq_size(32).replace(reuse_enabled=True)


def run(source, config=REUSE32, name="t"):
    program = assemble(source, name=name)
    oracle = run_program(program)
    pipeline = Pipeline(program, config)
    pipeline.run()
    assert_matches_oracle(pipeline, oracle)
    assert_engines_agree(pipeline)
    return pipeline


SIMPLE_LOOP = """
.text
    li $t0, 0
    li $t1, 60
top:
    addiu $t2, $t0, 5
    sll   $t3, $t2, 1
    subu  $t4, $t3, $t0
    addiu $t0, $t0, 1
    slt   $t5, $t0, $t1
    bne   $t5, $zero, top
    halt
"""


class TestHappyPath:
    def test_full_state_cycle(self):
        pipeline = run(SIMPLE_LOOP)
        controller = pipeline.controller
        stats = pipeline.stats
        assert stats.loop_detections >= 1
        assert stats.buffering_started >= 1
        assert stats.promotions >= 1
        assert stats.gated_cycles > 0
        assert stats.reuse_supplied > 0
        # the machine ends back in Normal state after the loop exit
        assert controller.state is IQState.NORMAL
        assert not controller.gated

    def test_transition_sequence(self):
        pipeline = run(SIMPLE_LOOP)
        names = [(old.name, new.name)
                 for old, new, _ in pipeline.controller.transitions]
        assert names[0] == ("NORMAL", "BUFFERING")
        assert ("BUFFERING", "REUSE") in names
        assert names[-1] == ("REUSE", "NORMAL")

    def test_reuse_exit_is_a_mispredict_recovery(self):
        pipeline = run(SIMPLE_LOOP)
        assert pipeline.stats.reuse_mispredicts >= 1
        assert pipeline.stats.mispredicts >= 1

    def test_buffered_entries_cleared_after_exit(self):
        pipeline = run(SIMPLE_LOOP)
        assert pipeline.controller.buffered == []
        assert len(pipeline.controller.lrl) == 0

    def test_multi_iteration_buffering_unrolls(self):
        # 9-instruction iteration in a 32-entry queue: at least 2 full
        # iterations fit, so the multi strategy must buffer more than one
        pipeline = run(SIMPLE_LOOP)
        assert pipeline.stats.buffered_iterations >= 2

    def test_single_strategy_buffers_one_iteration(self):
        config = REUSE32.replace(buffering_strategy="single")
        pipeline = run(SIMPLE_LOOP, config=config)
        assert pipeline.stats.promotions >= 1
        assert pipeline.stats.buffered_iterations == \
            pipeline.stats.promotions

    def test_single_strategy_gates_no_later_than_multi(self):
        multi = run(SIMPLE_LOOP)
        single = run(SIMPLE_LOOP, config=REUSE32.replace(
            buffering_strategy="single"))
        assert single.stats.buffered_instructions <= \
            multi.stats.buffered_instructions

    def test_reuse_supply_matches_lrl_reads(self):
        pipeline = run(SIMPLE_LOOP)
        assert pipeline.stats.reuse_supplied == pipeline.stats.lrl_reads
        assert pipeline.stats.reuse_supplied == \
            pipeline.stats.iq_partial_updates

    def test_disabled_reuse_never_transitions(self):
        config = REUSE32.replace(reuse_enabled=False)
        pipeline = run(SIMPLE_LOOP, config=config)
        assert pipeline.controller.transitions == []
        assert pipeline.stats.gated_cycles == 0


NESTED_LOOPS = """
.text
    li $s0, 0
    li $s1, 6
outer:
    li $t0, 0
    li $t1, 25
inner:
    addiu $t2, $t0, 3
    addiu $t0, $t0, 1
    slt $t3, $t0, $t1
    bne $t3, $zero, inner
    addiu $s0, $s0, 1
    slt $t4, $s0, $s1
    bne $t4, $zero, outer
    halt
"""


class TestNestedLoops:
    def test_outer_loop_lands_in_nblt(self):
        # the outer loop spans 11 instructions -- capturable at IQ 32 --
        # but buffering it always runs into the inner loop (Figure 4)
        pipeline = run(NESTED_LOOPS)
        assert pipeline.stats.revokes_inner_loop >= 1
        assert pipeline.stats.nblt_inserts >= 1
        outer_tail = None
        for inst in pipeline.program.instructions:
            if (inst.is_conditional_branch and inst.target is not None
                    and inst.target < inst.pc):
                outer_tail = inst.pc       # last backward branch = outer
        assert outer_tail in pipeline.controller.nblt

    def test_inner_loop_still_reused(self):
        pipeline = run(NESTED_LOOPS)
        assert pipeline.stats.promotions >= 1
        assert pipeline.stats.gated_cycles > 0

    def test_nblt_cuts_detection_churn(self):
        with_nblt = run(NESTED_LOOPS)
        without = run(NESTED_LOOPS, config=REUSE32.replace(nblt_size=0))
        assert without.stats.revokes >= with_nblt.stats.revokes
        assert with_nblt.stats.nblt_hits > 0

    def test_inner_loop_reentry_redetects(self):
        # the inner loop runs 6 times; each entry needs a fresh detection
        pipeline = run(NESTED_LOOPS)
        assert pipeline.stats.promotions >= 4


SHORT_TRIP_LOOP = """
.text
    li $t0, 0
    li $t1, 2
top:
    addiu $t2, $t0, 7
    addiu $t0, $t0, 1
    slt $t3, $t0, $t1
    bne $t3, $zero, top
    halt
"""


class TestRevokePaths:
    def test_exit_during_buffering(self):
        # trip count 2: detection happens at the end of iteration 1 and the
        # loop exits while (or right after) iteration 2 buffers
        pipeline = run(SHORT_TRIP_LOOP)
        stats = pipeline.stats
        assert stats.promotions == 0 or stats.reuse_supplied < 8
        assert stats.revokes >= 1 or stats.mispredicts >= 1

    def test_mispredict_during_buffering_revokes(self):
        # an alternating branch inside the loop body keeps mispredicting,
        # which must revoke any in-progress buffering without corruption
        pipeline = run("""
        .text
            li $t0, 0
            li $t1, 40
            li $s0, 0
        top:
            andi $t2, $t0, 1
            beq $t2, $zero, even
            addiu $s0, $s0, 2
        even:
            addiu $t0, $t0, 1
            slt $t3, $t0, $t1
            bne $t3, $zero, top
            halt
        """)
        assert pipeline.stats.mispredicts > 5
        assert pipeline.controller.state is IQState.NORMAL

    def test_procedure_too_large_for_queue(self):
        # loop static span is tiny but the called procedure makes each
        # dynamic iteration larger than the whole issue queue
        body = "\n".join(f"    addiu $t{i % 8}, $t{i % 8}, 1"
                         for i in range(40))
        pipeline = run(f"""
        .text
            li $s0, 0
            li $s1, 10
        top:
            jal fat
            addiu $s0, $s0, 1
            slt $t9, $s0, $s1
            bne $t9, $zero, top
            halt
        fat:
        {body}
            jr $ra
        """)
        stats = pipeline.stats
        assert stats.loop_detections >= 1
        assert stats.revokes_iq_full >= 1
        assert stats.promotions == 0
        assert stats.nblt_inserts >= 1

    def test_small_procedure_inside_loop_is_buffered(self):
        pipeline = run("""
        .text
            li $s0, 0
            li $s1, 30
        top:
            jal bump
            addiu $s0, $s0, 1
            slt $t9, $s0, $s1
            bne $t9, $zero, top
            halt
        bump:
            addiu $t0, $t0, 1
            addiu $t1, $t1, 2
            jr $ra
        """)
        stats = pipeline.stats
        assert stats.promotions >= 1
        assert stats.gated_cycles > 0
        # the callee's instructions were buffered along with the loop body
        assert stats.buffered_instructions > stats.buffered_iterations * 4


DIVERGENT_LOOP = """
.text
    li $t0, 0
    li $t1, 60
    li $s0, 0
top:
    slti $t2, $t0, 30
    beq $t2, $zero, second_half
    addiu $s0, $s0, 1
    b join
second_half:
    addiu $s0, $s0, 100
join:
    addiu $t0, $t0, 1
    slt $t3, $t0, $t1
    bne $t3, $zero, top
    halt
"""


class TestStaticPredictionVerification:
    def test_path_change_exits_reuse(self):
        # the if-branch flips direction at i == 30: the statically
        # predicted path recorded during buffering becomes wrong and the
        # verification must exit Code Reuse through a normal recovery
        pipeline = run(DIVERGENT_LOOP)
        stats = pipeline.stats
        assert stats.promotions >= 1
        assert stats.reuse_mispredicts >= 1
        # and the architectural state was still exact (checked by run())

    def test_reuse_reengages_after_path_change(self):
        pipeline = run(DIVERGENT_LOOP)
        # after the divergence the loop is re-detected and re-buffered
        assert pipeline.stats.buffering_started >= 2


class TestGatingAccounting:
    def test_gated_cycles_only_in_reuse(self):
        pipeline = run(SIMPLE_LOOP)
        stats = pipeline.stats
        assert stats.gated_cycles <= stats.cycles_reuse + \
            stats.cycles_buffering
        assert stats.cycles_normal + stats.cycles_buffering + \
            stats.cycles_reuse == stats.cycles

    def test_no_fetch_activity_while_gated(self, ):
        gated = run(SIMPLE_LOOP)
        ungated = run(SIMPLE_LOOP, config=REUSE32.replace(
            reuse_enabled=False))
        # same committed work, but far fewer icache accesses
        assert gated.hierarchy.il1.accesses < \
            ungated.hierarchy.il1.accesses * 0.6
        assert gated.predictor.lookups < ungated.predictor.lookups * 0.6

    def test_bpred_updates_not_gated(self):
        gated = run(SIMPLE_LOOP)
        ungated = run(SIMPLE_LOOP, config=REUSE32.replace(
            reuse_enabled=False))
        # commit-side predictor training continues during reuse
        assert gated.predictor.updates == ungated.predictor.updates
