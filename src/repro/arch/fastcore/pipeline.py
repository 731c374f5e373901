"""The array-based pipeline core (the no-probe fast path).

:class:`FastPipeline` executes the exact machine of
:class:`repro.arch.pipeline.Pipeline` -- same reverse stage order, same
stall rules, same statistics -- but keeps every piece of in-flight state
in preallocated parallel columns indexed by integer slot id instead of
per-instruction objects:

* dynamic instructions (the ROB/rename/LSQ payload) live in ``_d_*``
  columns; a *dyn slot* is recycled through a free list the moment its
  instruction commits or is squashed,
* issue-queue entries live in ``_e_*`` columns keyed by *entry slot*;
  buffered (classification-bit) entries persist across dynamic instances
  exactly like the object core's ``IQEntry``,
* static per-instruction facts (flags, latencies, operand registers,
  execution closures) come from the program's shared
  :class:`~repro.arch.fastcore.image.CoreImage` predecode,
* rename-map cells hold the producer's packed identity
  ``(seq << slot_bits) | slot`` (``_d_packed``); a stale reference
  (packed mismatch after slot recycling) proves the producer already
  committed,
* heaps carry single packed ints -- ``(finish << 45) | packed`` for the
  result bus, ``(seq << entry_bits) | entry`` for the ready queue --
  and discard stale records lazily.  Sequence numbers are unique per
  dynamic instance, so the int encodings sort exactly like the object
  core's tuples,
* operand values are captured into ``_e_a``/``_e_b`` at rename (producer
  already done or committed) or at wakeup (producer completes later), so
  issue is two list reads.  A store's data operand keeps its rename
  reference (``_d_s1ref``) and resolves at execute time instead, exactly
  like the object core's late store-data read.

The reuse controller is the object core's own
:class:`~repro.core.controller.ReuseController` (or its trace variant):
the core hands it plain values (pc, predicted outcome, the predecoded
flags cell, sequence number) and int entry slots as opaque handles, and
implements the controller's four entry callbacks (``mark_buffered``,
``count_resident``, ``release_buffered``, ``free_entries``) on the
``_e_*`` columns.  Only the Code Reuse dispatch loop reads the
controller's ``buffered`` list and ``reuse_pointer`` inline.  Leaf
models with no per-instruction churn -- the memory hierarchy, the
branch predictor, the loop cache, functional memory and the
architectural register file -- are likewise the real objects shared with
the object core, so timing and counters agree to the byte.

Cycle probes that declare
:attr:`~repro.arch.probe.PipelineProbe.core_interface_only` (the
telemetry sampler, the energy-attribution probe) run natively: ``run()``
then advances one cycle at a time through the single-cycle path and
calls them after each, over read-only ``iq`` / ``rob`` / ``lsq``
occupancy views.  Any other probe (stage probes such as the tracer, the
invariant checker) needs per-instruction lifecycle objects, so attaching
one before the first cycle swaps in a delegate object core and moves the
native probes onto it; attaching one after the core has started is an
error.  See ``docs/pipeline.md``.
"""

from __future__ import annotations

import heapq
from collections import deque
from typing import List, Optional

from repro.arch.branch.predictor import BranchPredictor
from repro.arch.config import MachineConfig
from repro.arch.fastcore.image import (
    F_COND,
    F_HALT,
    F_LC_TRIGGER,
    F_LOAD,
    F_MEM,
    F_STORE,
    image_for,
)
from repro.arch.loopcache import LoopCacheController
from repro.arch.mem.hierarchy import MemoryHierarchy
from repro.arch.pipeline import Pipeline, SimulationTimeout
from repro.arch.probe import overrides_hook
from repro.arch.regfile import RegisterFile
from repro.arch.stats import PipelineStats
from repro.arch.trace import PipelineTracer
from repro.core import controller_for
from repro.core.loop_detector import F_BACKWARD, F_CONTROL
from repro.core.states import IQState
from repro.isa.memory import SparseMemory
from repro.isa.program import INSTRUCTION_BYTES, Program
from repro.isa.semantics import forwarded_value

# The slot engine hard-codes 4-byte text addressing (``off >> 2``).
assert INSTRUCTION_BYTES == 4

# Result-bus heap records pack ``(finish_cycle << 45) | packed_identity``.
# 45 bits leave room for seq < 2**(45 - slot_bits) dynamic instances --
# around 2**35 with default capacities, far beyond any cycle limit.
_FSHIFT = 45
_PMASK = (1 << _FSHIFT) - 1


class _FetchView:
    """The slice of the fetch unit activity capture and drivers read."""

    __slots__ = ("loop_cache",)

    def __init__(self, loop_cache: Optional[LoopCacheController]):
        self.loop_cache = loop_cache


class _Occupancy:
    """Read-only view of how many items one of the core's queues holds."""

    __slots__ = ("_items",)

    def __init__(self, items):
        self._items = items

    def __len__(self) -> int:
        return len(self._items)

    @property
    def occupancy(self) -> int:
        return len(self._items)


def _runs_natively(probe) -> bool:
    """True if the array core can drive ``probe`` without a delegate."""
    return (getattr(type(probe), "core_interface_only", False)
            and overrides_hook(probe, "on_cycle")
            and not overrides_hook(probe, "record")
            and not overrides_hook(probe, "record_squash"))


class FastPipeline:
    """Cycle-level out-of-order core on flat slot columns."""

    __slots__ = (
        "program", "config", "mem_image", "stats", "hierarchy", "predictor",
        "regfile", "controller", "fetch_unit", "iq", "rob", "lsq",
        "cycle", "halted",
        "_img", "_seq", "_pc", "_stall_until",
        "_started", "_delegate", "_cycle_probes",
        "_loop_cache", "_lc_decoded",
        "_cap", "_ecap", "_slot_bits", "_smask",
        "_d_idx", "_d_seq", "_d_packed", "_d_pc",
        "_d_pred_taken", "_d_pred_target",
        "_d_actual_taken", "_d_actual_target", "_d_bpred",
        "_d_issued", "_d_done", "_d_committed", "_d_squashed",
        "_d_from_reuse", "_d_predecoded", "_d_value", "_d_store_value",
        "_d_waiters", "_d_rename_snap", "_d_ras_snap",
        "_d_s1ref", "_d_mem_addr", "_d_mem_size", "_d_session",
        "_e_idx", "_e_dslot", "_e_dseq", "_e_pending", "_e_ready",
        "_e_class", "_e_istate", "_e_inq", "_e_buf",
        "_e_a", "_e_b", "_e_rtaken", "_e_rtarget",
        "_dfree", "_efree", "_rename_table",
        "_rob", "_lsq", "_sq", "_fq", "_decoded", "_iq_set",
        "_ready_heap", "_inflight", "_pending_loads", "_pending_stores",
        "_fu_free",
    )

    def __init__(self, program: Program, config: MachineConfig,
                 memory: Optional[SparseMemory] = None,
                 tracer: Optional[PipelineTracer] = None):
        self.program = program
        self.config = config
        self.mem_image = memory if memory is not None \
            else program.initial_memory()
        self.stats = PipelineStats()
        self.hierarchy = MemoryHierarchy(config)
        self.predictor = BranchPredictor(
            config.bimod_size, config.btb_sets, config.btb_assoc,
            config.ras_size, kind=config.bpred_kind,
            history_bits=config.bpred_history_bits)
        self.regfile = RegisterFile()
        self._loop_cache = (LoopCacheController(config.loop_cache_size)
                            if config.loop_cache_size else None)
        self._lc_decoded = config.loop_cache_decoded
        self.fetch_unit = _FetchView(self._loop_cache)
        self.controller = controller_for(config.reuse_mode)(
            config, self, self.stats)
        self._img = image_for(program)

        self.cycle = 0
        self.halted = False
        self._seq = 0
        self._pc = program.entry_point
        self._stall_until = 0
        self._started = False
        self._delegate: Optional[Pipeline] = None
        self._cycle_probes: List = []

        # dyn slots: every in-flight dynamic instruction is in exactly one
        # of {fetch queue, decode buffer, ROB}, so this capacity can never
        # be exhausted (one slot may leak at the final halt).
        cap = (config.rob_size + config.fetch_queue_size
               + 2 * config.decode_width + 8)
        # entry slots: <= iq_size resident plus <= iq_size buffered entries
        # squashed out of the queue but not yet swept by a revoke.
        ecap = 2 * config.iq_size + 8
        self._cap = cap
        self._ecap = ecap
        slot_bits = cap.bit_length()
        self._slot_bits = slot_bits
        self._smask = (1 << slot_bits) - 1

        self._d_idx = [0] * cap
        self._d_seq = [0] * cap
        self._d_packed = [0] * cap
        self._d_pc = [0] * cap
        self._d_pred_taken: List = [None] * cap
        self._d_pred_target: List = [None] * cap
        self._d_actual_taken: List = [None] * cap
        self._d_actual_target: List = [None] * cap
        self._d_bpred = [-1] * cap
        self._d_issued = [0] * cap
        self._d_done = [0] * cap
        self._d_committed = [0] * cap
        self._d_squashed = [0] * cap
        self._d_from_reuse = [0] * cap
        self._d_predecoded = [0] * cap
        self._d_value: List = [None] * cap
        self._d_store_value: List = [None] * cap
        self._d_waiters: List = [None] * cap
        self._d_rename_snap: List = [None] * cap
        self._d_ras_snap: List = [None] * cap
        self._d_s1ref = [-1] * cap
        self._d_mem_addr = [-1] * cap
        self._d_mem_size = [0] * cap
        self._d_session = [-1] * cap

        self._e_idx = [0] * ecap
        self._e_dslot = [0] * ecap
        self._e_dseq = [0] * ecap
        self._e_pending = [0] * ecap
        self._e_ready = [0] * ecap
        self._e_class = [0] * ecap
        self._e_istate = [0] * ecap
        self._e_inq = [0] * ecap
        self._e_buf = [0] * ecap
        self._e_a = [0] * ecap
        self._e_b = [0] * ecap
        self._e_rtaken: List = [None] * ecap
        self._e_rtarget: List = [None] * ecap

        self._dfree = list(range(cap - 1, -1, -1))
        self._efree = list(range(ecap - 1, -1, -1))
        self._rename_table = [-1] * 64
        self._rob: deque = deque()
        self._lsq: deque = deque()
        self._sq: deque = deque()        # the stores of _lsq, in order
        self._fq: deque = deque()
        self._decoded: deque = deque()
        self._iq_set: set = set()
        self._ready_heap: List = []
        self._inflight: List = []
        self._pending_loads: List = []
        self._pending_stores: List = []
        self._fu_free = [[0] * config.num_ialu, [0] * config.num_imult,
                         [0] * config.num_fpalu, [0] * config.num_fpmult]
        self.iq = _Occupancy(self._iq_set)
        self.rob = _Occupancy(self._rob)
        self.lsq = _Occupancy(self._lsq)

        if tracer is not None:
            self.attach_probe(tracer)

    # ---------------------------------------------------------------- probes

    @property
    def tracer(self) -> Optional[PipelineTracer]:
        """The first attached tracer (always on the delegate, if any)."""
        if self._delegate is not None:
            return self._delegate.tracer
        return None

    def attach_probe(self, probe) -> None:
        """Attach an observer, natively or through a delegate object core.

        A cycle probe that declares ``core_interface_only`` runs on this
        core, at any cycle.  Any other probe observes per-instruction
        lifecycle objects the slot engine does not materialise, so its
        attach (which must happen before the first cycle) builds an
        object-core delegate over the same program/config/memory,
        rebinds every observable surface to it and moves the native
        probes onto it; subsequent cycles run there.
        """
        if self._delegate is None and _runs_natively(probe):
            if probe in self._cycle_probes:
                raise ValueError(f"probe {probe!r} already attached")
            self._cycle_probes.append(probe)
            if overrides_hook(probe, "on_attach"):
                probe.on_attach(self)
            return
        if self._delegate is None:
            if self._started:
                raise RuntimeError(
                    f"cannot attach a probe to the array core after it "
                    f"has started (cycle {self.cycle}): the array core "
                    f"only swaps in its observable delegate before the "
                    f"first cycle; attach earlier, or build the pipeline "
                    f"with engine='object' which accepts probes at any "
                    f"cycle")
            delegate = Pipeline(self.program, self.config,
                                memory=self.mem_image)
            self._delegate = delegate
            self.stats = delegate.stats
            self.hierarchy = delegate.hierarchy
            self.predictor = delegate.predictor
            self.regfile = delegate.regfile
            self.fetch_unit = delegate.fetch_unit
            self.controller = delegate.controller
            self.iq = delegate.iq
            self.rob = delegate.rob
            self.lsq = delegate.lsq
            native, self._cycle_probes = self._cycle_probes, []
            for moved in native:
                if overrides_hook(moved, "on_detach"):
                    moved.on_detach(self)
                delegate.attach_probe(moved)
        self._delegate.attach_probe(probe)

    def detach_probe(self, probe) -> None:
        """Detach a previously attached observer."""
        if self._delegate is not None:
            self._delegate.detach_probe(probe)
            return
        if probe not in self._cycle_probes:
            raise ValueError(f"probe {probe!r} is not attached")
        self._cycle_probes.remove(probe)
        if overrides_hook(probe, "on_detach"):
            probe.on_detach(self)

    # ------------------------------------------------------------------ run

    def run(self, max_cycles: Optional[int] = None) -> PipelineStats:
        """Run to the committed ``halt``; returns the statistics."""
        if self._delegate is not None:
            stats = self._delegate.run(max_cycles)
            self.cycle = self._delegate.cycle
            self.halted = self._delegate.halted
            return stats
        self._started = True
        limit = max_cycles if max_cycles is not None \
            else self.config.max_cycles
        if self._cycle_probes:
            self._run_probed(limit)
        else:
            self._run(limit, False)
        return self.stats

    def step(self) -> None:
        """Advance the machine by one cycle."""
        if self._delegate is not None:
            self._delegate.step()
            self.cycle = self._delegate.cycle
            self.halted = self._delegate.halted
            return
        self._started = True
        self._run(0, True)
        for probe in self._cycle_probes:
            probe.on_cycle(self)

    def _run_probed(self, limit: int) -> None:
        """``run()`` with native cycle probes: the object core's loop.

        Each :meth:`step` leaves the counters flushed to ``stats``, so
        the probes read the same end-of-cycle values as on the object
        core.
        """
        stats = self.stats
        stall_guard = 0
        while not self.halted:
            if self.cycle >= limit:
                raise SimulationTimeout(
                    f"no halt after {self.cycle} cycles "
                    f"({stats.committed} committed)")
            before = stats.committed
            self.step()
            if stats.committed == before:
                stall_guard += 1
                if stall_guard > 200_000:
                    head = (self._slot_repr(self._rob[0]) if self._rob
                            else None)
                    raise SimulationTimeout(
                        f"pipeline stalled for {stall_guard} cycles at "
                        f"cycle {self.cycle} (rob head: {head},"
                        f" state: {self.controller.state})")
            else:
                stall_guard = 0

    def architectural_registers(self) -> List:
        """Committed register values (for oracle comparison)."""
        if self._delegate is not None:
            return self._delegate.architectural_registers()
        return self.regfile.as_list()

    # ------------------------------------------------------------- hot loop

    def _run(self, limit: int, single: bool) -> None:
        # localise everything the per-cycle path touches
        config = self.config
        stats = self.stats
        img = self._img
        s_insts = img.insts
        s_ops = img.ops
        s_flags = img.flags
        s_ctrl = img.ctrl
        s_fu = img.fu
        s_lat = img.lat
        s_busy = img.busy
        s_src0 = img.src0
        s_src1 = img.src1
        s_nsrc = img.nsrc
        s_ea = img.ea_imm
        s_target = img.target
        s_dest = img.dest
        s_memsize = img.memsize
        s_pcs = img.pcs
        s_bucket = img.bucket
        s_exec = img.exec_fn
        s_br = img.br_fn
        s_ld = img.ld_fn
        s_st = img.st_fn
        text_base = img.text_base
        n_insts = img.count

        d_idx = self._d_idx
        d_seq = self._d_seq
        d_packed = self._d_packed
        d_pc = self._d_pc
        d_pred_taken = self._d_pred_taken
        d_pred_target = self._d_pred_target
        d_actual_taken = self._d_actual_taken
        d_actual_target = self._d_actual_target
        d_bpred = self._d_bpred
        d_issued = self._d_issued
        d_done = self._d_done
        d_committed = self._d_committed
        d_squashed = self._d_squashed
        d_from_reuse = self._d_from_reuse
        d_predecoded = self._d_predecoded
        d_value = self._d_value
        d_store_value = self._d_store_value
        d_waiters = self._d_waiters
        d_rename_snap = self._d_rename_snap
        d_ras_snap = self._d_ras_snap
        d_s1ref = self._d_s1ref
        d_mem_addr = self._d_mem_addr
        d_mem_size = self._d_mem_size
        d_session = self._d_session

        e_idx = self._e_idx
        e_dslot = self._e_dslot
        e_dseq = self._e_dseq
        e_pending = self._e_pending
        e_ready = self._e_ready
        e_class = self._e_class
        e_istate = self._e_istate
        e_inq = self._e_inq
        e_buf = self._e_buf
        e_a = self._e_a
        e_b = self._e_b
        e_rtaken = self._e_rtaken
        e_rtarget = self._e_rtarget

        dfree = self._dfree
        efree = self._efree
        rename_t = self._rename_table
        rob = self._rob
        lsq = self._lsq
        sq = self._sq
        fq = self._fq
        decoded = self._decoded
        iq_set = self._iq_set
        ready_heap = self._ready_heap
        inflight = self._inflight
        pend_ld = self._pending_loads
        pend_st = self._pending_stores
        fu_free = self._fu_free

        heappush = heapq.heappush
        heappop = heapq.heappop
        regv = self.regfile.values
        mem = self.mem_image
        mem_pages = mem._pages
        # Inlined MRU-hit fast paths for the TLBs and L1s: a hit in way 0
        # needs no LRU reorder, so it reduces to two list reads; anything
        # else takes the full model call.  Hit/access counters for the
        # fast path accumulate in locals and flush in the finally block.
        itlb = self.hierarchy.itlb
        itlb_sets = itlb._sets
        itlb_pb = itlb._page_bits
        itlb_mask = itlb._set_mask
        itlb_sb = itlb.num_sets.bit_length() - 1
        itlb_access = itlb.access
        il1c = self.hierarchy.il1
        il1_sets = il1c._sets
        il1_ob = il1c._offset_bits
        il1_mask = il1c._set_mask
        il1_sb = il1c.num_sets.bit_length() - 1
        il1_access = il1c.access
        dtlb = self.hierarchy.dtlb
        dtlb_sets = dtlb._sets
        dtlb_pb = dtlb._page_bits
        dtlb_mask = dtlb._set_mask
        dtlb_sb = dtlb.num_sets.bit_length() - 1
        dtlb_access = dtlb.access
        dl1c = self.hierarchy.dl1
        dl1_sets = dl1c._sets
        dl1_ob = dl1c._offset_bits
        dl1_mask = dl1c._set_mask
        dl1_sb = dl1c.num_sets.bit_length() - 1
        dl1_access = dl1c.access
        dl1_hitlat = dl1c.hit_latency
        predict = self.predictor.predict
        pupdate = self.predictor.update
        psnapshot = self.predictor.snapshot_state
        lc = self._loop_cache
        lc_decoded = self._lc_decoded

        commit_width = config.commit_width
        issue_width = config.issue_width
        decode_width = config.decode_width
        fetch_width = config.fetch_width
        fetch_queue_size = config.fetch_queue_size
        decode_cap = 2 * decode_width
        rob_size = config.rob_size
        lsq_size = config.lsq_size
        iq_size = config.iq_size
        dcache_ports = config.dcache_ports
        il1_hit = config.il1.hit_latency
        ctl = self.controller
        on_decode = ctl.on_decode
        reuse_on = ctl.enabled
        slot_bits = self._slot_bits
        smask = self._smask
        FSH = _FSHIFT
        PMASK = _PMASK
        E = self._ecap.bit_length()
        emask = (1 << E) - 1

        ST_N = IQState.NORMAL
        ST_B = IQState.BUFFERING
        ST_R = IQState.REUSE

        cycle = self.cycle
        seq = self._seq
        stall_guard = 0
        before = 0

        # Hot-loop statistics accumulate in locals and flush to ``stats``
        # in the finally block below; rare paths (_recover, the shared
        # controller) update ``stats`` directly -- both are pure adds, so
        # the split is safe.
        n_cycles = 0
        n_cyc_normal = 0
        n_cyc_buffering = 0
        n_cyc_reuse = 0
        n_gated = 0
        n_comm = 0              # committed (== rob_reads)
        n_regw = 0
        n_dstore = 0
        n_br = 0
        n_condbr = 0
        n_resbus = 0
        n_wake = 0
        n_lsqsearch = 0
        n_blocked = 0
        n_fwd = 0
        n_dload = 0
        n_issued = 0
        n_regr = 0
        n_fu0 = 0
        n_fu1 = 0
        n_fu2 = 0
        n_fu3 = 0
        n_iqrem = 0
        n_iqins = 0
        n_reuse = 0             # reuse_supplied == iq_partial_updates
        n_rcomm = 0             # reuse_committed
        n_rtype = [0, 0, 0, 0, 0, 0, 0, 0]   # per REUSE_TYPE_BUCKETS index
        n_decoded = 0           # == lrl_reads
        n_predec = 0
        n_fetched = 0
        n_icache = 0
        n_fstall = 0
        n_btb = 0
        n_disp = 0              # dispatched (== rob_writes)
        n_renl = 0
        n_renw = 0
        n_lsqins = 0
        n_itlb0 = 0             # MRU-hit fast-path counts (hits==accesses)
        n_il10 = 0
        n_dtlb0 = 0
        n_dl10 = 0

        try:
            while True:
                if not single:
                    if self.halted:
                        break
                    if cycle >= limit:
                        raise SimulationTimeout(
                            f"no halt after {cycle} cycles "
                            f"({stats.committed + n_comm} committed)")
                    before = n_comm

                cycle += 1
                self.cycle = cycle
                n_cycles += 1
                dports = 0
                ctl.now = cycle
                state = ctl.state
                if state is ST_N:
                    n_cyc_normal += 1
                elif state is ST_B:
                    n_cyc_buffering += 1
                else:
                    n_cyc_reuse += 1
                if ctl.gated:
                    n_gated += 1

                # ---------------------------------------------------- commit
                budget = commit_width
                while budget:
                    if not rob:
                        break
                    ds = rob[0]
                    if not d_done[ds]:
                        break
                    idx = d_idx[ds]
                    f = s_flags[idx]
                    if f == 0:
                        # plain ALU/FP op: no store port, no LSQ release,
                        # no predictor update, cannot halt
                        rob.popleft()
                        d_committed[ds] = 1
                        n_comm += 1
                        if d_from_reuse[ds]:
                            n_rcomm += 1
                        dreg = s_dest[idx]
                        if dreg >= 0:
                            regv[dreg] = d_value[ds]
                            if rename_t[dreg] == d_packed[ds]:
                                rename_t[dreg] = -1
                            n_regw += 1
                        dfree.append(ds)
                        budget -= 1
                        continue
                    if f & F_STORE:
                        if dports >= dcache_ports:
                            break
                        dports += 1
                        addr = d_mem_addr[ds]
                        pg = addr >> dtlb_pb
                        ways = dtlb_sets[pg & dtlb_mask]
                        if ways and ways[0] == pg >> dtlb_sb:
                            n_dtlb0 += 1
                        else:
                            dtlb_access(addr)
                        line = addr >> dl1_ob
                        ways = dl1_sets[line & dl1_mask]
                        if ways and ways[0][0] == line >> dl1_sb:
                            n_dl10 += 1
                            ways[0][1] = True
                        else:
                            dl1_access(addr, is_write=True)
                        s_st[idx](mem, mem_pages, addr, d_store_value[ds])
                        n_dstore += 1
                    rob.popleft()
                    d_committed[ds] = 1
                    n_comm += 1
                    if d_from_reuse[ds]:
                        n_rcomm += 1
                    if f & F_MEM:
                        lsq.popleft()
                        if f & F_STORE:
                            sq.popleft()
                    dreg = s_dest[idx]
                    if dreg >= 0:
                        regv[dreg] = d_value[ds]
                        if rename_t[dreg] == d_packed[ds]:
                            rename_t[dreg] = -1
                        n_regw += 1
                    if f & F_CONTROL:
                        n_br += 1
                        if f & F_COND:
                            n_condbr += 1
                        pupdate(s_insts[idx], d_pc[ds], d_actual_taken[ds],
                                d_actual_target[ds],
                                direction_index=d_bpred[ds])
                    if f & F_HALT:
                        self.halted = True
                        break
                    dfree.append(ds)
                    budget -= 1
                if self.halted:
                    break

                # ------------------------------------------------- writeback
                climit = (cycle + 1) << FSH
                while inflight and inflight[0] < climit:
                    v = heappop(inflight)
                    wds = v & smask
                    if d_packed[wds] != (v & PMASK) or d_squashed[wds]:
                        continue
                    d_done[wds] = 1
                    n_resbus += 1
                    w = d_waiters[wds]
                    if w:
                        n_wake += 1
                        val = d_value[wds]
                        for es2, guard, pos in w:
                            if e_inq[es2] and e_dseq[es2] == guard:
                                ds2 = e_dslot[es2]
                                if not d_squashed[ds2]:
                                    p = e_pending[es2] - 1
                                    e_pending[es2] = p
                                    if pos:
                                        e_b[es2] = val
                                    else:
                                        e_a[es2] = val
                                    if (p == 0 and not d_issued[ds2]
                                            and not e_ready[es2]):
                                        e_ready[es2] = 1
                                        heappush(ready_heap,
                                                 (guard << E) | es2)
                        d_waiters[wds] = None
                    idx = d_idx[wds]
                    if s_flags[idx] & F_CONTROL:
                        at = d_actual_taken[wds]
                        if (at != d_pred_taken[wds]
                                or (at and d_actual_target[wds]
                                    != d_pred_target[wds])):
                            self._recover(wds)

                # ------------------------------------------------------- LSQ
                if pend_st:
                    still = []
                    for rec in pend_st:
                        ds = rec & smask
                        if d_packed[ds] != rec or d_squashed[ds]:
                            continue
                        ref = d_s1ref[ds]
                        ps = ref & smask
                        if d_packed[ps] != ref or d_committed[ps]:
                            d_store_value[ds] = regv[s_src1[d_idx[ds]]]
                            heappush(inflight, ((cycle + 1) << FSH) | rec)
                        elif d_done[ps]:
                            d_store_value[ds] = d_value[ps]
                            heappush(inflight, ((cycle + 1) << FSH) | rec)
                        else:
                            still.append(rec)
                    pend_st[:] = still
                if pend_ld:
                    still = []
                    for rec in pend_ld:
                        ds = rec & smask
                        if d_packed[ds] != rec or d_squashed[ds]:
                            continue
                        lseq = d_seq[ds]
                        load_start = d_mem_addr[ds]
                        load_end = load_start + d_mem_size[ds]
                        fwd = -1
                        blocked = False
                        for ms in sq:
                            if d_seq[ms] >= lseq:
                                break
                            saddr = d_mem_addr[ms]
                            if saddr < 0:
                                blocked = True
                                break
                            if (saddr < load_end
                                    and load_start < saddr + d_mem_size[ms]):
                                fwd = ms
                        n_lsqsearch += 1
                        if not blocked and fwd >= 0:
                            if not (d_mem_addr[fwd] == load_start
                                    and d_mem_size[fwd] == d_mem_size[ds]
                                    and d_done[fwd]):
                                blocked = True
                            else:
                                d_value[ds] = forwarded_value(
                                    s_ops[d_idx[ds]], d_store_value[fwd])
                                n_fwd += 1
                                heappush(inflight,
                                         ((cycle + 1) << FSH) | rec)
                                continue
                        if blocked:
                            n_blocked += 1
                            still.append(rec)
                            continue
                        if dports >= dcache_ports:
                            still.append(rec)
                            continue
                        dports += 1
                        addr = d_mem_addr[ds]
                        pg = addr >> dtlb_pb
                        ways = dtlb_sets[pg & dtlb_mask]
                        if ways and ways[0] == pg >> dtlb_sb:
                            n_dtlb0 += 1
                            latency = dl1_hitlat
                        else:
                            latency = dtlb_access(addr) + dl1_hitlat
                        line = addr >> dl1_ob
                        ways = dl1_sets[line & dl1_mask]
                        if ways and ways[0][0] == line >> dl1_sb:
                            n_dl10 += 1
                        else:
                            latency += (dl1_access(addr, is_write=False)
                                        - dl1_hitlat)
                        n_dload += 1
                        d_value[ds] = s_ld[d_idx[ds]](mem, mem_pages, addr)
                        heappush(inflight,
                                 ((cycle + latency) << FSH) | rec)
                    pend_ld[:] = still

                # ----------------------------------------------------- issue
                budget = issue_width
                retry = None
                while budget:
                    es = -1
                    while ready_heap:
                        v = heappop(ready_heap)
                        e = v & emask
                        if e_ready[e] and e_dseq[e] == v >> E:
                            e_ready[e] = 0
                            es = e
                            break
                    if es < 0:
                        break
                    ds = e_dslot[es]
                    idx = e_idx[es]
                    fuc = s_fu[idx]
                    if fuc != 4:
                        units = fu_free[fuc]
                        if units[0] <= cycle:
                            units[0] = cycle + s_busy[idx]
                        else:
                            for ui in range(1, len(units)):
                                if units[ui] <= cycle:
                                    units[ui] = cycle + s_busy[idx]
                                    break
                            else:
                                if retry is None:
                                    retry = [es]
                                else:
                                    retry.append(es)
                                continue
                    # -- execute
                    d_issued[ds] = 1
                    n_issued += 1
                    packed = d_packed[ds]
                    a = e_a[es]
                    b = e_b[es]
                    n_regr += s_nsrc[idx]
                    if fuc == 0:
                        n_fu0 += 1
                    elif fuc == 1:
                        n_fu1 += 1
                    elif fuc == 2:
                        n_fu2 += 1
                    elif fuc == 3:
                        n_fu3 += 1
                    f = s_flags[idx]
                    if f == 0:
                        d_value[ds] = s_exec[idx](a, b)
                        heappush(inflight,
                                 ((cycle + s_lat[idx]) << FSH) | packed)
                    elif f & F_LOAD:
                        d_mem_addr[ds] = (a + s_ea[idx]) & 0xFFFFFFFF
                        pend_ld.append(packed)
                    elif f & F_STORE:
                        d_mem_addr[ds] = (a + s_ea[idx]) & 0xFFFFFFFF
                        ref = d_s1ref[ds]
                        if ref < 0:
                            d_store_value[ds] = regv[s_src1[idx]]
                            heappush(inflight, ((cycle + 1) << FSH) | packed)
                        else:
                            ps = ref & smask
                            if d_packed[ps] != ref or d_committed[ps]:
                                d_store_value[ds] = regv[s_src1[idx]]
                                heappush(inflight,
                                         ((cycle + 1) << FSH) | packed)
                            elif d_done[ps]:
                                d_store_value[ds] = d_value[ps]
                                heappush(inflight,
                                         ((cycle + 1) << FSH) | packed)
                            else:
                                pend_st.append(packed)
                    elif f & F_CONTROL:
                        c = s_ctrl[idx]
                        if c == 0:
                            taken = s_br[idx](a, b)
                            d_actual_taken[ds] = taken
                            d_actual_target[ds] = (s_target[idx] if taken
                                                   else d_pc[ds] + 4)
                        elif c == 1:
                            d_actual_taken[ds] = True
                            d_actual_target[ds] = s_target[idx]
                        elif c == 2:
                            d_actual_taken[ds] = True
                            d_actual_target[ds] = s_target[idx]
                            d_value[ds] = d_pc[ds] + 4
                        elif c == 3:
                            d_actual_taken[ds] = True
                            d_actual_target[ds] = a
                        else:
                            d_actual_taken[ds] = True
                            d_actual_target[ds] = a
                            d_value[ds] = d_pc[ds] + 4
                        heappush(inflight,
                                 ((cycle + s_lat[idx]) << FSH) | packed)
                    else:           # NOP / HALT
                        heappush(inflight, ((cycle + 1) << FSH) | packed)
                    if e_class[es]:
                        e_istate[es] = 1
                    else:
                        e_inq[es] = 0
                        iq_set.discard(es)
                        n_iqrem += 1
                        if not e_buf[es]:
                            efree.append(es)
                    budget -= 1
                if retry:
                    for es in retry:
                        if not e_ready[es]:
                            e_ready[es] = 1
                            heappush(ready_heap, (e_dseq[es] << E) | es)

                # -------------------------------------------------- dispatch
                if reuse_on and ctl.state is ST_R and not decoded:
                    buffered = ctl.buffered
                    ptr = ctl.reuse_pointer
                    budget = decode_width
                    rob_n = len(rob)
                    lsq_n = len(lsq)
                    while budget:
                        if not buffered:
                            break
                        es = buffered[ptr]
                        if not e_istate[es]:
                            break
                        idx = e_idx[es]
                        f = s_flags[idx]
                        if rob_n >= rob_size:
                            break
                        if f & F_MEM and lsq_n >= lsq_size:
                            break
                        seq += 1
                        ds = dfree.pop()
                        d_idx[ds] = idx
                        d_seq[ds] = seq
                        d_packed[ds] = (seq << slot_bits) | ds
                        d_pc[ds] = s_pcs[idx]
                        d_issued[ds] = 0
                        d_done[ds] = 0
                        d_committed[ds] = 0
                        d_squashed[ds] = 0
                        d_from_reuse[ds] = 1
                        d_waiters[ds] = None
                        d_session[ds] = -1
                        if f & F_CONTROL:
                            d_pred_taken[ds] = e_rtaken[es]
                            d_pred_target[ds] = e_rtarget[es]
                            d_bpred[ds] = -1
                            d_ras_snap[ds] = None
                        elif f & F_STORE:
                            d_mem_addr[ds] = -1
                        e_dslot[es] = ds
                        e_dseq[es] = seq
                        e_istate[es] = 0
                        e_ready[es] = 0
                        # -- rename + allocate (inline)
                        n_disp += 1
                        pending = 0
                        nsrc = s_nsrc[idx]
                        if nsrc:
                            n_renl += 1
                            src = s_src0[idx]
                            ref = rename_t[src]
                            if ref < 0:
                                e_a[es] = regv[src]
                            else:
                                ps = ref & smask
                                if d_packed[ps] != ref or d_committed[ps]:
                                    e_a[es] = regv[src]
                                elif d_done[ps]:
                                    e_a[es] = d_value[ps]
                                else:
                                    pending = 1
                                    w = d_waiters[ps]
                                    if w is None:
                                        d_waiters[ps] = [(es, seq, 0)]
                                    else:
                                        w.append((es, seq, 0))
                            if nsrc > 1:
                                n_renl += 1
                                src = s_src1[idx]
                                ref = rename_t[src]
                                if f & F_STORE:
                                    d_s1ref[ds] = ref
                                elif ref < 0:
                                    e_b[es] = regv[src]
                                else:
                                    ps = ref & smask
                                    if (d_packed[ps] != ref
                                            or d_committed[ps]):
                                        e_b[es] = regv[src]
                                    elif d_done[ps]:
                                        e_b[es] = d_value[ps]
                                    else:
                                        pending += 1
                                        w = d_waiters[ps]
                                        if w is None:
                                            d_waiters[ps] = [(es, seq, 1)]
                                        else:
                                            w.append((es, seq, 1))
                        dreg = s_dest[idx]
                        if dreg >= 0:
                            rename_t[dreg] = d_packed[ds]
                            n_renw += 1
                        if f & F_CONTROL:
                            d_rename_snap[ds] = rename_t[:]
                            d_ras_snap[ds] = psnapshot()
                        if f & F_MEM:
                            d_mem_size[ds] = s_memsize[idx]
                            lsq.append(ds)
                            lsq_n += 1
                            n_lsqins += 1
                            if f & F_STORE:
                                sq.append(ds)
                        rob.append(ds)
                        rob_n += 1
                        e_pending[es] = pending
                        if pending == 0:
                            e_ready[es] = 1
                            heappush(ready_heap, (seq << E) | es)
                        ptr += 1
                        if ptr >= len(buffered):
                            ptr = ctl.reuse_wrap()
                        n_reuse += 1
                        n_rtype[s_bucket[idx]] += 1
                        budget -= 1
                    ctl.reuse_pointer = ptr
                    ctl.session_supplied += decode_width - budget
                elif decoded:
                    budget = decode_width
                    rob_n = len(rob)
                    lsq_n = len(lsq)
                    iq_n = len(iq_set)
                    while budget and decoded:
                        ds = decoded[0]
                        idx = d_idx[ds]
                        f = s_flags[idx]
                        if rob_n >= rob_size:
                            break
                        if f & F_MEM and lsq_n >= lsq_size:
                            break
                        if iq_n >= iq_size:
                            if reuse_on:
                                ctl.on_dispatch_iq_full(d_session[ds])
                            break
                        decoded.popleft()
                        es = efree.pop()
                        myseq = d_seq[ds]
                        e_idx[es] = idx
                        e_dslot[es] = ds
                        e_dseq[es] = myseq
                        e_ready[es] = 0
                        e_class[es] = 0
                        e_istate[es] = 0
                        e_buf[es] = 0
                        # -- rename + allocate (inline)
                        n_disp += 1
                        pending = 0
                        nsrc = s_nsrc[idx]
                        if nsrc:
                            n_renl += 1
                            src = s_src0[idx]
                            ref = rename_t[src]
                            if ref < 0:
                                e_a[es] = regv[src]
                            else:
                                ps = ref & smask
                                if d_packed[ps] != ref or d_committed[ps]:
                                    e_a[es] = regv[src]
                                elif d_done[ps]:
                                    e_a[es] = d_value[ps]
                                else:
                                    pending = 1
                                    w = d_waiters[ps]
                                    if w is None:
                                        d_waiters[ps] = [(es, myseq, 0)]
                                    else:
                                        w.append((es, myseq, 0))
                            if nsrc > 1:
                                n_renl += 1
                                src = s_src1[idx]
                                ref = rename_t[src]
                                if f & F_STORE:
                                    d_s1ref[ds] = ref
                                elif ref < 0:
                                    e_b[es] = regv[src]
                                else:
                                    ps = ref & smask
                                    if (d_packed[ps] != ref
                                            or d_committed[ps]):
                                        e_b[es] = regv[src]
                                    elif d_done[ps]:
                                        e_b[es] = d_value[ps]
                                    else:
                                        pending += 1
                                        w = d_waiters[ps]
                                        if w is None:
                                            d_waiters[ps] = \
                                                [(es, myseq, 1)]
                                        else:
                                            w.append((es, myseq, 1))
                        dreg = s_dest[idx]
                        if dreg >= 0:
                            rename_t[dreg] = d_packed[ds]
                            n_renw += 1
                        if f & F_CONTROL:
                            d_rename_snap[ds] = rename_t[:]
                        if f & F_MEM:
                            d_mem_size[ds] = s_memsize[idx]
                            lsq.append(ds)
                            lsq_n += 1
                            n_lsqins += 1
                            if f & F_STORE:
                                sq.append(ds)
                        rob.append(ds)
                        rob_n += 1
                        e_pending[es] = pending
                        e_inq[es] = 1
                        iq_set.add(es)
                        iq_n += 1
                        if pending == 0:
                            e_ready[es] = 1
                            heappush(ready_heap, (myseq << E) | es)
                        n_iqins += 1
                        if reuse_on:
                            if ctl.state is ST_B:
                                ctl.on_dispatch(d_session[ds], myseq, es)
                            if ctl.state is ST_R:
                                # tail dispatched, Code Reuse engaged: the
                                # queued front-end is the next iteration,
                                # which the reuse pointer supplies instead
                                while fq:
                                    dfree.append(fq.popleft())
                                while decoded:
                                    dfree.append(decoded.popleft())
                                break
                        budget -= 1

                # ---------------------------------------------------- decode
                if not ctl.gated and fq:
                    budget = decode_width
                    dec_n = len(decoded)
                    while budget and fq and dec_n < decode_cap:
                        ds = fq.popleft()
                        n_decoded += 1
                        if d_predecoded[ds]:
                            n_predec += 1
                        decoded.append(ds)
                        dec_n += 1
                        if reuse_on:
                            idx = d_idx[ds]
                            st = ctl.state
                            if st is ST_B or (st is ST_N and (
                                    ctl.observing
                                    or (s_flags[idx] & F_BACKWARD
                                        and d_pred_taken[ds]))):
                                session = on_decode(
                                    d_pc[ds], s_flags[idx], s_target[idx],
                                    d_pred_taken[ds], d_pred_target[ds],
                                    d_seq[ds])
                                if session is not None:
                                    d_session[ds] = session
                                if ctl.gated:
                                    break
                        budget -= 1

                # ----------------------------------------------------- fetch
                if not ctl.gated:
                    if self._stall_until > cycle:
                        n_fstall += 1
                    else:
                        fq_n = len(fq)
                        if fq_n < fetch_queue_size:
                            pc = self._pc
                            off = pc - text_base
                            if off < 0 or off & 3 or off >> 2 >= n_insts:
                                n_fstall += 1
                            else:
                                supplying = (lc is not None
                                             and lc.can_supply(pc))
                                stalled = False
                                if not supplying:
                                    pg = pc >> itlb_pb
                                    ways = itlb_sets[pg & itlb_mask]
                                    if ways and ways[0] == pg >> itlb_sb:
                                        n_itlb0 += 1
                                        latency = il1_hit
                                    else:
                                        latency = (itlb_access(pc)
                                                   + il1_hit)
                                    line = pc >> il1_ob
                                    ways = il1_sets[line & il1_mask]
                                    if (ways
                                            and ways[0][0]
                                            == line >> il1_sb):
                                        n_il10 += 1
                                    else:
                                        latency += (il1_access(
                                            pc, is_write=False) - il1_hit)
                                    n_icache += 1
                                    if latency > il1_hit:
                                        self._stall_until = cycle + latency
                                        stalled = True
                                if not stalled:
                                    pd = (1 if supplying and lc_decoded
                                          else 0)
                                    fetched = 0
                                    while (fetched < fetch_width
                                           and fq_n < fetch_queue_size):
                                        if (supplying
                                                and not lc.can_supply(pc)):
                                            break
                                        if (off < 0 or off & 3
                                                or off >> 2 >= n_insts):
                                            break
                                        idx = off >> 2
                                        if lc is not None and not supplying:
                                            lc.capture(pc)
                                        seq += 1
                                        ds = dfree.pop()
                                        d_idx[ds] = idx
                                        d_seq[ds] = seq
                                        d_packed[ds] = \
                                            (seq << slot_bits) | ds
                                        d_pc[ds] = pc
                                        d_issued[ds] = 0
                                        d_done[ds] = 0
                                        d_committed[ds] = 0
                                        d_squashed[ds] = 0
                                        d_from_reuse[ds] = 0
                                        d_predecoded[ds] = pd
                                        d_waiters[ds] = None
                                        d_session[ds] = -1
                                        n_fetched += 1
                                        fetched += 1
                                        f = s_flags[idx]
                                        if f & F_CONTROL:
                                            pred = predict(s_insts[idx], pc)
                                            d_pred_taken[ds] = pred.taken
                                            d_pred_target[ds] = pred.target
                                            d_bpred[ds] = \
                                                pred.direction_index
                                            d_ras_snap[ds] = psnapshot()
                                            fq.append(ds)
                                            fq_n += 1
                                            if pred.taken:
                                                if (lc is not None
                                                        and f
                                                        & F_LC_TRIGGER):
                                                    lc.on_backward_branch(
                                                        pc, s_target[idx])
                                                pc = pred.target
                                            else:
                                                pc += 4
                                            off = pc - text_base
                                            if pred.btb_bubble:
                                                n_btb += 1
                                                self._stall_until = \
                                                    cycle + 2
                                                break
                                        else:
                                            if f & F_STORE:
                                                d_mem_addr[ds] = -1
                                            fq.append(ds)
                                            fq_n += 1
                                            pc += 4
                                            off += 4
                                    self._pc = pc
                                    if supplying and fetched:
                                        lc.note_supply(fetched)

                if single:
                    break
                if n_comm == before:
                    stall_guard += 1
                    if stall_guard > 200_000:
                        head = self._rob[0] if self._rob else None
                        head_repr = (self._slot_repr(head)
                                     if head is not None else "None")
                        raise SimulationTimeout(
                            f"pipeline stalled for {stall_guard} cycles at "
                            f"cycle {self.cycle} (rob head: {head_repr},"
                            f" state: {ctl.state})")
                else:
                    stall_guard = 0
        finally:
            self._seq = seq
            stats.cycles += n_cycles
            stats.cycles_normal += n_cyc_normal
            stats.cycles_buffering += n_cyc_buffering
            stats.cycles_reuse += n_cyc_reuse
            stats.gated_cycles += n_gated
            stats.committed += n_comm
            stats.rob_reads += n_comm
            stats.regfile_writes += n_regw
            stats.dcache_store_accesses += n_dstore
            stats.branches_committed += n_br
            stats.cond_branches_committed += n_condbr
            stats.resultbus_writes += n_resbus
            stats.iq_wakeups += n_wake
            stats.lsq_searches += n_lsqsearch
            stats.load_blocked_cycles += n_blocked
            stats.lsq_forwards += n_fwd
            stats.dcache_load_accesses += n_dload
            stats.issued += n_issued
            stats.regfile_reads += n_regr
            stats.fu_int_ops += n_fu0
            stats.fu_mult_ops += n_fu1
            stats.fu_fp_ops += n_fu2
            stats.fu_fpmult_ops += n_fu3
            stats.iq_removes += n_iqrem
            stats.iq_inserts += n_iqins
            stats.reuse_supplied += n_reuse
            stats.iq_partial_updates += n_reuse
            stats.lrl_reads += n_reuse
            stats.reuse_committed += n_rcomm
            stats.reuse_supplied_ialu += n_rtype[0]
            stats.reuse_supplied_imul += n_rtype[1]
            stats.reuse_supplied_fpalu += n_rtype[2]
            stats.reuse_supplied_fpmul += n_rtype[3]
            stats.reuse_supplied_load += n_rtype[4]
            stats.reuse_supplied_store += n_rtype[5]
            stats.reuse_supplied_control += n_rtype[6]
            stats.reuse_supplied_other += n_rtype[7]
            stats.decoded += n_decoded
            stats.predecoded_supplied += n_predec
            stats.fetched += n_fetched
            stats.icache_fetch_cycles += n_icache
            stats.fetch_stall_cycles += n_fstall
            stats.btb_bubbles += n_btb
            stats.dispatched += n_disp
            stats.rob_writes += n_disp
            stats.rename_lookups += n_renl
            stats.rename_writes += n_renw
            stats.lsq_inserts += n_lsqins
            itlb.accesses += n_itlb0
            itlb.hits += n_itlb0
            il1c.accesses += n_il10
            il1c.hits += n_il10
            dtlb.accesses += n_dtlb0
            dtlb.hits += n_dtlb0
            dl1c.accesses += n_dl10
            dl1c.hits += n_dl10

    def _slot_repr(self, ds: int) -> str:
        """The object core's ``DynInst.__repr__`` rebuilt from columns."""
        flags = "D"                      # ROB residents are dispatched
        if self._d_issued[ds]:
            flags += "I"
        if self._d_done[ds]:
            flags += "X"
        if self._d_committed[ds]:
            flags += "C"
        if self._d_squashed[ds]:
            flags += "S"
        if self._d_from_reuse[ds]:
            flags += "R"
        inst = self._img.insts[self._d_idx[ds]]
        return f"<DynInst #{self._d_seq[ds]} {inst.disassemble()} [{flags}]>"

    # ----------------------------------------------------------- rare paths

    def _recover(self, ds: int) -> None:
        """Branch misprediction recovery (also the reuse exit path)."""
        stats = self.stats
        d_seq = self._d_seq
        d_squashed = self._d_squashed
        dfree = self._dfree
        stats.mispredicts += 1
        at = self._d_actual_taken[ds]
        target = self._d_actual_target[ds] if at else self._d_pc[ds] + 4
        bseq = d_seq[ds]
        rob = self._rob
        count = 0
        while rob and d_seq[rob[-1]] > bseq:
            vs = rob.pop()
            d_squashed[vs] = 1
            dfree.append(vs)
            count += 1
        stats.squashed += count
        e_dseq = self._e_dseq
        e_buf = self._e_buf
        iq_set = self._iq_set
        victims = [es for es in iq_set if e_dseq[es] > bseq]
        for es in victims:
            self._e_inq[es] = 0
            self._e_ready[es] = 0
            iq_set.discard(es)
            if not e_buf[es]:
                self._efree.append(es)
        stats.iq_removes += len(victims)
        lsq = self._lsq
        while lsq and d_seq[lsq[-1]] > bseq:
            lsq.pop()
        sq = self._sq
        while sq and d_seq[sq[-1]] > bseq:
            sq.pop()
        self._rename_table[:] = self._d_rename_snap[ds]
        self.predictor.restore_state(
            self._d_ras_snap[ds],
            actual_taken=(at if self._img.flags[self._d_idx[ds]] & F_COND
                          else None))
        decoded = self._decoded
        while decoded:
            dfree.append(decoded.popleft())
        fq = self._fq
        while fq:
            dfree.append(fq.popleft())
        self._pc = target
        self._stall_until = self.cycle + 1
        if self.controller.enabled:
            self.controller.on_mispredict()

    # ------------------------------------------------ controller callbacks
    # The shared ReuseController holds entry slots as opaque handles and
    # reaches their bits only through these (see core.controller's
    # EntryHost; the object core's IssueQueue implements the same four).

    @property
    def free_entries(self) -> int:
        """Unoccupied issue-queue entries."""
        return self.config.iq_size - len(self._iq_set)

    def mark_buffered(self, es: int):
        """Classify entry slot ``es`` as buffered (see EntryHost)."""
        self._e_class[es] = 1
        self._e_istate[es] = 0
        self._e_buf[es] = 1
        idx = self._e_idx[es]
        if self._img.flags[idx] & F_CONTROL:
            ds = self._e_dslot[es]
            self._e_rtaken[es] = self._d_pred_taken[ds]
            self._e_rtarget[es] = self._d_pred_target[ds]
        return self._img.insts[idx]

    def count_resident(self, entries: List[int]) -> int:
        """How many of the entry slots still occupy the queue."""
        e_inq = self._e_inq
        return sum([e_inq[es] for es in entries])

    def release_buffered(self, entries: List[int]) -> int:
        """Revoke buffered entry slots (see EntryHost); a slot squashed
        out of the queue earlier is only now returned to the free list."""
        e_inq = self._e_inq
        e_istate = self._e_istate
        e_buf = self._e_buf
        efree = self._efree
        removed = 0
        for es in entries:
            e_buf[es] = 0
            if not e_inq[es]:
                efree.append(es)
            elif e_istate[es]:
                e_inq[es] = 0
                self._e_ready[es] = 0
                self._iq_set.discard(es)
                efree.append(es)
                removed += 1
            else:
                self._e_class[es] = 0
        return removed
